"""Foundation numerics: gamma, adaptive quadrature for singular/improper
integrals, paired Gauss-Legendre/Gauss-Lobatto rules on doubling panels,
bracketed root finding, and bounded scalar minimization.

All integrators call the integrand with a numpy array of abscissae and expect
an array of the same length back (real or complex).  Everything here is a pure
function of its inputs and safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DivergenceError, DomainError, BracketError

__all__ = [
    "QuadratureResult",
    "gamma",
    "quad_adaptive",
    "integrate_singular",
    "doubling_panel_rules",
    "find_root_bracketed",
    "minimize_scalar",
]


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with an error estimate and the number of
    integrand evaluations spent obtaining it."""

    value: complex | float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not math.isfinite(self.error_estimate) or self.error_estimate < 0:
            raise ValueError("error_estimate must be finite and >= 0")
        if self.evaluations < 1:
            raise ValueError("evaluations must be >= 1")


# --------------------------------------------------------------------------
# gamma
# --------------------------------------------------------------------------

GAMMA_MAX_ARG = 50.0


def gamma(x: float) -> float:
    """Euler gamma function on (0, 50].

    Relative error <= 1e-12 on the supported range; arguments outside it
    raise DomainError.
    """
    if not (0.0 < x <= GAMMA_MAX_ARG):
        raise DomainError(f"gamma requires 0 < x <= {GAMMA_MAX_ARG:g}, got {x!r}")
    return math.gamma(x)


# --------------------------------------------------------------------------
# Gauss-Kronrod 21-point panel rule
# --------------------------------------------------------------------------
# Abscissae/weights of the 21-point Kronrod extension of 10-point Gauss
# (positive half; the rule is symmetric).

_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
])

_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077958109831074,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])

_WG = np.array([
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])

# full 21-node layout on [-1, 1]
_NODES = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
_WK_FULL = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
# Gauss nodes are the odd-indexed Kronrod nodes
_WG_FULL = np.zeros_like(_WK_FULL)
_WG_FULL[1:-1:2] = np.concatenate([_WG, _WG[::-1]])


def _gk_panel(fun, a: float, b: float):
    """One 21-point Kronrod panel on [a, b].

    Returns (value, error_estimate, n_evals).  The error estimate follows the
    usual quadpack recipe based on the Gauss/Kronrod difference scaled by the
    integrand's deviation from its mean.
    """
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + h * _NODES
    y = np.asarray(fun(x))
    resk = h * np.sum(_WK_FULL * y)
    resg = h * np.sum(_WG_FULL * y)
    mean = resk / (b - a)
    resasc = h * np.sum(_WK_FULL * np.abs(y - mean))
    err = abs(resk - resg)
    if resasc != 0.0 and err != 0.0:
        err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    return resk, err, x.size


def quad_adaptive(fun, a: float, b: float, rel_tol: float = 1e-10,
                  abs_tol: float = 0.0, budget: int = 100_000) -> QuadratureResult:
    """Globally adaptive Gauss-Kronrod integration of `fun` over [a, b].

    The worst-error panel is bisected until the summed panel errors drop below
    max(abs_tol, rel_tol * |integral|).  `fun` receives an ndarray of nodes.
    """
    if not (b > a):
        raise DomainError("quad_adaptive needs a < b")
    val, err, n = _gk_panel(fun, a, b)
    panels = [(err, a, b, val)]
    total_evals = n
    while True:
        total_val = sum(p[3] for p in panels)
        total_err = sum(p[0] for p in panels)
        tol = max(abs_tol, rel_tol * abs(total_val))
        if total_err <= tol or total_err == 0.0:
            return QuadratureResult(total_val, float(total_err), total_evals)
        if total_evals >= budget:
            raise ConvergenceError(
                f"quad_adaptive: error {total_err:.3e} > tolerance {tol:.3e} "
                f"after {total_evals} evaluations")
        # split the worst panel
        panels.sort(key=lambda p: p[0])
        _, pa, pb, _ = panels.pop()
        pm = 0.5 * (pa + pb)
        if pm <= pa or pm >= pb:
            # interval at floating-point resolution; accept what we have
            return QuadratureResult(total_val, float(total_err), total_evals)
        v1, e1, n1 = _gk_panel(fun, pa, pm)
        v2, e2, n2 = _gk_panel(fun, pm, pb)
        panels.append((e1, pa, pm, v1))
        panels.append((e2, pm, pb, v2))
        total_evals += n1 + n2


# --------------------------------------------------------------------------
# Gauss-Legendre / Gauss-Lobatto pair on doubling panels
# --------------------------------------------------------------------------
# Positive halves of the 8-point Gauss-Legendre and 9-point Gauss-Lobatto
# rules on [-1, 1] (both symmetric).  Both are exact to degree 15; their
# errors are c f^(16)(xi) with c > 0 for Legendre and c < 0 for Lobatto, so
# on a completely monotone integrand the first underestimates and the second
# overestimates (Davis & Rabinowitz, Methods of Numerical Integration, 1984).

_GL8_X = np.array([
    0.1834346424956498049394761,
    0.5255324099163289858177390,
    0.7966664774136267395915539,
    0.9602898564975362316835609,
])
_GL8_W = np.array([
    0.3626837833783619829651505,
    0.3137066458778872873379622,
    0.2223810344533744705443560,
    0.1012285362903762591525313,
])
_LOB9_X = np.array([
    0.0,
    0.3631174638261781587107521,
    0.6771862795107377534458854,
    0.8997579954114601573123452,
    1.0,
])
_LOB9_W = np.array([
    0.3715192743764172335600907,
    0.3464285109730463451151315,
    0.2745387125001617352807056,
    0.1654953615608055250463397,
    0.0277777777777777777777778,
])

_GL8_NODES = np.concatenate([-_GL8_X[::-1], _GL8_X])
_GL8_WEIGHTS = np.concatenate([_GL8_W[::-1], _GL8_W])
_LOB9_NODES = np.concatenate([-_LOB9_X[:0:-1], _LOB9_X])
_LOB9_WEIGHTS = np.concatenate([_LOB9_W[:0:-1], _LOB9_W])


def doubling_panel_rules(lo: float, panels: int):
    """Composite 8-point Legendre and 9-point Lobatto rules on the doubling
    panels [lo 2^k, lo 2^(k+1)], k < panels.

    Returns (x_legendre, w_legendre, x_lobatto, w_lobatto).  A Lobatto node
    shared by two neighbouring panels appears once, with the two weights
    summed; x_lobatto[0] = lo.  On a completely monotone integrand the
    Legendre sum is a lower and the Lobatto sum an upper bound on its
    integral over [lo, lo 2^panels].
    """
    if not (lo > 0.0) or panels < 1:
        raise DomainError("doubling_panel_rules needs lo > 0 and panels >= 1")
    edges = lo * 2.0 ** np.arange(panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    w_edges = np.zeros(panels + 1)
    w_edges[:-1] += half[:, 0] * _LOB9_WEIGHTS[0]
    w_edges[1:] += half[:, 0] * _LOB9_WEIGHTS[-1]
    x_lob = np.concatenate([edges, (mid + half * _LOB9_NODES[1:-1]).ravel()])
    w_lob = np.concatenate([w_edges, (half * _LOB9_WEIGHTS[1:-1]).ravel()])
    return ((mid + half * _GL8_NODES).ravel(), (half * _GL8_WEIGHTS).ravel(),
            x_lob, w_lob)


# --------------------------------------------------------------------------
# singular/improper integrals  int_0^inf g(x) x^(-rho) dx
# --------------------------------------------------------------------------

TAIL_PANEL_CUTOFF = 1e-14   # a tail panel counts as negligible below this
_TAIL_SMALL_RUN = 3         # ...once this many consecutive panels qualify
_TAIL_U_MAX = 700.0         # log-space cap: beyond x ~ e^700 we extrapolate


def integrate_singular(g, rho: float, split: float = 1.0,
                       rel_tol: float = 1e-8, budget: int = 1_000_000) -> QuadratureResult:
    """Compute int_0^inf g(x) x^(-rho) dx for 0 < rho < 1.

    The head [0, split] absorbs the endpoint singularity exactly through the
    substitution x = u^(1/(1-rho)), which turns x^(-rho) dx into du/(1-rho).
    The tail uses x = split*e^u on unit panels in u, stopping once three
    consecutive panels each contribute less than 1e-14 of the accumulated
    value.  Raises ConvergenceError when the evaluation budget is exhausted
    or the truncated remainder cannot be certified, DivergenceError when tail
    contributions fail to decay.
    """
    if not (0.0 < rho < 1.0):
        raise DomainError(f"integrate_singular requires 0 < rho < 1, got {rho!r}")
    if split <= 0.0:
        raise DomainError("split must be positive")

    c = 1.0 - rho
    inv_c = 1.0 / c

    def head_integrand(u):
        u = np.asarray(u, dtype=float)
        return np.asarray(g(u ** inv_c)) * inv_c

    head = quad_adaptive(head_integrand, 0.0, split ** c,
                         rel_tol=rel_tol, abs_tol=0.0,
                         budget=max(10_000, int(budget * 0.4)))
    acc = head.value
    acc_err = head.error_estimate
    evals = head.evaluations

    log_split = math.log(split)

    def tail_integrand(u):
        u = np.asarray(u, dtype=float)
        x = np.exp(log_split + u)
        return np.asarray(g(x)) * np.exp((1.0 - rho) * (log_split + u))

    u0 = 0.0
    small_run = 0
    prev_mag = None
    nondecay_run = 0
    last_mag = 0.0
    while True:
        u1 = u0 + 1.0
        panel_tol = max(1e-300, 0.02 * rel_tol * abs(acc))
        panel = quad_adaptive(tail_integrand, u0, u1,
                              rel_tol=rel_tol, abs_tol=panel_tol,
                              budget=20_000)
        acc = acc + panel.value
        acc_err += panel.error_estimate
        evals += panel.evaluations
        mag = abs(panel.value)

        if prev_mag is not None and mag >= prev_mag > 0.0:
            nondecay_run += 1
        else:
            nondecay_run = 0
        if nondecay_run >= 60:
            raise DivergenceError(
                "integrate_singular: tail contributions fail to decay "
                f"(u = {u1:.1f}, last panel {mag:.3e})")
        prev_mag = mag
        last_mag = mag

        if mag < TAIL_PANEL_CUTOFF * abs(acc):
            small_run += 1
            if small_run >= _TAIL_SMALL_RUN:
                break
        else:
            small_run = 0

        if evals > budget:
            raise ConvergenceError(
                f"integrate_singular: evaluation budget {budget} exhausted at u = {u1:.1f}")
        if u1 >= _TAIL_U_MAX:
            break
        u0 = u1

    if small_run < _TAIL_SMALL_RUN:
        # stopped at the log-space cap: estimate what was cut off
        remainder = _geometric_remainder(tail_integrand, u1, last_mag)
        if remainder > max(1e-300, 10.0 * rel_tol * abs(acc)):
            raise ConvergenceError(
                "integrate_singular: tail decays too slowly to certify "
                f"(estimated remainder {remainder:.3e} vs value {abs(acc):.3e})")
        acc_err += remainder

    return QuadratureResult(acc, float(acc_err), evals)


def _geometric_remainder(tail_integrand, u_end: float, last_mag: float) -> float:
    """Estimate the remaining tail past u_end assuming geometric panel decay."""
    if last_mag == 0.0:
        return 0.0
    probe, _, _ = _gk_panel(tail_integrand, u_end, u_end + 1.0)
    pm = abs(probe)
    if pm == 0.0:
        return 0.0
    ratio = pm / last_mag
    if ratio >= 0.9999:
        return math.inf
    return pm / (1.0 - ratio)


# --------------------------------------------------------------------------
# root finding and scalar minimization
# --------------------------------------------------------------------------

_ROOT_MAX_ITER = 200


def find_root_bracketed(h, lo: float, hi: float, tol: float = 1e-12) -> float:
    """Find a root of h in [lo, hi] given h(lo)*h(hi) < 0.

    Safeguarded hybrid of secant steps and bisection; the returned point has
    |h| no larger than at either end of the final bracket.  Raises
    BracketError for an invalid bracket, ConvergenceError after 200 steps.
    """
    if not (hi > lo):
        raise BracketError(f"invalid bracket [{lo!r}, {hi!r}]")
    a, b = float(lo), float(hi)
    fa, fb = h(a), h(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise BracketError(
            f"h has the same sign at both ends of [{lo:g}, {hi:g}]")

    for _ in range(_ROOT_MAX_ITER):
        width = b - a
        if width <= tol:
            break
        # secant proposal from the bracket endpoints, safeguarded to the
        # interior; fall back to bisection when it degenerates
        denom = fb - fa
        if denom != 0.0:
            x = b - fb * width / denom
        else:
            x = a + 0.5 * width
        margin = 0.01 * width
        if not (a + margin < x < b - margin):
            x = a + 0.5 * width
        fx = h(x)
        if fx == 0.0:
            return x
        if math.copysign(1.0, fx) == math.copysign(1.0, fa):
            a, fa = x, fx
        else:
            b, fb = x, fx
    else:
        raise ConvergenceError(
            f"find_root_bracketed: no convergence after {_ROOT_MAX_ITER} iterations "
            f"(bracket width {b - a:.3e} > tol {tol:.3e})")

    mid = a + 0.5 * (b - a)
    candidates = [(abs(fa), a), (abs(fb), b), (abs(h(mid)), mid)]
    return min(candidates)[1]


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_SCAN_NODES = 64


def minimize_scalar(h, lo: float, hi: float, tol: float = 1e-8):
    """Minimize h on [lo, hi]: a 64-node uniform scan picks the best cell,
    golden-section search refines it.  Returns (argmin, min).

    Non-finite values of h are treated as +inf.  Raises DomainError if
    lo >= hi.
    """
    if not (hi > lo):
        raise DomainError(f"minimize_scalar needs lo < hi, got [{lo!r}, {hi!r}]")

    def safe(x):
        v = h(x)
        return v if (v is not None and math.isfinite(v)) else math.inf

    xs = np.linspace(lo, hi, _SCAN_NODES)
    vals = [safe(float(x)) for x in xs]
    k = int(np.argmin(vals))
    best_x, best_v = float(xs[k]), vals[k]

    a = float(xs[max(0, k - 1)])
    b = float(xs[min(_SCAN_NODES - 1, k + 1)])

    # golden-section refinement on the bracketing cell
    x1 = b - _INV_GOLDEN * (b - a)
    x2 = a + _INV_GOLDEN * (b - a)
    f1, f2 = safe(x1), safe(x2)
    for _ in range(200):
        if (b - a) <= tol:
            break
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INV_GOLDEN * (b - a)
            f1 = safe(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INV_GOLDEN * (b - a)
            f2 = safe(x2)
    for x, v in ((x1, f1), (x2, f2), (0.5 * (a + b), safe(0.5 * (a + b)))):
        if v < best_v:
            best_x, best_v = x, v
    return best_x, best_v
