"""Foundation numerics: gamma, globally adaptive Gauss-Kronrod quadrature,
the singular integral int_0^inf g(x) x^(-rho) dx as two finite-range
quadratures (the head [0, 1] in u = x^(1-rho), the tail [1, inf) in s = 1/x),
paired Gauss-Legendre/Gauss-Lobatto rules on doubling panels, bracketed root
finding over arrays of brackets, and bounded scalar minimization.

All integrators call the integrand with a numpy array of abscissae and expect
an array of the same length back (real or complex); so does the root finder,
which refines all its brackets together, one call per round.  A
quadrature or root solve that cannot reach its tolerance raises
ConvergenceError; none returns an unconverged value.  Everything here is a
pure function of its inputs and safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BracketError, ConvergenceError, DomainError,
                     EvaluationOverflowError)

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
    integrand's deviation from its mean.  A non-finite integrand value or
    panel sum raises ConvergenceError rather than a floating-point warning.
    """
    h = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + h * _NODES
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        y = np.asarray(fun(x))
        resk = h * np.sum(_WK_FULL * y)
        resg = h * np.sum(_WG_FULL * y)
        mean = resk / (b - a)
        resasc = h * np.sum(_WK_FULL * np.abs(y - mean))
        err = abs(resk - resg)
        if resasc != 0.0 and err != 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
    if not (np.isfinite(resk) and math.isfinite(err)):
        raise ConvergenceError(
            f"quad_adaptive: integrand not finite on [{a:.3e}, {b:.3e}]; "
            "the integral diverges or overflows there")
    return resk, err, x.size


def quad_adaptive(fun, a: float, b: float, rel_tol: float = 1e-10,
                  abs_tol: float = 0.0, budget: int = 100_000) -> QuadratureResult:
    """Globally adaptive Gauss-Kronrod integration of `fun` over [a, b].

    The worst-error panel is bisected until the summed panel errors drop below
    max(abs_tol, rel_tol * |integral|).  `fun` receives an ndarray of nodes.
    Raises ConvergenceError when the budget runs out, when the worst panel
    reaches floating-point resolution, or when the integrand is not finite.
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
            raise ConvergenceError(
                f"quad_adaptive: error {total_err:.3e} > tolerance {tol:.3e} "
                f"with the worst panel [{pa:.3e}, {pb:.3e}] at floating-point "
                "resolution")
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

_TINY = np.finfo(float).tiny


def integrate_singular(g, rho: float) -> QuadratureResult:
    """Compute int_0^inf g(x) x^(-rho) dx for 0 < rho < 1 as two integrals
    over [0, 1], each one quad_adaptive call at relative tolerance 1e-8.

    The head [0, 1] is taken in u = x^(1-rho), which turns x^(-rho) dx into
    du/(1-rho) and absorbs the endpoint singularity; the tail [1, inf) is
    taken in s = 1/x, where the integrand is g(1/s) s^(rho-2).  Gauss-Kronrod
    nodes are interior, so neither x = 0 nor s = 0 is evaluated.  An integral
    that diverges at either end raises ConvergenceError; a head node whose
    x = u^(1/(1-rho)) underflows below the smallest normal float raises
    EvaluationOverflowError instead of reaching g.
    """
    if not (0.0 < rho < 1.0):
        raise DomainError(f"integrate_singular requires 0 < rho < 1, got {rho!r}")
    inv_c = 1.0 / (1.0 - rho)

    def head(u):
        x = u ** inv_c
        if x[0] < _TINY:  # the nodes ascend
            raise EvaluationOverflowError(
                f"integrate_singular: x = u^(1/(1-rho)) underflows at "
                f"u = {u[0]:.3e} (rho = {rho!r}, x = {x[0]:.3e})")
        return np.asarray(g(x)) * inv_c

    lo = quad_adaptive(head, 0.0, 1.0, rel_tol=1e-8)
    hi = quad_adaptive(lambda s: np.asarray(g(1.0 / s)) * s ** (rho - 2.0),
                       0.0, 1.0, rel_tol=1e-8)
    return QuadratureResult(lo.value + hi.value,
                            lo.error_estimate + hi.error_estimate,
                            lo.evaluations + hi.evaluations)


# --------------------------------------------------------------------------
# root finding and scalar minimization
# --------------------------------------------------------------------------

_ROOT_MAX_ITER = 200


def find_root_bracketed(h, lo, hi, tol=1e-12):
    """Find a root of h in each bracket [lo, hi] with h(lo)*h(hi) < 0.

    lo, hi and tol broadcast together; h maps an array of abscissae to an
    array of values, and the roots come back in the broadcast shape.  The
    brackets refine together by regula falsi with the Illinois rule, one h
    call per round over those still wider than their tol; each root has |h|
    no larger than at either end of its final bracket.  Raises BracketError
    naming the first bracket with lo >= hi or no sign change, and
    ConvergenceError after 200 rounds.
    """
    lo, hi, tol = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                      np.asarray(hi, dtype=float),
                                      np.asarray(tol, dtype=float))
    shape, n = lo.shape, lo.size
    a, b, tol = lo.ravel(), hi.ravel(), tol.ravel()

    def reject(bad, why):
        if bad.any():
            k = int(np.argmax(bad))
            raise BracketError(f"{why}: bracket {k} [{a[k]:.17g}, {b[k]:.17g}]")

    reject(~(b > a), "lo >= hi")
    fa, fb = np.split(np.asarray(h(np.concatenate([a, b])), dtype=float), 2)
    reject(~(np.sign(fa) * np.sign(fb) <= 0.0), "h has the same sign at both ends")
    # an end where h vanishes is the root: collapse the bracket onto it
    a = np.where(fb == 0.0, b, a)
    b = np.where(fa == 0.0, a, b)
    out, ids = np.empty(n), np.arange(n)
    ga, gb = fa, fb           # end values as the Illinois rule scales them
    side = np.zeros(n)        # -1: the last round moved a, +1: moved b
    for _ in range(_ROOT_MAX_ITER):
        done = b - a <= tol
        out[ids[done]] = np.where(np.abs(fa[done]) <= np.abs(fb[done]),
                                  a[done], b[done])
        ids, a, b, fa, fb, ga, gb, side, tol = (
            v[~done] for v in (ids, a, b, fa, fb, ga, gb, side, tol))
        if not ids.size:
            return out.reshape(shape)
        # the false-position point, kept tol/2 inside the bracket so that an
        # end already within tol/2 of the root sends it across
        x = np.clip(b - gb * (b - a) / (gb - ga), a + 0.5 * tol, b - 0.5 * tol)
        fx = np.asarray(h(x), dtype=float)
        left = (fx < 0.0) == (fa < 0.0)   # x takes a's place
        ga = np.where(left, fx, np.where(side > 0.0, 0.5 * ga, ga))
        gb = np.where(left, np.where(side < 0.0, 0.5 * gb, gb), fx)
        side = np.where(left, -1.0, 1.0)
        a, fa = np.where(left, x, a), np.where(left, fx, fa)
        b, fb = np.where(left, b, x), np.where(left, fb, fx)
    k = int(np.argmax(b - a))
    raise ConvergenceError(
        f"find_root_bracketed: {ids.size} bracket(s) unconverged after "
        f"{_ROOT_MAX_ITER} rounds (widest {b[k] - a[k]:.3e} > tol {tol[k]:.3e})")


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
