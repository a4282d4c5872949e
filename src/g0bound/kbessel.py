"""Modified Bessel K in the order direction at a fixed argument.

The profile z -> K_{sqrt(z)}(a) is even in sqrt(z), equals K_0(a) > 0 at the
origin, and vanishes exactly where K_{i*tau}(a) = 0, so its zeros sit on the
negative axis at -tau_n^2.  Values, the log-derivative, its small-x moments
and the zero scan are all integrals of e^{-a cosh u}-type integrands over
the window that _window returns.  These are entire and decay doubly
exponentially, so one rule serves them all: the equispaced trapezoidal rule,
which converges geometrically there (Trefethen & Weideman, SIAM Review 56,
2014).  Values re-centre the exponent at its interior maximum
u* = asinh(nu/a), so every sample has modulus at most one, and halve the
step until two sums agree; the cosine integral K_{i*tau}(a) on the negative
axis, whose sign changes are the order-zeros, is summed on nodes sized by
its alias bound instead.  The log-derivative finds the windows of all its
rows with one vectorised search (_window_rows) and sums the rows in blocks
of _ROW_BLOCK, so a whole profile costs a handful of array passes and its
temporaries stay near 1 MB.  Nothing is cached between calls.  KOrderModel's
zero tail is a low-side estimate (see its docstring).
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    EvaluationOverflowError,
    InsufficientZerosError,
)
from .numerics import find_root_bracketed
from .zeros import FunctionModel, ZeroSequence

# Exponent drop (relative to the centred maximum) at which the integration
# window is truncated; e^-55 is far below every tolerance used here.
_WINDOW_DROP = 55.0
_OVERFLOW_EXPONENT = 700.0
_WINDOW_GROWTH = 1.25

# trapezoid intervals of the first sum and the most the halving may reach,
# more for one value, whose integrand oscillates ever faster near z < 0
_TRAP_START = 32
_TRAP_CAP = 4096
_TRAP_CAP_ONE = 65536
# log-derivative rows per trapezoid sum: each sum halves until its slowest
# row settles, and 256 rows of up to 129 nodes keep its temporaries near 1 MB
_ROW_BLOCK = 256

_SCAN_STEP = 0.05
_FLOOR_ABS = 1e-13
_FLOOR_RUN = 8
_TAU_CAP = 200.0
# least gap from the top tau of a cosine sum to its nodes' alias frequency
_ALIAS_GAP = 32.0

# Crossover below which the log-derivative switches to the even-moment
# series in x = nu^2 (the centred ratio is 0/0 as nu -> 0).
_SMALL_X = 1e-4
# The series' O(x^3) truncation grows as a shrinks: at x = 1e-4 it is off
# by 1.6e-13 (a = 0.1), 4.4e-13 (a = 0.05) and 1.4e-12 (a = 0.02).
_LOGDERIV_A_MIN = 0.1

_HEAD_MAX = 32


def _require_a(a: float) -> float:
    a = float(a)
    if not (a > 0.0) or not math.isfinite(a):
        raise DomainError(f"argument a must be positive and finite, got {a}")
    return a


def _cosh_m1(v):
    """cosh(v) - 1 without cancellation near v = 0."""
    s = np.sinh(0.5 * v)
    return 2.0 * s * s


def _sinh_mv(v):
    """sinh(v) - v, switching to the Taylor head for small |v|."""
    v = np.asarray(v, dtype=float)
    small = np.abs(v) < 1e-3
    v3 = v * v * v
    taylor = v3 / 6.0 * (1.0 + v * v / 20.0)
    with np.errstate(over="ignore"):
        direct = np.sinh(v) - v
    return np.where(small, taylor, direct)


def _window(w_re: float, nu_re: float):
    """Window [vm, vp] around the centred maximum outside of which the real
    part of the exponent has dropped by at least _WINDOW_DROP.

    On each side the drop is d(h) = Re w (cosh h - 1) +- Re nu (sinh h - h)
    at |v| = h, at most (Re w + Re nu)(cosh h - 1) since Re nu >= 0.  So
    the search starts where that bound reaches _WINDOW_DROP, inside the
    window, and grows h by _WINDOW_GROWTH until d(h) >= _WINDOW_DROP: each
    side ends at most that factor beyond the exact half-width.  A side that
    has not closed before cosh overflows raises ConvergenceError.
    """
    h0 = math.acosh(1.0 + _WINDOW_DROP / max(w_re + nu_re, 1e-2))

    def one_side(sign: float) -> float:
        h = h0
        while h < _OVERFLOW_EXPONENT:
            cosh_m1 = 2.0 * math.sinh(0.5 * h) ** 2
            if w_re * cosh_m1 + sign * nu_re * (math.sinh(h) - h) >= _WINDOW_DROP:
                return sign * h
            h *= _WINDOW_GROWTH
        raise ConvergenceError("integration window search did not close")

    return one_side(-1.0), one_side(1.0)


def _window_rows(w_re: np.ndarray, nu_re: np.ndarray):
    """_window for arrays of rows: the same geometric search from the same
    start, each step growing h by _WINDOW_GROWTH on the rows whose side is
    still open.  Returns the arrays (vm, vp)."""
    h0 = np.arccosh(1.0 + _WINDOW_DROP / np.maximum(w_re + nu_re, 1e-2))
    sides = []
    for sign in (-1.0, 1.0):
        h = h0.copy()
        todo = np.arange(h.size)
        while todo.size:
            ht = h[todo]
            if ht.max() >= _OVERFLOW_EXPONENT:
                raise ConvergenceError("integration window search did not close")
            drop = (w_re[todo] * (2.0 * np.sinh(0.5 * ht) ** 2)
                    + sign * nu_re[todo] * (np.sinh(ht) - ht))
            todo = todo[drop < _WINDOW_DROP]
            h[todo] *= _WINDOW_GROWTH
        sides.append(sign * h)
    return sides[0], sides[1]


def _trapezoid(f, lo, hi, rel_tol: float, finish=lambda m: m,
               cap: int = _TRAP_CAP):
    """Trapezoidal rule for f over [lo, hi] (arrays: one interval per row).

    f maps nodes (node axis last) to values, optionally stacked along a
    leading axis; `finish` maps those integrals to the returned value.  The
    step is halved, reusing every node, until the last two returned values
    agree within rel_tol * |value| everywhere; past `cap` intervals
    ConvergenceError is raised.
    """
    lo = np.asarray(lo, dtype=float)[..., None]
    width = np.asarray(hi, dtype=float)[..., None] - lo
    n = _TRAP_START
    vals = f(lo + width * np.linspace(0.0, 1.0, n + 1))
    total = vals.sum(axis=-1) - 0.5 * (vals[..., 0] + vals[..., -1])
    est = finish(total * (width[..., 0] / n))
    while n < cap:
        total = total + f(lo + width * ((np.arange(n) + 0.5) / n)).sum(axis=-1)
        n *= 2
        new = finish(total * (width[..., 0] / n))
        if np.all(np.abs(new - est) <= rel_tol * np.abs(new)):
            return new
        est = new
    raise ConvergenceError(f"trapezoidal rule not settled at {cap} "
                           f"intervals (rel_tol {rel_tol:g})")


def _cos_nodes(a: float, tau_top: float):
    """Trapezoid nodes u on [0, vp] of _window(a, 0) and weighted samples f
    of e^{-a cosh u}: K_{i*tau}(a) = cos(tau u) @ f for 0 <= tau <= tau_top.

    The sum at step h is sum_k K_{i(tau - 2 pi k/h)}(a) (Poisson), so two
    halvings can agree on a shared alias; instead n keeps every alias
    _ALIAS_GAP past tau_top + a, where K_{is}(a) ~ e^{-pi s/2} is negligible.
    """
    vp = _window(a, 0.0)[1]
    n = int(math.ceil(vp * (tau_top + a + _ALIAS_GAP) / (2.0 * math.pi)))
    u = np.linspace(0.0, vp, n + 1)
    f = np.exp(-a * np.cosh(u)) * (vp / n)
    f[[0, -1]] *= 0.5
    return u, f


def _cos_form(a: float, tau: float) -> float:
    """K_{i*tau}(a), real and sign-indefinite, on the nodes of _cos_nodes."""
    u, f = _cos_nodes(a, tau)
    return float(np.cos(tau * u) @ f)


def k_order_eval(a: float, z) -> complex:
    """K_{sqrt(z)}(a) with the principal square root.

    0.5 e^{nu u* - w} times the trapezoid of e^{-w (cosh v - 1) -
    nu (sinh v - v)} over _window(Re w, Re nu), nu = sqrt(z), w = a cosh u*,
    settled to 1e-11 relative (ConvergenceError if it cannot be, as just off
    the negative axis).  Real z >= 0 returns a float; on the negative axis
    the real cosine form is used, which changes sign at each order-zero.
    """
    a = _require_a(a)
    zc = complex(z)
    if zc.imag == 0.0 and zc.real < 0.0:
        return _cos_form(a, math.sqrt(-zc.real))
    if zc.imag < 0.0:
        # conjugate symmetry keeps Re(sqrt z) >= 0 branch handling in one place
        return complex(k_order_eval(a, zc.conjugate())).conjugate()
    nu = cmath.sqrt(zc)
    ustar = cmath.asinh(nu / a)
    w = a * cmath.cosh(ustar)
    pref = nu * ustar - w
    if pref.real > _OVERFLOW_EXPONENT:
        raise EvaluationOverflowError(
            f"K_order evaluation overflows at |z|={abs(zc):g} (exponent "
            f"{pref.real:.1f})"
        )
    vm, vp = _window(w.real, nu.real)

    def g(v):
        return np.exp(-w * _cosh_m1(v) - nu * _sinh_mv(v))

    val = 0.5 * cmath.exp(pref) * complex(_trapezoid(g, vm, vp, rel_tol=1e-11,
                                                      cap=_TRAP_CAP_ONE))
    return float(val.real) if zc.imag == 0.0 else val


# ----------------------------------------------------------------------------
# log-derivative on the positive axis
# ----------------------------------------------------------------------------


def _axis_moments(a: float):
    """Normalised even moments m_k = <u^k> of e^{-a cosh u}, k = 2, 4, 6,
    for the small-x series: the trapezoid on [0, vp] of _window(a, 0) (the
    weight is even), each moment settled to 1e-13 relative."""
    vp = _window(a, 0.0)[1]

    def g(u):
        return np.exp(-a * _cosh_m1(u)) * (u * u) ** np.arange(4)[:, None]

    return tuple(_trapezoid(g, 0.0, vp, rel_tol=1e-13,
                            finish=lambda m: m[1:] / m[0]))


def _logderiv_small(a: float, x: np.ndarray) -> np.ndarray:
    # d/dx log K_{sqrt x}(a) = (m2 + x m4/6 + x^2 m6/120) /
    #                          (2 (1 + x m2/2 + x^2 m4/24)) + O(x^3)
    m2, m4, m6 = _axis_moments(a)
    num = m2 + x * (m4 / 6.0) + x * x * (m6 / 120.0)
    den = 1.0 + x * (m2 / 2.0) + x * x * (m4 / 24.0)
    return 0.5 * num / den


def _logderiv_grid(a: float, x: np.ndarray) -> np.ndarray:
    # d/dx log K = (u* + <v>) / (2 nu) with <v> the centred first moment;
    # one trapezoid row per x, each on its own window, _ROW_BLOCK rows per sum
    nu = np.sqrt(x)
    w = np.hypot(a, nu)          # a*cosh(u*) for the real branch
    ustar = np.arcsinh(nu / a)
    vm, vp = _window_rows(w, nu)
    out = np.empty_like(x)
    for start in range(0, x.size, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        wb, nb, ub = w[rows], nu[rows], ustar[rows]

        def g(v):
            with np.errstate(under="ignore"):
                e = np.exp(-wb[:, None] * _cosh_m1(v) - nb[:, None] * _sinh_mv(v))
            return np.stack([e, v * e])

        out[rows] = _trapezoid(g, vm[rows], vp[rows], rel_tol=1e-13,
                               finish=lambda m: (ub + m[1] / m[0]) / (2.0 * nb))
    return out


def k_order_log_derivative(a: float, x):
    """d/dx log K_{sqrt(x)}(a) for x >= 0; accepts arrays.

    Equals (1/(2 sqrt x)) d_nu log K_nu(a) at nu = sqrt x: positive and
    decreasing from the full reciprocal zero sum, returned at x = 0.  Above
    x = 1e-4 it is the centred first moment, one trapezoid row per x on its
    own window, 256 rows per sum; below, an even-moment series whose
    truncation grows as a shrinks, so a >= 0.1 is required (DomainError
    below).
    """
    a = _require_a(a)
    if a < _LOGDERIV_A_MIN:
        raise DomainError(
            f"k_order_log_derivative needs a >= {_LOGDERIV_A_MIN:g}, got {a:g}: "
            f"below that its small-x series misses 1e-12")
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    if flat.size and not np.all(flat >= 0.0):
        raise DomainError("log-derivative needs x >= 0")
    out = np.empty_like(flat)
    small = flat <= _SMALL_X
    if small.any():
        out[small] = _logderiv_small(a, flat[small])
    big = ~small
    if big.any():
        out[big] = _logderiv_grid(a, flat[big])
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


# ----------------------------------------------------------------------------
# order-zeros
# ----------------------------------------------------------------------------


def k_order_zeros(a: float, count: int) -> np.ndarray:
    """Squared order-zeros tau_n^2 of K_{i*tau}(a), smallest first.

    Scans tau -> K_{i*tau}(a) at step 0.05 in blocks of 8 for sign changes,
    on the nodes of _cos_nodes for the block's top tau, and refines each
    block's brackets in one bracketed solve.  Scanning stops once the
    integral sits below 1e-13 for several steps (the noise floor); fewer
    than `count` zeros by then raise InsufficientZerosError.
    """
    a = _require_a(a)
    count = int(count)
    if not 1 <= count <= _HEAD_MAX:
        raise DomainError(f"count must be in [1, {_HEAD_MAX}], got {count}")

    taus: list[float] = []
    block = 8.0
    t_lo = 0.0
    floor_run = 0
    prev_tau = prev_val = None
    while t_lo < _TAU_CAP and len(taus) < count and floor_run < _FLOOR_RUN:
        t_hi = t_lo + block
        u, f = _cos_nodes(a, t_hi)

        def integral(tau):
            return np.cos(np.multiply.outer(tau, u)) @ f

        grid = np.arange(t_lo + _SCAN_STEP, t_hi + 0.5 * _SCAN_STEP, _SCAN_STEP)
        lo: list[float] = []
        hi: list[float] = []
        for tau, val in zip(grid, integral(grid)):
            if abs(val) < _FLOOR_ABS:
                floor_run += 1
                if floor_run >= _FLOOR_RUN:
                    break
            else:
                floor_run = 0
            if prev_val is not None and prev_val * val < 0.0:
                lo.append(prev_tau)
                hi.append(tau)
                if len(taus) + len(hi) >= count:
                    break
            prev_tau, prev_val = tau, val
        hi_arr = np.array(hi)
        taus.extend(find_root_bracketed(integral, np.array(lo), hi_arr,
                                        tol=1e-13 * np.maximum(1.0, hi_arr)))
        t_lo = t_hi

    if len(taus) < count:
        raise InsufficientZerosError(
            f"only {len(taus)} order-zeros of K at a={a:g} rise above the "
            f"1e-13 scanning floor; {count} requested"
        )
    out = np.asarray(taus[:count], dtype=float)
    if np.any(np.diff(out) <= 0.0) or out[0] <= 0.0:
        raise ConvergenceError("order-zero scan produced a non-increasing list")
    return out * out


class KOrderModel(FunctionModel):
    """z -> K_{sqrt(z)}(a) / K_0(a) at fixed a > 0.

    Order 1/2 with negative zeros at -tau_n^2.  Only a short zero head is
    computable (see k_order_zeros), so the tail is a quadratic c*n^2 matched
    to the last head zero and `zeros_authoritative` is False.  The matched
    tail over-estimates the zeros past the head, so zero-sum routes
    under-count the true reciprocal sums: phi, the zero sums and the
    intermediate exponent are low estimates, not upper bounds, and serve
    neither as certificates nor as identity cross-checks.
    """

    order_rho0 = 0.5
    zeros_authoritative = False
    domain_radius_max = 1e4
    identity_rhos = (0.55, 0.75, 0.9)

    def __init__(self, a: float, head_count: int = 8):
        self.a = _require_a(a)
        head_count = int(head_count)
        if not 1 <= head_count <= _HEAD_MAX:
            raise DomainError(
                f"head_count must be in [1, {_HEAD_MAX}], got {head_count}")
        self.head_count = head_count
        head = k_order_zeros(self.a, head_count)
        matched_c = head[-1] / head_count ** 2
        self._zeros = ZeroSequence(head, 2.0, matched_c, order_rho0=0.5)
        self.f0 = k_order_eval(self.a, 0.0)
        self.model_id = f"k-order(a={self.a:g})"

    def value_ratio(self, z):
        val = k_order_eval(self.a, z)
        return val / self.f0

    def log_derivative(self, x):
        return k_order_log_derivative(self.a, x)

    def zeros(self) -> ZeroSequence:
        return self._zeros
