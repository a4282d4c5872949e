"""Modified Bessel K in the order direction at a fixed argument.

The profile z -> K_{sqrt(z)}(a) is even in sqrt(z), equals K_0(a) > 0 at the
origin, and vanishes exactly where K_{i*tau}(a) = 0, so its zeros sit on the
negative axis at -tau_n^2.  Evaluation uses the real-line integral
representation with the exponent re-centred at its interior maximum
u* = asinh(nu/a); after the shift every sample of the integrand has modulus
at most one, which keeps the quadrature stable for orders up to the domain
cap.  The integration window comes from a short geometric search in floats
and the small-x log-derivative series takes its moments from the fixed
s-grid of the quadrature branch, so nothing is cached between calls; that
grid holds 1e-12 only for a >= 0.1, and the log-derivative rejects smaller
a.  Order-zeros are located by scanning the oscillatory cosine integral
K_{i*tau}(a) in blocks for sign changes and refining each block's brackets
in one vectorised bracketed solve.

The zero list obtainable this way is short (the integral drops below the
scanning noise floor near tau ~ 19), so KOrderModel marks its zero data as
non-authoritative and models the tail by a quadratic matched to the last
computed zero.  The matched tail over-estimates the true zeros beyond the
head, so phi, the zero sums and every quantity built from model.zeros()
(the intermediate exponent among them) are low estimates of the true
values, not certified upper bounds.
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
from .numerics import _NODES, _WK_FULL, find_root_bracketed, quad_adaptive
from .zeros import FunctionModel, ZeroSequence

# Exponent drop (relative to the centred maximum) at which the integration
# window is truncated; e^-55 is far below the 1e-11 quadrature target.
_WINDOW_DROP = 55.0
_OVERFLOW_EXPONENT = 700.0
_WINDOW_GROWTH = 1.25

_SCAN_STEP = 0.05
_FLOOR_ABS = 1e-13
_FLOOR_RUN = 8
_TAU_CAP = 200.0

# Crossover below which the log-derivative switches to the even-moment
# series in x = nu^2 (the centred ratio is 0/0 as nu -> 0).
_SMALL_X = 1e-4
# Smallest a at which the fixed s-grid keeps the log-derivative within 1e-12
# of mpmath on both sides of the seam (2.3e-13 at a = 0.08, 2.8e-11 at 0.05).
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


def _cos_form(a: float, tau: float) -> float:
    """K_{i*tau}(a) as the truncated cosine integral (real, sign-indefinite)."""
    u_max = math.acosh(1.0 + (_WINDOW_DROP + 10.0) / a)

    def g(u):
        return np.exp(-a * np.cosh(u)) * np.cos(tau * u)

    res = quad_adaptive(g, 0.0, u_max, rel_tol=1e-12, abs_tol=1e-15)
    return float(res.value)


def k_order_eval(a: float, z) -> complex:
    """K_{sqrt(z)}(a) with the principal square root.

    Real non-negative z returns a float.  On the negative axis the order is
    purely imaginary and the cosine form is used; the result is real there
    too and changes sign across each order-zero.
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

    i0 = quad_adaptive(g, vm, vp, rel_tol=1e-11).value
    val = 0.5 * cmath.exp(pref) * i0
    if zc.imag == 0.0:
        return float(val.real)
    return val


# ----------------------------------------------------------------------------
# log-derivative on the positive axis
# ----------------------------------------------------------------------------

# Fixed scaled grid for the vectorised log-derivative: after v = s/sqrt(w)
# the centred exponent is close to -s^2/2, so a composite grid on a fixed
# s-interval covers every order at once.
_S_HALF = 16.0
_S_PANELS = 32


def _build_s_grid():
    edges = np.linspace(-_S_HALF, _S_HALF, _S_PANELS + 1)
    nodes = []
    weights = []
    for i in range(_S_PANELS):
        half = 0.5 * (edges[i + 1] - edges[i])
        mid = 0.5 * (edges[i] + edges[i + 1])
        nodes.append(mid + half * _NODES)
        weights.append(half * _WK_FULL)
    return np.concatenate(nodes), np.concatenate(weights)


_S_NODES, _S_WEIGHTS = _build_s_grid()


def _axis_moments(a: float):
    """Normalised even moments m_k = <u^k> of e^{-a cosh u}, k = 2, 4, 6;
    drive the small-x series for the log-derivative.

    Dot products on the fixed s-grid at u = s/sqrt(a), where the weight is
    close to e^{-s^2/2}.  Measured against adaptive quadrature they agree
    to 1e-15 for a in [0.15, 30] and to 3e-15 at a = 100.  Below a ~ 0.2
    the weight flattens into a plateau of half-width log(2/a) with a sharp
    edge that the grid resolves ever worse: 1.3e-14 at a = 0.1, 5.5e-11 at
    a = 0.05 (3.6e-12 in the log-derivative at x = 0), 1.5e-10 at a = 0.02.
    """
    u = _S_NODES / math.sqrt(a)
    with np.errstate(over="ignore", under="ignore"):
        g = np.exp(-a * _cosh_m1(u)) * _S_WEIGHTS
    u2 = u * u
    m0 = g.sum()
    return (g @ u2) / m0, (g @ u2 ** 2) / m0, (g @ u2 ** 3) / m0


def _logderiv_small(a: float, x: np.ndarray) -> np.ndarray:
    # d/dx log K_{sqrt x}(a) = (m2 + x m4/6 + x^2 m6/120) /
    #                          (2 (1 + x m2/2 + x^2 m4/24)) + O(x^3)
    m2, m4, m6 = _axis_moments(a)
    num = m2 + x * (m4 / 6.0) + x * x * (m6 / 120.0)
    den = 1.0 + x * (m2 / 2.0) + x * x * (m4 / 24.0)
    return 0.5 * num / den


def _logderiv_grid(a: float, x: np.ndarray) -> np.ndarray:
    nu = np.sqrt(x)
    w = np.hypot(a, nu)          # a*cosh(u*) for the real branch
    ustar = np.arcsinh(nu / a)
    sigma = 1.0 / np.sqrt(w)
    v = sigma[:, None] * _S_NODES[None, :]
    expo = -w[:, None] * _cosh_m1(v) - nu[:, None] * _sinh_mv(v)
    with np.errstate(under="ignore"):
        g = np.exp(expo)
    i0 = g @ _S_WEIGHTS
    i1 = (v * g) @ _S_WEIGHTS
    return (ustar + i1 / i0) / (2.0 * nu)


def k_order_log_derivative(a: float, x):
    """d/dx log K_{sqrt(x)}(a) for x >= 0; accepts arrays.

    Equals (1/(2 sqrt x)) * d_nu log K_nu(a) at nu = sqrt x, computed from
    the centred first moment of the integral representation; strictly
    positive, decreasing from the full reciprocal zero sum, whose value is
    returned at x = 0.  Requires a >= 0.1 (DomainError below).
    """
    a = _require_a(a)
    if a < _LOGDERIV_A_MIN:
        raise DomainError(
            f"k_order_log_derivative needs a >= {_LOGDERIV_A_MIN:g}, got {a:g}: "
            f"the fixed s-grid holds 1e-12 only from a = {_LOGDERIV_A_MIN:g} up")
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    flat = np.atleast_1d(arr).astype(float).ravel()
    if flat.size and not np.all(flat >= 0.0):
        raise DomainError("log-derivative needs x >= 0")
    out = np.empty_like(flat)
    small = flat <= _SMALL_X
    if small.any():
        out[small] = _logderiv_small(a, flat[small])
    big = ~small
    if big.any():
        out[big] = _logderiv_grid(a, flat[big])
    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


# ----------------------------------------------------------------------------
# order-zeros
# ----------------------------------------------------------------------------


def k_order_zeros(a: float, count: int, scan_step: float = _SCAN_STEP) -> np.ndarray:
    """Squared order-zeros tau_n^2 of K_{i*tau}(a), smallest first.

    Scans tau |-> K_{i*tau}(a) on a uniform grid, block by block, for sign
    changes and refines each block's brackets in one bracketed solve; the
    e^{pi*tau/2}-scaled magnitude stays of order one over the scan range, so
    sign changes are never masked by underflow.
    Scanning stops once the unscaled integral sits below 1e-13 for several
    consecutive steps (quadrature noise floor); if fewer than `count` zeros
    were found by then an insufficient-zeros error is raised.
    """
    a = _require_a(a)
    count = int(count)
    if not 1 <= count <= _HEAD_MAX:
        raise DomainError(f"count must be in [1, {_HEAD_MAX}], got {count}")
    scan_step = float(scan_step)
    if not 0.0 < scan_step <= 0.1:
        raise DomainError("scan step must lie in (0, 0.1]")

    u_max = math.acosh(1.0 + (_WINDOW_DROP + 10.0) / a)
    taus: list[float] = []
    block = 8.0
    t_lo = 0.0
    floor_run = 0
    prev_tau = None
    prev_val = None
    while t_lo < _TAU_CAP and len(taus) < count and floor_run < _FLOOR_RUN:
        t_hi = t_lo + block
        panels = max(24, int(math.ceil(u_max * t_hi / 3.0)))
        edges = np.linspace(0.0, u_max, panels + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        halves = 0.5 * np.diff(edges)
        u = (mids[:, None] + halves[:, None] * _NODES[None, :]).ravel()
        f = (np.exp(-a * np.cosh(u)).reshape(panels, -1)
             * (halves[:, None] * _WK_FULL[None, :])).ravel()

        def integral(tau):
            return np.cos(np.multiply.outer(tau, u)) @ f

        grid = np.arange(t_lo + scan_step, t_hi + 0.5 * scan_step, scan_step)
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
