"""Zero sequences of genus-0 entire functions with only negative zeros, and
every quantity derived directly from the zeros: the sums S(rho) = sum z_n^-rho,
the canonical product f(z)/f(0) = prod(1 + z/z_n), the auxiliary function
phi(t) = sum exp(-z_n t) with its weighted supremum.

A ZeroSequence stores an explicit head z_1 <= ... <= z_N plus a power-law tail
model z_n ~ c*(n + offset)^p for n > N.  All tail sums are evaluated by
Euler-Maclaurin-corrected integrals, so head lengths of a few hundred zeros
already reach ~1e-8 relative accuracy for the quantities above.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import gammaincc

from .errors import DivergenceError, DomainError, PoleZeroError
from .numerics import gamma, minimize_scalar

__all__ = [
    "ZeroSequence",
    "FunctionModel",
    "ZeroProductModel",
    "zero_sum",
    "zero_sum_detail",
    "product_eval",
    "phi",
    "phi_vec",
    "sup_weighted_phi",
    "model_from_zeros",
]

# terms with z_n*t exceeding the leading exponent by this much are below
# 1e-18 of the accumulated head sum and are dropped
_PHI_EXPONENT_WINDOW = 46.0


class ZeroSequence:
    """Positive zeros {z_n} of -f's argument: explicit head plus power-law tail.

    head           -- nondecreasing positive reals z_1..z_N
    tail_exponent  -- p > 1 with z_n ~ tail_coefficient * (n + tail_offset)^p
    tail_coefficient -- c > 0, or None for a head-only sequence (finite
                      products / polynomial case); tail sums are then zero
    tail_offset    -- shift delta in the tail model (default 0); e.g. the
                      squared Bessel zeros follow pi^2 (n + nu/2 - 1/4)^2
    tail_shift     -- additive constant in the tail model (default 0); the
                      squared Bessel zeros carry a (1 - 4 nu^2)/4 constant
                      on top of the pure power law
    order_rho0     -- order of the associated entire function, 1/p for a
                      power-law tail, 0 for head-only sequences

    Instances are immutable after construction (the only mutation is an
    internal memo of computed tail sums, which is value-idempotent).
    """

    def __init__(self, head: Sequence[float], tail_exponent: float,
                 tail_coefficient: float | None, order_rho0: float | None = None,
                 tail_offset: float = 0.0, tail_shift: float = 0.0):
        arr = np.array(head, dtype=float, copy=True)
        if arr.ndim != 1 or arr.size == 0:
            raise DomainError("head must be a non-empty 1-d sequence")
        if not np.all(arr > 0.0):
            raise DomainError("all head zeros must be positive")
        if np.any(np.diff(arr) < 0.0):
            raise DomainError("head zeros must be nondecreasing")
        if not (tail_exponent > 1.0):
            raise DomainError("tail_exponent must exceed 1 (genus 0)")
        if tail_coefficient is not None and not (tail_coefficient > 0.0):
            raise DomainError("tail_coefficient must be positive (or None)")

        if order_rho0 is None:
            order_rho0 = 0.0 if tail_coefficient is None else 1.0 / tail_exponent
        if tail_coefficient is not None:
            if abs(order_rho0 * tail_exponent - 1.0) > 1e-9:
                raise DomainError(
                    "order_rho0 must equal 1/tail_exponent (got "
                    f"{order_rho0!r} with p = {tail_exponent!r})")
        elif not (0.0 <= order_rho0 < 1.0):
            raise DomainError("order_rho0 must lie in [0, 1)")

        self.head = arr
        self.head.setflags(write=False)
        self.tail_exponent = float(tail_exponent)
        self.tail_coefficient = None if tail_coefficient is None else float(tail_coefficient)
        self.tail_offset = float(tail_offset)
        self.tail_shift = float(tail_shift)
        self.order_rho0 = float(order_rho0)
        self._power_memo: dict[float, tuple[float, float]] = {}
        self._moment_memo: dict[int, float] = {}
        if self.has_tail and self.model_zero(arr.size + 1) <= 0.0:
            raise DomainError("tail model must stay positive past the head")

    # -- basic structure ---------------------------------------------------

    @property
    def head_count(self) -> int:
        return int(self.head.size)

    @property
    def has_tail(self) -> bool:
        return self.tail_coefficient is not None

    def model_zero(self, n):
        """Tail-model value c*(n + offset)^p + shift (n may be an ndarray)."""
        if not self.has_tail:
            raise DomainError("head-only sequence has no tail model")
        pure = self.tail_coefficient * (
            np.asarray(n, dtype=float) + self.tail_offset) ** self.tail_exponent
        return pure + self.tail_shift

    def __repr__(self):
        tail = ("head-only" if not self.has_tail else
                f"~{self.tail_coefficient:.6g}*(n{self.tail_offset:+.3g})^{self.tail_exponent:g}")
        if self.has_tail and self.tail_shift != 0.0:
            tail += f"{self.tail_shift:+.3g}"
        return f"ZeroSequence(N={self.head_count}, {tail}, rho0={self.order_rho0:g})"

    # -- Euler-Maclaurin tail sums ----------------------------------------

    def tail_power_sum(self, rho: float) -> float:
        """sum_{n>N} z_n^-rho under the tail model, with EM endpoint terms."""
        return self.tail_power_sum_detail(rho)[0]

    def tail_power_sum_detail(self, rho: float) -> tuple[float, float]:
        if not self.has_tail:
            return 0.0, 0.0
        memo = self._power_memo.get(rho)
        if memo is not None:
            return memo
        p, c, delta = self.tail_exponent, self.tail_coefficient, self.tail_offset
        s = p * rho
        if s <= 1.0:
            raise DivergenceError(
                f"sum z_n^-rho diverges: rho = {rho!r} <= order rho0 = {self.order_rho0!r}")
        A = self.head_count + 1 + delta
        # Euler-Maclaurin for sum_{n >= N+1} (n+delta)^(-s)
        t = (A ** (1.0 - s) / (s - 1.0)
             + 0.5 * A ** (-s)
             + s * A ** (-s - 1.0) / 12.0
             - s * (s + 1.0) * (s + 2.0) * A ** (-s - 3.0) / 720.0)
        err = s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) * A ** (-s - 5.0) / 30240.0
        val, err = c ** (-rho) * t, c ** (-rho) * err
        if self.tail_shift != 0.0:
            # (pure + shift)^-rho expanded to second order in shift/pure
            b = self.tail_shift
            h1 = c ** (-(rho + 1.0)) * self._hurwitz_tail(p * (rho + 1.0),
                                                          self.head_count)
            h2 = c ** (-(rho + 2.0)) * self._hurwitz_tail(p * (rho + 2.0),
                                                          self.head_count)
            h3 = c ** (-(rho + 3.0)) * self._hurwitz_tail(p * (rho + 3.0),
                                                          self.head_count)
            val += -rho * b * h1 + 0.5 * rho * (rho + 1.0) * b * b * h2
            err += abs(rho * (rho + 1.0) * (rho + 2.0) / 6.0 * b ** 3 * h3)
        result = (val, err)
        self._power_memo[rho] = result
        return result

    def tail_exp_sum(self, t):
        """sum_{n>N} exp(-z_n t) under the tail model (t scalar or ndarray)."""
        if not self.has_tail:
            return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0
        scalar = np.ndim(t) == 0
        t = np.atleast_1d(np.asarray(t, dtype=float))
        p, c, delta = self.tail_exponent, self.tail_coefficient, self.tail_offset
        A = self.head_count + 1 + delta
        sigma = t * c
        x0 = sigma * A ** p
        inv_p = 1.0 / p
        with np.errstate(under="ignore"):
            integral = inv_p * sigma ** (-inv_p) * gamma(inv_p) * gammaincc(inv_p, x0)
            g = np.exp(-np.minimum(x0, 745.0))
            g = np.where(x0 > 745.0, 0.0, g)
            qp = sigma * p * A ** (p - 1.0)          # q'(a)
            qpp = sigma * p * (p - 1.0) * A ** (p - 2.0)
            qppp = sigma * p * (p - 1.0) * (p - 2.0) * A ** (p - 3.0)
            # g'/12 and g'''/720 endpoint corrections
            corr = 0.5 * g + qp * g / 12.0 + (-qp ** 3 + 3.0 * qp * qpp - qppp) * g / 720.0
            out = integral + corr
            if self.tail_shift != 0.0:
                # exp(-(pure + shift) t) = exp(-shift t) * exp(-pure t)
                # a negative shift overflows the factor where the sum has
                # already underflowed to 0; multiply only the nonzero terms
                live = out != 0.0
                out[live] = out[live] * np.exp(-self.tail_shift * t[live])
        return float(out[0]) if scalar else out

    def tail_reciprocal_sum(self, w, power: int = 1):
        """sum_{n>N} (w + z_n)^-power under the tail model.

        w may be real or complex, scalar or ndarray; for bound work w is a
        point in the closed right half-plane.  power = 1 uses a three-regime
        scheme (series around small |w|, closed-form integral for large |w|,
        discrete head extension in between); power >= 2 uses the binomial
        expansion in w, valid for the moderate |w| the harness needs.
        """
        if not self.has_tail:
            if np.ndim(w) == 0:
                return 0.0j if np.iscomplexobj(np.asarray(w)) else 0.0
            return np.zeros_like(np.asarray(w))
        # the additive tail constant folds into the evaluation point
        w = np.asarray(w) + self.tail_shift if self.tail_shift != 0.0 else w
        if power == 1:
            return self._tail_recip1(w, self.head_count)
        return self._tail_recip_binomial(w, power, self.head_count)

    def _tail_recip_binomial(self, w, m: int, n0: int):
        """sum_{n>n0} (w + z_n)^-m by expanding in w/z_n (needs |w| modest)."""
        p, delta = self.tail_exponent, self.tail_offset
        base = self.tail_coefficient * (n0 + 1 + delta) ** p
        wmax = np.max(np.abs(w))
        if wmax > 0.5 * base:
            raise DomainError(
                f"tail expansion for power {m} needs |w| <= {0.5 * base:.3g}")
        c = self.tail_coefficient
        w = np.asarray(w)
        acc = np.zeros(np.shape(w), dtype=np.result_type(w, float))
        coef = 1.0
        wk = np.ones_like(acc)
        for k in range(80):
            term = coef * wk * c ** (-(m + k)) * self._hurwitz_tail(p * (m + k), n0)
            acc = acc + term
            if np.max(np.abs(term)) <= 1e-16 * max(np.max(np.abs(acc)), 1e-300):
                break
            coef *= -(m + k) / (k + 1.0)          # binom(-m, k+1)/binom(-m, k)
            wk = wk * w
        return acc

    def _hurwitz_tail(self, s: float, n0: int) -> float:
        """EM value of sum_{n>n0} (n + offset)^-s (s > 1)."""
        A = n0 + 1 + self.tail_offset
        if s > 700.0:
            return 0.0
        return (A ** (1.0 - s) / (s - 1.0) + 0.5 * A ** (-s)
                + s * A ** (-s - 1.0) / 12.0
                - s * (s + 1.0) * (s + 2.0) * A ** (-s - 3.0) / 720.0)

    def _tail_recip1(self, w, n0: int):
        scalar = np.ndim(w) == 0
        w = np.atleast_1d(np.asarray(w))
        out = np.zeros(w.shape, dtype=np.result_type(w, float))
        p, c, delta = self.tail_exponent, self.tail_coefficient, self.tail_offset
        A = n0 + 1 + delta
        base = c * A ** p
        aw = np.abs(w)

        lo = aw <= 0.5 * base
        hi = aw >= 2.0 * base
        mid = ~(lo | hi)

        if np.any(lo):
            out[lo] = self._recip1_series_small(w[lo], n0)
        if np.any(hi):
            out[hi] = self._recip1_large(w[hi], A, base)
        if np.any(mid):
            # extend the head with model zeros until the small-|w| series applies
            ext = 4 * max(n0, 8)
            ns = np.arange(n0 + 1, n0 + ext + 1, dtype=float)
            zext = c * (ns + delta) ** p
            wm = w[mid]
            head_ext = np.sum(1.0 / (wm[:, None] + zext[None, :]), axis=1)
            out[mid] = head_ext + self._recip1_series_small(wm, n0 + ext)
        return out[0] if scalar else out

    def _recip1_series_small(self, w, n0: int):
        """sum_{n>n0} 1/(w+z_n) = sum_k (-w)^k T_{k+1} with T_j the model
        power sums past n0; converges for |w| below half the first model zero.

        Each term is accumulated as (-w/base)^k times an O(1) correction so
        that neither factor leaves the floating range even when |w| is large
        in absolute terms (the ratio stays <= 1/2 on this branch)."""
        p = self.tail_exponent
        c = self.tail_coefficient
        A = n0 + 1 + self.tail_offset
        base = c * A ** p
        q = -np.asarray(w) / base
        acc = np.zeros(q.shape, dtype=np.result_type(q, float))
        qk = np.ones_like(acc)
        for k in range(120):
            s = p * (k + 1.0)
            corr = (A / (s - 1.0) + 0.5 + s / (12.0 * A)
                    - s * (s + 1.0) * (s + 2.0) / (720.0 * A ** 3))
            term = qk * (corr / base)
            acc = acc + term
            if np.max(np.abs(term)) <= 1e-16 * max(np.max(np.abs(acc)), 1e-300):
                break
            qk = qk * q
        return acc

    def _recip1_large(self, w, A: float, base: float):
        """Closed-form route for |w| >= 2*c*A^p:
        int_A^inf du/(w+c u^p) + EM endpoint corrections, with
        int_0^inf = (pi/p)/sin(pi/p) * c^(-1/p) * w^(1/p-1)."""
        p, c = self.tail_exponent, self.tail_coefficient
        inv_p = 1.0 / p
        cp = (math.pi / p) / math.sin(math.pi / p)
        logw = np.log(w.astype(complex)) if np.iscomplexobj(w) else np.log(w)
        full = cp * c ** (-inv_p) * np.exp((inv_p - 1.0) * logw)
        # int_0^A du/(w + c u^p) expanded in powers of (c A^p / w)
        comp = np.zeros(w.shape, dtype=np.result_type(w, float))
        ratio = np.ones_like(comp)
        for k in range(120):
            term = ratio * (A / (p * k + 1.0))
            comp = comp + term
            if np.max(np.abs(term)) <= 1e-16 * max(np.max(np.abs(comp)), 1e-300):
                break
            ratio = ratio * (-base / w)
        comp = comp / w
        integral = full - comp
        # EM endpoint corrections at a = N+1 (u = A)
        q = base
        qp = c * p * A ** (p - 1.0)
        qpp = c * p * (p - 1.0) * A ** (p - 2.0)
        qppp = c * p * (p - 1.0) * (p - 2.0) * A ** (p - 3.0)
        d = w + q
        with np.errstate(over="ignore"):
            # inf denominators below just zero out the endpoint corrections
            g = 1.0 / d
            gp = -qp / d ** 2
            gppp = (-qppp / d ** 2 + 6.0 * qp * qpp / d ** 3
                    - 6.0 * qp ** 3 / d ** 4)
        return integral + 0.5 * g - gp / 12.0 + gppp / 720.0

    # -- head moments for the far-field log-derivative ---------------------

    def head_moment(self, k: int) -> float:
        m = self._moment_memo.get(k)
        if m is None:
            m = float(np.sum(self.head ** k)) if k else float(self.head_count)
            self._moment_memo[k] = m
        return m


# --------------------------------------------------------------------------
# operations on zero sequences
# --------------------------------------------------------------------------


def zero_sum(zs: ZeroSequence, rho: float) -> float:
    """S(rho) = sum_n z_n^-rho (head summation + EM tail estimate)."""
    return zero_sum_detail(zs, rho)[0]


def zero_sum_detail(zs: ZeroSequence, rho: float) -> tuple[float, float]:
    """S(rho) together with an absolute-error estimate (EM truncation plus
    head round-off)."""
    if zs.has_tail and rho <= zs.order_rho0:
        raise DivergenceError(
            f"zero_sum requires rho > order rho0 = {zs.order_rho0!r}, got {rho!r}")
    if rho <= 0.0:
        raise DivergenceError("zero_sum requires rho > 0")
    head = float(np.sum(zs.head ** (-rho)))
    tail, tail_err = zs.tail_power_sum_detail(rho) if zs.has_tail else (0.0, 0.0)
    err = tail_err + abs(head) * zs.head_count * 1e-18
    return head + tail, err


def product_eval(zs: ZeroSequence, z: complex) -> complex:
    """f(z)/f(0) = prod_n (1 + z/z_n).

    Head factors are summed in the log; the tail uses the fourth-order
    expansion log(1+z/z_n) ~ z/z_n - z^2/(2 z_n^2) + z^3/(3 z_n^3)
    - z^4/(4 z_n^4) with the EM tail sums.  Raises PoleZeroError at an
    exact zero.
    """
    z = complex(z)
    if z == 0.0:
        return 1.0 + 0.0j
    factors = 1.0 + z / zs.head
    if np.any(factors == 0.0):
        raise PoleZeroError(f"z = {z!r} coincides with a zero of the product")
    log_head = np.sum(np.log(factors.astype(complex)))
    log_tail = 0.0j
    if zs.has_tail:
        for m in (1, 2, 3, 4):
            sign = 1.0 if m % 2 else -1.0
            log_tail += sign * z ** m / m * zs.tail_power_sum(float(m))
    return complex(np.exp(log_head + log_tail))


def phi_vec(zs: ZeroSequence, t):
    """phi(t) = sum_n exp(-z_n t) for an array of t > 0."""
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise DomainError("phi requires t > 0")
    flat = np.atleast_1d(t).reshape(-1)
    out = np.empty(flat.shape, dtype=float)
    zh = zs.head
    z1 = zh[0]
    for i, ti in enumerate(flat):
        # drop head terms below ~1e-20 of the leading one
        k = np.searchsorted(zh, z1 + _PHI_EXPONENT_WINDOW / ti, side="right")
        with np.errstate(under="ignore"):
            out[i] = float(np.exp(-zh[:k] * ti).sum())
    if zs.has_tail:
        out = out + zs.tail_exp_sum(flat)
    return out.reshape(t.shape) if t.ndim else float(out[0])


def phi(zs: ZeroSequence, t: float) -> float:
    """Scalar phi(t); see phi_vec."""
    return float(phi_vec(zs, float(t)))


_SUP_GRID_POINTS = 512


def sup_weighted_phi(zs: ZeroSequence, rho: float) -> float:
    """Numeric supremum of t^rho phi(t) over t > 0.

    Scans a 512-node logarithmic grid spanning [1e-6/z_N, 1e3/z_1] and
    refines around the best node by golden-section maximization.
    """
    if not (zs.order_rho0 < rho < 1.0):
        raise DomainError(
            f"sup_weighted_phi requires rho in ({zs.order_rho0:g}, 1), got {rho!r}")
    z1, zN = float(zs.head[0]), float(zs.head[-1])
    ts = np.geomspace(1e-6 / zN, 1e3 / z1, _SUP_GRID_POINTS)
    with np.errstate(under="ignore"):
        vals = ts ** rho * phi_vec(zs, ts)
    k = int(np.argmax(vals))
    best = float(vals[k])
    lo = float(ts[max(0, k - 1)])
    hi = float(ts[min(ts.size - 1, k + 1)])
    _, neg = minimize_scalar(lambda t: -(t ** rho) * phi(zs, t), lo, hi,
                             tol=1e-10 * (hi - lo))
    return max(best, -neg)


# --------------------------------------------------------------------------
# function-model contract and the zero-product model
# --------------------------------------------------------------------------


class FunctionModel:
    """Evaluation contract shared by zero-product models and the
    special-function adapters.

    Required members: value_ratio(z) -> complex for f(z)/f(0);
    log_derivative(x) -> f'(x)/f(x) on the positive axis, accepting scalars
    or ndarrays; zeros() -> ZeroSequence; order_rho0; f0 = f(0) > 0.

    zeros_authoritative marks whether the zero table is complete enough for
    zero-based identity checks (the K-in-the-order adapter carries only a
    best-effort head and sets it False).  domain_radius_max caps |z| for
    value_ratio where a series evaluation limits the usable disc.
    """

    model_id: str = "abstract"
    order_rho0: float = 0.0
    f0: float = 1.0
    zeros_authoritative: bool = True
    domain_radius_max: float = math.inf
    identity_rhos: tuple = (0.6, 0.75, 0.9)

    def value_ratio(self, z: complex) -> complex:
        raise NotImplementedError

    def log_derivative(self, x):
        raise NotImplementedError

    def zeros(self) -> ZeroSequence:
        raise NotImplementedError

    def __repr__(self):
        return f"<{type(self).__name__} {self.model_id}>"


# far-field switch: beyond this multiple of z_N the head sum collapses to a
# short moment expansion in 1/x
_FAR_FIELD_FACTOR = 20.0
_FAR_FIELD_MOMENTS = 9


class ZeroProductModel(FunctionModel):
    """FunctionModel realized directly from a ZeroSequence: value_ratio is
    the canonical product, log_derivative the sum of 1/(x + z_n)."""

    def __init__(self, zs: ZeroSequence, f0: float = 1.0, model_id: str = "zero-product"):
        if not (f0 > 0.0):
            raise DomainError("f0 must be positive")
        self._zs = zs
        self.f0 = float(f0)
        self.order_rho0 = zs.order_rho0
        self.model_id = model_id

    def zeros(self) -> ZeroSequence:
        return self._zs

    def value_ratio(self, z: complex) -> complex:
        return product_eval(self._zs, z)

    def log_derivative(self, x):
        scalar = np.ndim(x) == 0
        xa = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(xa < 0.0):
            raise DomainError("log_derivative requires x >= 0")
        out = reciprocal_zero_sum(self._zs, xa)
        return float(out[0]) if scalar else out.reshape(np.shape(x))


def reciprocal_zero_sum(zs: ZeroSequence, w):
    """sum_n 1/(w + z_n) over head and tail; w real/complex, scalar or array.

    This is the log-derivative of the canonical product (for w = x > 0) and
    its analytic continuation off the axis.
    """
    scalar = np.ndim(w) == 0
    wa = np.atleast_1d(np.asarray(w))
    out = np.zeros(wa.shape, dtype=np.result_type(wa, float))
    zN = float(zs.head[-1])
    aw = np.abs(wa)
    far = aw > _FAR_FIELD_FACTOR * zN
    near = ~far
    if np.any(near):
        wn = wa[near]
        out[near] = np.sum(1.0 / (wn[:, None] + zs.head[None, :]), axis=1)
    if np.any(far):
        wf = wa[far]
        acc = np.zeros(wf.shape, dtype=out.dtype)
        sign = 1.0
        for k in range(_FAR_FIELD_MOMENTS):
            acc = acc + sign * zs.head_moment(k) * wf ** (-(k + 1.0))
            sign = -sign
        out[far] = acc
    if zs.has_tail:
        out = out + zs.tail_reciprocal_sum(wa)
    return out[0] if scalar else out


def reciprocal_power_zero_sum(zs: ZeroSequence, w, power: int):
    """sum_n (w + z_n)^-power (head + tail); the building block for the
    derivatives of the log-derivative."""
    if power == 1:
        return reciprocal_zero_sum(zs, w)
    if np.ndim(w) == 0:
        head = np.sum((w + zs.head) ** (-float(power)))
    else:
        wa = np.asarray(w)
        head = np.sum((wa[..., None] + zs.head) ** (-float(power)), axis=-1)
    tail = zs.tail_reciprocal_sum(w, power) if zs.has_tail else 0.0
    return head + tail


def model_from_zeros(zs: ZeroSequence, f0: float = 1.0,
                     model_id: str = "zero-product") -> ZeroProductModel:
    """Wrap a ZeroSequence as a FunctionModel (product evaluation for values,
    reciprocal zero sums for the log-derivative)."""
    return ZeroProductModel(zs, f0, model_id)
