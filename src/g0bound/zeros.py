"""Zero sequences of genus-0 entire functions with only negative zeros, and
every quantity derived directly from the zeros: the sums S(rho) = sum z_n^-rho,
the canonical product f(z)/f(0) = prod(1 + z/z_n), the reciprocal sums
sum (w + z_n)^-power (f'/f for power 1), the auxiliary function
phi(t) = sum exp(-z_n t) with its weighted supremum.

A ZeroSequence stores an explicit head z_1 <= ... <= z_N plus a power-law tail
model z_n ~ c*(n + offset)^p for n > N.  All tail sums are evaluated by
Euler-Maclaurin-corrected integrals, so head lengths of a few hundred zeros
already reach ~1e-8 relative accuracy for the quantities above.

The reciprocal sums sum a head densely only up to the zeros near |w|: the
zeros past 4|w| enter through a table of suffix power sums at doubling
breakpoints (ZeroSequence.suffix_power_table), and a head below |w|/4 through
its moments (ZeroSequence.head_moments).  phi takes its head sum from the same
moments wherever t z_N <= 1.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np
from scipy.special import gammaincc

from .errors import DivergenceError, DomainError, PoleZeroError
from .numerics import gamma

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
# _head_sums takes at most this many head terms per block (a 0.5 MB
# temporary for real terms)
_BLOCK_TERMS = 2 ** 16
# the expansions of the reciprocal sums: a zero z counts as far from w when
# z > 4|w| (suffix table) or |w| > 4z (head moments); past 32 terms of
# either series the first omitted term is at most binom(power+31, 32) 4^-32
# of the leading one, 3.5e-16 at power 4, the highest the table carries
_EXPANSION_RATIO = 4.0
_SERIES_TERMS = 32
_TABLE_MAX_POWER = 4
_TABLE_POWERS = _SERIES_TERMS + _TABLE_MAX_POWER - 1
# k! for k < _SERIES_TERMS: phi_vec's small-t series in the head moments
_FACTORIALS = np.array([math.factorial(k) for k in range(_SERIES_TERMS)],
                       dtype=float)
# the tail model's own expansions run at a ratio of at most 1/2
_TAIL_SERIES_TERMS = 120
# _tail_recip1 extends the head at least to this zero index: the
# Euler-Maclaurin sums past it then stay at round-off for a head of any
# length (a 32-zero head of n^2 extended only to 2 max|w| is 1.8e-14 off)
_TAIL_EXTENSION_REACH = 256
# sup_weighted_phi: stored phi samples per sequence, points per refinement
_SUP_GRID_POINTS = 512
_SUP_REFINE_POINTS = 33


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

    The zeros and tail model are immutable after construction.  The only
    mutations are value-idempotent memos filled on first use: the tail power
    sums per rho, the suffix power-sum table and the scaled head moments
    behind the reciprocal sums and small-t phi (suffix_power_table,
    head_moments), and the phi samples behind sup_weighted_phi
    (phi_samples).  None is built at construction.
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
        self._suffix_table: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._head_moments: np.ndarray | None = None
        self._phi_samples: tuple[np.ndarray, np.ndarray] | None = None
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
        if self.tail_exponent * rho <= 1.0:
            raise DivergenceError(
                f"sum z_n^-rho diverges: rho = {rho!r} <= order rho0 = {self.order_rho0!r}")
        scale = self._tail_base() ** (-rho)
        val, err = self._tail_power_scaled(rho)
        result = (scale * float(val), scale * float(err))
        self._power_memo[rho] = result
        return result

    def counting_bound(self) -> tuple[float, float]:
        """(A, B) with N(t) = A t^rho0 + D(t) and |D(t)| <= B for every
        t >= 0, where N(t) counts the zeros up to t.

        For the tail model z_n = c (n + delta)^p + s, A = c^-rho0 and B bounds
        the deviation on every head interval and under the tail model.  A
        head-only sequence has no such constants (N(t) stops at N).
        """
        if not self.has_tail:
            raise DomainError("head-only sequence has no counting bound")
        head = self.head
        rho0 = self.order_rho0
        amp = self.tail_coefficient ** -rho0
        z_next = float(self.model_zero(self.head_count + 1))
        s, delta = self.tail_shift, self.tail_offset
        # N(t) = k on [z_k, z_{k+1}), where A t^rho0 runs between its end values
        k = np.arange(self.head_count + 1, dtype=float)
        left = amp * np.concatenate(([0.0], head)) ** rho0
        right = amp * np.append(head, z_next) ** rho0
        dev = max(float(np.max(np.abs(k - left))), float(np.max(np.abs(k - right))))
        # past z_{N+1}: N(t) = floor(((t - s)/c)^rho0 - delta) less the head
        # zeros above t; (t - s)^rho0 differs from t^rho0 by the mean-value term
        shift_dev = amp * abs(s) * rho0 * (z_next - max(s, 0.0)) ** (rho0 - 1.0)
        dev = max(dev, max(abs(delta), abs(delta + 1.0)) + shift_dev
                  + int(np.count_nonzero(head > z_next)))
        return amp, dev

    def _tail_base(self) -> float:
        """c (N + 1 + offset)^p: the first model zero past the head, shift
        not included."""
        return self.tail_coefficient * (
            self.head_count + 1 + self.tail_offset) ** self.tail_exponent

    def _tail_power_scaled(self, rho):
        """(base^rho T, base^rho err) for the tail power sum T = sum_{n>N}
        z_n^-rho and its error bound, base = _tail_base(); both stay O(1) for
        every rho > 1/p, so no factor leaves the floating range.  rho may be
        an ndarray.

        The Euler-Maclaurin value of sum (n + offset)^-s, s = p rho; a tail
        shift b enters to second order in b/base, its third-order term is
        added to the error."""
        p, A = self.tail_exponent, self.head_count + 1 + self.tail_offset
        s = p * rho
        val = self._hurwitz_scaled(s, self.head_count)
        err = s * (s + 1.0) * (s + 2.0) * (s + 3.0) * (s + 4.0) / (30240.0 * A ** 5)
        if self.tail_shift != 0.0:
            # (pure + shift)^-rho expanded to second order in shift/pure
            beta = self.tail_shift / self._tail_base()
            n0 = self.head_count
            val = (val - rho * beta * self._hurwitz_scaled(p * (rho + 1.0), n0)
                   + 0.5 * rho * (rho + 1.0) * beta * beta
                   * self._hurwitz_scaled(p * (rho + 2.0), n0))
            err = err + abs(rho * (rho + 1.0) * (rho + 2.0) / 6.0 * beta ** 3
                            * self._hurwitz_scaled(p * (rho + 3.0), n0))
        return val, err

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
        discrete head extension in between); power >= 2 uses the same small-|w|
        series alone and raises DomainError past half the first model zero.

        The extension (0.5 < |w|/z_{N+1} < 2, shift aside) adds model zeros
        only until the first one past them is at least 2 max|w|, and at least
        up to z_256; they are summed in the blocks of _head_sums, and the
        series takes the rest at a ratio of at most 1/2.
        """
        if not self.has_tail:
            if np.ndim(w) == 0:
                return 0.0j if np.iscomplexobj(np.asarray(w)) else 0.0
            return np.zeros_like(np.asarray(w))
        # the additive tail constant folds into the evaluation point
        w = np.asarray(w) + self.tail_shift if self.tail_shift != 0.0 else w
        if power == 1:
            return self._tail_recip1(w, self.head_count)
        base = self._tail_base()
        if np.max(np.abs(w)) > 0.5 * base:
            raise DomainError(
                f"tail expansion for power {power} needs |w| <= {0.5 * base:.3g}")
        return self._recip_series_small(w, self.head_count, power)

    def _hurwitz_scaled(self, s, n0: int):
        """A^s times the Euler-Maclaurin value of sum_{n>n0} (n + offset)^-s,
        A = n0 + 1 + offset (s > 1, scalar or ndarray)."""
        A = n0 + 1 + self.tail_offset
        return (A / (s - 1.0) + 0.5 + s / (12.0 * A)
                - s * (s + 1.0) * (s + 2.0) / (720.0 * A ** 3))

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
            out[lo] = self._recip_series_small(w[lo], n0)
        if np.any(hi):
            out[hi] = self._recip1_large(w[hi], A, base)
        if np.any(mid):
            # extend the head with model zeros until the first one past the
            # extension is at least 2 max|w|, where the small-|w| series applies
            wm = w[mid]
            reach = (2.0 * float(np.max(aw[mid])) / c) ** (1.0 / p) - delta
            ext = max(_TAIL_EXTENSION_REACH, math.ceil(reach)) - n0
            zext = c * (np.arange(n0 + 1, n0 + ext + 1, dtype=float) + delta) ** p
            head_ext = _head_sums(zext, wm, np.full(wm.size, ext),
                                  lambda x, z: 1.0 / (x + z))
            out[mid] = head_ext + self._recip_series_small(wm, n0 + ext)
        return out[0] if scalar else out

    def _recip_series_small(self, w, n0: int, power: int = 1):
        """sum_{n>n0} (w+z_n)^-power = sum_k binom(-power, k) w^k T_{power+k}
        with T_j the model power sums past n0; converges for |w| below half
        the first model zero.

        Each term is binom(power+k-1, k) (-w/base)^k times an O(1)
        correction, scaled by base^-power, so that no factor leaves the
        floating range even when |w| is large in absolute terms (the ratio
        stays <= 1/2 on this branch, so 120 terms reach roundoff)."""
        p = self.tail_exponent
        base = self.tail_coefficient * (n0 + 1 + self.tail_offset) ** p
        q = -np.asarray(w) / base
        sums = self._hurwitz_scaled(p * (power + np.arange(_TAIL_SERIES_TERMS)), n0)
        return (_binomial_series(q.reshape(-1), sums, power).reshape(q.shape)
                / base ** power)

    def _recip1_large(self, w, A: float, base: float):
        """Closed-form route for |w| >= 2*c*A^p:
        int_A^inf du/(w+c u^p) + EM endpoint corrections, with
        int_0^inf = (pi/p)/sin(pi/p) * c^(-1/p) * w^(1/p-1)."""
        p, c = self.tail_exponent, self.tail_coefficient
        inv_p = 1.0 / p
        cp = (math.pi / p) / math.sin(math.pi / p)
        logw = np.log(w.astype(complex)) if np.iscomplexobj(w) else np.log(w)
        full = cp * c ** (-inv_p) * np.exp((inv_p - 1.0) * logw)
        # int_0^A du/(w + c u^p) expanded in powers of (c A^p / w) <= 1/2
        k = np.arange(_TAIL_SERIES_TERMS)
        comp = _binomial_series(-base / w, A / (p * k + 1.0), 1) / w
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

    # -- expansion tables for the reciprocal sums --------------------------

    def suffix_power_table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(m, r, Q): scaled suffix power sums at the doubling breakpoints.

        Rows sit at m = 0, 1, 2, 4, ..., 2^j < N, plus m = N for a tailed
        sequence.  r[i] = min_{n > m_i} z_n, which is z_{m_i + 1} unless the
        tail model dips below the head, and Q[i, k-1] = r[i]^k sum_{n > m_i}
        z_n^-k for k = 1.._TABLE_POWERS, tail included (its terms are
        tail_power_sum(k) scaled by r^k).  Every ratio r[i]/z_n is at most 1,
        so Q[i] is O(N - m_i) and no factor leaves the floating range.

        Built on the first call: the powers of each head zero's ratio by
        _powers, the sums between breakpoints by one reduceat, and
        the suffix sums as one contraction with the powers of r[i]/r[l].
        """
        if self._suffix_table is None:
            n = self.head_count
            m = np.concatenate(([0], 2 ** np.arange((n - 1).bit_length())))
            first = self.head[m]
            ks = np.arange(1.0, _TABLE_POWERS + 1.0)
            if self.has_tail:
                base = self._tail_base()
                z_tail = base + self.tail_shift
                first = np.append(first, z_tail)
            r = np.minimum.accumulate(first[::-1])[::-1]
            u = np.repeat(r[:m.size], np.diff(np.append(m, n))) / self.head
            with np.errstate(under="ignore"):
                blocks = np.add.reduceat(_powers(u, ks.size), m, axis=1).T
                if self.has_tail:
                    tail = (z_tail / base) ** ks * self._tail_power_scaled(ks)[0]
                    blocks = np.vstack([blocks, tail])
                    m = np.append(m, n)
                lift = np.triu(r[:, None] / r[None, :])[:, :, None] ** ks
                suffix = np.einsum("ilk,lk->ik", lift, blocks)
            for a in (m, r, suffix):
                a.setflags(write=False)
            self._suffix_table = (m, r, suffix)
        return self._suffix_table

    def head_moments(self) -> np.ndarray:
        """mu_k = sum_n (z_n/z_N)^k over the head for k < _SERIES_TERMS, the
        scaled moments of the far-field expansion; built on the first call."""
        if self._head_moments is None:
            u = self.head / self.head[-1]
            with np.errstate(under="ignore"):
                powers = _powers(u, _SERIES_TERMS - 1)
            mu = np.concatenate(([float(u.size)], powers.sum(axis=1)))
            mu.setflags(write=False)
            self._head_moments = mu
        return self._head_moments

    # -- phi samples for the weighted supremum -----------------------------

    def phi_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(t, phi(t)) on 512 log-spaced nodes over [1e-6/z_N, 1e3/z_1].

        phi does not depend on rho, so sup_weighted_phi reads every rho's
        grid maximum from these samples; they are taken on the first call.
        """
        if self._phi_samples is None:
            ts = np.geomspace(1e-6 / self.head[-1], 1e3 / self.head[0],
                              _SUP_GRID_POINTS)
            phis = phi_vec(self, ts)
            ts.setflags(write=False)
            phis.setflags(write=False)
            self._phi_samples = (ts, phis)
        return self._phi_samples


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
    """phi(t) = sum_n exp(-z_n t) for t > 0 (scalar or ndarray of any shape).

    Where t z_N <= 1 the head sum is the Taylor series
    sum_k (-t z_N)^k / k! mu_k in the head moments mu_k = sum_n (z_n/z_N)^k
    (ZeroSequence.head_moments), k < 32: the first omitted term is below
    N/32!, and the terms' moduli add up to sum_n e^{t z_n} <= e N against a
    sum of at least N/e, so cancellation costs at most a factor e^2.
    Elsewhere head terms whose exponent z_n t exceeds the leading
    one, z_1 t, by more than 46 are dropped; the window
    k(t) = #{n : z_n <= z_1 + 46/t} is found for every t with one
    searchsorted.  The t are then taken in order of k(t), in blocks of at
    most 2^16 terms, and each block is summed as one
    exp(-outer(t, z_head[:k_max])) with every row's terms past its own window
    masked out.  The tail sum is one vectorized call over all t.  A scalar t
    gives a float; raises DomainError unless every t is finite and positive.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or not np.all(np.isfinite(t)):
        raise DomainError("phi requires t > 0")
    flat = t.reshape(-1)
    zh = zs.head
    s = flat * zh[-1]
    small = s <= 1.0
    k = np.searchsorted(zh, zh[0] + _PHI_EXPONENT_WINDOW / flat, side="right")
    k[small] = 0
    with np.errstate(under="ignore"):
        out = _head_sums(zh, flat, k, lambda ts, z: np.exp(-ts * z))
    if small.any():
        out[small] = np.vander(-s[small], _SERIES_TERMS, increasing=True) \
            @ (zs.head_moments() / _FACTORIALS)
    if zs.has_tail:
        out += zs.tail_exp_sum(flat)
    return out.reshape(t.shape) if t.ndim else float(out[0])


def _head_sums(zh: np.ndarray, x: np.ndarray, k: np.ndarray, term):
    """out[i] = sum_{n < k[i]} term(x[i], zh[n]) for a 1-d x and head counts
    0 <= k[i] <= zh.size.

    The rows are taken in order of k, in blocks of at most 2^16 terms; each
    block is one term(x[rows, None], zh[:k_max]) with every row's terms past
    its own count set to 0.
    """
    order = np.argsort(k, kind="stable")
    ks, xs = k[order], x[order]
    out = np.zeros(x.shape, dtype=np.result_type(x, zh))
    i = int(np.searchsorted(ks, 0, side="right"))
    while i < ks.size:
        # the longest run [i, j) whose block of rows x k_max terms fits the
        # cap (ks is sorted, so the running product is nondecreasing)
        rows = np.arange(1, ks.size - i + 1)
        j = i + max(1, int(np.searchsorted(rows * ks[i:], _BLOCK_TERMS,
                                           side="right")))
        kb = ks[i:j]
        terms = term(xs[i:j, None], zh[:kb[-1]])
        if kb[0] < kb[-1]:
            terms[np.arange(kb[-1]) >= kb[:, None]] = 0.0
        out[order[i:j]] = terms.sum(axis=1)
        i = j
    return out


def phi(zs: ZeroSequence, t: float) -> float:
    """Scalar phi(t); see phi_vec."""
    return float(phi_vec(zs, float(t)))


def sup_weighted_phi(zs: ZeroSequence, rho: float) -> float:
    """Numeric supremum of t^rho phi(t) over t > 0.

    Takes the best of the sequence's stored phi samples (ZeroSequence.
    phi_samples: 512 log-spaced nodes over [1e-6/z_N, 1e3/z_1]) weighted by
    t^rho, then refines the two grid cells around it in rounds: each round
    evaluates t^rho phi(t) on 33 equispaced points with one phi_vec call and
    keeps the two cells around the best point, shrinking the bracket 16-fold,
    until it is 1e-10 of its initial width (at most 9 rounds).  Returns the
    largest value seen.
    """
    if not (zs.order_rho0 < rho < 1.0):
        raise DomainError(
            f"sup_weighted_phi requires rho in ({zs.order_rho0:g}, 1), got {rho!r}")
    ts, phis = zs.phi_samples()
    with np.errstate(under="ignore"):
        vals = ts ** rho * phis
    k = int(np.argmax(vals))
    best = float(vals[k])
    lo, hi = ts[max(0, k - 1)], ts[min(ts.size - 1, k + 1)]
    tol = 1e-10 * (hi - lo)
    while hi - lo > tol:
        xs = np.linspace(lo, hi, _SUP_REFINE_POINTS)
        with np.errstate(under="ignore"):
            vals = xs ** rho * phi_vec(zs, xs)
        k = int(np.argmax(vals))
        best = max(best, float(vals[k]))
        lo, hi = xs[max(0, k - 1)], xs[min(xs.size - 1, k + 1)]
    return best


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
    value_ratio; each adapter sets it inside the disc where its values stay
    finite in floating point (Bessel through ive, Airy through airye,
    k-order through its trapezoidal integral).
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
    its analytic continuation off the axis.  Each w takes one of three
    routes, by |w| against the zeros:

    - table: 4|w| < z_{N+1}, the first model zero (for a head-only
      sequence, 4|w| < z_{m+1} at the last breakpoint m = 2^j < N).  The
      head is summed densely up to the first breakpoint m of
      ZeroSequence.suffix_power_table with z_{m+1} > 4|w|, and every zero
      past it, tail included, enters as sum_k (-w)^k P_{k+1}(m) with the
      suffix power sums P_k(m) = sum_{n>m} z_n^-k;
    - far field: otherwise, if |w| > 4 z_N, the head is the moment expansion
      sum_k (-z_N/w)^k mu_k / w in ZeroSequence.head_moments;
    - dense: otherwise the whole head is summed term by term;

    the last two add ZeroSequence.tail_reciprocal_sum.  Both series run to
    32 terms at a ratio of at most 1/4, a truncation below roundoff.
    """
    return reciprocal_power_zero_sum(zs, w, 1)


def reciprocal_power_zero_sum(zs: ZeroSequence, w, power: int):
    """sum_n (w + z_n)^-power (head + tail); the building block for the
    derivatives of the log-derivative.

    Powers up to 4 take the routes of reciprocal_zero_sum, with the binomial
    weights binom(power+k-1, k) on both series; higher powers sum the head
    densely.  Past the table, tail_reciprocal_sum raises DomainError for
    power >= 2 once |w| exceeds half the first model zero.
    """
    scalar = np.ndim(w) == 0
    wa = np.asarray(w).reshape(-1)
    aw = np.abs(wa)
    # each w's route: a table row (near), the head moments (far) or neither;
    # dense[i] head zeros are summed term by term
    m, r, suffix = zs.suffix_power_table()
    row = np.searchsorted(r, _EXPANSION_RATIO * aw, side="right")
    near = row < r.size
    far = ~near & (aw > _EXPANSION_RATIO * zs.head[-1])
    if power > _TABLE_MAX_POWER:
        near[:] = far[:] = False
    dense = np.where(near, m[np.minimum(row, r.size - 1)],
                     np.where(far, 0, zs.head_count))
    if power == 1:  # a division is about twice as fast as ** -1.0
        out = _head_sums(zs.head, wa, dense, lambda x, z: 1.0 / (x + z))
    else:
        out = _head_sums(zs.head, wa, dense,
                         lambda x, z: (x + z) ** -float(power))
    if near.any():
        rn = r[row[near]]
        sums = suffix[row[near], power - 1:power - 1 + _SERIES_TERMS]
        out[near] += _binomial_series(-wa[near] / rn, sums, power) / rn ** power
    if far.any():
        wf = wa[far]
        out[far] += (_binomial_series(-zs.head[-1] / wf, zs.head_moments(), power)
                     / wf ** power)
    if zs.has_tail and not near.all():
        out[~near] += zs.tail_reciprocal_sum(wa[~near], power)
    return out[0] if scalar else out.reshape(np.shape(w))


def _powers(u: np.ndarray, count: int) -> np.ndarray:
    """Rows out[k-1] = u^k for k = 1..count, one multiply per power."""
    out = np.empty((count, u.size))
    out[0] = u
    for k in range(1, count):
        np.multiply(out[k - 1], u, out=out[k])
    return out


def _binomial_series(q, sums, power: int):
    """sum_k binom(power+k-1, k) q^k sums[..., k] over k < sums.shape[-1]
    for a 1-d q: the expansion of (1 - q)^-power, term by term weighted."""
    k = np.arange(1.0, np.shape(sums)[-1])
    weights = np.cumprod(np.concatenate(([1.0], (power - 1.0 + k) / k)))
    with np.errstate(under="ignore"):
        terms = np.vander(q, k.size + 1, increasing=True)
        terms *= weights * sums
    return terms.sum(axis=-1)


def model_from_zeros(zs: ZeroSequence, f0: float = 1.0,
                     model_id: str = "zero-product") -> ZeroProductModel:
    """Wrap a ZeroSequence as a FunctionModel (product evaluation for values,
    reciprocal zero sums for the log-derivative)."""
    return ZeroProductModel(zs, f0, model_id)
