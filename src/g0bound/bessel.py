"""Modified-Bessel model: series evaluation, log-derivative, squared J zeros.

The underlying entire function is F_nu(z) = sum_k z^k / (4^k k! Gamma(nu+k+1)),
which equals I_nu(sqrt(z)) / (sqrt(z)/2)^nu and has simple zeros exactly at
z = -j_{nu,n}^2.  All series here run on the term recurrence
term_{k+1} = term_k * z / (4 (k+1) (nu+k+1)), so no large gammas are formed.
"""

import cmath
import math

import numpy as np
import scipy.special

from .errors import (BracketError, ConvergenceError, DomainError,
                     EvaluationOverflowError)
from .numerics import find_root_bracketed
from .zeros import FunctionModel, ZeroSequence, product_eval, reciprocal_zero_sum

__all__ = [
    "bessel_i_scaled",
    "bessel_i_log_derivative",
    "bessel_j_squared_zeros",
    "BesselIModel",
]

SERIES_MAX_ABS = 1e4       # |z| cap for direct series evaluation
_SERIES_STOP = 1e-17       # term/partial-sum ratio that counts as converged
_SERIES_STOP_RUN = 3       # consecutive tiny terms required
_SERIES_MAX_TERMS = 5000
# complex arguments lose roughly exp(2 sqrt|z| (1 - cos(arg z / 2))) digits to
# cancellation; beyond this many e-folds the zero-product route wins
_CANCEL_LOSS_MAX = 16.0


def _series_f(nu, z):
    """F_nu(z) by the term recurrence; z may be scalar or ndarray."""
    arr = np.asarray(z)
    try:
        t0 = 1.0 / math.gamma(nu + 1.0)
    except (OverflowError, ValueError):
        raise DomainError(f"gamma(nu+1) not representable for nu={nu!r}")
    term = np.full(arr.shape, t0, dtype=arr.dtype if arr.dtype.kind == "c" else float)
    total = term.copy()
    run = 0
    for k in range(_SERIES_MAX_TERMS):
        term = term * arr / (4.0 * (k + 1.0) * (nu + k + 1.0))
        total = total + term
        if not np.all(np.isfinite(total)):
            raise EvaluationOverflowError(
                "series partial sums left the floating range")
        if np.all(np.abs(term) < _SERIES_STOP * np.abs(total)):
            run += 1
            if run >= _SERIES_STOP_RUN:
                return total if arr.shape else total[()]
        else:
            run = 0
    raise ConvergenceError("series did not converge within the term budget")


def bessel_i_scaled(nu, z):
    """Evaluate F_nu(z) = sum_k z^k / (4^k k! Gamma(nu+k+1)).

    Equals I_nu(sqrt z)/(sqrt z / 2)^nu; entire in z, 1/Gamma(nu+1) at z=0.
    Requires nu > -1 and |z| <= 1e4.
    """
    if not nu > -1.0:
        raise DomainError(f"need nu > -1, got {nu!r}")
    if np.any(np.abs(z) > SERIES_MAX_ABS):
        raise DomainError(f"|z| exceeds the series cap {SERIES_MAX_ABS:g}")
    return _series_f(nu, z)


def bessel_i_log_derivative(nu, x):
    """f'/f for f = F_nu at real x > 0, via f'(z) = F_(nu+1)(z)/4.

    Pure series ratio; positive and decreasing on the positive axis.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise DomainError("log-derivative needs x >= 0")
    if np.any(xa > SERIES_MAX_ABS):
        raise DomainError(f"x exceeds the series cap {SERIES_MAX_ABS:g}")
    val = _series_f(nu + 1.0, xa) / (4.0 * _series_f(nu, xa))
    return val if xa.shape else float(val)


def _mcmahon_guess(nu, n):
    """McMahon expansion for j_{nu,n} through the beta^-5 term."""
    b = (n + 0.5 * nu - 0.25) * math.pi
    mu = 4.0 * nu * nu
    return (b - (mu - 1.0) / (8.0 * b)
            - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * (8.0 * b) ** 3)
            - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0)
            / (15.0 * (8.0 * b) ** 5))


def _refine_j_zero(nu, guess):
    # Root of w -> J_nu(w); the bracket is widened a few times if the McMahon
    # guess was too coarse to straddle the zero.
    half = 1.2
    for _ in range(4):
        lo = max(guess - half, 0.02 * guess)
        hi = guess + half
        if scipy.special.jv(nu, lo) * scipy.special.jv(nu, hi) < 0.0:
            return find_root_bracketed(lambda w: scipy.special.jv(nu, w),
                                       lo, hi, tol=max(1e-13, 1e-12 * guess))
        half *= 1.6
    raise BracketError(
        f"no sign change around the McMahon guess {guess!r} for nu={nu!r}")


def _first_j_zero(nu):
    # The Rayleigh sums sum_n j_n^-2 = 1/(4(nu+1)) and
    # sum_n j_n^-4 = 1/(16(nu+1)^2(nu+2)) give
    # 2 sqrt(nu+1) < j_{nu,1} < 2 sqrt((nu+1)(nu+2)).  For nu <= 0 the upper
    # end is at most 2 sqrt(2) < j_{1,1} < j_{nu,2}, so the bracket holds
    # j_{nu,1} alone; McMahon's guess fails there as nu -> -1 (it even
    # turns negative below nu ~ -0.96).
    lo = 2.0 * math.sqrt(nu + 1.0)
    hi = lo * math.sqrt(nu + 2.0)
    return find_root_bracketed(lambda w: scipy.special.jv(nu, w),
                               0.999 * lo, 1.001 * hi, tol=1e-13 * hi)


def bessel_j_squared_zeros(nu, count):
    """First `count` values of j_{nu,n}^2, the (negated) zeros of F_nu.

    McMahon initial guesses refined by bracketed root-finding on the Bessel
    function itself; for nu <= 0 the first zero is bracketed by its Rayleigh
    bounds instead.  Each zero is good to ~1e-14 relative.
    """
    if not nu > -1.0:
        raise DomainError(f"need nu > -1, got {nu!r}")
    if not 1 <= count <= 10 ** 4:
        raise DomainError(f"count must be in [1, 1e4], got {count!r}")
    first = (_first_j_zero(nu) if nu <= 0.0
             else _refine_j_zero(nu, _mcmahon_guess(nu, 1)))
    roots = [first] + [_refine_j_zero(nu, _mcmahon_guess(nu, n))
                       for n in range(2, count + 1)]
    if any(b <= a for a, b in zip(roots, roots[1:])):
        raise ConvergenceError("refined Bessel zeros are not increasing")
    return [w * w for w in roots]


class BesselIModel(FunctionModel):
    """f(z) = I_nu(sqrt z)/(sqrt z/2)^nu as a negative-zeros product model."""

    def __init__(self, nu, head_count=200):
        if not nu > -1.0:
            raise DomainError(f"need nu > -1, got {nu!r}")
        self.nu = float(nu)
        self.model_id = f"bessel-i(nu={self.nu:g})"
        self.order_rho0 = 0.5
        self.f0 = 1.0 / math.gamma(self.nu + 1.0)
        self.domain_radius_max = SERIES_MAX_ABS
        self.identity_rhos = (0.55, 0.75, 0.9)
        head = bessel_j_squared_zeros(self.nu, head_count)
        # j_{nu,n}^2 = beta^2 + (1-4nu^2)/4 + O(beta^-2), beta = (n+nu/2-1/4)pi
        self._zs = ZeroSequence(head, 2.0, math.pi ** 2, order_rho0=0.5,
                                tail_offset=0.5 * self.nu - 0.25,
                                tail_shift=0.25 * (1.0 - 4.0 * self.nu ** 2))
        self._gamma_nu1 = math.gamma(self.nu + 1.0)

    def zeros(self):
        return self._zs

    def value_ratio(self, z):
        zc = complex(z)
        if abs(zc) > self.domain_radius_max:
            raise DomainError(
                f"|z| exceeds the model domain {self.domain_radius_max:g}")
        if zc.imag == 0.0:
            return float(self._gamma_nu1 * _series_f(self.nu, zc.real))
        # estimated e-folds lost to cancellation in the complex series
        loss = 2.0 * math.sqrt(abs(zc)) * (1.0 - math.cos(0.5 * cmath.phase(zc)))
        if loss > _CANCEL_LOSS_MAX:
            return product_eval(self._zs, zc)
        return complex(self._gamma_nu1 * _series_f(self.nu, zc))

    def log_derivative(self, x):
        xa = np.asarray(x, dtype=float)
        if np.any(xa < 0.0):
            raise DomainError("log-derivative needs x >= 0")
        out = np.empty(xa.shape, dtype=float)
        near = xa <= SERIES_MAX_ABS
        if np.any(near):
            out[near] = bessel_i_log_derivative(self.nu, xa[near])
        if np.any(~near):
            # beyond the series range the zero sum is cheaper and stable
            out[~near] = reciprocal_zero_sum(self._zs, xa[~near])
        return out if xa.shape else float(out)
