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

from .errors import ConvergenceError, DomainError, EvaluationOverflowError
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


def bessel_j_squared_zeros(nu, count):
    """First `count` values of j_{nu,n}^2, the (negated) zeros of F_nu, for
    any nu > -1.

    The zeros of J_nu are simple and at least pi apart for nu >= 1/2 (Sturm
    comparison); for nu in (-1, 1/2) the closest pair measured is 3.11
    apart.  So a scan of J_nu at unit step brackets each zero by a sign
    change.  The scan starts just below the
    Rayleigh bound 2 sqrt(nu+1) < j_{nu,1} and runs past a Sturm bound on
    j_{nu,count}; one vectorised bracketed solve then refines every bracket
    to a width of 1e-13 times its lower end.
    """
    if not nu > -1.0:
        raise DomainError(f"need nu > -1, got {nu!r}")
    if not 1 <= count <= 10 ** 4:
        raise DomainError(f"count must be in [1, 1e4], got {count!r}")
    # u = sqrt(w) J_nu(w) solves u'' + (1 - (nu^2 - 1/4)/w^2) u = 0.  Past w0
    # the coefficient is at least m^2 = 1 - max(nu^2 - 1/4, 0)/w0^2 >= 3/4,
    # so by Sturm comparison with sin(m w) each open interval of length pi/m
    # beyond w0 holds a zero, and j_{nu,count} < w0 + count pi/m.
    w0 = max(2.0 * abs(nu), 1.0)
    m = math.sqrt(1.0 - max(nu * nu - 0.25, 0.0) / (w0 * w0))
    start = 0.999 * 2.0 * math.sqrt(nu + 1.0)
    w = start + np.arange(math.ceil(w0 + count * math.pi / m - start) + 1.0)
    # J_nu > 0 below j_{nu,1}; a grid value of exactly 0 counts as positive,
    # so a root on the grid ends exactly one bracket
    nonneg = scipy.special.jv(nu, w) >= 0.0
    k = np.flatnonzero(nonneg[:-1] != nonneg[1:])[:count]
    if k.size < count:
        raise ConvergenceError(
            f"J_{nu:g} scan found {k.size} sign changes below {w[-1]:g}, "
            f"{count} requested")
    roots = find_root_bracketed(lambda x: scipy.special.jv(nu, x),
                                w[k], w[k + 1], tol=1e-13 * w[k])
    return (roots * roots).tolist()


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
