"""Modified-Bessel model: evaluation through scipy's ive, log-derivative,
squared J zeros.

The underlying entire function is F_nu(z) = sum_k z^k / (4^k k! Gamma(nu+k+1)),
which equals I_nu(sqrt(z)) / (sqrt(z)/2)^nu and has simple zeros exactly at
z = -j_{nu,n}^2.  Past |z| = 4 both F and f'/f come from the exponentially
scaled ive, which stays finite out to the profile's last node.  At and below
|z| = 4 the power series is summed: there ive(nu, w) and (w/2)^nu can
underflow (nu = 2.9 at z = 1e-300; every |w| <= 1 from nu of about 150 on).
"""

import cmath
import math

import numpy as np
import scipy.special

from .errors import ConvergenceError, DomainError
from .numerics import find_root_bracketed
from .zeros import FunctionModel, ZeroSequence

__all__ = [
    "bessel_i_scaled",
    "bessel_i_log_derivative",
    "bessel_j_squared_zeros",
    "BesselIModel",
]

DOMAIN_MAX_ABS = 1e4       # |z| cap of bessel_i_scaled and of the model
_SERIES_MAX_ABS = 4.0      # |z| at or below which the power series is summed
_SERIES_STOP = 1e-17       # remainder bound, relative to the largest term
_SERIES_MAX_TERMS = 5000
_HEAD_COUNT = 200          # explicit zeros of BesselIModel


def _series_f(nu, z):
    """F_nu(z) by the term recurrence; z is a number or an ndarray.

    The term ratio z/(4(k+1)(nu+k+1)) falls with k, so once below 1/2 the
    rest of the sum is below the current term; the sum stops when that is
    under 1e-17 of the largest term.  The stop is decided in Python floats.
    """
    try:
        t0 = 1.0 / math.gamma(nu + 1.0)
    except (OverflowError, ValueError):
        raise DomainError(f"gamma(nu+1) not representable for nu={nu!r}")
    m = float(np.max(np.abs(z), initial=0.0)) if isinstance(z, np.ndarray) else abs(z)
    term = total = t0 + 0.0 * z
    mag = peak = t0
    for k in range(_SERIES_MAX_TERMS):
        step = 4.0 * (k + 1.0) * (nu + k + 1.0)
        term = term * z / step
        total = total + term
        mag *= m / step
        peak = max(peak, mag)
        if m < 0.5 * step and mag < _SERIES_STOP * peak:
            return total
    raise ConvergenceError("series did not converge within the term budget")


def bessel_i_scaled(nu, z):
    """Evaluate F_nu(z) = I_nu(sqrt z)/(sqrt z / 2)^nu at a number z.

    Entire in z, 1/Gamma(nu+1) at z=0, a float for real z.  A Python complex
    goes straight into ive, with no numpy array on the way.  Requires
    nu > -1 and |z| <= 1e4.
    """
    if not nu > -1.0:
        raise DomainError(f"need nu > -1, got {nu!r}")
    zc = complex(z)
    mag = abs(zc)
    if mag > DOMAIN_MAX_ABS:
        raise DomainError(f"|z| exceeds the domain cap {DOMAIN_MAX_ABS:g}")
    if mag <= _SERIES_MAX_ABS:
        val = _series_f(nu, zc)
    else:
        w = cmath.sqrt(zc)
        val = complex(scipy.special.ive(nu, w)) * math.exp(w.real) / (0.5 * w) ** nu
    return val.real if zc.imag == 0.0 else val


def bessel_i_log_derivative(nu, x):
    """f'/f for f = F_nu at real x >= 0: F_(nu+1)(x)/(4 F_nu(x)), which is
    I_(nu+1)(r)/(2 r I_nu(r)) with r = sqrt x.

    Past the series range I_nu = I_(nu+2) + (2(nu+1)/r) I_(nu+1) turns this
    into 1/(4(nu+1) + 2r I_(nu+2)/I_(nu+1)): every order stays positive and
    both terms of the sum are positive.  scipy takes a negative order
    through the reflection formula, which costs up to 8e-14 at nu = -0.999.
    Positive and decreasing on the positive axis, 1/(4(nu+1)) at x = 0.
    """
    xa = np.asarray(x, dtype=float)
    if np.any(xa < 0.0):
        raise DomainError("log-derivative needs x >= 0")
    out = np.empty(xa.shape, dtype=float)
    near = xa <= _SERIES_MAX_ABS
    out[near] = _series_f(nu + 1.0, xa[near]) / (4.0 * _series_f(nu, xa[near]))
    r = np.sqrt(xa[~near])
    out[~near] = 1.0 / (4.0 * (nu + 1.0) + 2.0 * r * scipy.special.ive(nu + 2.0, r)
                        / scipy.special.ive(nu + 1.0, r))
    return out if xa.shape else float(out)


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
    """f(z) = I_nu(sqrt z)/(sqrt z/2)^nu as a negative-zeros product model:
    200 head zeros under a tail of order 1/2."""

    def __init__(self, nu):
        if not nu > -1.0:
            raise DomainError(f"need nu > -1, got {nu!r}")
        self.nu = float(nu)
        self.model_id = f"bessel-i(nu={self.nu:g})"
        self.f0 = 1.0 / math.gamma(self.nu + 1.0)
        self.domain_radius_max = DOMAIN_MAX_ABS
        self.identity_rhos = (0.55, 0.75, 0.9)
        # j_{nu,n}^2 = beta^2 + (1-4nu^2)/4 + O(beta^-2), beta = (n+nu/2-1/4)pi
        self._zs = ZeroSequence(self._compute_zeros(_HEAD_COUNT), 2.0,
                                math.pi ** 2, tail_offset=0.5 * self.nu - 0.25,
                                tail_shift=0.25 * (1.0 - 4.0 * self.nu ** 2))

    def _compute_zeros(self, count):
        return bessel_j_squared_zeros(self.nu, count)

    def value_ratio(self, z):
        return bessel_i_scaled(self.nu, z) / self.f0

    def log_derivative(self, x):
        return bessel_i_log_derivative(self.nu, x)
