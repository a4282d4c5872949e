"""Airy-pair model f(z) = Ai(i sqrt z) Ai(-i sqrt z).

Values and zeros come from scipy's AMOS Airy routines (airye, airy,
ai_zeros).  f(x)/f(0) overflows near x = 6.9e3 and |f(z)| <= f(|z|), so the
pair evaluation is capped at |z| <= DOMAIN_MAX_ABS = 5e3.  The zeros of f sit
at z_n = t_n^2 where Ai(-t_n) = 0; they grow like (3 pi (4n-1)/8)^(4/3),
giving an entire function of order 3/4.  f'/f is the zero sum.

airy_ai_maclaurin, Ai from its Maclaurin series for |w| <= 8.5, is the
independent route that verify's pair-product derivative check and the tests
compare against.
"""

import cmath
import math

import numpy as np
from scipy.special import ai_zeros, airy, airye

from .errors import DomainError
from .zeros import FunctionModel, ZeroSequence, reciprocal_zero_sum

__all__ = [
    "airy_ai_maclaurin",
    "airy_pair_eval",
    "airy_squared_zeros",
    "AiryPairModel",
]

AI_ZERO = 0.35502805388781724        # Ai(0)  = 3^(-2/3)/Gamma(2/3)
AI_PRIME_ZERO = -0.2588194037928068  # Ai'(0) = -3^(-1/3)/Gamma(1/3)
DOMAIN_MAX_ABS = 5e3      # |z| cap of airy_pair_eval and of the model
_W_MAX = 8.5            # |w| cap for the Maclaurin series (cancellation)
_TAIL_C = (1.5 * math.pi) ** (4.0 / 3.0)


def airy_ai_maclaurin(w):
    """Ai(w) from the two Maclaurin series
    Ai(w) = Ai(0)*sum_k 3^k (1/3)_k w^(3k)/(3k)!  + Ai'(0)*sum_k ...

    Good to ~1e-15 relative for |w| <= 8.5; DomainError beyond.
    """
    w = complex(w)
    if abs(w) > _W_MAX:
        raise DomainError(f"Maclaurin reliability cap is |w| <= {_W_MAX:g}")
    w3 = w * w * w
    fterm = 1.0 + 0.0j
    fsum = fterm
    gterm = w
    gsum = gterm
    for k in range(220):
        fterm = fterm * w3 / ((3 * k + 2) * (3 * k + 3))
        gterm = gterm * w3 / ((3 * k + 3) * (3 * k + 4))
        fsum += fterm
        gsum += gterm
        if (abs(fterm) <= 1e-18 * abs(fsum)
                and abs(gterm) <= 1e-18 * max(abs(gsum), 1e-300)):
            break
    return AI_ZERO * fsum + AI_PRIME_ZERO * gsum


def airy_pair_eval(z):
    """Ai(i sqrt z) * Ai(-i sqrt z); real and >= Ai(0)^2 for real z >= 0.

    With w = i sqrt z this is airye(w) airye(-w) exp(-(2/3)(w^(3/2) +
    (-w)^(3/2))), where airye(w) = Ai(w) exp((2/3) w^(3/2)) is the scaled
    AMOS routine; DomainError past |z| = DOMAIN_MAX_ABS.
    """
    z = complex(z)
    if abs(z) > DOMAIN_MAX_ABS:
        raise DomainError(f"|z| = {abs(z):g} exceeds the domain cap {DOMAIN_MAX_ABS:g}")
    # a -0.0 imaginary part would put -w on the lower side of airye's cut
    w = 1j * cmath.sqrt(complex(z.real, z.imag + 0.0))
    scale = cmath.exp(-(2.0 / 3.0) * (w * cmath.sqrt(w) + (-w) * cmath.sqrt(-w)))
    val = complex(airye(w)[0]) * complex(airye(-w)[0]) * scale
    if z.imag == 0.0 and z.real >= 0.0:
        # conjugate pair of a real-coefficient function
        return complex(val.real, 0.0)
    return val


def airy_squared_zeros(count):
    """First `count` values of t_n^2 with Ai(-t_n) = 0: scipy's ai_zeros
    refined by one Newton step t += Ai(-t)/Ai'(-t)."""
    if not 1 <= count <= 10 ** 3:
        raise DomainError(f"count must be in [1, 1e3], got {count!r}")
    t = -ai_zeros(count)[0]
    ai, ai_prime, _, _ = airy(-t)
    t = t + ai / ai_prime
    return (t * t).tolist()


class AiryPairModel(FunctionModel):
    """f(z) = Ai(i sqrt z) Ai(-i sqrt z): order 3/4, zeros at t_n^2."""

    def __init__(self, head_count=200):
        self.model_id = "airy-pair"
        self.order_rho0 = 0.75
        self.f0 = AI_ZERO ** 2
        self.domain_radius_max = DOMAIN_MAX_ABS
        self.identity_rhos = (0.8, 0.875, 0.95)
        head = airy_squared_zeros(head_count)
        self._zs = ZeroSequence(head, 4.0 / 3.0, _TAIL_C, order_rho0=0.75,
                                tail_offset=-0.25)

    def zeros(self):
        return self._zs

    def value_ratio(self, z):
        zc = complex(z)
        val = airy_pair_eval(zc) / self.f0
        if zc.imag == 0.0 and zc.real >= 0.0:
            return float(val.real)
        return val

    def log_derivative(self, x):
        # zero-sum route: sum 1/(x + z_n) with the 4/3-power tail
        xa = np.asarray(x, dtype=float)
        if np.any(xa < 0.0):
            raise DomainError("log-derivative needs x >= 0")
        return reciprocal_zero_sum(self._zs, x)
