"""Airy-pair model f(z) = Ai(i sqrt z) Ai(-i sqrt z).

Ai is evaluated by its Maclaurin expansion, which is reliable for the
moderate |w| = sqrt|z| this model allows (the pair evaluation is capped at
|z| <= z_max, default 25).  The zeros of f sit at z_n = t_n^2 where
Ai(-t_n) = 0; they grow like (3 pi (4n-1)/8)^(4/3), giving an entire
function of order 3/4.
"""

import cmath
import math

import numpy as np

from .errors import DomainError
from .numerics import find_root_bracketed
from .zeros import FunctionModel, ZeroSequence, reciprocal_zero_sum

__all__ = [
    "airy_ai_maclaurin",
    "airy_pair_eval",
    "airy_squared_zeros",
    "AiryPairModel",
]

AI_ZERO = 0.35502805388781724        # Ai(0)  = 3^(-2/3)/Gamma(2/3)
AI_PRIME_ZERO = -0.2588194037928068  # Ai'(0) = -3^(-1/3)/Gamma(1/3)
Z_MAX_DEFAULT = 25.0
_W_MAX = 8.5            # |w| cap for the Maclaurin series (cancellation)
_REFINE_MAX = 5         # root refinement window; see airy_squared_zeros
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


def airy_pair_eval(z, z_max: float = Z_MAX_DEFAULT):
    """Ai(i sqrt z) * Ai(-i sqrt z); real and >= Ai(0)^2 for real z >= 0."""
    z = complex(z)
    if abs(z) > z_max:
        raise DomainError(f"|z| = {abs(z):g} exceeds the evaluation cap {z_max:g}")
    w = 1j * cmath.sqrt(z)
    val = airy_ai_maclaurin(w) * airy_ai_maclaurin(-w)
    if z.imag == 0.0 and z.real >= 0.0:
        # conjugate pair of a real-coefficient function
        return complex(val.real, 0.0)
    return val


def _airy_t_guess(n: int) -> float:
    """Asymptotic n-th zero of Ai(-t): T(zeta) with zeta = 3 pi (4n-1)/8."""
    zeta = 3.0 * math.pi * (4 * n - 1) / 8.0
    zi = 1.0 / (zeta * zeta)
    corr = (1.0 + zi * (5.0 / 48.0 + zi * (-5.0 / 36.0 + zi * (
        77125.0 / 82944.0 - zi * 108056875.0 / 6967296.0))))
    return zeta ** (2.0 / 3.0) * corr


def airy_squared_zeros(count):
    """First `count` values of t_n^2 with Ai(-t_n) = 0.

    The first few guesses are refined together by one bracketed solve on
    the Maclaurin series; past n = 5 the asymptotic guess is already more
    accurate than the cancellation-limited series, so it is used directly
    (everything returned is good to ~5e-12 relative).
    """
    if not 1 <= count <= 10 ** 3:
        raise DomainError(f"count must be in [1, 1e3], got {count!r}")
    t = np.array([_airy_t_guess(n) for n in range(1, count + 1)])
    near = t[:_REFINE_MAX]
    t[:_REFINE_MAX] = find_root_bracketed(
        lambda s: np.array([airy_ai_maclaurin(-v).real for v in s]),
        near - 0.2, near + 0.2, tol=1e-13)
    out = t * t
    if np.any(np.diff(out) <= 0.0):
        raise DomainError("airy zeros failed to come out increasing")
    return out.tolist()


class AiryPairModel(FunctionModel):
    """f(z) = Ai(i sqrt z) Ai(-i sqrt z): order 3/4, zeros at t_n^2."""

    def __init__(self, head_count=200, z_max: float = Z_MAX_DEFAULT):
        self.model_id = "airy-pair"
        self.order_rho0 = 0.75
        self.f0 = AI_ZERO ** 2
        self.z_max = float(z_max)
        self.domain_radius_max = self.z_max
        self.identity_rhos = (0.8, 0.875, 0.95)
        head = airy_squared_zeros(head_count)
        self._zs = ZeroSequence(head, 4.0 / 3.0, _TAIL_C, order_rho0=0.75,
                                tail_offset=-0.25)

    def zeros(self):
        return self._zs

    def value_ratio(self, z):
        zc = complex(z)
        val = airy_pair_eval(zc, self.z_max) / self.f0
        if zc.imag == 0.0 and zc.real >= 0.0:
            return float(val.real)
        return val

    def log_derivative(self, x):
        # zero-sum route: sum 1/(x + z_n) with the 4/3-power tail
        xa = np.asarray(x, dtype=float)
        if np.any(xa < 0.0):
            raise DomainError("log-derivative needs x >= 0")
        return reciprocal_zero_sum(self._zs, x)
