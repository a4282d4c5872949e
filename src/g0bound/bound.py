"""Half-plane growth bound for genus-zero products with negative zeros.

For f(z) = f(0)·prod(1 + z/z_n) with z_n > 0 and convergence exponent
rho0 < 1, every z with |arg z| < pi/2 and every rho in (rho0, 1) satisfy

    1 <= f(Re z)/f(0) <= |f(z)/f(0)| <= exp(E),
    E = (rho/e)^rho |z|^rho J(rho) / (cos^{1-rho}(arg z) Gamma(1+rho)),

where J(rho) = int_0^inf g(x) x^{-rho} dx and g = f'/f.  This module
computes J, both the final exponent E and the sharper intermediate
exponent from which it is derived, optimizes over rho, and packages a full
evaluation of the inequality chain as a BoundReport.

g = sum 1/(x + z_n) does not depend on rho, so each model's g is sampled
once, on its first J request, in one log_derivative call on the nodes of
8-point Gauss-Legendre and 9-point Gauss-Lobatto rules on doubling panels
over [eps, X] (1,442 abscissae with x = 0).  g is a
Stieltjes function, so g(x) x^{-rho} is completely monotone for every rho:
on each panel the Legendre rule underestimates and the Lobatto rule
overestimates its integral.  For any rho, J is thus bracketed by two dot
products with weights w_i x_i^{-rho}, closed by the head [0, eps] (g is
decreasing there) and a closed-form tail beyond X (_counting_tail,
_k_order_tail).  Both ends are moved outward by a rounding allowance of
samples * eps times the computed sum, so the bracket never has zero width;
it holds up to the evaluation error of g itself.  The ceiling is built from
its upper end J_hi.

With |z| = Re z / cos(arg z) the exponent separates:

    log E = b(rho) + rho log(Re z) - log cos(arg z),
    b(rho) = rho (log rho - 1) + log J_hi(rho) - log Gamma(1 + rho),

where b depends on the model alone.  The same sampling therefore yields a
table of b on every candidate rho: the lattice points k * 5e-4 in
[rho0 + 1e-3, 1 - 1e-3] and the two ends of that range.  optimize_rho is
the exact argmin of b + rho log(Re z) over that table, so rho* depends on
z only through Re z.  Any admissible rho gives a valid ceiling; the
lattice only fixes which ones are compared.

The intermediate exponent needs sup_t t^rho phi(t), phi(t) = sum e^{-z_n t}.
phi does not depend on rho either: each zero sequence samples it once, on
its first sup request, and sup_weighted_phi reads a rho's grid maximum from
those samples and refines it in a few vectorized phi evaluations (about
1 ms).  The result is still memoized per model and exact rho in _SUP_CACHE,
since warm sessions repeat rhos and a hit costs nothing.
"""

from __future__ import annotations

import cmath
import math
import weakref
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln

from .errors import DivergenceError, DomainError, EvaluationOverflowError
from .kbessel import KOrderModel
from .numerics import QuadratureResult, doubling_panel_rules, gamma
# unused here; perfbench/tracing.py patches bound.integrate_singular and
# bound.minimize_scalar by name
from .numerics import integrate_singular, minimize_scalar  # noqa: F401
from .zeros import FunctionModel, ZeroSequence, sup_weighted_phi

__all__ = [
    "BoundReport",
    "midpoint_rho",
    "log_ratio_integral",
    "bound_exponent",
    "intermediate_exponent",
    "optimize_rho",
    "evaluate_chain",
]

# chain_ok slacks: the upper comparison inherits quadrature error, the lower
# comparisons only evaluation round-off
_UPPER_SLACK = 1e-9
_LOWER_SLACK = 1e-12

# rho* is chosen among the lattice points k * 5e-4 that keep 1e-3 away from
# both genuine endpoint singularities, and the two ends of that range;
# x^-(k h) is factored over blocks of _BLOCK consecutive k
_RHO_MARGIN = 1e-3
_RHO_LATTICE = 5e-4
_BLOCK = 32

# sampling of g: head [0, _EPS], doubling panels up to X = _EPS * 2^90 ~ 1.2e17
_EPS = 1e-10
_PANELS = 90
_X = _EPS * 2.0 ** _PANELS

_PROFILES: "weakref.WeakKeyDictionary[FunctionModel, _Profile]" = weakref.WeakKeyDictionary()
_SUP_CACHE: "weakref.WeakKeyDictionary[FunctionModel, dict]" = weakref.WeakKeyDictionary()


@dataclass(frozen=True)
class BoundReport:
    """One evaluated instance of the inequality chain at (z, rho).

    `lower` and `mid` are the measured ratios |f(Re z)/f(0)| and |f(z)/f(0)|,
    `bound` = exp(exponent_thm) the certified ceiling, `slack` how much
    head-room the ceiling leaves over the measured value in log scale.
    `j_source` records which route produced J (always "quadrature"; the
    zero-sum identity serves as an independent cross-check, never as the
    producer).
    """

    z: complex
    rho: float
    J: float
    exponent_thm: float
    exponent_intermediate: float
    bound: float
    lower: float
    mid: float
    chain_ok: bool
    slack: float
    j_source: str = "quadrature"

    def to_json_dict(self) -> dict:
        """The serialized report; a value that is not finite is None (bound
        overflows once exponent_thm passes about 709, which still carries
        its log)."""
        def num(x):
            return x if math.isfinite(x) else None

        return {
            "z": {"re": num(self.z.real), "im": num(self.z.imag)},
            "rho": num(self.rho),
            "J": num(self.J),
            "exponent_thm": num(self.exponent_thm),
            "exponent_intermediate": num(self.exponent_intermediate),
            "bound": num(self.bound),
            "lower": num(self.lower),
            "mid": num(self.mid),
            "chain_ok": bool(self.chain_ok),
            "slack": num(self.slack),
            "j_source": self.j_source,
        }


def midpoint_rho(model: FunctionModel) -> float:
    """Midpoint of the admissible exponent range (rho0, 1)."""
    return 0.5 * (model.order_rho0 + 1.0)


def _check_rho(model: FunctionModel, rho: float) -> float:
    rho = float(rho)
    if not rho < 1.0:
        raise DomainError(f"rho must lie in ({model.order_rho0:g}, 1), got {rho!r}")
    if not rho > model.order_rho0:
        raise DivergenceError(
            f"J(rho) diverges for rho <= rho0 = {model.order_rho0:g} "
            f"(integrand tail ~ x^(rho0-1-rho)); got rho = {rho!r}")
    return rho


def _check_halfplane(z: complex) -> complex:
    zc = complex(z)
    if zc == 0:
        raise DomainError("z = 0 has no argument; the chain needs |arg z| < pi/2")
    if abs(cmath.phase(zc)) >= 0.5 * math.pi:
        raise DomainError(
            f"z = {zc} lies outside the open right half-plane (|arg z| < pi/2)")
    return zc


# --------------------------------------------------------------------------
# J(rho) from one sampling of g = f'/f per model
# --------------------------------------------------------------------------


def _counting_tail(zs: ZeroSequence):
    """int_X^inf g(x) x^{-rho} dx from the zero counting function N(t).

    Integration by parts gives g(x) = int_0^inf N(t) (x + t)^-2 dt.  With
    N(t) = A t^rho0 + D(t) and |D| <= B (ZeroSequence.counting_bound) this
    is A (pi rho0 / sin(pi rho0)) x^(rho0 - 1) + d(x) with |d(x)| <= B / x,
    so the tail is A pi rho0 / sin(pi rho0) X^(rho0 - rho) / (rho - rho0)
    within B X^-rho / rho.  A head-only sequence of N zeros up to z_N has
    N / (x + z_N) <= g(x) <= N / x instead.  Returns rho -> (main, band).
    """
    if not zs.has_tail:
        n, z_top = float(zs.head_count), float(zs.head[-1])

        def head_only(rho):
            upper = n * _X ** -rho / rho
            lower = upper * _X / (_X + z_top)
            return 0.5 * (upper + lower), 0.5 * (upper - lower)

        return head_only

    rho0 = zs.order_rho0
    amp, dev = zs.counting_bound()
    coef = amp * math.pi * rho0 / math.sin(math.pi * rho0)

    def counted(rho):
        return coef * _X ** (rho0 - rho) / (rho - rho0), dev * _X ** -rho / rho

    return counted


def _k_order_tail(a: float):
    """int_X^inf g(x) x^{-rho} dx for K_{sqrt x}(a), as a stated hypothesis.

    The order-zeros of K are not known well enough for a counting bound, so
    this uses the large-order expansion
    K_nu(a) ~ Gamma(nu) (a/2)^-nu (1 - a^2 / (4 (nu - 1))) / 2, which gives,
    with nu = sqrt x,
    g(x) = [log(2 nu / a) - 1/(2 nu) + (a^2/4 - 1/12) / nu^2 + O(nu^-3)] / (2 nu).
    Each term integrates in closed form; the band is the size of the last
    kept one.  Returns rho -> (main, band).
    """
    log_x = math.log(_X)
    third = 0.5 * (0.25 * a * a - 1.0 / 12.0)

    def tail(rho):
        beta = rho - 0.5
        lead = 0.5 * _X ** -beta * (0.5 * (log_x / beta + 1.0 / beta ** 2)
                                    + math.log(2.0 / a) / beta)
        last = third * _X ** (-rho - 0.5) / (rho + 0.5)
        return lead - 0.25 * _X ** -rho / rho + last, abs(last)

    return tail


def _sample(model: FunctionModel, x: np.ndarray) -> np.ndarray:
    """g at the abscissae x in one log_derivative call; each model bounds
    its own temporaries."""
    try:
        out = np.asarray(model.log_derivative(x), dtype=float)
    except ArithmeticError as exc:
        raise EvaluationOverflowError(
            f"log_derivative of {model.model_id} failed on x in "
            f"[{float(x.min())!r}, {float(x.max())!r}]: {exc}") from exc
    bad = np.flatnonzero(~(np.isfinite(out) & (out >= 0.0)))
    if bad.size:
        i = bad[np.argmin(x[bad])]
        raise EvaluationOverflowError(
            f"log_derivative of {model.model_id} is {float(out[i])!r} at "
            f"x = {float(x[i])!r}; f'/f must be finite and nonnegative")
    return out


class _Profile:
    """One model's g sampled once at the nodes of the paired rules, the J
    bracket those samples give for any rho, and the table of b(rho) on the
    candidates of optimize_rho."""

    def __init__(self, model: FunctionModel):
        x_gl, w_gl, x_lob, w_lob = doubling_panel_rules(_EPS, _PANELS)
        x = np.concatenate(([0.0], x_lob, x_gl))
        g = _sample(model, x)
        self.samples = int(x.size)
        self.round_off = self.samples * np.finfo(float).eps
        # g decreases, so on [0, eps] it lies between g(eps) and g(0)
        self.g0, self.g_eps = float(g[0]), float(g[1])
        self.log_x = np.log(x[1:])
        n_lob = x_lob.size
        # column 0: Legendre (lower) weights, column 1: Lobatto (upper)
        self.weights = np.zeros((x.size - 1, 2))
        self.weights[n_lob:, 0] = w_gl * g[1 + n_lob:]
        self.weights[:n_lob, 1] = w_lob * g[1:1 + n_lob]
        if isinstance(model, KOrderModel):
            self.tail = _k_order_tail(model.a)
        else:
            self.tail = _counting_tail(model.zeros())
        self.rhos, self.b = self._exponent_table(model.order_rho0, n_lob)

    def bracket(self, rho: float) -> tuple[float, float]:
        """(J_lo, J_hi) for rho in (rho0, 1).

        Each end is widened by self.round_off times the upper sum: the dot
        products accumulate at most samples * eps of their sum, and an
        exponent of up to 40 nats passes about 40 eps to each factor x^-rho
        and X^-rho.
        """
        body_lo, body_hi = np.exp(-rho * self.log_x) @ self.weights
        head = _EPS ** (1.0 - rho) / (1.0 - rho)
        main, band = self.tail(rho)
        lo = body_lo + self.g_eps * head + max(main - band, 0.0)
        hi = body_hi + self.g0 * head + main + band
        slop = self.round_off * hi
        return float(lo - slop), float(hi + slop)

    def _exponent_table(self, rho0: float, n_lob: int):
        """The candidate rhos of optimize_rho and b(rho) on each of them."""
        lo, hi = rho0 + _RHO_MARGIN, 1.0 - _RHO_MARGIN
        if not lo < hi:
            return np.empty(0), np.empty(0)
        h = _RHO_LATTICE
        k = np.arange(math.floor(lo / h), math.ceil(hi / h) + 1)
        # Lobatto body sums for rho = k h: with k = k[0] + S q + j, S = _BLOCK,
        # x^-(k h) = x^-((k[0] + S q) h) x^-(j h), one GEMM over (q, j)
        log_x, w_hi = self.log_x[:n_lob], self.weights[:n_lob, 1]
        starts = (k[0] + _BLOCK * np.arange(-(-k.size // _BLOCK))) * h
        coarse = np.exp(-np.outer(starts, log_x))
        fine = np.exp(-np.outer(np.arange(_BLOCK) * h, log_x)) * w_hi
        body = (coarse @ fine.T).ravel()[:k.size]
        rho = k * h
        head = _EPS ** (1.0 - rho) / (1.0 - rho)
        main, band = self.tail(rho)
        j_hi = (body + self.g0 * head + main + band) * (1.0 + self.round_off)
        inside = (rho >= lo) & (rho <= hi)
        rhos = np.concatenate(([lo], rho[inside], [hi]))
        j_hi = np.concatenate(([self.bracket(lo)[1]], j_hi[inside],
                               [self.bracket(hi)[1]]))
        return rhos, rhos * (np.log(rhos) - 1.0) + np.log(j_hi) - gammaln(1.0 + rhos)


def _profile(model: FunctionModel) -> _Profile:
    profile = _PROFILES.get(model)
    if profile is None:
        profile = _PROFILES[model] = _Profile(model)
    return profile


def log_ratio_integral(model: FunctionModel, rho: float) -> QuadratureResult:
    """J(rho) = int_0^inf (f'(x)/f(x)) x^{-rho} dx for rho0 < rho < 1.

    `value` is the upper end J_hi of the certified bracket and
    `error_estimate` its width J_hi - J_lo (rule gap, head gap, tail band
    and the rounding allowance, so never 0), so J lies in
    [value - error_estimate, value].  `evaluations` is the number of f'/f
    samples behind the bracket; they are taken once per model, on its first
    J request, and serve every later rho.
    """
    rho = _check_rho(model, rho)
    profile = _profile(model)
    lo, hi = profile.bracket(rho)
    return QuadratureResult(hi, max(hi - lo, 0.0), profile.samples)


def bound_exponent(model: FunctionModel, z: complex, rho: float, J: float) -> float:
    """Certified exponent E = (rho/e)^rho |z|^rho J / (cos^{1-rho}(arg z) Gamma(1+rho))."""
    zc = _check_halfplane(z)
    rho = _check_rho(model, rho)
    if not J >= 0.0:
        raise DomainError(f"J must be nonnegative, got {J!r}")
    theta = cmath.phase(zc)
    log_scale = rho * (math.log(rho) - 1.0) + rho * math.log(abs(zc)) \
        + (rho - 1.0) * math.log(math.cos(theta))
    return float(math.exp(log_scale) * J / gamma(1.0 + rho))


def _sup_cached(model: FunctionModel, rho: float) -> float:
    memo = _SUP_CACHE.setdefault(model, {})
    hit = memo.get(rho)
    if hit is None:
        hit = sup_weighted_phi(model.zeros(), rho)
        memo[rho] = hit
    return hit


def intermediate_exponent(model: FunctionModel, z: complex, rho: float) -> float:
    """Sharper chain exponent (Re z)^rho sup_t t^rho phi(t) Gamma(1-rho)/(rho cos(arg z)).

    phi(t) = sum_n e^{-z_n t} over the model's zeros.  Always at most
    bound_exponent for the same inputs, since sup_t t^rho phi(t) <=
    (rho/e)^rho sum z_n^{-rho} and (Re z)^rho / cos = |z|^rho cos^{rho-1}.
    """
    zc = _check_halfplane(z)
    rho = _check_rho(model, rho)
    theta = cmath.phase(zc)
    sup = _sup_cached(model, rho)
    return float((zc.real ** rho) * sup * gamma(1.0 - rho) / (rho * math.cos(theta)))


def optimize_rho(model: FunctionModel, z: complex):
    """Best exponent over the candidate rhos; returns (rho*, E*).

    The candidates are the lattice points k * 5e-4 in
    [rho0 + 1e-3, 1 - 1e-3] and the two ends of that range.  rho* is the
    exact argmin of b(rho) + rho log(Re z) over the model's table (see the
    module docstring), so it depends on z only through Re z; E* is then
    evaluated at rho* exactly as evaluate_chain evaluates it.
    """
    zc = _check_halfplane(z)
    profile = _profile(model)
    if not profile.rhos.size:
        raise DomainError(f"empty rho range for rho0 = {model.order_rho0:g}")
    i = np.argmin(profile.b + profile.rhos * math.log(zc.real))
    rho_star = float(profile.rhos[i])
    return rho_star, bound_exponent(model, zc, rho_star,
                                    log_ratio_integral(model, rho_star).value)


def evaluate_chain(model: FunctionModel, z: complex, rho: float) -> BoundReport:
    """Evaluate every member of the inequality chain at (z, rho).

    chain_ok is true when 1 <= lower <= mid <= bound up to the documented
    slacks (1e-12 relative on the two lower comparisons, 1e-9 on the upper).
    """
    zc = _check_halfplane(z)
    rho = _check_rho(model, rho)
    j_res = log_ratio_integral(model, rho)
    exponent = bound_exponent(model, zc, rho, j_res.value)
    exponent_mid = intermediate_exponent(model, zc, rho)
    lower = abs(model.value_ratio(float(zc.real)))
    mid = abs(model.value_ratio(zc))
    bound = math.exp(exponent) if exponent < 709.0 else math.inf
    chain_ok = (
        lower >= 1.0 - _LOWER_SLACK
        and lower <= mid * (1.0 + _LOWER_SLACK)
        and mid <= bound * (1.0 + _UPPER_SLACK)
    )
    return BoundReport(
        z=zc,
        rho=rho,
        J=float(j_res.value),
        exponent_thm=exponent,
        exponent_intermediate=exponent_mid,
        bound=bound,
        lower=float(lower),
        mid=float(mid),
        chain_ok=bool(chain_ok),
        slack=float(exponent - math.log(mid)),
    )
