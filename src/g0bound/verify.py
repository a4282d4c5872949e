"""Verification harness: every checkable identity and inequality behind the
half-plane bound, run against concrete models and emitted as structured
pass/fail records.

Three suites: identities (Mellin and Laplace transforms of phi, the singular
log-ratio integral against its zero-sum closed form, the exponential log
representation of the value ratio), the inequality chain over a polar grid
(with angle-monotonicity of the exponent and an elementary half-plane
inequality fuzzed over seeded random points), and complete-monotonicity
consequences (derivative domination, negative-power monotonicity, convexity
of the squared modulus along vertical lines).

phi(t) = sum e^{-z_n t} does not depend on the transform, so the identity
suite samples it once per model, on one composite Legendre rule over
[2^-133, T], and takes every Mellin, Laplace and log-representation
transform as a dot product with its kernel.  The head [0, 2^-133], where phi
grows like t^-rho0, is added in closed form from the envelope of phi
(ZeroSequence.phi_envelope), so every rho in (rho0, 1) works, also next to
rho0.

Models whose zero data is non-authoritative (short best-effort heads) get a
degraded identity suite: quadrature self-consistency of J plus the log
representation restricted to the positive axis, neither of which leans on
zero sums.  Failures are data, not exceptions.  Record order is
deterministic: sorted by (check_name, model_id, serialized inputs).
"""

from __future__ import annotations

import cmath
import functools
import json
import math
from dataclasses import dataclass
from io import StringIO

import numpy as np
import scipy.special

from .airy import AiryPairModel, airy_ai_maclaurin
from .bessel import BesselIModel, _series_f
from .bound import evaluate_chain, log_ratio_integral, midpoint_rho, optimize_rho
from .errors import ConvergenceError, DomainError
from .numerics import doubling_panel_rules, quad_adaptive
# unused here; perfbench/tracing.py patches verify.integrate_singular by name
from .numerics import integrate_singular  # noqa: F401
from .zeros import (FunctionModel, phi_vec, reciprocal_power_zero_sum,
                    zero_sum)

__all__ = [
    "VerificationRecord",
    "GridSpec",
    "TOLERANCES",
    "format_complex",
    "run_identity_suite",
    "run_inequality_suite",
    "run_monotonicity_suite",
    "run_all",
    "summarize_records",
    "records_to_jsonl",
    "records_to_csv",
]

_TINY = 1e-300
# json.dumps(..., sort_keys=True) without building an encoder per record
_JSON_ENCODER = json.JSONEncoder(sort_keys=True, allow_nan=False)

# the tolerance of each check, looked up by check name
TOLERANCES = {
    # identity suite (relative agreement of two routes)
    "mellin_transform": 1e-6,
    "laplace_transform": 1e-6,
    "log_ratio_integral_identity": 1e-6,
    "log_representation": 1e-6,
    "log_ratio_finite": 1e-6,
    "log_representation_axis": 1e-6,
    "axis_integrand_adjudication": 1e-9,
    "pair_product_derivative": 1e-6,
    # inequality chain (one-sided slacks)
    "chain_lower": 1e-12,
    "chain_upper": 1e-9,
    "chain_tightness": 1e-12,
    "angle_monotonicity": 1e-12,
    "elementary_exp_inequality": 1e-12,
    # complete-monotonicity consequences
    "derivative_modulus_bound": 1e-9,
    "negative_power_monotone": 1e-9,
    "squared_modulus_convexity": 1e-6,
    "squared_modulus_radial": 1e-9,
}

_LAPLACE_XS = (0.5, 1.0, 5.0)
_LOGREP_ZS = (1.0 + 0.0j, 1.0 + 1.0j, 2.0 + 0.5j)
_AXIS_XS = (1.0, 4.0, 16.0)
_ADJUDICATION_XS = (0.5, 1.0, 4.0, 10.0)
_MONO_ZS = (1.0 + 1.0j, 2.0 + 3.0j, 0.5 + 0.2j)
_MONO_BETAS = (0.5, 1.0, 2.0)
_JENSEN_XS = (0.0, 1.0)
_JENSEN_YS = (-2.0, -0.5, 0.5, 2.0)
_JENSEN_H = 1e-3
_FUZZ_POINTS = 10_000
# the phi transforms: panels of ratio 2^(2/3) from lo = 2^-133 up to at
# least 64/z_1, and the largest share of a transform a closed-form head's
# band may take
_PHI_LO = 2.0 ** -133
_PHI_REACH = 64.0
_PHI_RATIO = 2.0 ** (2.0 / 3.0)
_HEAD_BAND_MAX = 1e-12


def format_complex(z) -> str:
    """Shell-safe complex literal RE+IMi / RE-IMi; plain repr for reals."""
    zc = complex(z)
    if zc.imag == 0.0:
        return repr(zc.real)
    sign = "+" if zc.imag >= 0.0 else "-"
    return f"{zc.real!r}{sign}{abs(zc.imag)!r}i"


@dataclass(frozen=True)
class VerificationRecord:
    """One checked statement: two quantities, their gap, and the verdict.

    The serialized field name for `passed` is "pass" (a Python keyword).
    One-sided inequality checks encode their (clipped) violation as both
    abs_error and rel_error, so the pass rule is uniformly
    pass <=> (abs_error <= tolerance or rel_error <= tolerance), except for
    log_ratio_finite, a value against its own error estimate, which passes
    on rel_error alone.  The tolerance is TOLERANCES[check_name].
    """

    check_name: str
    model_id: str
    inputs: dict
    lhs: complex | float
    rhs: complex | float
    abs_error: float
    rel_error: float
    tolerance: float
    passed: bool

    def sort_key(self):
        return self._sort_key

    @functools.cached_property
    def _sort_key(self):
        # serialized once per record; not a dataclass field
        return (self.check_name, self.model_id,
                json.dumps(self.inputs, sort_keys=True))

    def to_json_dict(self) -> dict:
        """The serialized record; a value that is not finite is None."""
        def num(v):
            vc = complex(v)
            if not cmath.isfinite(vc):
                return None
            return format_complex(vc) if vc.imag != 0.0 else float(vc.real)

        return {
            "check_name": self.check_name,
            "model_id": self.model_id,
            "inputs": self.inputs,
            "lhs": num(self.lhs),
            "rhs": num(self.rhs),
            "abs_error": num(self.abs_error),
            "rel_error": num(self.rel_error),
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _two_sided(name, model_id, inputs, lhs, rhs) -> VerificationRecord:
    tol = TOLERANCES[name]
    abs_err = float(abs(lhs - rhs))
    rel_err = abs_err / max(abs(rhs), _TINY)
    return VerificationRecord(name, model_id, inputs, lhs, rhs, abs_err,
                              rel_err, tol, abs_err <= tol or rel_err <= tol)


def _one_sided(name, model_id, inputs, lhs, rhs, violation) -> VerificationRecord:
    tol = TOLERANCES[name]
    v = max(0.0, float(violation))
    return VerificationRecord(name, model_id, inputs, lhs, rhs, v, v, tol,
                              v <= tol)


def _estimate(name, model_id, inputs, value, error) -> VerificationRecord:
    """A value against its own error estimate: passes on the relative
    error alone."""
    tol = TOLERANCES[name]
    rel_err = error / max(abs(value), _TINY)
    return VerificationRecord(name, model_id, inputs, value, value, error,
                              rel_err, tol, rel_err <= tol)


@dataclass(frozen=True)
class GridSpec:
    """Polar sampling grid: z = r e^{i theta} over radii x angles, each
    paired with every rho entry — a float, or the tokens "midpoint"
    ((rho0+1)/2) and "optimized" (per-z rho search)."""

    radii: tuple
    angles: tuple
    rhos: tuple

    def __post_init__(self):
        object.__setattr__(self, "radii", tuple(float(r) for r in self.radii))
        object.__setattr__(self, "angles", tuple(float(t) for t in self.angles))
        object.__setattr__(self, "rhos", tuple(
            r if r in ("midpoint", "optimized") else float(r) for r in self.rhos))
        if not self.radii or not self.angles or not self.rhos:
            raise DomainError("grid needs at least one radius, angle and rho")
        if any(not r > 0.0 for r in self.radii):
            raise DomainError("grid radii must be positive")
        if any(abs(t) >= 0.5 * math.pi for t in self.angles):
            raise DomainError("grid angles must satisfy |theta| < pi/2")
        for r in self.rhos:
            if isinstance(r, float) and not 0.0 < r < 1.0:
                raise DomainError(f"grid rho {r!r} outside (0, 1)")

    @classmethod
    def default(cls) -> "GridSpec":
        return cls(
            radii=(0.25, 1.0, 4.0, 16.0),
            angles=(0.0, math.pi / 6, -math.pi / 6, math.pi / 3,
                    -math.pi / 3, 0.45 * math.pi, -0.45 * math.pi),
            rhos=("midpoint", "optimized"),
        )


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


class _PhiRule:
    """phi(t) = sum e^{-z_n t} sampled once, and the closed-form head that
    every transform int_0^inf k(t) phi(t) dt of the identity suite adds.

    The body [lo, T] is the 8-point Legendre rule of
    numerics.doubling_panel_rules on panels of ratio 2^(2/3), lo = 2^-133
    and T >= 64/z_min, z_min the least zero (ZeroSequence.least_zero),
    past which every term of phi is below e^-64; a transform's body is
    w_i phi(t_i) dotted with its kernel at the nodes.  The ratio sets the
    rule's error: each panel of the power law t^(rho - 1 - rho0) near 0
    loses the same share, and so does the transform.  On doubling panels
    that share is about 8e-13, and panels 4-32/z_1 wide where
    phi ~ e^(-z_1 t) add to it; at 2^(2/3) it is about 2e-15, for 1.5
    times the nodes (about 1,700).

    The head [0, lo] comes from the envelope
    |phi(t) - a t^-q| <= b t^r (ZeroSequence.phi_envelope).
    """

    def __init__(self, zs):
        panels = math.ceil(math.log(_PHI_REACH / (zs.least_zero * _PHI_LO))
                           / math.log(_PHI_RATIO))
        t, w, _, _ = doubling_panel_rules(_PHI_LO, panels, _PHI_RATIO)
        self.t, self.log_t = t, np.log(t)
        self.w_phi = w * phi_vec(zs, t)
        self.lead, self.power, self.rest, self.rest_power = zs.phi_envelope()

    def head(self, p: float) -> tuple[float, float]:
        """(main, band): int_0^lo t^-p phi(t) dt for p < 1 - rho0."""
        q, r = 1.0 - p - self.power, 1.0 - p + self.rest_power
        return (self.lead * _PHI_LO ** q / q, self.rest * _PHI_LO ** r / r)


def _with_head(check: str, at: str, body, main, band):
    total = body + main
    if band > _HEAD_BAND_MAX * abs(total):
        raise ConvergenceError(
            f"{check} at {at}: the closed-form head's band {band:.3g} exceeds "
            f"{_HEAD_BAND_MAX:g} of the transform {abs(total):.3g}")
    return total


def _mellin_lhs(rule: _PhiRule, rho: float) -> float:
    # int_0^inf phi(t) t^(rho-1) dt
    body = float(np.exp((rho - 1.0) * rule.log_t) @ rule.w_phi)
    return _with_head("mellin_transform", f"rho = {rho!r}", body,
                      *rule.head(1.0 - rho))


def _laplace_lhs(rule: _PhiRule, x: float) -> float:
    # int_0^inf e^{-xt} phi(t) dt; on the head e^{-xt} = 1 within x lo
    body = float(np.exp(-x * rule.t) @ rule.w_phi)
    return _with_head("laplace_transform", f"x = {x!r}", body, *rule.head(0.0))


def _logrep_lhs(rule: _PhiRule, z: complex) -> complex:
    # exp int_0^inf (1 - e^{-zt}) phi(t) dt/t; on the head the kernel is z
    # within |z|^2 lo / 2
    body = complex(-np.expm1(-z * rule.t) / rule.t @ rule.w_phi)
    main, band = rule.head(0.0)
    integral = _with_head("log_representation", f"z = {format_complex(z)}",
                          body, z * main, abs(z) * band)
    return complex(np.exp(integral))


def _adjudication_records(model: BesselIModel) -> list:
    """Two candidate closed forms for the axis integrand f'/f differ by a
    nu/(2x) term; the power series F_(nu+1)/(4 F_nu) decides which one the
    function obeys.  The model's own f'/f comes from scipy's Bessel routines,
    as the candidates do, so it cannot serve as the second route."""
    nu = model.nu
    out = []
    for x in _ADJUDICATION_XS:
        truth = float(_series_f(nu + 1.0, x) / (4.0 * _series_f(nu, x)))
        rx = math.sqrt(x)
        ratio = scipy.special.iv(nu - 1.0, rx) / (2.0 * rx * scipy.special.iv(nu, rx))
        cands = {
            "nu_over_x": ratio - nu / x,
            "3nu_over_2x": ratio - 1.5 * nu / x,
        }
        resid = {k: abs(v - truth) / max(abs(truth), _TINY)
                 for k, v in cands.items()}
        matched = min(resid, key=resid.get)
        other = "3nu_over_2x" if matched == "nu_over_x" else "nu_over_x"
        inputs = {"x": x, "nu": nu, "matched": matched,
                  "residual_other": resid[other]}
        out.append(_two_sided("axis_integrand_adjudication", model.model_id,
                              inputs, truth, cands[matched]))
    return out


def _pair_derivative_records(model: AiryPairModel) -> list:
    """Dual route for the pair-product log-derivative on the axis: twice the
    centred difference of log|Ai(i sqrt x)| against the zero-sum value."""
    h = 1e-3
    out = []
    for x in (1.0, 4.0):
        def single(t):
            return math.log(abs(airy_ai_maclaurin(1j * math.sqrt(t))))

        fd = (single(x + h) - single(x - h)) / h  # 2 * d/dx log|Ai|
        zero_route = float(model.log_derivative(x))
        out.append(_two_sided("pair_product_derivative", model.model_id,
                              {"x": x, "h": h}, fd, zero_route))
    return out


def run_identity_suite(model: FunctionModel, rho_list=None) -> list:
    """Transform identities linking phi, the zero sums, J and the value ratio.

    For models with authoritative zeros: Mellin and Laplace transforms of
    phi, the J(rho) zero-sum identity, and the exponential log
    representation at three complex points — all two-route checks at 1e-6
    relative.  The transforms share one phi_vec call on the nodes of one
    rule (_PhiRule), each adding its head [0, 2^-133] in closed form; a head
    whose error band exceeds 1e-12 of its transform raises
    ConvergenceError.  For non-authoritative zero data the suite degrades to J
    quadrature self-consistency plus the axis-restricted log representation.
    Per-family extras: the Bessel adapter adjudicates between two candidate
    closed forms of its axis integrand, the Airy pair cross-checks its
    log-derivative against a single-factor finite difference.
    """
    rhos = tuple(float(r) for r in (rho_list if rho_list is not None
                                    else model.identity_rhos))
    for r in rhos:
        if not model.order_rho0 < r < 1.0:
            raise DomainError(
                f"identity rho {r!r} outside ({model.order_rho0:g}, 1)")
    records = []
    mid = model.model_id

    if model.zeros_authoritative:
        zs = model.zeros()
        rule = _PhiRule(zs)
        for rho in rhos:
            s = zero_sum(zs, rho)
            records.append(_two_sided(
                "mellin_transform", mid, {"rho": rho},
                _mellin_lhs(rule, rho), math.gamma(rho) * s))
            j = float(log_ratio_integral(model, rho).value)
            records.append(_two_sided(
                "log_ratio_integral_identity", mid, {"rho": rho},
                j, math.pi / math.sin(math.pi * rho) * s))
        for x in _LAPLACE_XS:
            records.append(_two_sided(
                "laplace_transform", mid, {"x": x},
                _laplace_lhs(rule, x),
                float(model.log_derivative(x))))
        for z in _LOGREP_ZS:
            records.append(_two_sided(
                "log_representation", mid, {"z": format_complex(z)},
                _logrep_lhs(rule, z),
                complex(model.value_ratio(z))))
    else:
        for rho in rhos:
            res = log_ratio_integral(model, rho)
            records.append(_estimate(
                "log_ratio_finite", mid, {"rho": rho}, float(res.value),
                float(res.error_estimate)))
        for x in _AXIS_XS:
            integral = quad_adaptive(model.log_derivative, 0.0, x,
                                     rel_tol=1e-10)
            records.append(_two_sided(
                "log_representation_axis", mid, {"x": x},
                math.exp(integral.value), float(model.value_ratio(x))))

    if isinstance(model, BesselIModel):
        records.extend(_adjudication_records(model))
    if isinstance(model, AiryPairModel):
        records.extend(_pair_derivative_records(model))
    records.sort(key=VerificationRecord.sort_key)
    return records


# ---------------------------------------------------------------------------
# inequality suite
# ---------------------------------------------------------------------------


def _resolve_rho(model, z, token):
    if token == "midpoint":
        return midpoint_rho(model), "midpoint"
    if token == "optimized":
        rho, _ = optimize_rho(model, z)
        return rho, "optimized"
    rho = float(token)
    if not model.order_rho0 < rho < 1.0:
        return None, "fixed"
    return rho, "fixed"


@functools.lru_cache(maxsize=16)
def _fuzz_scan(seed: int) -> tuple[float, float, float]:
    """(lhs, rhs, gap) at the worst of the seeded points; the scan has no
    model input, so a pass over the fleet runs it once per seed."""
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), _FUZZ_POINTS))
    theta = rng.uniform(-0.49 * math.pi, 0.49 * math.pi, _FUZZ_POINTS)
    z = r * np.exp(1j * theta)
    lhs = np.abs(-np.expm1(-z))
    rhs = (-np.expm1(-z.real)) / np.cos(theta)
    gaps = (lhs - rhs) / np.maximum(rhs, _TINY)
    k = int(np.argmax(gaps))
    return float(lhs[k]), float(rhs[k]), float(gaps[k])


def _fuzz_record(model_id, seed) -> VerificationRecord:
    """|1 - e^-z| <= (1 - e^-Re z)/cos(arg z) over seeded points in the
    open right half-plane."""
    seed = int(seed)
    return _one_sided(
        "elementary_exp_inequality", model_id,
        {"points": _FUZZ_POINTS, "seed": seed}, *_fuzz_scan(seed))


def run_inequality_suite(model: FunctionModel, grid: GridSpec | None = None,
                         seed: int = 0) -> list:
    """The bound chain over the polar grid, plus two global sanity checks.

    Per admissible (z = r e^{i theta}, rho entry): a lower-chain record
    (1 <= lower <= mid), an upper-chain record (mid <= bound) and a
    tightness record (intermediate exponent <= bound exponent).  Radii
    beyond the model's evaluation domain and fixed rhos outside
    (rho0, 1) are skipped.  Per (radius, rho entry): the bound exponent
    must be nondecreasing in |theta|.  One seeded-fuzz record for the
    elementary half-plane inequality the chain's angular factor rests on.

    Record count for a fully admissible grid: 3*R*A*P chain + R*P angle
    + 1 fuzz, with R radii, A angles, P rho entries.
    """
    grid = grid or GridSpec.default()
    records = []
    mid_id = model.model_id

    for token in grid.rhos:
        policy_exponents: dict[float, list] = {}
        for r in grid.radii:
            if r > model.domain_radius_max:
                continue
            by_abs_angle: dict[float, float] = {}
            for theta in grid.angles:
                z = complex(r * math.cos(theta), r * math.sin(theta))
                rho, policy = _resolve_rho(model, z, token)
                if rho is None:
                    continue
                rep = evaluate_chain(model, z, rho)
                inputs = {"z": format_complex(z), "rho": rho,
                          "rho_policy": policy}
                lower_violation = max(1.0 - rep.lower,
                                      (rep.lower - rep.mid) / max(rep.mid, _TINY))
                records.append(_one_sided(
                    "chain_lower", mid_id, inputs, rep.lower, rep.mid,
                    lower_violation))
                records.append(_one_sided(
                    "chain_upper", mid_id, inputs, rep.mid, rep.bound,
                    (rep.mid - rep.bound) / max(rep.bound, _TINY)))
                records.append(_one_sided(
                    "chain_tightness", mid_id, inputs,
                    rep.exponent_intermediate, rep.exponent_thm,
                    rep.exponent_intermediate - rep.exponent_thm))
                by_abs_angle.setdefault(abs(theta), rep.exponent_thm)
            if by_abs_angle:
                policy_exponents[r] = sorted(by_abs_angle.items())

        for r, pairs in policy_exponents.items():
            worst = 0.0
            for (_, e_low), (_, e_high) in zip(pairs, pairs[1:]):
                worst = max(worst, (e_low - e_high) / max(abs(e_high), _TINY))
            exponents = [e for _, e in pairs]
            records.append(_one_sided(
                "angle_monotonicity", mid_id,
                {"r": r, "rho_policy": token if isinstance(token, str) else "fixed",
                 "rho": token if not isinstance(token, str) else None},
                min(exponents), max(exponents), worst))

    records.append(_fuzz_record(mid_id, seed))
    records.sort(key=VerificationRecord.sort_key)
    return records


# ---------------------------------------------------------------------------
# monotonicity suite
# ---------------------------------------------------------------------------


def run_monotonicity_suite(model: FunctionModel) -> list:
    """Finite consequences of complete monotonicity along the positive axis.

    derivative_modulus_bound: |(f'/f)^(n)(z)| <= (-1)^n (f'/f)^(n)(Re z)
    for n = 0..3, derivatives taken as n! * sum 1/(z+z_n)^(n+1) over the
    model's zero data (term-wise valid for any zero multiset).
    negative_power_monotone: |f(z)^-beta| <= f(Re z)^-beta and the same for
    the magnitude of the first derivative -beta f^{-beta-1} f', n in {0,1}.
    squared_modulus_convexity / squared_modulus_radial: central second and
    first differences of |f(x+iy)|^2 in y (f(0)^2 scale omitted; the signs
    are unaffected) — convex, and nondecreasing away from the real axis.
    """
    records = []
    mid_id = model.model_id
    zs = model.zeros()

    for z in _MONO_ZS:
        for n in range(4):
            fact = math.factorial(n)
            lhs = fact * abs(complex(reciprocal_power_zero_sum(zs, z, n + 1)))
            rhs = fact * float(reciprocal_power_zero_sum(zs, z.real, n + 1))
            records.append(_one_sided(
                "derivative_modulus_bound", mid_id,
                {"z": format_complex(z), "n": n}, lhs, rhs,
                (lhs - rhs) / max(rhs, _TINY)))

    for z in _MONO_ZS:
        vr_z = abs(complex(model.value_ratio(z)))
        vr_x = float(abs(model.value_ratio(z.real)))
        s1_z = abs(complex(reciprocal_power_zero_sum(zs, z, 1)))
        s1_x = float(reciprocal_power_zero_sum(zs, z.real, 1))
        for beta in _MONO_BETAS:
            f_z = (model.f0 * vr_z) ** (-beta)
            f_x = (model.f0 * vr_x) ** (-beta)
            for n, (lhs, rhs) in enumerate(((f_z, f_x),
                                            (beta * f_z * s1_z, beta * f_x * s1_x))):
                records.append(_one_sided(
                    "negative_power_monotone", mid_id,
                    {"z": format_complex(z), "beta": beta, "n": n},
                    lhs, rhs, (lhs - rhs) / max(rhs, _TINY)))

    h = _JENSEN_H
    for x in _JENSEN_XS:
        for y in _JENSEN_YS:
            g = [abs(complex(model.value_ratio(complex(x, y + k * h)))) ** 2
                 for k in (-1, 0, 1)]
            scale = max(g[1], 1.0)
            second = g[0] - 2.0 * g[1] + g[2]
            records.append(_one_sided(
                "squared_modulus_convexity", mid_id,
                {"x": x, "y": y, "h": h}, g[1], g[1] + second,
                -second / scale))
            radial = y * (g[2] - g[0]) / (2.0 * h)
            records.append(_one_sided(
                "squared_modulus_radial", mid_id,
                {"x": x, "y": y, "h": h}, g[0], g[2],
                -radial / scale))

    records.sort(key=VerificationRecord.sort_key)
    return records


# ---------------------------------------------------------------------------
# aggregation and serialization
# ---------------------------------------------------------------------------


def run_all(models, grid: GridSpec | None = None, seed: int = 0) -> dict:
    """All three suites over a model list; returns the aggregate summary.

    The summary dict carries counts {"total", "passed", "failed"}, the worst
    rel_error seen per check_name, and the full record list under
    "records" (deterministically sorted).
    """
    grid = grid or GridSpec.default()
    records: list[VerificationRecord] = []
    for model in models:
        records.extend(run_identity_suite(model))
        records.extend(run_inequality_suite(model, grid, seed=seed))
        records.extend(run_monotonicity_suite(model))
    records.sort(key=VerificationRecord.sort_key)
    return {**summarize_records(records), "records": records}


def summarize_records(records) -> dict:
    """Counts {"total", "passed", "failed"} and the worst rel_error per
    check_name (keys sorted) of a record list."""
    worst: dict[str, float] = {}
    for rec in records:
        worst[rec.check_name] = max(worst.get(rec.check_name, 0.0),
                                    rec.rel_error)
    passed = sum(1 for r in records if r.passed)
    return {
        "total": len(records),
        "passed": passed,
        "failed": len(records) - passed,
        "worst_rel_error": {k: worst[k] for k in sorted(worst)},
    }


def records_to_jsonl(records) -> str:
    """One sorted-key JSON object per record and line.  Strict JSON: a
    non-finite float that reached the encoder raises ValueError."""
    lines = [_JSON_ENCODER.encode(rec.to_json_dict()) for rec in records]
    return "\n".join(lines) + ("\n" if lines else "")


def records_to_csv(records) -> str:
    import csv

    buf = StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["check_name", "model_id", "inputs", "lhs", "rhs",
                     "abs_error", "rel_error", "tolerance", "pass"])
    for rec in records:
        d = rec.to_json_dict()
        writer.writerow([
            d["check_name"], d["model_id"],
            json.dumps(d["inputs"], sort_keys=True),
            d["lhs"], d["rhs"], d["abs_error"], d["rel_error"],
            d["tolerance"], str(d["pass"]).lower(),
        ])
    return buf.getvalue()
