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

Models whose zero data is non-authoritative (short best-effort heads) get a
degraded identity suite: quadrature self-consistency of J plus the log
representation restricted to the positive axis, neither of which leans on
zero sums.  Failures are data, not exceptions.  Record order is
deterministic: sorted by (check_name, model_id, serialized inputs).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from io import StringIO

import numpy as np
import scipy.special

from .airy import AiryPairModel, airy_ai_maclaurin
from .bessel import BesselIModel
from .bound import evaluate_chain, log_ratio_integral, midpoint_rho, optimize_rho
from .errors import DomainError, G0BoundError
from .numerics import gamma, integrate_singular, quad_adaptive
from .zeros import (FunctionModel, phi_vec, reciprocal_power_zero_sum,
                    zero_sum)

__all__ = [
    "VerificationRecord",
    "GridSpec",
    "DEFAULT_TOLERANCES",
    "format_complex",
    "run_identity_suite",
    "run_inequality_suite",
    "run_monotonicity_suite",
    "run_all",
    "records_to_jsonl",
    "records_to_csv",
]

_TINY = 1e-300

DEFAULT_TOLERANCES = {
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
    pass <=> (abs_error <= tolerance or rel_error <= tolerance).
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
        return (self.check_name, self.model_id,
                json.dumps(self.inputs, sort_keys=True))

    def to_json_dict(self) -> dict:
        def num(v):
            vc = complex(v)
            return format_complex(vc) if vc.imag != 0.0 else float(vc.real)

        return {
            "check_name": self.check_name,
            "model_id": self.model_id,
            "inputs": self.inputs,
            "lhs": num(self.lhs),
            "rhs": num(self.rhs),
            "abs_error": self.abs_error,
            "rel_error": self.rel_error,
            "tolerance": self.tolerance,
            "pass": self.passed,
        }


def _tol(name: str, overrides: dict | None) -> float:
    if overrides and name in overrides:
        return float(overrides[name])
    return DEFAULT_TOLERANCES[name]


def _two_sided(name, model_id, inputs, lhs, rhs, tol) -> VerificationRecord:
    abs_err = float(abs(lhs - rhs))
    rel_err = abs_err / max(abs(rhs), _TINY)
    return VerificationRecord(name, model_id, inputs, lhs, rhs, abs_err,
                              rel_err, tol, abs_err <= tol or rel_err <= tol)


def _one_sided(name, model_id, inputs, lhs, rhs, violation, tol) -> VerificationRecord:
    v = max(0.0, float(violation))
    return VerificationRecord(name, model_id, inputs, lhs, rhs, v, v, tol,
                              v <= tol)


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


def _phi_transform(zs, weight, p: float):
    # int_0^inf weight(t) phi(t) t^(-p) dt with the t^(-rho0) blow-up of phi
    # split off, so the substituted head integrand stays bounded
    rho0 = zs.order_rho0

    def g(t):
        return weight(t) * phi_vec(zs, t) * t ** rho0

    return integrate_singular(g, p + rho0).value


def _mellin_lhs(zs, rho: float) -> float:
    # int_0^inf phi(t) t^(rho-1) dt
    return float(_phi_transform(zs, lambda t: 1.0, 1.0 - rho))


def _laplace_lhs(zs, x: float) -> float:
    # int_0^inf e^{-xt} phi(t) dt
    return float(_phi_transform(zs, lambda t: np.exp(-x * t), 0.0))


def _logrep_lhs(zs, z: complex) -> complex:
    # exp int_0^inf (1 - e^{-zt}) phi(t) dt/t
    integral = _phi_transform(zs, lambda t: -np.expm1(-z * t) / t, 0.0)
    return complex(np.exp(integral))


def _adjudication_records(model: BesselIModel, tolerances) -> list:
    """Two candidate closed forms for the axis integrand f'/f differ by a
    nu/(2x) term; the series route decides which one the function obeys."""
    tol = _tol("axis_integrand_adjudication", tolerances)
    nu = model.nu
    out = []
    for x in _ADJUDICATION_XS:
        truth = float(model.log_derivative(x))
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
                              inputs, truth, cands[matched], tol))
    return out


def _pair_derivative_records(model: AiryPairModel, tolerances) -> list:
    """Dual route for the pair-product log-derivative on the axis: twice the
    centred difference of log|Ai(i sqrt x)| against the zero-sum value."""
    tol = _tol("pair_product_derivative", tolerances)
    h = 1e-3
    out = []
    for x in (1.0, 4.0):
        def single(t):
            return math.log(abs(airy_ai_maclaurin(1j * math.sqrt(t))))

        fd = (single(x + h) - single(x - h)) / h  # 2 * d/dx log|Ai|
        zero_route = float(model.log_derivative(x))
        out.append(_two_sided("pair_product_derivative", model.model_id,
                              {"x": x, "h": h}, fd, zero_route, tol))
    return out


def run_identity_suite(model: FunctionModel, rho_list=None,
                       tolerances: dict | None = None) -> list:
    """Transform identities linking phi, the zero sums, J and the value ratio.

    For models with authoritative zeros: Mellin and Laplace transforms of
    phi, the J(rho) zero-sum identity, and the exponential log
    representation at three complex points — all two-route checks at 1e-6
    relative.  For non-authoritative zero data the suite degrades to J
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
        for rho in rhos:
            s = zero_sum(zs, rho)
            records.append(_two_sided(
                "mellin_transform", mid, {"rho": rho},
                _mellin_lhs(zs, rho), gamma(rho) * s,
                _tol("mellin_transform", tolerances)))
            j = float(log_ratio_integral(model, rho).value)
            records.append(_two_sided(
                "log_ratio_integral_identity", mid, {"rho": rho},
                j, math.pi / math.sin(math.pi * rho) * s,
                _tol("log_ratio_integral_identity", tolerances)))
        for x in _LAPLACE_XS:
            records.append(_two_sided(
                "laplace_transform", mid, {"x": x},
                _laplace_lhs(zs, x),
                float(model.log_derivative(x)),
                _tol("laplace_transform", tolerances)))
        for z in _LOGREP_ZS:
            records.append(_two_sided(
                "log_representation", mid, {"z": format_complex(z)},
                _logrep_lhs(zs, z),
                complex(model.value_ratio(z)),
                _tol("log_representation", tolerances)))
    else:
        for rho in rhos:
            res = log_ratio_integral(model, rho)
            j = float(res.value)
            rel = res.error_estimate / max(abs(j), _TINY)
            records.append(VerificationRecord(
                "log_ratio_finite", mid, {"rho": rho}, j, j,
                float(res.error_estimate), float(rel),
                _tol("log_ratio_finite", tolerances),
                rel <= _tol("log_ratio_finite", tolerances)))
        for x in _AXIS_XS:
            integral = quad_adaptive(model.log_derivative, 0.0, x,
                                     rel_tol=1e-10)
            records.append(_two_sided(
                "log_representation_axis", mid, {"x": x},
                math.exp(integral.value), float(model.value_ratio(x)),
                _tol("log_representation_axis", tolerances)))

    if isinstance(model, BesselIModel):
        records.extend(_adjudication_records(model, tolerances))
    if isinstance(model, AiryPairModel):
        records.extend(_pair_derivative_records(model, tolerances))
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


def _fuzz_record(model_id, seed, tolerances) -> VerificationRecord:
    """|1 - e^-z| <= (1 - e^-Re z)/cos(arg z) over seeded points in the
    open right half-plane."""
    rng = np.random.default_rng(seed)
    r = np.exp(rng.uniform(math.log(1e-3), math.log(1e3), _FUZZ_POINTS))
    theta = rng.uniform(-0.49 * math.pi, 0.49 * math.pi, _FUZZ_POINTS)
    z = r * np.exp(1j * theta)
    lhs = np.abs(-np.expm1(-z))
    rhs = (-np.expm1(-z.real)) / np.cos(theta)
    gaps = (lhs - rhs) / np.maximum(rhs, _TINY)
    k = int(np.argmax(gaps))
    return _one_sided(
        "elementary_exp_inequality", model_id,
        {"points": _FUZZ_POINTS, "seed": int(seed)},
        float(lhs[k]), float(rhs[k]), float(gaps[k]),
        _tol("elementary_exp_inequality", tolerances))


def run_inequality_suite(model: FunctionModel, grid: GridSpec | None = None,
                         seed: int = 0,
                         tolerances: dict | None = None) -> list:
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
    tol_lower = _tol("chain_lower", tolerances)
    tol_upper = _tol("chain_upper", tolerances)
    tol_tight = _tol("chain_tightness", tolerances)
    tol_angle = _tol("angle_monotonicity", tolerances)

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
                    lower_violation, tol_lower))
                records.append(_one_sided(
                    "chain_upper", mid_id, inputs, rep.mid, rep.bound,
                    (rep.mid - rep.bound) / max(rep.bound, _TINY), tol_upper))
                records.append(_one_sided(
                    "chain_tightness", mid_id, inputs,
                    rep.exponent_intermediate, rep.exponent_thm,
                    rep.exponent_intermediate - rep.exponent_thm, tol_tight))
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
                min(exponents), max(exponents), worst, tol_angle))

    records.append(_fuzz_record(mid_id, seed, tolerances))
    records.sort(key=VerificationRecord.sort_key)
    return records


# ---------------------------------------------------------------------------
# monotonicity suite
# ---------------------------------------------------------------------------


def run_monotonicity_suite(model: FunctionModel,
                           tolerances: dict | None = None) -> list:
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
    tol_deriv = _tol("derivative_modulus_bound", tolerances)
    tol_power = _tol("negative_power_monotone", tolerances)
    tol_convex = _tol("squared_modulus_convexity", tolerances)
    tol_radial = _tol("squared_modulus_radial", tolerances)

    for z in _MONO_ZS:
        for n in range(4):
            fact = math.factorial(n)
            lhs = fact * abs(complex(reciprocal_power_zero_sum(zs, z, n + 1)))
            rhs = fact * float(reciprocal_power_zero_sum(zs, z.real, n + 1))
            records.append(_one_sided(
                "derivative_modulus_bound", mid_id,
                {"z": format_complex(z), "n": n}, lhs, rhs,
                (lhs - rhs) / max(rhs, _TINY), tol_deriv))

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
                    lhs, rhs, (lhs - rhs) / max(rhs, _TINY), tol_power))

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
                -second / scale, tol_convex))
            radial = y * (g[2] - g[0]) / (2.0 * h)
            records.append(_one_sided(
                "squared_modulus_radial", mid_id,
                {"x": x, "y": y, "h": h}, g[0], g[2],
                -radial / scale, tol_radial))

    records.sort(key=VerificationRecord.sort_key)
    return records


# ---------------------------------------------------------------------------
# aggregation and serialization
# ---------------------------------------------------------------------------


def run_all(models, grid: GridSpec | None = None, seed: int = 0,
            tolerances: dict | None = None) -> dict:
    """All three suites over a model list; returns the aggregate summary.

    The summary dict carries counts {"total", "passed", "failed"}, the worst
    rel_error seen per check_name, and the full record list under
    "records" (deterministically sorted).
    """
    grid = grid or GridSpec.default()
    records: list[VerificationRecord] = []
    for model in models:
        records.extend(run_identity_suite(model, tolerances=tolerances))
        records.extend(run_inequality_suite(model, grid, seed=seed,
                                            tolerances=tolerances))
        records.extend(run_monotonicity_suite(model, tolerances=tolerances))
    records.sort(key=VerificationRecord.sort_key)
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
        "records": records,
    }


def records_to_jsonl(records) -> str:
    lines = [json.dumps(rec.to_json_dict(), sort_keys=True)
             for rec in records]
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
            d["lhs"], d["rhs"], repr(d["abs_error"]), repr(d["rel_error"]),
            repr(d["tolerance"]), str(d["pass"]).lower(),
        ])
    return buf.getvalue()
