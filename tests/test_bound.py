"""Bound engine: the log-ratio integral J, both exponents, the chain report,
and the order optimizer."""

import cmath
import json
import math
import tracemalloc

import numpy as np
import pytest

from g0bound import bound
from g0bound.airy import AiryPairModel
from g0bound.bessel import BesselIModel
from g0bound.bound import (bound_exponent, evaluate_chain,
                           intermediate_exponent, log_ratio_integral,
                           midpoint_rho, optimize_rho)
from g0bound.errors import (DivergenceError, DomainError,
                            EvaluationOverflowError, G0BoundError)
from g0bound.kbessel import KOrderModel
from g0bound.models import default_fleet, toy_square_model
from g0bound.zeros import ZeroSequence, model_from_zeros, zero_sum

# 30-digit references for the toy model (zeros n^2)
TOY_J_075 = 11.606477864740269        # pi sqrt(2) zeta(3/2)
TOY_INTERMEDIATE_1 = 2.195332637962176  # z = 1, rho = 0.75
TOY_EXPONENT_1 = 4.807623780589293      # z = 1, rho = 0.75


def single_zero_model():
    return model_from_zeros(ZeroSequence([1.0], 2.0, None), model_id="one-zero")


def test_j_toy_closed_form(toy):
    j = float(log_ratio_integral(toy, 0.75).value)
    assert j == pytest.approx(TOY_J_075, rel=1e-10)


def test_j_single_zero():
    # f = 1 + z: J(rho) = int x^-rho/(1+x) dx = pi / sin(pi rho), inside
    # [value - error_estimate, value] down to rho = 0.05, where the part
    # beyond the sampled range is 14% of J
    m = single_zero_model()
    assert float(log_ratio_integral(m, 0.5).value) == pytest.approx(
        math.pi, rel=1e-9)
    assert float(log_ratio_integral(m, 0.75).value) == pytest.approx(
        math.pi * math.sqrt(2.0), rel=1e-9)
    for rho in (0.05, 0.3, 0.5, 0.75, 0.99):
        res = log_ratio_integral(m, rho)
        want = math.pi / math.sin(math.pi * rho)
        assert res.value - res.error_estimate <= want <= res.value, rho
        assert res.error_estimate <= 1e-9 * want, rho


def test_j_memoized_per_model():
    # f'/f is sampled on the first J request, in one log_derivative call,
    # and never again: every later rho and the whole rho search are
    # answered from the same samples
    n = np.arange(1, 201, dtype=float)
    m = model_from_zeros(ZeroSequence(n * n, 2.0, 1.0), model_id="counted")
    calls = []
    inner = m.log_derivative

    def counted(x):
        calls.append(np.size(x))
        return inner(x)

    m.log_derivative = counted
    first = log_ratio_integral(m, 0.8)
    assert sum(calls) == first.evaluations
    assert len(calls) == 1
    sampled = len(calls)
    for rho in (0.55, 0.75, 0.8, 0.99):
        assert log_ratio_integral(m, rho).evaluations == first.evaluations
    optimize_rho(m, 2.0 + 1.0j)
    assert len(calls) == sampled
    assert log_ratio_integral(m, 0.8) == first


@pytest.mark.parametrize("build", [
    toy_square_model, AiryPairModel, lambda: BesselIModel(0.7),
    lambda: KOrderModel(0.5), lambda: KOrderModel(2.0)],
    ids=["toy", "airy", "bessel-0.7", "k-order-0.5", "k-order-2"])
def test_cold_profile_allocation_budget(build):
    # the profile asks for f'/f in one call, so each model bounds its own
    # temporaries: one cold profile, tables included, peaks under 4 MiB
    model = build()
    tracemalloc.start()
    try:
        bound._Profile(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("rho", [0.501, 0.51, 0.6, 0.75, 0.9, 0.99])
def test_j_toy_zeta_oracle_inside_bracket(toy, rho):
    # J = pi/sin(pi rho) zeta(2 rho) lies in [value - error_estimate, value]
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        want = float(mpmath.pi / mpmath.sin(mpmath.pi * rho)
                     * mpmath.zeta(2 * rho))
    res = log_ratio_integral(toy, rho)
    assert res.value - res.error_estimate <= want <= res.value
    assert res.error_estimate <= 1e-9 * want


@pytest.mark.parametrize("rho", [0.5 + 2e-16, 0.5 + 1e-12, 0.5 + 1e-9])
def test_j_bracket_next_to_rho0_has_width(bessel_zero, rho):
    # the tail term dominates J there, so the rule and tail gaps round away;
    # the rounding allowance keeps the zero-sum value inside the bracket
    res = log_ratio_integral(bessel_zero, rho)
    want = math.pi / math.sin(math.pi * (1.0 - rho)) * zero_sum(
        bessel_zero.zeros(), rho)
    assert res.error_estimate > 0.0
    assert res.value - res.error_estimate <= want <= res.value


def test_j_finite_next_to_rho0_on_fleet():
    for model in default_fleet():
        res = log_ratio_integral(model, model.order_rho0 + 1e-3)
        assert math.isfinite(res.value) and res.value > 0.0, model.model_id
        assert 0.0 <= res.error_estimate <= 1e-9 * res.value, model.model_id


def test_j_failed_sample_names_model():
    m = single_zero_model()

    def overflowing(x):
        raise OverflowError("math range error")

    m.log_derivative = overflowing
    with pytest.raises(EvaluationOverflowError,
                       match=r"log_derivative of one-zero failed on x in "
                             r"\[0\.0, 1\.2[0-9e+.]*\]: math range error"):
        log_ratio_integral(m, 0.5)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
def test_j_bad_sample_names_model_and_point(bad):
    m = single_zero_model()
    inner = m.log_derivative

    def broken(x):
        out = np.asarray(inner(x), dtype=float)
        return np.where(np.asarray(x) >= 1.0, bad, out)

    m.log_derivative = broken
    with pytest.raises(EvaluationOverflowError,
                       match=rf"one-zero is {bad!r} at x = 1\.0[0-9]*;"):
        log_ratio_integral(m, 0.5)
    with pytest.raises(G0BoundError):
        optimize_rho(m, 1.0)


def test_j_scaling_homogeneity():
    # zeros 2 n^2 scale J by 2^-rho relative to zeros n^2
    n = np.arange(1, 4001, dtype=float)
    base = model_from_zeros(ZeroSequence(n * n, 2.0, 1.0), model_id="base")
    scaled = model_from_zeros(ZeroSequence(2 * n * n, 2.0, 2.0),
                              model_id="scaled")
    jb = float(log_ratio_integral(base, 0.75).value)
    js = float(log_ratio_integral(scaled, 0.75).value)
    assert js / jb == pytest.approx(2.0 ** -0.75, rel=1e-8)


def test_rho_validation(toy):
    with pytest.raises(DomainError):
        log_ratio_integral(toy, 1.0)
    with pytest.raises(DivergenceError):
        log_ratio_integral(toy, 0.5)  # at the order the integral diverges


def test_intermediate_exponent_toy(toy):
    got = intermediate_exponent(toy, 1.0, 0.75)
    assert got == pytest.approx(TOY_INTERMEDIATE_1, rel=1e-10)


def test_bound_exponent_toy(toy):
    j = float(log_ratio_integral(toy, 0.75).value)
    got = bound_exponent(toy, 1.0, 0.75, j)
    assert got == pytest.approx(TOY_EXPONENT_1, rel=1e-10)


def test_bound_exponent_angle_factor(toy):
    # E(r e^{i theta}) = E(r) * cos(theta)^(rho-1)
    j = float(log_ratio_integral(toy, 0.75).value)
    e0 = bound_exponent(toy, 2.0, 0.75, j)
    e60 = bound_exponent(toy, 2.0 * cmath.exp(1j * math.pi / 3.0), 0.75, j)
    assert e60 / e0 == pytest.approx(2.0 ** 0.25, rel=1e-12)


def test_halfplane_validation(toy):
    j = float(log_ratio_integral(toy, 0.75).value)
    for z in (0.0, -1.0, 1j, -2 + 1j):
        with pytest.raises(DomainError):
            bound_exponent(toy, z, 0.75, j)


def test_midpoint_rho(toy, airy):
    assert midpoint_rho(toy) == 0.75
    assert midpoint_rho(airy) == pytest.approx(0.875)


def test_evaluate_chain_toy_complex(toy):
    rep = evaluate_chain(toy, 1 + 1j, 0.75)
    w = cmath.pi * cmath.sqrt(1 + 1j)
    want_mid = abs(cmath.sinh(w) / w)
    assert rep.mid == pytest.approx(want_mid, rel=1e-7)
    assert rep.chain_ok
    assert 1.0 <= rep.lower <= rep.mid <= rep.bound
    assert rep.exponent_intermediate <= rep.exponent_thm + 1e-12
    assert rep.slack > 0.0
    assert rep.j_source == "quadrature"


def test_evaluate_chain_report_serialization(toy):
    rep = evaluate_chain(toy, 2 + 0.5j, 0.8)
    d = rep.to_json_dict()
    assert d["z"] == {"re": 2.0, "im": 0.5}
    assert set(d) == {"z", "rho", "J", "exponent_thm", "exponent_intermediate",
                      "bound", "lower", "mid", "chain_ok", "slack", "j_source"}
    json.dumps(d)  # everything JSON-native
    assert all(type(d[k]) is float for k in
               ("rho", "J", "exponent_thm", "exponent_intermediate",
                "bound", "lower", "mid", "slack"))


def test_evaluate_chain_near_origin(toy):
    rep = evaluate_chain(toy, 1e-9, 0.75)
    assert rep.lower == pytest.approx(1.0, abs=1e-8)
    assert rep.mid == pytest.approx(1.0, abs=1e-8)
    assert rep.chain_ok


def test_chain_bound_overflow_is_inf():
    # densely packed zeros push the exponent past the float range while the
    # product itself stays representable
    n = np.arange(1, 5001, dtype=float)
    m = model_from_zeros(ZeroSequence(0.01 * n * n, 2.0, 0.01),
                         model_id="dense")
    rep = evaluate_chain(m, 16.0, 0.75)
    assert rep.exponent_thm > 709.0
    assert rep.bound == math.inf
    assert math.isfinite(rep.mid)
    assert rep.chain_ok


def test_optimize_rho_toy(toy):
    rho_star, e_star = optimize_rho(toy, 1.0)
    assert rho_star == pytest.approx(0.7615, abs=1e-12)
    assert e_star == pytest.approx(4.7966616690316695, rel=1e-9)
    # the returned rho sits on the search lattice, so re-evaluating the
    # exponent at it reproduces e_star exactly
    j = float(log_ratio_integral(toy, rho_star).value)
    assert bound_exponent(toy, 1.0, rho_star, j) == e_star
    # and it beats the midpoint
    jm = float(log_ratio_integral(toy, 0.75).value)
    assert e_star <= bound_exponent(toy, 1.0, 0.75, jm)


def test_optimize_rho_lattice_alignment(toy):
    for z in (1.0, 4 + 1j, 0.25):
        rho_star, _ = optimize_rho(toy, z)
        steps = rho_star / 5e-4
        assert abs(steps - round(steps)) < 1e-9, z


def test_optimize_rho_respects_domain(airy):
    rho_star, _ = optimize_rho(airy, 2.0)
    assert airy.order_rho0 < rho_star < 1.0


def test_optimize_rho_empty_range():
    # rho0 = 0.9995 leaves no candidate in [rho0 + 1e-3, 1 - 1e-3], while J
    # itself is still defined on (rho0, 1)
    p = 1.0 / 0.9995
    n = np.arange(1, 201, dtype=float)
    m = model_from_zeros(ZeroSequence(n ** p, p, 1.0), model_id="near-one")
    assert math.isfinite(log_ratio_integral(m, 0.9997).value)
    with pytest.raises(DomainError, match="empty rho range"):
        optimize_rho(m, 1.0)


def rho_candidates(model):
    """The lattice points k * 5e-4 in [rho0 + 1e-3, 1 - 1e-3] and its ends."""
    lo, hi = model.order_rho0 + 1e-3, 1.0 - 1e-3
    k = np.arange(math.floor(lo / 5e-4), math.ceil(hi / 5e-4) + 1)
    inside = [float(r) for r in k * 5e-4 if lo <= r <= hi]
    return [lo] + inside + [hi]


@pytest.fixture(scope="module")
def fleet():
    return default_fleet()


def test_optimize_rho_is_exact_lattice_minimum(fleet):
    # brute force over every candidate with the scalar exponent; a search
    # with a stopping rule returned 0.823 for k-order(a=0.5) at 2 - 1i,
    # where 0.8235 is 3.5e-6 lower
    for model in fleet:
        cands = rho_candidates(model)
        js = [float(log_ratio_integral(model, r).value) for r in cands]
        for z in (0.25, 1.0, 4.0, 4 + 4j, 2 - 1j, 16.0):
            best = min(bound_exponent(model, z, r, j) for r, j in zip(cands, js))
            _, e_star = optimize_rho(model, z)
            assert e_star == pytest.approx(best, rel=1e-12), (model.model_id, z)


def test_optimize_rho_depends_on_re_z_only(fleet):
    # log E = b(rho) + rho log Re z - log cos(arg z)
    for model in fleet:
        rhos = {optimize_rho(model, z)[0] for z in (4.0, 4 + 4j, 4 + 12j)}
        assert len(rhos) == 1, (model.model_id, rhos)


def test_log_j_convex_on_rho_lattice(fleet):
    # Hoelder: J(rho) = int g x^-rho dx is log-convex in rho
    for model in fleet:
        cands = rho_candidates(model)[1:-1]
        log_j = np.log([float(log_ratio_integral(model, r).value) for r in cands])
        assert np.min(np.diff(log_j, 2)) >= 0.0, model.model_id
