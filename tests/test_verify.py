"""Verification harness: record structure, suites, serialization."""

import json
import math

import pytest

from g0bound.errors import DomainError, EvaluationOverflowError
from g0bound.models import default_fleet
from g0bound.verify import (DEFAULT_TOLERANCES, GridSpec, VerificationRecord,
                            format_complex, records_to_csv, records_to_jsonl,
                            run_all, run_identity_suite, run_inequality_suite,
                            run_monotonicity_suite)

SMALL_GRID = GridSpec(radii=(1.0, 4.0), angles=(0.0, 0.4, -0.9),
                      rhos=("midpoint", 0.8))


def _names(records):
    return sorted({r.check_name for r in records})


def test_format_complex():
    assert format_complex(1.5) == "1.5"
    assert format_complex(1 + 2j) == "1.0+2.0i"
    assert format_complex(2.5 - 0.75j) == "2.5-0.75i"
    assert format_complex(-1e-3 - 2e4j) == "-0.001-20000.0i"


def test_record_json_uses_pass_key():
    rec = VerificationRecord("c", "m", {"x": 1.0}, 1.0, 1.0, 0.0, 0.0,
                             1e-9, True)
    d = rec.to_json_dict()
    assert d["pass"] is True
    assert "passed" not in d
    assert list(d) == ["check_name", "model_id", "inputs", "lhs", "rhs",
                       "abs_error", "rel_error", "tolerance", "pass"]


def test_grid_validation():
    with pytest.raises(DomainError):
        GridSpec(radii=(0.0,), angles=(0.0,), rhos=("midpoint",))
    with pytest.raises(DomainError):
        GridSpec(radii=(1.0,), angles=(math.pi / 2,), rhos=("midpoint",))
    with pytest.raises(DomainError):
        GridSpec(radii=(1.0,), angles=(0.0,), rhos=(1.5,))
    with pytest.raises(DomainError):
        GridSpec(radii=(), angles=(0.0,), rhos=("midpoint",))
    g = GridSpec.default()
    assert g.radii == (0.25, 1.0, 4.0, 16.0)
    assert len(g.angles) == 7
    assert g.rhos == ("midpoint", "optimized")


def test_identity_suite_toy(toy):
    recs = run_identity_suite(toy)
    assert len(recs) == 12
    assert _names(recs) == ["laplace_transform", "log_ratio_integral_identity",
                            "log_representation", "mellin_transform"]
    assert all(r.passed for r in recs)
    assert recs == sorted(recs, key=VerificationRecord.sort_key)


def test_identity_suite_rejects_bad_rho(toy):
    with pytest.raises(DomainError):
        run_identity_suite(toy, rho_list=(0.4,))


def test_identity_suite_near_order(toy, bessel_zero):
    # rho just above rho0 = 1/2: the Mellin integral splits off phi's
    # t^-rho0 blow-up, so its head substitution stays in range
    for model in (toy, bessel_zero):
        recs = run_identity_suite(model, rho_list=(0.51, 0.52))
        assert all(r.passed for r in recs), model.model_id
        mellin = [r for r in recs if r.check_name == "mellin_transform"]
        assert len(mellin) == 2
        with pytest.raises(EvaluationOverflowError, match="underflows"):
            run_identity_suite(model, rho_list=(0.501,))


def test_fleet_mellin_transform_to_1e10():
    mellin = [r for model in default_fleet() if model.zeros_authoritative
              for r in run_identity_suite(model)
              if r.check_name == "mellin_transform"]
    assert len(mellin) == 18
    worst = max(r.rel_error for r in mellin)
    assert worst <= 1e-10, worst


def test_identity_suite_bessel_adjudicates(bessel_half):
    recs = run_identity_suite(bessel_half)
    adj = [r for r in recs if r.check_name == "axis_integrand_adjudication"]
    assert len(adj) == 4
    assert all(r.passed for r in adj)
    assert {r.inputs["matched"] for r in adj} == {"nu_over_x"}
    assert all(r.inputs["residual_other"] > 1e-3 for r in adj)


def test_identity_suite_airy_dual_route(airy):
    recs = run_identity_suite(airy)
    dual = [r for r in recs if r.check_name == "pair_product_derivative"]
    assert len(dual) == 2
    assert all(r.passed for r in dual)


def test_identity_suite_degrades_without_authoritative_zeros(korder):
    recs = run_identity_suite(korder)
    assert len(recs) == 6  # smaller than the authoritative 12
    assert _names(recs) == ["log_ratio_finite", "log_representation_axis"]
    assert all(r.passed for r in recs)


def test_tolerance_override_forces_failure(toy):
    recs = run_identity_suite(toy, tolerances={"mellin_transform": 1e-300})
    mellin = [r for r in recs if r.check_name == "mellin_transform"]
    assert all(not r.passed for r in mellin)
    assert all(r.tolerance == 1e-300 for r in mellin)
    others = [r for r in recs if r.check_name != "mellin_transform"]
    assert all(r.passed for r in others)


def test_inequality_suite_counts_and_passes(toy):
    recs = run_inequality_suite(toy, SMALL_GRID)
    # 3 * radii * angles * rhos chain + radii * rhos angle + 1 fuzz
    assert len(recs) == 3 * 2 * 3 * 2 + 2 * 2 + 1
    assert all(r.passed for r in recs)
    chain = [r for r in recs if r.check_name == "chain_upper"]
    assert {r.inputs["rho_policy"] for r in chain} == {"midpoint", "fixed"}


def test_inequality_suite_skips_rho_below_order(airy):
    # fixed rho 0.6 is below the airy order 0.75 and is skipped
    grid = GridSpec(radii=(1.0,), angles=(0.0, 0.4), rhos=("midpoint", 0.6))
    recs = run_inequality_suite(airy, grid)
    assert len(recs) == 3 * 1 * 2 * 1 + 1 * 1 + 1
    assert all(r.inputs.get("rho_policy") != "fixed" for r in recs
               if r.check_name.startswith("chain"))


def test_inequality_suite_seed_changes_fuzz(toy):
    a = run_inequality_suite(toy, SMALL_GRID, seed=0)
    b = run_inequality_suite(toy, SMALL_GRID, seed=1)
    fa = next(r for r in a if r.check_name == "elementary_exp_inequality")
    fb = next(r for r in b if r.check_name == "elementary_exp_inequality")
    assert fa.inputs["seed"] == 0 and fb.inputs["seed"] == 1
    assert (fa.lhs, fa.rhs) != (fb.lhs, fb.rhs)


def test_monotonicity_suite(toy, bessel_half, korder):
    for model in (toy, bessel_half, korder):
        recs = run_monotonicity_suite(model)
        assert len(recs) == 46
        assert all(r.passed for r in recs), model.model_id
        assert _names(recs) == ["derivative_modulus_bound",
                                "negative_power_monotone",
                                "squared_modulus_convexity",
                                "squared_modulus_radial"]


def test_run_all_empty():
    summary = run_all([])
    assert summary["total"] == 0
    assert summary["passed"] == 0
    assert summary["failed"] == 0
    assert summary["worst_rel_error"] == {}
    assert summary["records"] == []


def test_run_all_aggregates(toy):
    summary = run_all([toy], SMALL_GRID, seed=3)
    assert summary["total"] == 12 + 41 + 46
    assert summary["failed"] == 0
    assert summary["passed"] == summary["total"]
    assert set(summary["worst_rel_error"]) == set(_names(summary["records"]))
    recs = summary["records"]
    assert recs == sorted(recs, key=VerificationRecord.sort_key)


def test_jsonl_round_trip(toy):
    recs = run_identity_suite(toy)
    text = records_to_jsonl(recs)
    lines = text.strip().split("\n")
    assert len(lines) == len(recs)
    parsed = [json.loads(line) for line in lines]
    assert all(p["pass"] for p in parsed)
    # canonical serialization is reproducible byte for byte
    assert records_to_jsonl(recs) == text


def test_csv_shape(toy):
    recs = run_identity_suite(toy)
    text = records_to_csv(recs)
    lines = text.strip().split("\n")
    assert lines[0] == ("check_name,model_id,inputs,lhs,rhs,"
                        "abs_error,rel_error,tolerance,pass")
    assert len(lines) == len(recs) + 1
    assert records_to_csv([]) .startswith("check_name,")


def test_default_tolerances_cover_all_checks(toy, bessel_half, airy, korder):
    seen = set()
    for model in (toy, bessel_half, airy, korder):
        seen |= {r.check_name for r in run_identity_suite(model)}
        seen |= {r.check_name for r in run_monotonicity_suite(model)}
    seen |= {r.check_name for r in run_inequality_suite(toy, SMALL_GRID)}
    assert seen <= set(DEFAULT_TOLERANCES)
