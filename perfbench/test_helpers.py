"""Tests for the benchmark's own helpers (no g0bound import needed).

    python3 -m pytest perfbench/test_helpers.py -q
"""

from __future__ import annotations

import itertools
import math
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import inputs  # noqa: E402
import tracing  # noqa: E402
from stats import quartile_spread, tail_percentile  # noqa: E402


# -- tail percentile -------------------------------------------------------

def test_tail_keeps_ten_samples_beyond():
    samples = list(range(1, 101))  # 1..100
    value, pct, n = tail_percentile(samples)
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_is_order_free_and_uses_the_smallest_qualifying_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0] + [10.0 + i for i in range(10)]
    value, pct, n = tail_percentile(samples)
    assert n == 15 and value == 5.0 and pct == pytest.approx(100 * 5 / 15)


def test_tail_falls_back_to_maximum_below_eleven_samples():
    assert tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)
    assert tail_percentile(list(range(10))) == (9, 100.0, 10)
    assert tail_percentile(list(range(11))) == (0, 100.0 / 11, 11)


def test_tail_rejects_no_samples():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_quartile_spread():
    assert quartile_spread([1.0] * 10) == 0.0
    assert quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        (8.25 - 2.75) / 5.5)


# -- self time on nested spans ----------------------------------------------

class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    t = tracing.Tracer(clock)
    t.begin("root")          # 0
    clock.now = 1.0
    t.begin("a")             # 1
    clock.now = 2.0
    t.begin("b")             # 2
    clock.now = 5.0
    t.end({"evals": 21})     # b: 3 s
    clock.now = 6.0
    t.end()                  # a: 5 s, self 2 s
    clock.now = 7.0
    t.begin("b")             # 7
    clock.now = 8.0
    t.end({"evals": 21})     # b: 1 s
    clock.now = 10.0
    t.end()                  # root: 10 s, self 10 - 5 - 1 = 4 s
    s = t.stats
    assert s["root"]["s"] == 10.0 and s["root"]["self_s"] == 4.0
    assert s["a"]["s"] == 5.0 and s["a"]["self_s"] == 2.0
    assert s["b"]["calls"] == 2 and s["b"]["s"] == 4.0 and s["b"]["self_s"] == 4.0
    assert s["b"]["evals"] == 42
    # self times partition the root span
    assert sum(st["self_s"] for st in s.values()) == s["root"]["s"]


def test_wrapped_call_closes_its_span_on_exception():
    clock = FakeClock()
    t = tracing.Tracer(clock)

    def boom(x):
        clock.now += 2.0
        raise ArithmeticError(x)

    traced = t.wrap("boom", boom)
    t.begin("root")
    with pytest.raises(ArithmeticError):
        traced(1)
    clock.now += 1.0
    t.end()
    assert t.stats["boom"]["calls"] == 1 and t.stats["boom"]["s"] == 2.0
    assert t.stats["root"]["self_s"] == 1.0


def test_missing_hook_target_gives_absent_metrics(monkeypatch):
    fake = type(sys)("fakepkg.bound")
    fake.log_ratio_integral = lambda model, rho: None  # no minimize_scalar
    pkg = type(sys)("fakepkg")
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.bound", fake)
    hooks = tracing.Hooks(tracing.Tracer(), package="fakepkg").install()
    try:
        assert "bound.minimize_scalar" in hooks.missing
        fake.log_ratio_integral(None, 0.5)
        values = tracing.layer_metrics(
            hooks.tracer, hooks,
            ["numerics.minimize_scalar.calls", "bound.log_ratio_integral.calls",
             "bound.log_ratio_integral.hit_ratio", "trace.overhead"], 2.0, 1.0)
    finally:
        hooks.remove()
    assert values == {"bound.log_ratio_integral.calls": 1.0, "trace.overhead": 2.0}
    assert fake.log_ratio_integral.__name__ == "<lambda>"


# -- seeded inputs -----------------------------------------------------------

def test_generators_are_deterministic_per_seed():
    a = list(itertools.islice(inputs.cold_queries(7), 12))
    b = list(itertools.islice(inputs.cold_queries(7), 12))
    c = list(itertools.islice(inputs.cold_queries(8), 12))
    assert a == b and a != c
    assert (list(itertools.islice(inputs.warm_queries(7, 4), 12))
            == list(itertools.islice(inputs.warm_queries(7, 4), 12)))
    assert inputs.fixed_rho(7) == inputs.fixed_rho(7) != inputs.fixed_rho(8)


def test_cold_queries_cover_families_and_strata_in_every_block():
    queries = list(itertools.islice(inputs.cold_queries(3), 40))
    lo, hi = (math.log(r) for r in inputs.ABS_Z_RANGE)
    for start in range(0, 40, 4):
        block = queries[start:start + 4]
        assert [q[0] for q in block] == list(inputs.FAMILIES)
        r_strata = sorted(int(4 * (math.log(abs(z)) - lo) / (hi - lo)) for _, _, z in block)
        t_strata = sorted(int(4 * (math.atan2(z.imag, z.real) + inputs.ARG_MAX)
                              / (2 * inputs.ARG_MAX)) for _, _, z in block)
        assert r_strata == [0, 1, 2, 3] and t_strata == [0, 1, 2, 3]
    for family, params, z in queries:
        assert inputs.ABS_Z_RANGE[0] <= abs(z) <= inputs.ABS_Z_RANGE[1]
        assert abs(math.atan2(z.imag, z.real)) <= inputs.ARG_MAX
        if family == "bessel-i":
            assert -1.0 < params["nu"] <= 3.0
        if family == "k-order":
            assert inputs.A_RANGE[0] <= params["a"] <= inputs.A_RANGE[1]


def test_fixed_rho_is_admissible_for_every_fleet_member():
    for seed in range(50):
        assert 0.75 < inputs.fixed_rho(seed) < 1.0
