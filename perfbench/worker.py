"""One workload in one process (started by run.py, which caps the BLAS and
OpenMP pools and puts the checkout's src/ on PYTHONPATH).

Closed loop, one client: the next operation starts when the previous one
has returned.  Operations are called through the package modules the CLI
uses (`models`, `bound`, `verify`), looked up as module attributes so the
traced run's patches apply.  Every operation's output is checked after its
timer stops; a wrong or failed output counts in `failed` and the run goes
on.

With --trace 0 the run measures for --seconds and prints the end-to-end
metrics.  With --trace 1 it runs the same loop untraced for half the time
(at least one block of inputs), restores the session state, then replays
exactly those operations with the per-layer hooks installed and prints the
per-layer metrics, including the tracing overhead: traced / untraced wall
over the same operations, and the spans opened times the cost of one span
measured in the same process.  The wall ratio carries the machine's speed
drift between the two phases; the span cost does not.  In opt-cold the
replay finds kbessel's module-level moment cache filled by the first phase.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import inputs
import tracing
from stats import tail_percentile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 5
J_GATE_REL = 1e-6

import g0bound  # noqa: E402  (PYTHONPATH is set by run.py)

if not os.path.abspath(g0bound.__file__).startswith(SRC + os.sep):
    sys.exit(f"g0bound imported from {g0bound.__file__}, not from {SRC}")

import scipy.special  # noqa: E402
from g0bound import bound, models, verify, zeros  # noqa: E402
from g0bound.errors import G0BoundError  # noqa: E402


def _bound_payload(model, report) -> str:
    # what cmd_bound prints for --rho opt --output json
    payload = report.to_json_dict()
    payload.update(model_id=model.model_id, rho_policy="optimized",
                   rho_star=report.rho)
    return json.dumps(payload, sort_keys=True)


def _slack_share(exponent: float, mid: float) -> float:
    """Share of the certified exponent E not used by log|f(z)/f(0)|."""
    return (exponent - math.log(mid)) / exponent


@dataclass
class Outcome:
    """Checked result of one operation: how many outputs it was worth,
    how many of them failed, and its bound-tightness sample (if any)."""

    attempted: int
    failed: int
    slack: float | None = None
    records: int = 1
    note: str | None = None


class Workload:
    """Defaults for a workload without session state."""

    outputs_per_op = 1

    def prepare(self):
        pass

    def snapshot(self):
        return None

    def restore(self, state, hooks):
        pass


# --------------------------------------------------------------------------
# bound queries (opt-cold, opt-warm)
# --------------------------------------------------------------------------


def _check_bound_query(model, report) -> Outcome:
    """chain_ok, plus J(rho*) against an independent route where one exists:
    pi/sin(pi rho) zeta(2 rho) for the toy, pi/sin(pi rho) sum z_n^-rho for
    the Bessel and Airy zero tables (k-order has no authoritative zeros)."""
    rho = report.rho
    ref = None
    if model.model_id == "toy-square":
        ref = math.pi / math.sin(math.pi * rho) * float(scipy.special.zeta(2.0 * rho))
    elif model.zeros_authoritative:
        ref = math.pi / math.sin(math.pi * rho) * zeros.zero_sum(model.zeros(), rho)
    ok = bool(report.chain_ok)
    note = None if ok else f"chain_ok false for {model.model_id} at z={report.z}"
    if ref is not None and abs(report.J - ref) > J_GATE_REL * abs(ref):
        ok = False
        note = (f"J({rho!r}) = {report.J!r} vs independent {ref!r} "
                f"for {model.model_id}")
    return Outcome(1, 0 if ok else 1,
                   _slack_share(report.exponent_thm, report.mid), note=note)


class OptCold(Workload):
    """One-shot `bound --rho opt` queries: every query builds its own model,
    so the J memo only helps inside one rho search."""

    setup_code = "import g0bound, g0bound.cli"
    slack_ops = 8  # two blocks: every family twice
    trace_ops = inputs.BLOCK  # the traced replay reaches every adapter

    def __init__(self, seed):
        self.stream = inputs.cold_queries(seed)

    def next_input(self):
        return next(self.stream)

    def run(self, inp, hooks):
        family, params, z = inp
        model = models.build_model(family, **params)
        if hooks:
            hooks.instrument_model(model)
        rho, _ = bound.optimize_rho(model, z)
        report = bound.evaluate_chain(model, z, rho)
        _bound_payload(model, report)
        return model, report

    def check(self, inp, result):
        return _check_bound_query(*result)


# one model per adapter, all members of default_fleet()
WARM_SESSION = ("toy-square", "bessel-i(nu=0)", "airy-pair", "k-order(a=1)")
WARM_Z = 4.0 + 0.0j


class OptWarm(Workload):
    """A library session: models built once and kept referenced (the J memo
    is weak-keyed), each warmed with one rho search before timing."""

    setup_code = "import g0bound; g0bound.default_fleet()"
    slack_ops = 12
    trace_ops = inputs.BLOCK

    def __init__(self, seed):
        self.stream = inputs.warm_queries(seed, len(WARM_SESSION))
        self.session = []
        self.warmup_s = 0.0

    def prepare(self):
        fleet = {m.model_id: m for m in models.default_fleet()}
        self.session = [fleet[name] for name in WARM_SESSION]
        t0 = time.perf_counter()
        for model in self.session:
            bound.optimize_rho(model, WARM_Z)
        self.warmup_s = time.perf_counter() - t0

    def next_input(self):
        return next(self.stream)

    def run(self, inp, hooks):
        index, z = inp
        model = self.session[index]
        rho, _ = bound.optimize_rho(model, z)
        report = bound.evaluate_chain(model, z, rho)
        _bound_payload(model, report)
        return model, report

    def check(self, inp, result):
        return _check_bound_query(*result)

    # the traced replay must start from the memo state the untraced phase
    # started from; a package without these memos has no state to restore
    _MEMOS = ("_J_CACHE", "_SUP_CACHE")

    def snapshot(self):
        return {name: {m: dict(memo) for m, memo in getattr(bound, name).items()}
                for name in self._MEMOS if hasattr(bound, name)}

    def restore(self, state, hooks):
        for name, saved in state.items():
            live = getattr(bound, name)
            for model in self.session:
                live.setdefault(model, {}).clear()
                live[model].update(saved.get(model, {}))
        for model in self.session:
            hooks.instrument_model(model)


# --------------------------------------------------------------------------
# verify-fixed
# --------------------------------------------------------------------------

# records per model that do not depend on the grid (see verify.py):
# Laplace + log-representation identities (3 + 3) for authoritative zeros,
# axis log-representation (3) otherwise; Bessel adjudication (4), Airy pair
# derivative (2); monotonicity suite 3*4 + 3*3*2 + 2*4*2
_ID_AUTHORITATIVE_FIXED = 6
_ID_DEGRADED_FIXED = 3
_ID_EXTRA = {"BesselIModel": 4, "AiryPairModel": 2}
_MONOTONICITY = 46


def expected_records(model, grid) -> int:
    """Record count that `run_all` must produce for `model` on `grid`."""
    n_r = sum(1 for r in grid.radii if r <= model.domain_radius_max)
    n_p = sum(1 for t in grid.rhos
              if isinstance(t, str) or model.order_rho0 < t < 1.0)
    inequality = 3 * n_r * len(grid.angles) * n_p + n_r * n_p + 1
    n_id = len(model.identity_rhos)
    if model.zeros_authoritative:
        identity = 2 * n_id + _ID_AUTHORITATIVE_FIXED
    else:
        identity = n_id + _ID_DEGRADED_FIXED
    identity += _ID_EXTRA.get(type(model).__name__, 0)
    return identity + inequality + _MONOTONICITY


class VerifyFixed(Workload):
    """`verify --model all` passes as cmd_verify runs them, on the default
    radii and angles with rhos = (midpoint, seeded fixed rho)."""

    setup_code = "import g0bound, g0bound.cli; g0bound.default_fleet()"
    slack_ops = 1  # every pass is the same computation
    trace_ops = 1

    def __init__(self, seed):
        self.seed = seed
        self.rho = inputs.fixed_rho(seed)
        base = verify.GridSpec.default()
        self.grid = verify.GridSpec(radii=base.radii, angles=base.angles,
                                    rhos=("midpoint", self.rho))
        self.expected = 0
        self.digest = None

    @property
    def outputs_per_op(self):
        return self.expected

    def prepare(self):
        self.expected = sum(expected_records(m, self.grid)
                            for m in models.default_fleet())

    def next_input(self):
        return None

    def run(self, inp, hooks):
        fleet = models.default_fleet()
        if hooks:
            for model in fleet:
                hooks.instrument_model(model)
        summary = verify.run_all(fleet, self.grid, seed=self.seed)
        text = verify.records_to_jsonl(summary["records"])
        # the summary line cmd_verify prints after the records
        json.dumps({"summary": {k: summary[k] for k in
                                ("total", "passed", "failed", "worst_rel_error")}},
                   sort_keys=True)
        return summary, text

    def check(self, inp, result):
        summary, text = result
        records = summary["records"]
        failing = sum(1 for r in records if not r.passed)
        missing = max(0, self.expected - len(records))
        failed = failing + missing
        notes = []
        if len(records) != self.expected:
            failed = max(failed, 1)
            notes.append(f"{len(records)} records, grid implies {self.expected}")
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            failed = max(failed, 1)
            notes.append("JSONL differs between passes")
        if failing:
            notes.append(f"{failing} records failed")
        upper = [r for r in records if r.check_name == "chain_upper"]
        slack = statistics.fmean(_slack_share(math.log(r.rhs), r.lhs)
                                 for r in upper) if upper else None
        return Outcome(max(self.expected, len(records)), failed, slack,
                       records=len(records), note="; ".join(notes) or None)


WORKLOADS = {"opt-cold": OptCold, "opt-warm": OptWarm, "verify-fixed": VerifyFixed}


# --------------------------------------------------------------------------
# measurement loop
# --------------------------------------------------------------------------


class Tally:
    def __init__(self):
        self.latencies = []
        self.attempted = 0
        self.failed = 0
        self.records = 0
        self.slacks = []
        self.notes = []

    def add(self, latency, outcome: Outcome):
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        if outcome.note:
            self.notes.append(outcome.note)
        if latency is not None:
            self.latencies.append(latency)
            self.records += outcome.records
            if outcome.slack is not None:
                self.slacks.append(outcome.slack)


def run_one(workload, tally, inp, hooks=None, tracer=None):
    """Time one operation, then check it.  Returns its latency."""
    clock = time.perf_counter
    if tracer:
        tracer.begin(tracing.ROOT_SPAN)
    t0 = clock()
    try:
        result = workload.run(inp, hooks)
    except G0BoundError as exc:
        latency = clock() - t0
        if tracer:
            tracer.end()
        weight = workload.outputs_per_op
        tally.add(None, Outcome(weight, weight, note=f"{type(exc).__name__}: {exc}"))
        return latency
    latency = clock() - t0
    if tracer:
        tracer.end()
    tally.add(latency, workload.check(inp, result))
    return latency


def timed_loop(workload, tally, seconds, min_ops):
    """Run operations until `seconds` have passed and at least `min_ops`
    are done; returns the inputs used and the summed operation time."""
    done, busy = [], 0.0
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(done) < min_ops:
        inp = workload.next_input()
        busy += run_one(workload, tally, inp)
        done.append(inp)
    return done, busy


def measure_setup(code: str) -> float:
    """Median over SETUP_REPEATS fresh interpreters of import + model build."""
    probe = ("import time; t0 = time.perf_counter()\n"
             f"{code}\n"
             "print(repr(time.perf_counter() - t0))")
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                             text=True, check=True, timeout=60)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def end_to_end(workload, seconds) -> tuple[dict, Tally, list]:
    setup_s = measure_setup(workload.setup_code)
    workload.prepare()
    tally = Tally()
    _, busy = timed_loop(workload, tally, seconds, workload.slack_ops)
    lat = tally.latencies
    if not lat:
        raise RuntimeError("no operation completed")
    tail, pct, n = tail_percentile(lat)
    n_slack = workload.slack_ops
    metrics = {
        "setup_s": (setup_s, "s"),
        "queries_per_s": (len(lat) / busy, "1/s"),
        "query_p50_s": (statistics.median(lat), "s"),
        "query_tail_s": (tail, "s"),
        "records_per_s": (tally.records / busy, "1/s"),
        "slack_share": (statistics.fmean(tally.slacks[:n_slack]), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    lines = [f"query_tail_s is p{pct:.1f} of {n} queries"
             + (" (too few for >= 10 beyond: maximum)" if pct == 100.0 else ""),
             f"slack_share over the first {min(n_slack, len(tally.slacks))} queries"]
    return metrics, tally, lines


def traced(workload, seconds, declared) -> tuple[dict, Tally, list]:
    workload.prepare()
    state = workload.snapshot()
    tally = Tally()
    done, untraced_wall = timed_loop(workload, tally, seconds / 2.0,
                                     workload.trace_ops)
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer).install()
    try:
        workload.restore(state, hooks)
        traced_wall = sum(run_one(workload, tally, inp, hooks, tracer)
                          for inp in done)
    finally:
        hooks.remove()
    values = tracing.layer_metrics(tracer, hooks, [m["name"] for m in declared],
                                   traced_wall, untraced_wall,
                                   tracing.span_cost_s())
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {k: (v, units[k]) for k, v in values.items()}
    attributed = sum(st["self_s"] for name, st in tracer.stats.items()
                     if name != tracing.ROOT_SPAN)
    lines = [f"traced replay of {len(done)} operations: untraced {untraced_wall:.3f} s, "
             f"traced {traced_wall:.3f} s, layer self time {attributed:.3f} s, "
             f"unattributed {traced_wall - attributed:.3f} s"]
    if hooks.missing:
        lines.append("hooks without a target: " + ", ".join(hooks.missing))
    return metrics, tally, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--declared", required=True,
                    help="BENCHMARK.json, for the per-layer metric names and units")
    args = ap.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        with open(args.declared) as fh:
            declared = json.load(fh)["per_layer"]
        metrics, tally, lines = traced(workload, args.seconds, declared)
    else:
        metrics, tally, lines = end_to_end(workload, args.seconds)

    if isinstance(workload, OptWarm):
        lines.append(f"warm-up (one rho search per session model): {workload.warmup_s:.3f} s")
    if isinstance(workload, VerifyFixed):
        lines.append(f"fixed rho {workload.rho!r}; {workload.expected} records per pass; "
                     f"jsonl sha256 {workload.digest}")
    lines.append(f"attempted {tally.attempted}, failed {tally.failed}, "
                 f"failed_frac {tally.failed / max(tally.attempted, 1):.6g}")
    for note in tally.notes[:20]:
        lines.append(f"FAILED: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    for line in lines:
        print(line)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
