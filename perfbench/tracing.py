"""Per-layer tracing from outside the package.

Spans are recorded by wrapping the package's public functions where they
are looked up: `bound` and `verify` import `integrate_singular`,
`log_ratio_integral`, `phi_vec` and the others by name, so each importing
module's attribute is patched.  Adapter methods (`log_derivative`,
`value_ratio`) are wrapped per instance, so `isinstance` checks in `verify`
still hold.  A hook whose target no longer exists is skipped; its metrics
are then absent from the output instead of crashing the run.

Spans are aggregated in memory as they close: per span name the call
count, inclusive seconds, self seconds (duration minus the time covered by
child spans) and any counts the hook extracts (integrand evaluations,
abscissae, records).  Individual spans are not kept: a traced query opens
about 10^5 of them.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from importlib import import_module

ROOT_SPAN = "bench.op"


class Tracer:
    """Span stack plus per-name aggregates."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, defaultdict] = {}
        self._stack: list[list] = []  # [name, start, seconds covered by children]

    def begin(self, name: str) -> None:
        self._stack.append([name, self.clock(), 0.0])

    def end(self, counts: dict | None = None) -> None:
        name, start, child = self._stack.pop()
        duration = self.clock() - start
        if self._stack:
            self._stack[-1][2] += duration
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = defaultdict(float)
        st["calls"] += 1
        st["s"] += duration
        st["self_s"] += duration - child
        if counts:
            for key, value in counts.items():
                st[key] += value

    def wrap(self, name: str, fn, count=None):
        """`fn` recorded as span `name`; `count(args, result)` adds counts."""
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.end()
                raise
            self.end(count(args, out) if count else None)
            return out

        traced.__wrapped__ = fn
        return traced


# --------------------------------------------------------------------------
# hook table
# --------------------------------------------------------------------------


def _evals(args, res):
    return {"evals": res.evaluations}


def _points(args, out):
    return {"points": _size(args[-1])}


def _size(x) -> int:
    shape = getattr(x, "shape", ())
    return math.prod(shape) if shape else 1


def _records(args, out):
    return {"records": len(out)}


def _jsonl_records(args, out):
    return {"records": out.count("\n")}


# (span name, [(module, attribute), ...], count extractor); every listed
# lookup site of a function gets the same span name
FUNCTION_HOOKS = [
    ("numerics.integrate_singular.j", [("bound", "integrate_singular")], _evals),
    ("numerics.integrate_singular.phi", [("verify", "integrate_singular")], _evals),
    ("numerics.quad_adaptive", [("numerics", "quad_adaptive"),
                                ("verify", "quad_adaptive")], _evals),
    ("bound.log_ratio_integral", [("bound", "log_ratio_integral"),
                                  ("verify", "log_ratio_integral")], None),
    ("bound.optimize_rho", [("bound", "optimize_rho"),
                            ("verify", "optimize_rho")], None),
    ("bound.evaluate_chain", [("bound", "evaluate_chain"),
                              ("verify", "evaluate_chain")], None),
    ("zeros.sup_weighted_phi", [("bound", "sup_weighted_phi")], None),
    ("zeros.phi_vec", [("zeros", "phi_vec"), ("verify", "phi_vec")], _points),
    ("zeros.zero_sum", [("verify", "zero_sum")], None),
    ("zeros.reciprocal_power_zero_sum", [("verify", "reciprocal_power_zero_sum")], None),
    ("models.build_model", [("models", "build_model")], None),
    ("models.default_fleet", [("models", "default_fleet")], None),
    ("zeros.zeros", [("models", "ZeroSequence")], None),
    ("bessel.zeros", [("bessel", "bessel_j_squared_zeros")], None),
    ("airy.zeros", [("airy", "airy_squared_zeros")], None),
    ("kbessel.zeros", [("kbessel", "k_order_zeros")], None),
    ("verify.run_identity_suite", [("verify", "run_identity_suite")], _records),
    ("verify.run_inequality_suite", [("verify", "run_inequality_suite")], _records),
    ("verify.run_monotonicity_suite", [("verify", "run_monotonicity_suite")], _records),
    ("verify.records_to_jsonl", [("verify", "records_to_jsonl")], _jsonl_records),
]

MINIMIZE_SPAN = "numerics.minimize_scalar"

# adapter class name -> module the span is named after
ADAPTER_MODULES = {
    "ZeroProductModel": "zeros",
    "BesselIModel": "bessel",
    "AiryPairModel": "airy",
    "KOrderModel": "kbessel",
}


class Hooks:
    """Installed patches; `remove()` puts every original back."""

    def __init__(self, tracer: Tracer, package: str = "g0bound"):
        self.tracer = tracer
        self.package = package
        self.installed: set[str] = set()
        self.missing: list[str] = []
        self._undo: list[tuple] = []

    def _patch(self, module_name: str, attr: str, replacement_for) -> bool:
        try:
            module = import_module(f"{self.package}.{module_name}")
        except ImportError:
            return False
        original = getattr(module, attr, None)
        if original is None:
            return False
        setattr(module, attr, replacement_for(original))
        self._undo.append((module, attr, original))
        return True

    def install(self) -> "Hooks":
        t = self.tracer
        for span, sites, count in FUNCTION_HOOKS:
            for module_name, attr in sites:
                if self._patch(module_name, attr,
                               lambda fn, s=span, c=count: t.wrap(s, fn, c)):
                    self.installed.add(span)
                else:
                    self.missing.append(f"{module_name}.{attr}")
        if self._patch("bound", "minimize_scalar", self._traced_minimize):
            self.installed.add(MINIMIZE_SPAN)
        else:
            self.missing.append("bound.minimize_scalar")
        for cls in ADAPTER_MODULES:
            for method in ("log_derivative", "value_ratio"):
                self.installed.add(f"{ADAPTER_MODULES[cls]}.{method}")
        return self

    def _traced_minimize(self, fn):
        t = self.tracer

        def traced(h, *args, **kwargs):
            def objective(x):
                value = h(x)
                inf = value is None or not math.isfinite(value)
                t.stats[MINIMIZE_SPAN]["objective_calls"] += 1
                t.stats[MINIMIZE_SPAN]["objective_inf"] += inf
                return value

            t.stats.setdefault(MINIMIZE_SPAN, defaultdict(float))
            return t.wrap(MINIMIZE_SPAN, fn)(objective, *args, **kwargs)

        return traced

    def instrument_model(self, model):
        """Wrap one model instance's adapter methods (instance attributes,
        so the class and isinstance are untouched)."""
        module = ADAPTER_MODULES.get(type(model).__name__)
        if module is None:
            return model
        t = self.tracer
        model.log_derivative = t.wrap(f"{module}.log_derivative",
                                      model.log_derivative, _points)
        model.value_ratio = t.wrap(f"{module}.value_ratio", model.value_ratio)
        return model

    def remove(self) -> None:
        for module, attr, original in reversed(self._undo):
            setattr(module, attr, original)
        self._undo.clear()


# --------------------------------------------------------------------------
# per-layer metrics
# --------------------------------------------------------------------------


HIT_RATIO = "bound.log_ratio_integral.hit_ratio"


def span_cost_s(calls: int = 20_000) -> float:
    """Seconds one traced call adds: a wrapped no-op against a bare one."""
    def noop(x):
        return x

    traced = Tracer().wrap("noop", noop, _points)
    best = math.inf
    for fn in (noop, traced, noop, traced):
        t0 = time.perf_counter()
        for i in range(calls):
            fn(i)
        elapsed = (time.perf_counter() - t0) / calls
        if fn is noop:
            bare = elapsed
        else:
            best = min(best, elapsed - bare)
    return max(best, 0.0)


def layer_metrics(tracer: Tracer, hooks: Hooks, declared, traced_wall_s: float,
                  untraced_wall_s: float, per_span_s: float = 0.0) -> dict:
    """Values for the declared per-layer metric names.

    `<span>.<stat>` reads the span's aggregate (0 when the span never
    opened); `bound.log_ratio_integral.hit_ratio` is 1 - J quadratures /
    calls; `trace.*` are the run's tracing totals, `trace.span_cost_s` the
    spans opened times `per_span_s`.  Metrics of a span whose hook is not
    installed are left out.
    """
    stats = tracer.stats
    residual = stats.get(ROOT_SPAN, {}).get("self_s", 0.0)
    spans = sum(st["calls"] for st in stats.values())
    derived = {
        "trace.overhead": traced_wall_s / untraced_wall_s if untraced_wall_s else 0.0,
        "trace.wall_s": traced_wall_s,
        "trace.unattributed_s": residual,
        "trace.spans": spans,
        "trace.span_cost_s": spans * per_span_s,
    }
    lri = stats.get("bound.log_ratio_integral", {}).get("calls", 0)
    quads = stats.get("numerics.integrate_singular.j", {}).get("calls", 0)
    if {"bound.log_ratio_integral", "numerics.integrate_singular.j"} <= hooks.installed:
        derived[HIT_RATIO] = 1.0 - quads / lri if lri else 0.0

    out = {}
    for name in declared:
        if name in derived:
            out[name] = derived[name]
            continue
        if name == HIT_RATIO:
            continue
        span, _, stat = name.rpartition(".")
        if span in hooks.installed:
            out[name] = float(stats.get(span, {}).get(stat, 0.0))
    return out
