"""Spans around sinrmin's layer boundaries, recorded from outside.

The package binds its collaborators with `from .x import f`, so a wrapper
only takes effect in the module that *calls* `f`. Each target below is
therefore a (calling module, attribute) pair. Spans are kept in memory
as (pass, name, start_ns, end_ns, parent) tuples and written once, when
the run ends.
"""

import csv
import importlib
import math
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter_ns


def _exhaustive_label(tracer, args, kwargs):
    channels = args[0] if args else kwargs["channels"]
    k_s = args[1] if len(args) > 1 else kwargs["k_s"]
    power_fn = kwargs.get("power_fn", args[3] if len(args) > 3 else "approx")
    tracer.counts[f"orderings_{power_fn}"] += math.perm(channels.K, k_s)
    return f"selection.exhaustive_{power_fn}"


# (calling module, attribute, span name or label function)
TARGETS = (
    ("sinrmin.experiment", "sample_channel_set", "channel.sample"),
    ("sinrmin.experiment", "select_nus", "selection.nus"),
    ("sinrmin.experiment", "select_sus", "selection.sus"),
    ("sinrmin.experiment", "select_aus", "selection.aus"),
    ("sinrmin.experiment", "select_rus", "selection.rus"),
    ("sinrmin.experiment", "select_exhaustive", _exhaustive_label),
    ("sinrmin.experiment", "approx_min_power", "power.approx"),
    ("sinrmin.experiment", "exact_min_power", "power.exact"),
    ("sinrmin.experiment", "avg_power_nus", "analytic.avg_power_nus"),
    ("sinrmin.experiment", "avg_power_sus", "analytic.avg_power_sus"),
    ("sinrmin.experiment", "avg_power_rus", "analytic.avg_power_rus"),
    ("sinrmin.experiment", "avg_power_aus_two", "analytic.avg_power_aus_two"),
    ("sinrmin.experiment", "avg_power_lower_bound_two", "analytic.avg_power_lower_bound_two"),
    ("sinrmin.experiment", "run_point", "experiment.run_point"),
    # the exhaustive search's one-ordering-at-a-time fallback
    ("sinrmin.selection", "approx_min_power", "power.approx_fallback"),
    ("sinrmin.selection", "exact_min_power", "power.exact"),
    ("sinrmin.analytic", "alpha", "analytic.alpha"),
    ("sinrmin.analytic", "mean_inverse", "analytic.mean_inverse"),
    ("sinrmin.analytic", "mean_inverse_quadrature", "analytic.mean_inverse_quadrature"),
    ("sinrmin.cli", "run_sweep", "experiment.run_sweep"),
)

LAYERS = ("channel", "selection", "power", "analytic", "experiment", "cli")


class Tracer:
    """In-memory span recorder; `pass_id` tags the spans of one pass."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.pass_id = 0
        self._stack = []

    def wrap(self, fn, name):
        spans, stack = self.spans, self._stack

        @wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(self, args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[idx] = (self.pass_id, label, start, end, parent)

        return traced

    @contextmanager
    def installed(self):
        """Replace every target with its traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("pass", "span", "parent", "name", "start_ns", "end_ns"))
            for idx, (pass_id, name, start, end, parent) in enumerate(self.spans):
                writer.writerow((pass_id, idx, parent, name, start, end))

    def totals(self):
        """Per span name: call count, inclusive ns and self ns.

        Self time is a span's duration minus the durations of its direct
        children; the root spans' durations sum to the traced wall time.
        """
        child_ns = [0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls, incl, self_ns = Counter(), Counter(), Counter()
        root_ns = 0
        for idx, (_, name, start, end, parent) in enumerate(self.spans):
            calls[name] += 1
            incl[name] += end - start
            self_ns[name] += end - start - child_ns[idx]
            if parent < 0:
                root_ns += end - start
        return calls, incl, self_ns, root_ns


def per_layer_metrics(tracer, passes, trials, alpha_hits, alpha_misses, overhead):
    """Per-layer metrics of the traced passes, as {name: (value, unit)}.

    `passes` and `trials` count the traced passes and the trials they ran.
    A layer a workload never calls reports 0.
    """
    calls, incl, self_ns, _ = tracer.totals()

    def per_call(names, scale, table=self_ns):
        n = sum(calls[x] for x in names)
        return sum(table[x] for x in names) / n / scale if n else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    us, ms = 1e3, 1e6
    power_calls = sum(calls[x] for x in ("power.approx", "power.approx_fallback", "power.exact"))
    m = {
        "channel.sample_us": (per_call(["channel.sample"], us), "us"),
        "selection.nus_us": (per_call(["selection.nus"], us), "us"),
        "selection.sus_us": (per_call(["selection.sus"], us), "us"),
        "selection.aus_us": (per_call(["selection.aus"], us), "us"),
        "selection.rus_us": (per_call(["selection.rus"], us), "us"),
        "selection.exhaustive_approx_ms": (per_call(["selection.exhaustive_approx"], ms), "ms"),
        "selection.exhaustive_exact_ms": (per_call(["selection.exhaustive_exact"], ms), "ms"),
        "selection.exhaustive_fallback_frac": (
            ratio(calls["power.approx_fallback"], tracer.counts["orderings_approx"]), "ratio"),
        "power.approx_us": (per_call(["power.approx", "power.approx_fallback"], us), "us"),
        "power.exact_us": (per_call(["power.exact"], us), "us"),
        "power.calls_per_trial": (ratio(power_calls, trials), "count/trial"),
    }
    for rule in ("nus", "sus", "rus", "aus_two", "lower_bound_two"):
        name = f"analytic.avg_power_{rule}"
        m[f"{name}_ms"] = (per_call([name], ms, incl), "ms")
    m["analytic.alpha_calls"] = (ratio(calls["analytic.alpha"], passes), "count/pass")
    m["analytic.mean_inverse_calls"] = (ratio(calls["analytic.mean_inverse"], passes), "count/pass")
    m["analytic.mean_inverse_quadrature_ms"] = (
        per_call(["analytic.mean_inverse_quadrature"], ms, incl), "ms")
    m["analytic.alpha_cache_hit_frac"] = (
        ratio(alpha_hits, alpha_hits + alpha_misses), "ratio")
    m["experiment.self_us_per_trial"] = (ratio(self_ns["experiment.run_point"], trials) / us, "us/trial")
    m["cli.self_ms"] = (ratio(self_ns["cli.main"], passes) / ms, "ms/pass")
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m


def layer_shares(tracer):
    """Each layer's self time as a share of the traced wall time."""
    _, _, self_ns, root_ns = tracer.totals()
    layer_ns = defaultdict(int)
    for name, ns in self_ns.items():
        layer_ns[name.split(".", 1)[0]] += ns
    return {layer: layer_ns[layer] / root_ns if root_ns else 0.0 for layer in LAYERS}
