"""Span tracing from outside the program.

The traced run replaces the public entry points of each layer with thin
wrappers that record a span (name, start, end, parent, operation id) and
the counts the call returns or raises.  Nothing under ``src/`` changes: the
wrappers are installed by rebinding module attributes at the names the
callers look up, and removed again when the traced rounds end.

Spans stay in memory; ``Tracer.dump`` writes them out once, at the end.
"""

import json
import time
from collections import defaultdict

# (module, attribute, span name).  Callers look these names up as module
# globals at call time, so rebinding the attribute reaches every call.
# cli imported some of them with ``from .x import y``; those are rebound in
# cli's namespace as well.
WRAP_POINTS = (
    ("cli", "load_scenario", "scenario.parse"),
    ("cli", "parse_scenario", "scenario.parse"),
    ("cli", "_sweep_point", "cli.sweep_point"),
    ("cli", "_write_solution", "cli.write"),
    ("cli", "solve_p1", "allocator.bcd"),
    ("cli", "solve_p2", "allocator.bcd"),
    ("cli", "solve_bias", "allocator.bias"),
    ("allocator", "solve_bias", "allocator.bias"),
    ("allocator", "waterfill_comm", "allocator.waterfill"),
    ("allocator", "sensing_lp", "allocator.sensing_lp"),
    ("allocator", "dual_iterate_comm", "allocator.dual"),
    ("allocator", "dual_iterate_sense", "allocator.dual"),
    ("system", "compute_clipping_stats", "clipping.stats"),
    ("system", "snr_profiles", "clipping.snr"),
    ("monte_carlo", "compute_clipping_stats", "clipping.stats"),
    ("cli", "verify_clipping_model", "monte_carlo.clip_verify"),
    ("cli", "rmse_vs_crb", "monte_carlo.rmse"),
    ("monte_carlo", "generate_frame", "ofdm.generate_frame"),
    ("monte_carlo", "to_time_domain", "ofdm.to_time_domain"),
)


def _bias_counts(args, kwargs, result, exc):
    if result is None:
        return {}
    info = result[1]
    return {"evals": int(info["evals"]), "grid_fallback": int(bool(info["grid_fallback"]))}


def _dual_counts(args, kwargs, result, exc):
    trace = result[1] if result is not None else getattr(exc, "trace", None)
    return {} if trace is None else {"alternations": len(trace.mu) - 1}


def _clip_verify_counts(args, kwargs, result, exc):
    trials = kwargs["trials"] if "trials" in kwargs else args[3]
    return {"frames": int(trials)}


def _rmse_counts(args, kwargs, result, exc):
    campaign = kwargs["campaign"] if "campaign" in kwargs else args[0]
    return {"frames": int(campaign.trials) * len(campaign.snr_sweep)}


# One root span per call of ``cli.main``, named after the subcommand.
ROOT_SPANS = ("cli.solve", "cli.sweep", "cli.verify")

COUNTERS = {
    "allocator.bias": _bias_counts,
    "allocator.dual": _dual_counts,
    "monte_carlo.clip_verify": _clip_verify_counts,
    "monte_carlo.rmse": _rmse_counts,
}


class Tracer:
    """In-memory span recorder.  ``op`` is the id of the running operation."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._points = 0
        self._stack = []
        self._saved = []

    def span(self, name, fn, *args, counts=None, **kwargs):
        """Call fn(*args, **kwargs) inside a span called `name`."""
        span = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op,
        }
        self._stack.append(len(self.spans))
        self.spans.append(span)
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as e:
            exc = e
            span["error"] = type(e).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            if counts is not None:
                span.update(counts(args, kwargs, result, exc))

    def _wrapper(self, name, fn):
        counts = COUNTERS.get(name)
        if name == "cli.sweep_point":
            def wrapped(*args, **kwargs):
                outer = self.op
                self.op = f"{outer}.{self._points}"
                self._points += 1
                try:
                    return self.span(name, fn, *args, **kwargs)
                finally:
                    self.op = outer
        else:
            def wrapped(*args, **kwargs):
                return self.span(name, fn, *args, counts=counts, **kwargs)
        wrapped.__wrapped__ = fn
        return wrapped

    def install(self, modules):
        """Rebind every wrap point found in `modules` (name -> module).

        Returns the wrap points that are missing, so a renamed entry point
        shows up as a warning rather than as a silent zero.
        """
        missing = []
        for mod_name, attr, span_name in WRAP_POINTS:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                missing.append(f"{mod_name}.{attr}")
                continue
            self._saved.append((mod, attr, fn))
            setattr(mod, attr, self._wrapper(span_name, fn))
        return missing

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def start_op(self, op_id):
        self.op = op_id
        self._points = 0

    def dump(self, path, extra):
        doc = dict(extra)
        doc["spans"] = self.spans
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def self_times(spans):
    """Per-span duration minus the time its direct children cover."""
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[s["parent"]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans, n_ops):
    """Per-layer metrics from the spans of `n_ops` operations.

    Counts and self times are per operation; ``*_ms`` / ``*_s`` that name a
    call (stats_ms, parse_s, write_s) are per call; rates are frames per
    second of the stage's whole span, children included.
    """
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s["name"]].append(i)

    def count(name):
        return len(by_name[name])

    def total_self(*names):
        return sum(selfs[i] for n in names for i in by_name[n])

    def durations(name):
        return [spans[i]["end"] - spans[i]["start"] for i in by_name[name]]

    def per_call(values):
        return sum(values) / len(values) if values else 0.0

    def field_sum(name, key):
        return sum(spans[i].get(key, 0) for i in by_name[name])

    def rate(name):
        t = sum(durations(name))
        return field_sum(name, "frames") / t if t > 0 else 0.0

    bcd = set(by_name["allocator.bcd"])
    bias_under_bcd = sum(1 for i in by_name["allocator.bias"] if spans[i]["parent"] in bcd)
    return {
        "scenario.parse_s": (per_call(durations("scenario.parse")), "s"),
        "clipping.stats_calls": (count("clipping.stats") / n_ops, "count"),
        "clipping.stats_ms": (1e3 * per_call(durations("clipping.stats")), "ms"),
        "clipping.self_s": (total_self("clipping.stats", "clipping.snr") / n_ops, "s"),
        "allocator.bias.searches": (count("allocator.bias") / n_ops, "count"),
        "allocator.bias.evals_per_search": (
            field_sum("allocator.bias", "evals") / max(count("allocator.bias"), 1), "count"),
        "allocator.bias.grid_fallbacks": (
            field_sum("allocator.bias", "grid_fallback") / n_ops, "count"),
        "allocator.bias.self_s": (total_self("allocator.bias") / n_ops, "s"),
        "allocator.dual.calls": (count("allocator.dual") / n_ops, "count"),
        "allocator.dual.alternations": (
            field_sum("allocator.dual", "alternations") / max(count("allocator.dual"), 1),
            "count"),
        "allocator.dual.self_s": (total_self("allocator.dual") / n_ops, "s"),
        "allocator.waterfill.self_s": (total_self("allocator.waterfill") / n_ops, "s"),
        "allocator.sensing_lp.self_s": (total_self("allocator.sensing_lp") / n_ops, "s"),
        "allocator.bcd.outer_iterations": (bias_under_bcd / max(len(bcd), 1), "count"),
        "allocator.bcd.self_s": (total_self("allocator.bcd") / n_ops, "s"),
        "monte_carlo.clip_frames_per_s": (rate("monte_carlo.clip_verify"), "1/s"),
        "monte_carlo.tof_frames_per_s": (rate("monte_carlo.rmse"), "1/s"),
        "monte_carlo.self_s": (
            total_self("monte_carlo.clip_verify", "monte_carlo.rmse") / n_ops, "s"),
        "ofdm.self_s": (
            total_self("ofdm.generate_frame", "ofdm.to_time_domain") / n_ops, "s"),
        "cli.write_s": (per_call(durations("cli.write")), "s"),
        "cli.self_s": (total_self(*ROOT_SPANS, "cli.sweep_point", "cli.write") / n_ops, "s"),
    }
