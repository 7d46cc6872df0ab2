"""Span tracer for the traced benchmark run.

The tracer replaces each public kgdecay function the pipeline calls with a
wrapper that records one span per call: name, start, end, the enclosing span
and counters read from the call's arguments and return value.  Spans are held
in memory; the worker writes them out when the run ends, and
:func:`layer_metrics` turns them into the per-layer metrics.

A function imported by name into another module is called through that
module's own binding, so every binding is wrapped: ``propagate_grid`` is looked
up in propagator, monodromy and certify, ``monodromy_grid`` in monodromy,
highfreq and perturbation.  A binding that no longer exists is reported as a
missing layer, and that layer's metrics are left out rather than read as zero.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# Dormand-Prince 5(4) spends seven right-hand-side evaluations per attempted step.
DP5_STAGES = 7


def _propagate_counts(args, result):
    stats = result[2]
    return {
        "steps": stats.steps_taken,
        "rhs_evals": stats.rhs_evaluations,
        "err_ratio": stats.local_error_estimate / args["tol"],
    }


def _grid_counts(args, M):
    return {"matrices": int(M.shape[0] * M.shape[1])}


def _samples_counts(args, samples):
    return {"samples": len(samples)}


def _threshold_counts(args, thr):
    return {"windows": len(thr.trace)}


# (module holding the binding, attribute, layer, counter function).
# The span name is "<layer>.<attribute>".
BINDINGS = (
    ("kgdecay.cli", "load_config", "coefficients", None),
    ("kgdecay.propagator", "propagate_grid", "propagator", _propagate_counts),
    ("kgdecay.monodromy", "propagate_grid", "propagator", _propagate_counts),
    ("kgdecay.certify", "propagate_grid", "propagator", _propagate_counts),
    ("kgdecay.highfreq", "find_threshold_N", "highfreq", _threshold_counts),
    ("kgdecay.highfreq", "suplarge_quantity", "highfreq", None),
    ("kgdecay.highfreq", "verify_highfreq_contraction", "highfreq", None),
    ("kgdecay.monodromy", "monodromy_grid", "monodromy", _grid_counts),
    ("kgdecay.highfreq", "monodromy_grid", "monodromy", _grid_counts),
    ("kgdecay.perturbation", "monodromy_grid", "monodromy", _grid_counts),
    ("kgdecay.monodromy", "samples_from_grid", "monodromy", _samples_counts),
    ("kgdecay.monodromy", "contraction_search", "monodromy", None),
    ("kgdecay.perturbation", "verify_perturbed_contraction", "perturbation", None),
    ("kgdecay.certify", "sup_norm_curve", "certify", None),
    ("kgdecay.highfreq", "threshold_trace_to_csv", "cli", None),
    ("kgdecay.monodromy", "scan_to_csv", "cli", None),
    ("kgdecay.certify", "decay_to_csv", "cli", None),
    ("kgdecay.cli", "write_summary", "cli", None),
)

WRITERS = (
    "cli.threshold_trace_to_csv",
    "cli.scan_to_csv",
    "cli.decay_to_csv",
    "cli.write_summary",
)

# Per-layer metric -> unit, in the order they are reported.
UNITS = {
    "propagator.calls": "count",
    "propagator.s": "s",
    "propagator.steps": "count",
    "propagator.rejected": "count",
    "propagator.rhs_evals": "count",
    "propagator.us_per_step": "us",
    "propagator.accept_ratio": "ratio",
    "propagator.max_err_ratio": "ratio",
    "highfreq.search_s": "s",
    "highfreq.frame_profiles": "count",
    "highfreq.ms_per_profile": "ms",
    "highfreq.windows": "count",
    "highfreq.verify_s": "s",
    "monodromy.grid_self_s": "s",
    "monodromy.matrices": "count",
    "monodromy.samples": "count",
    "monodromy.samples_s": "s",
    "monodromy.search_s": "s",
    "perturbation.rescans": "count",
    "perturbation.rescan_s": "s",
    "certify.decay_s": "s",
    "certify.decay_self_s": "s",
    "cli.write_s": "s",
    "cli.bytes_written": "bytes",
    "cli.other_s": "s",
    "coefficients.load_s": "s",
    "setup.import_s": "s",
}


class Tracer:
    """Collects spans from the wrapped kgdecay bindings of one process."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []

    def install(self):
        """Wrap every binding in :data:`BINDINGS`; record the ones that are gone."""
        for module_name, attr, layer, counts in BINDINGS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self._wrap(fn, f"{layer}.{attr}", counts))

    def _wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack
        sig = inspect.signature(fn) if counts else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = {"name": name, "parent": stack[-1] if stack else None}
            stack.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span["counts"] = counts(bound.arguments, result)
            return result

        return wrapper

    def missing_layers(self):
        """Layers with at least one binding that could not be wrapped."""
        gone = set(self.missing)
        return sorted(
            {layer for mod, attr, layer, _ in BINDINGS if f"{mod}.{attr}" in gone}
        )


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, run_s, import_s, bytes_written, missing_layers=()):
    """Per-layer metrics of one traced run, keyed as in :data:`UNITS`.

    Metrics of a layer in ``missing_layers`` are left out.
    """

    def named(name):
        return [s for s in spans if s["name"] == name]

    def dur(s):
        return s["end"] - s["start"]

    def total(name):
        return sum(dur(s) for s in named(name))

    def count_sum(name, key):
        return sum(s["counts"][key] for s in named(name))

    def self_time(name, child):
        idx = {i for i, s in enumerate(spans) if s["name"] == name}
        children = sum(dur(s) for s in named(child) if s["parent"] in idx)
        return total(name) - children

    prop = "propagator.propagate_grid"
    steps = count_sum(prop, "steps")
    evals = count_sum(prop, "rhs_evals")
    attempts = evals / DP5_STAGES
    profiles = len(named("highfreq.suplarge_quantity"))
    roots = sum(dur(s) for s in spans if s["parent"] is None)
    values = {
        "propagator.calls": len(named(prop)),
        "propagator.s": total(prop),
        "propagator.steps": steps,
        "propagator.rejected": attempts - steps,
        "propagator.rhs_evals": evals,
        "propagator.us_per_step": 1e6 * _ratio(total(prop), steps),
        "propagator.accept_ratio": _ratio(steps, attempts),
        "propagator.max_err_ratio": max((s["counts"]["err_ratio"] for s in named(prop)), default=0.0),
        "highfreq.search_s": total("highfreq.find_threshold_N"),
        "highfreq.frame_profiles": profiles,
        "highfreq.ms_per_profile": 1e3 * _ratio(total("highfreq.suplarge_quantity"), profiles),
        "highfreq.windows": count_sum("highfreq.find_threshold_N", "windows"),
        "highfreq.verify_s": total("highfreq.verify_highfreq_contraction"),
        "monodromy.grid_self_s": self_time("monodromy.monodromy_grid", prop),
        "monodromy.matrices": count_sum("monodromy.monodromy_grid", "matrices"),
        "monodromy.samples": count_sum("monodromy.samples_from_grid", "samples"),
        "monodromy.samples_s": total("monodromy.samples_from_grid"),
        "monodromy.search_s": total("monodromy.contraction_search"),
        "perturbation.rescans": len(named("perturbation.verify_perturbed_contraction")),
        "perturbation.rescan_s": total("perturbation.verify_perturbed_contraction"),
        "certify.decay_s": total("certify.sup_norm_curve"),
        "certify.decay_self_s": self_time("certify.sup_norm_curve", prop),
        "cli.write_s": sum(total(w) for w in WRITERS),
        "cli.bytes_written": bytes_written,
        "cli.other_s": run_s - roots,
        "coefficients.load_s": total("coefficients.load_config"),
        "setup.import_s": import_s,
    }
    return {
        name: {"value": value, "unit": UNITS[name]}
        for name, value in values.items()
        if name.split(".")[0] not in missing_layers
    }
