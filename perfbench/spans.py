"""Per-layer spans recorded from outside the solver's modules.

A traced run replaces each target attribute below with a wrapper that
records one span per call: (name, start, end, parent span).  Each target is
the name a caller looks up at call time, so the solver's own code is not
changed: the driver loop calls ``snsqp.driver.solve_qp``, the PPS oracle and
the QP phase 1 both call ``snsqp.lp.solve_lp``, and the run paths call the
diagnostics functions bound in ``snsqp.bench.runner`` and
``snsqp.bench.cli``.  Spans live in memory and are written out when the run
ends.

``model``'s per-iteration calls are O(n) and cheaper than a span, so they
stay inside ``driver.self_s``.
"""

from __future__ import annotations

import csv
import functools
import importlib
import os
import time
from collections import Counter, defaultdict


def _note_draw(result, parent, counts):
    counts["sampling.scenarios"] += len(result)


def _note_lp(result, parent, counts):
    if parent == "qp.solve":
        return
    counts["lp.recourse_pivots"] += result.iterations


def _note_qp(result, parent, counts):
    counts["qp.iterations"] += result.iterations
    counts["qp.rank_warnings"] += int(result.rank_warning)


def _note_line_search(result, parent, counts):
    counts["driver.backtracks"] += result[1]


def _note_export(result, parent, counts):
    counts["diagnostics.csv_bytes"] += sum(os.path.getsize(p) for p in result)


#: (module, attribute, span name, counter update from the call's result)
TARGETS = (
    ("snsqp.bench.runner", "run_algorithm1", "driver.run", None),
    ("snsqp.bench.cli", "run_algorithm2", "driver.run", None),
    ("snsqp.driver", "draw_scenarios", "sampling.draw", _note_draw),
    ("snsqp.driver", "aggregate", "sampling.aggregate", None),
    ("snsqp.driver", "solve_qp", "qp.solve", _note_qp),
    ("snsqp.driver", "line_search", "driver.line_search", _note_line_search),
    ("snsqp.lp", "solve_lp", "lp.solve_lp", _note_lp),
    ("snsqp.bench.pps", "pps_oracle", "bench.oracle", None),
    ("snsqp.diagnostics", "aggregate", "diagnostics.reference_aggregate", None),
    ("snsqp.diagnostics", "stationarity_error", "diagnostics.stationarity", None),
    ("snsqp.diagnostics", "reference_stationarity", "diagnostics.reference", None),
    ("snsqp.bench.runner", "fill_stationarity", "diagnostics.fill", None),
    ("snsqp.bench.runner", "write_run_csv", "diagnostics.export", _note_export),
    ("snsqp.bench.runner", "reference_stationarity", "diagnostics.reference", None),
    ("snsqp.bench.runner", "reference_objective", "diagnostics.reference", None),
    ("snsqp.bench.cli", "fill_stationarity", "diagnostics.fill", None),
    ("snsqp.bench.cli", "write_run_csv", "diagnostics.export", _note_export),
    ("snsqp.bench.cli", "reference_stationarity", "diagnostics.reference", None),
)

#: counts that must repeat exactly between traced runs of one seed
EXACT_COUNTS = ("lp.recourse_pivots", "qp.iterations", "lp.phase1_solves",
                "driver.backtracks", "sampling.scenarios",
                "diagnostics.reference_evals")


def check_pristine() -> None:
    """Raise if any target is still wrapped; untraced runs must time the originals."""
    for module_name, attribute, _, _ in TARGETS:
        fn = getattr(importlib.import_module(module_name), attribute)
        if hasattr(fn, "__wrapped__"):
            raise RuntimeError(f"{module_name}.{attribute} is wrapped in an untraced run")


class Tracer:
    """Installs the span wrappers, and restores the originals on uninstall."""

    def __init__(self):
        self.spans = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._installed = []

    def install(self) -> None:
        for module_name, attribute, name, note in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            setattr(module, attribute, self._wrap(original, name, note))
            self._installed.append((module, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            module, attribute, original = self._installed.pop()
            setattr(module, attribute, original)

    def _wrap(self, fn, name, note):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if note is not None:
                note(result, spans[parent][0] if parent >= 0 else None, counts)
            return result

        return traced

    def write(self, path, run_id: str) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(("run_id", "span", "name", "start_ns", "end_ns", "parent"))
            for index, (name, start, end, parent) in enumerate(self.spans):
                writer.writerow((run_id, index, name, start, end, parent))


def _key(spans, span) -> str:
    """Span name, with lp.solve_lp split by caller: phase 1 under qp.solve, else recourse."""
    name, parent = span[0], span[3]
    if name != "lp.solve_lp":
        return name
    return "lp.phase1" if parent >= 0 and spans[parent][0] == "qp.solve" else "lp.recourse"


def layer_report(spans, counts, start_ns: int, end_ns: int) -> tuple:
    """Per-layer metrics of one traced run, and a list of nesting errors.

    A span's self time is its duration minus that of its child spans; a
    layer's self time sums its spans' self times.  Time outside every root
    span is unattributed, so the layer self times plus the unattributed time
    add up to the run's wall time.
    """
    errors = []
    child_ns = [0] * len(spans)
    for span in spans:
        name, start, end, parent = span
        outer = spans[parent][1:3] if parent >= 0 else (start_ns, end_ns)
        if not outer[0] <= start <= end <= outer[1]:
            errors.append(f"span {name} lies outside its parent")
        if parent >= 0:
            child_ns[parent] += end - start
    calls, total_ns, self_ns, layer_ns = Counter(), Counter(), Counter(), defaultdict(int)
    root_ns = 0
    for index, span in enumerate(spans):
        key = _key(spans, span)
        duration = span[2] - span[1]
        calls[key] += 1
        total_ns[key] += duration
        self_ns[key] += duration - child_ns[index]
        layer_ns[key.split(".")[0]] += duration - child_ns[index]
        if span[3] < 0:
            root_ns += duration

    def seconds(ns):
        return ns / 1e9

    qp_solves = calls["qp.solve"]
    recourse = calls["lp.recourse"]
    metrics = {
        "sampling.draw_s": seconds(total_ns["sampling.draw"]),
        "sampling.draw_calls": calls["sampling.draw"],
        "sampling.scenarios": counts["sampling.scenarios"],
        "sampling.aggregate_s": seconds(total_ns["sampling.aggregate"]),
        "sampling.aggregate_self_s": seconds(self_ns["sampling.aggregate"]),
        "bench.oracle_calls": calls["bench.oracle"],
        "bench.oracle_s": seconds(total_ns["bench.oracle"]),
        "lp.recourse_solves": recourse,
        "lp.recourse_s": seconds(total_ns["lp.recourse"]),
        "lp.recourse_pivots": counts["lp.recourse_pivots"],
        "lp.pivots_per_solve": counts["lp.recourse_pivots"] / recourse if recourse else 0.0,
        "lp.phase1_solves": calls["lp.phase1"],
        "lp.phase1_s": seconds(total_ns["lp.phase1"]),
        "qp.phase1_frac": calls["lp.phase1"] / qp_solves if qp_solves else 0.0,
        "qp.solves": qp_solves,
        "qp.solve_s": seconds(total_ns["qp.solve"]),
        "qp.self_s": seconds(self_ns["qp.solve"]),
        "qp.iterations": counts["qp.iterations"],
        "qp.rank_warnings": counts["qp.rank_warnings"],
        "driver.run_s": seconds(total_ns["driver.run"]),
        "driver.self_s": seconds(self_ns["driver.run"]),
        "driver.line_search_calls": calls["driver.line_search"],
        "driver.line_search_s": seconds(total_ns["driver.line_search"]),
        "driver.backtracks": counts["driver.backtracks"],
        "diagnostics.reference_evals": calls["diagnostics.reference"],
        "diagnostics.fill_s": seconds(total_ns["diagnostics.fill"]),
        "diagnostics.reference_aggregate_s": seconds(total_ns["diagnostics.reference_aggregate"]),
        "diagnostics.stationarity_s": seconds(total_ns["diagnostics.stationarity"]),
        "diagnostics.export_s": seconds(total_ns["diagnostics.export"]),
        "diagnostics.csv_bytes": counts["diagnostics.csv_bytes"],
        "trace.spans": len(spans),
        "trace.unattributed_s": seconds(end_ns - start_ns - root_ns),
    }
    for layer in ("sampling", "bench", "lp", "qp", "driver", "diagnostics"):
        metrics[f"self.{layer}_s"] = seconds(layer_ns[layer])
    return metrics, errors
