"""In-memory span tracer wrapped around opshape's public functions.

The package source is not instrumented. Tracer.install replaces module attributes
in the namespaces where callers look the names up (opshape.cli,
opshape.pipeline, opshape.diagnostics, opshape.vw and the DirectionSample
class), so a coplanarity_test call made by leave-one-out and one made by the
greedy reduction get different parent spans. Functions called once per
scene or per candidate (canonical_axis, DirectionSample.without/subset) are
counted, not timed, to keep the tracing overhead small.

A span is a tuple (op, name, parent index, start, end), kept in a list and
written out once at the end of the run; tuples of numbers and strings drop
out of the garbage collector's tracking, so a long span list does not slow
its collections. A counter is keyed by (op, name, enclosing span name).
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional

_now = time.perf_counter


class Tracer:
    """Spans and counters of the ops run through `root` while installed."""

    def __init__(self, main: Callable):
        self.op = -1
        self.spans: List[Optional[tuple]] = []
        self.counts: Dict[tuple, int] = defaultdict(int)
        self._stack: List[int] = []
        self._names: List[str] = []
        self._patches: List[tuple] = []
        self.root = self.span("cli", main)

    def _enclosing(self) -> Optional[str]:
        return self._names[-1] if self._names else None

    def span(self, name: str, fn: Callable, counters: Optional[Callable] = None) -> Callable:
        """Wrap fn in a span; counters(result) yields (counter, n) pairs
        recorded inside the span."""
        spans, stack, names, counts = self.spans, self._stack, self._names, self.counts

        def traced(*args, **kwargs):
            index, parent = len(spans), (stack[-1] if stack else -1)
            spans.append(None)
            stack.append(index)
            names.append(name)
            start = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (self.op, name, parent, start, _now())
                stack.pop()
                names.pop()
            if counters is not None:
                for counter, n in counters(result):
                    counts[(self.op, counter, name)] += n
            return result

        return traced

    def counted(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[(self.op, counter, self._enclosing())] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, owner, attr: str, wrap: Callable[[Callable], Callable]) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrap(original))

    def install(self) -> None:
        """Wrap the layer boundaries of the opshape package."""
        import opshape.cli as cli
        import opshape.diagnostics as diagnostics
        import opshape.pipeline as pipeline
        import opshape.vw as vw
        from opshape.geometry import DirectionSample

        def span(name, counters=None):
            return lambda fn: self.span(name, fn, counters)

        def counted(name):
            return lambda fn: self.counted(name, fn)

        def registered(result):
            sample, skipped, flipped = result
            return [("scenes_registered", sample.n), ("scenes_skipped", len(skipped)),
                    ("charts_flipped", len(flipped))]

        for module in (cli, pipeline):
            self.patch(module, "parse_landmarks", span(
                "io.parse", lambda scenes: [("rows_parsed", len(scenes) * scenes[0].k)]))
            self.patch(module, "register_scenes", span("geometry.register", registered))
            self.patch(module, "total_variance_ps", span("vw.comparator"))
            self.patch(module, "canonical_axis", counted("canonical_axis_calls"))
        self.patch(vw, "canonical_axis", counted("canonical_axis_calls"))
        self.patch(cli, "run_analysis", span("pipeline.analysis"))
        self.patch(cli, "emit_outputs", span("pipeline.emit"))
        self.patch(cli, "run_monte_carlo", span("pipeline.monte_carlo"))
        self.patch(pipeline, "coplanarity_test", span("directional.test"))
        self.patch(diagnostics, "coplanarity_test", span("directional.test"))
        self.patch(pipeline, "leave_one_out", span(
            "diagnostics.loo", lambda rows: [("loo_rows", len(rows))]))
        self.patch(pipeline, "greedy_reduce", span(
            "diagnostics.greedy", lambda trace: [("greedy_steps", len(trace.steps))]))
        self.patch(pipeline, "tangent_gaussian_sample", span(
            "synth.draw", lambda draws: [("vectors_drawn", draws.shape[0])]))
        self.patch(DirectionSample, "without", counted("sample_copies"))
        self.patch(DirectionSample, "subset", counted("sample_copies"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        """One JSON line per span, times in ms from the first span, then the counters."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for op, name, parent, start, end in self.spans:
                fh.write(json.dumps({
                    "op": op, "name": name, "parent": parent,
                    "start_ms": round((start - t0) * 1e3, 4),
                    "end_ms": round((end - t0) * 1e3, 4),
                }) + "\n")
            fh.write(json.dumps({"counters": [
                {"op": op, "name": name, "in": where, "n": n}
                for (op, name, where), n in sorted(self.counts.items(), key=str)
            ]}) + "\n")


def layer_metrics(tracer: Tracer, n_ops: int, op_ms: float) -> Dict[str, float]:
    """Per-op means of the layer times and counts over the traced ops.

    n_ops and op_ms are the number and summed wall time (ms) of those ops. A span's self time is its
    duration minus the durations of its child spans.
    """
    child = defaultdict(float)
    for op, name, parent, start, end in tracer.spans:
        if parent >= 0:
            child[parent] += end - start
    incl = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for i, (op, name, parent, start, end) in enumerate(tracer.spans):
        incl[name] += (end - start) * 1e3
        own[name] += (end - start - child[i]) * 1e3
        calls[name] += 1
    count = defaultdict(int)
    for (op, counter, where), n in tracer.counts.items():
        count[counter] += n
        count[(counter, where)] += n
    candidates = count[("sample_copies", "diagnostics.greedy")] - count["greedy_steps"]
    per_op = 1.0 / n_ops
    return {
        "cli.self_ms": own["cli"] * per_op,
        "io.parse_ms": incl["io.parse"] * per_op,
        "io.rows_parsed": count["rows_parsed"] * per_op,
        "geometry.register_ms": incl["geometry.register"] * per_op,
        "geometry.scenes_registered": count["scenes_registered"] * per_op,
        "geometry.scenes_skipped": count["scenes_skipped"] * per_op,
        "geometry.charts_flipped": count["charts_flipped"] * per_op,
        "geometry.canonical_axis_calls": count["canonical_axis_calls"] * per_op,
        "geometry.sample_copies": count["sample_copies"] * per_op,
        "directional.test_ms": incl["directional.test"] * per_op,
        "directional.test_calls": calls["directional.test"] * per_op,
        "diagnostics.loo_ms": incl["diagnostics.loo"] * per_op,
        "diagnostics.loo_rows": count["loo_rows"] * per_op,
        "diagnostics.greedy_ms": incl["diagnostics.greedy"] * per_op,
        "diagnostics.greedy_share": incl["diagnostics.greedy"] / op_ms,
        "diagnostics.greedy_steps": count["greedy_steps"] * per_op,
        "diagnostics.greedy_candidates": candidates * per_op,
        "diagnostics.greedy_yield": count["greedy_steps"] / candidates if candidates else 0.0,
        "vw.comparator_ms": incl["vw.comparator"] * per_op,
        "vw.blocks": calls["vw.comparator"] * per_op,
        "pipeline.analysis_self_ms": own["pipeline.analysis"] * per_op,
        "pipeline.monte_carlo_self_ms": own["pipeline.monte_carlo"] * per_op,
        "pipeline.emit_ms": incl["pipeline.emit"] * per_op,
        "synth.draw_ms": incl["synth.draw"] * per_op,
        "synth.vectors_drawn": count["vectors_drawn"] * per_op,
    }
