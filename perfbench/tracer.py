"""Spans around the public functions a `dse run` calls, recorded from outside.

Each wrapper is installed where its caller looks the name up (for example
`encode_matrix` in `dse.optimizer`'s namespace, `warmup_sample` through
`dse.priors`), so nothing under `src/` changes. A span records its layer
name, start, end, parent span and thread. Spans opened on a worker thread
with nothing open on that thread take the main thread's innermost open span
as parent, which is where `thread_map` was called from.

Counts are taken at the same boundaries. Those that need a walk over the
result (tree nodes, batch composition) are kept as references and counted
after the run, so the counting does not land inside a parent's span.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time
from dataclasses import dataclass, field

# (module, attribute, layer name); a dotted attribute patches a class member
LAYERS = (
    ("dse.cli", "load_scenario", "cli.load_scenario"),
    ("dse.cli", "write_run_artifacts", "cli.write_run_artifacts"),
    ("dse.priors", "warmup_sample", "priors.warmup_sample"),
    ("dse.optimizer", "evaluate_batch", "evaluators.evaluate_batch"),
    ("dse.optimizer", "fit_surrogates", "optimizer.fit_surrogates"),
    ("dse.optimizer", "encode_matrix", "space.encode_matrix"),
    ("dse.optimizer", "fit_regressor", "forest.fit_regressor"),
    ("dse.optimizer", "fit_classifier", "forest.fit_classifier"),
    ("dse.optimizer", "candidate_pool", "optimizer.candidate_pool"),
    ("dse.optimizer", "predict_pareto", "optimizer.predict_pareto"),
    ("dse.forest", "Forest.predict_batch", "forest.predict_batch"),
    ("dse.optimizer", "pareto_front", "pareto.pareto_front"),
    ("dse.optimizer", "select_batch", "optimizer.select_batch"),
)
LAYER_NAMES = tuple(layer for _, _, layer in LAYERS)
FIT_LAYERS = ("forest.fit_regressor", "forest.fit_classifier")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    keep: object = None  # result kept for counting after the run


def _count(name: str, args: tuple, result, threshold: float) -> tuple[dict, object]:
    """Cheap counts taken when the span closes, plus what to keep for later."""
    if name == "optimizer.candidate_pool":
        return {"configs": len(result)}, None
    if name == "space.encode_matrix":
        return {"rows": len(args[1])}, None
    if name == "forest.predict_batch":
        counts = {"rows": len(result)}
        if args[0].kind == "classifier":
            counts["classifier_rows"] = len(result)
            counts["classifier_pass"] = int((result >= threshold).sum())
        return counts, None
    if name == "pareto.pareto_front":
        return {"points": len(args[0]), "front_size": len(result)}, None
    if name in FIT_LAYERS:
        return {"samples": len(args[0])}, result
    if name == "optimizer.predict_pareto":
        return {"pool": len(args[1])}, None
    if name == "optimizer.select_batch":
        return {"batch": len(result)}, (args[0], result)
    if name in ("priors.warmup_sample", "evaluators.evaluate_batch"):
        return {"configs": len(result)}, None
    return {}, None


class Tracer:
    """Collects spans while installed; `install` and `uninstall` patch the
    dse modules in place."""

    def __init__(self, threshold: float = 0.5):
        self.threshold = threshold
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.get_ident()
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1].id
        else:
            main = self._stacks.get(self._main)
            parent = main[-1].id if main and tid != self._main else None
        span = Span(next(self._ids), name, parent, tid, time.perf_counter())
        stack.append(span)
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stacks[span.thread].pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself, around one whole run."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            span.counts, span.keep = _count(name, args, result, tracer.threshold)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for module_name, attr, layer in LAYERS:
            owner = importlib.import_module(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._wrap(layer, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def tree_nodes(forest) -> int:
    count, stack = 0, list(forest.trees)
    while stack:
        node = stack.pop()
        count += 1
        if node.left is not None:
            stack.append(node.left)
            stack.append(node.right)
    return count


def run_layers(spans: list[Span], root: Span) -> dict[str, float]:
    """Per-layer calls, busy time (union), self time and counts for the spans
    of one run, whose benchmark-side root span is ``root``."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    by_layer: dict[str, list[Span]] = {name: [] for name in LAYER_NAMES}
    for s in spans:
        if s.name in by_layer:
            by_layer[s.name].append(s)

    out: dict[str, float] = {}
    for name, group in by_layer.items():
        self_time = 0.0
        for s in group:
            kids = [(max(k.start, s.start), min(k.end, s.end)) for k in children.get(s.id, ())]
            self_time += (s.end - s.start) - union_length([k for k in kids if k[1] > k[0]])
        out[f"{name}.calls"] = len(group)
        out[f"{name}.s"] = union_length([(s.start, s.end) for s in group])
        out[f"{name}.self_s"] = self_time
        for s in group:
            for key, value in s.counts.items():
                out[f"{name}.{key}"] = out.get(f"{name}.{key}", 0) + value

    fits = [s for name in FIT_LAYERS for s in by_layer[name]]
    out["forest.fit.samples"] = sum(s.counts["samples"] for s in fits)
    out["forest.fit.nodes"] = sum(tree_nodes(s.keep) for s in fits)
    out["forest.fit.span_sum_s"] = sum(s.end - s.start for s in fits)
    out["forest.fit.union_s"] = union_length([(s.start, s.end) for s in fits])

    # rows predict_pareto encoded = pool rows not already evaluated
    out["optimizer.predict_pareto.excluded"] = 0
    for s in by_layer["optimizer.predict_pareto"]:
        encodes = sorted((k for k in children.get(s.id, ()) if k.name == "space.encode_matrix"),
                         key=lambda k: k.start)
        candidates = encodes[0].counts["rows"] if encodes else 0
        out["optimizer.predict_pareto.excluded"] += s.counts["pool"] - candidates

    exploit = 0
    for s in by_layer["optimizer.select_batch"]:
        predicted, batch = s.keep
        from_front = set(predicted)
        exploit += sum(1 for c in batch if c in from_front)
    out["optimizer.select_batch.exploit"] = exploit

    top = [(s.start, s.end) for s in spans if s.parent == root.id]
    out["run.s"] = root.end - root.start
    out["run.covered_s"] = union_length(top)
    return out
