"""Outside-in tracing: wrap the program's public functions from the
benchmark process and record one span per call.

Nothing inside ``src/`` knows about the tracer. ``Tracer.wrap`` replaces
a function or method wherever the loaded ``clner`` modules bind it (a
``from x import f`` makes a second binding), times each call with
``perf_counter_ns`` and records ``(name, start, end, parent)``. Spans stay
in memory and are written out once, when the run ends. A target that no
longer exists is listed as absent instead of failing the run.
"""
from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one row per span: [name_id, start_ns, end_ns, parent_row or -1]
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self.test_depth = 0  # > 0 while the trainer decodes a test set
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------
    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        row = [self._name_id(name), 0, 0, self._stack[-1] if self._stack else -1]
        self.spans.append(row)
        self._stack.append(len(self.spans) - 1)
        row[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            row[2] = time.perf_counter_ns()
            self._stack.pop()

    # -- installing wrappers -------------------------------------------------
    def wrap(self, module_name: str, attr_path: str, name: str, before=None, after=None):
        """Trace ``module.attr_path`` (``func`` or ``Class.method``).

        ``before(args, kwargs)`` runs ahead of the span and its return
        value is handed to ``after(state, args, result)``, which runs once
        the span is closed; both are outside the timed interval.
        """
        module = sys.modules.get(module_name)
        owner_path, _, attr = attr_path.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None or not callable(original):
            self.absent.append(name)
            return
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(args, kwargs) if before is not None else None
            result = tracer.call(name, original, *args, **kwargs)
            if after is not None:
                after(state, args, result)
            return result

        if owner is module:
            # rebind every module-level alias of the function in clner
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "clner" or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)
        else:
            self._undo.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # -- results ---------------------------------------------------------------
    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: call count, inclusive and self seconds. Self time
        is a span's duration minus the durations of its direct children,
        which nest inside it because the run is single-threaded."""
        child_ns = [0] * len(self.spans)
        for name_id, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0}
        )
        for (name_id, start, end, _), children in zip(self.spans, child_ns):
            entry = out[self.names[name_id]]
            entry["calls"] += 1
            entry["inclusive_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - children) / 1e9
        return dict(out)

    def write(self, path: Path, extra: dict) -> None:
        blob = {
            "names": self.names,
            "spans": self.spans,
            "counts": dict(self.counts),
            "absent": self.absent,
            "totals": self.totals(),
        } | extra
        Path(path).write_text(json.dumps(blob, separators=(",", ":")) + "\n", encoding="utf-8")


def graph_nodes(loss) -> int:
    """Op nodes reachable from ``loss`` (tensors carrying a backprop
    closure), found by a read-only walk of the parent links."""
    seen = {id(loss)}
    stack = [loss]
    count = 0
    while stack:
        node = stack.pop()
        if getattr(node, "_backprop", None) is not None:
            count += 1
        for parent in getattr(node, "_parents", ()):
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics read."""
    counts = tracer.counts

    def count_backward(args, kwargs):
        counts["numcore.graph_nodes"] += graph_nodes(args[0])

    def count_teacher(state, args, result):
        counts["spankl.teacher_sents"] += len(args[1])

    def decode_candidates(args, kwargs):
        threshold = args[1] if len(args) > 1 else kwargs.get("threshold", 0.5)
        return sum(
            int(np.count_nonzero(np.triu(np.asarray(p)) > threshold)) for p in args[0].values()
        )

    def count_decode(candidates, args, result):
        counts["spankl.decode_candidates"] += candidates
        counts["spankl.decode_accepted"] += len(result)

    def enter_test(args, kwargs):
        bench = getattr(args[0], "bench", None)
        is_test = any(args[2] is task.test for task in getattr(bench, "tasks", ()))
        if is_test:
            counts["clrunner.test_sents"] += len(args[2])
            tracer.test_depth += 1
        return is_test

    def leave_test(is_test, args, result):
        if is_test:
            tracer.test_depth -= 1

    def enter_dump(args, kwargs):
        tracer.test_depth += 1

    def leave_dump(state, args, result):
        tracer.test_depth -= 1

    def count_predict(state, args, result):
        if tracer.test_depth:
            counts["clrunner.test_predict_calls"] += 1

    w = tracer.wrap
    w("clner.numcore.tensor", "Tensor.backward", "numcore.backward", before=count_backward)
    w("clner.numcore.optim", "AdamW.step", "numcore.optim.step")
    w("clner.numcore.checkpoint", "save_checkpoint", "numcore.checkpoint.save")
    w("clner.numcore.checkpoint", "load_checkpoint", "numcore.checkpoint.load")
    w("clner.encoder", "TransformerEncoder.encode", "encoder.encode")
    w("clner.spankl", "span_logits", "spankl.span_logits")
    w("clner.spankl", "bce_loss", "spankl.bce")
    w("clner.spankl", "kd_loss", "spankl.kd")
    w("clner.spankl", "decode_flat", "spankl.decode_flat", before=decode_candidates, after=count_decode)
    w("clner.spankl", "SpanKLModel.sentence_loss", "spankl.sentence_loss")
    w("clner.spankl", "SpanKLModel.teacher_predict", "spankl.teacher_predict", after=count_teacher)
    w("clner.spankl", "SpanKLModel.predict", "spankl.predict", after=count_predict)
    w("clner.baselines", "ExtendNerTagger.sentence_loss", "baselines.extendner.loss")
    w("clner.baselines", "ExtendNerTagger.teacher_predict", "baselines.extendner.teacher_predict")
    w("clner.baselines", "ExtendNerTagger.predict", "baselines.extendner.predict", after=count_predict)
    w("clner.baselines", "AddNerTagger.sentence_loss", "baselines.addner.loss")
    w("clner.baselines", "AddNerTagger.teacher_predict", "baselines.addner.teacher_predict")
    w("clner.baselines", "AddNerTagger.predict", "baselines.addner.predict", after=count_predict)
    w("clner.baselines", "combine_heads", "baselines.addner.combine_heads")
    w("clner.clrunner", "_Trainer.train_step", "clrunner.train")
    w("clner.clrunner", "_Trainer.evaluate", "clrunner.evaluate", before=enter_test, after=leave_test)
    w("clner.clrunner", "_Trainer.dump_step", "clrunner.dump", before=enter_dump, after=leave_dump)
    w("clner.clrunner", "run_cl", "clrunner.run_cl")
    w("clner.clrunner", "load_step_model", "clrunner.load_step_model")
    w("clner.metrics", "evaluate_step", "metrics.evaluate_step")
    w("clner.cldata", "synthesize", "cldata.synthesize")
    w("clner.cldata", "save_benchmark", "cldata.save_benchmark")
    w("clner.cldata", "load_benchmark", "cldata.load_benchmark")


TEACHER_SPANS = (
    "spankl.teacher_predict",
    "baselines.extendner.teacher_predict",
    "baselines.addner.teacher_predict",
)
# one call per training sentence-epoch
LOSS_SPANS = ("spankl.sentence_loss", "baselines.extendner.loss", "baselines.addner.loss")


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as (value, unit). A layer that did not run on
    this workload reads 0."""
    totals = tracer.totals()
    counts = tracer.counts

    def self_ms(name):
        return totals.get(name, {}).get("self_s", 0.0) * 1e3

    def incl_s(*names):
        return sum(totals.get(n, {}).get("inclusive_s", 0.0) for n in names)

    def calls(*names):
        return sum(totals.get(n, {}).get("calls", 0) for n in names)

    def ratio(a, b):
        return a / b if b else 0.0

    train_sents = calls(*LOSS_SPANS)
    return {
        "numcore.backward_ms_per_sent": (ratio(self_ms("numcore.backward"), train_sents), "ms"),
        "numcore.graph_nodes_per_sent": (ratio(counts["numcore.graph_nodes"], train_sents), "count"),
        "numcore.optim.step_ms": (self_ms("numcore.optim.step"), "ms"),
        "numcore.checkpoint.save_ms": (self_ms("numcore.checkpoint.save"), "ms"),
        "numcore.checkpoint.load_ms": (self_ms("numcore.checkpoint.load"), "ms"),
        "encoder.encode_ms": (self_ms("encoder.encode"), "ms"),
        "encoder.encode_calls": (calls("encoder.encode"), "count"),
        "spankl.span_logits_ms": (self_ms("spankl.span_logits"), "ms"),
        "spankl.span_logits_calls": (calls("spankl.span_logits"), "count"),
        "spankl.bce_ms": (self_ms("spankl.bce"), "ms"),
        "spankl.kd_ms": (self_ms("spankl.kd"), "ms"),
        "spankl.teacher_ms_per_sent": (
            ratio(incl_s("spankl.teacher_predict") * 1e3, counts["spankl.teacher_sents"]), "ms"),
        "spankl.decode_flat_ms": (self_ms("spankl.decode_flat"), "ms"),
        "spankl.decode_candidates": (counts["spankl.decode_candidates"], "count"),
        "spankl.decode_accept_ratio": (
            ratio(counts["spankl.decode_accepted"], counts["spankl.decode_candidates"]), "ratio"),
        "baselines.extendner.loss_ms": (self_ms("baselines.extendner.loss"), "ms"),
        "baselines.addner.loss_ms": (self_ms("baselines.addner.loss"), "ms"),
        "baselines.addner.combine_heads_ms": (self_ms("baselines.addner.combine_heads"), "ms"),
        "clrunner.teacher_s": (incl_s(*TEACHER_SPANS), "s"),
        "clrunner.train_s": (incl_s("clrunner.train"), "s"),
        "clrunner.evaluate_s": (incl_s("clrunner.evaluate"), "s"),
        "clrunner.dump_s": (incl_s("clrunner.dump"), "s"),
        "clrunner.predict_calls_per_test_sent": (
            ratio(counts["clrunner.test_predict_calls"], counts["clrunner.test_sents"]), "count"),
        "metrics.evaluate_step_ms": (self_ms("metrics.evaluate_step"), "ms"),
        "cldata.synthesize_ms": (self_ms("cldata.synthesize"), "ms"),
        "cldata.save_benchmark_ms": (self_ms("cldata.save_benchmark"), "ms"),
        "cldata.load_benchmark_ms": (self_ms("cldata.load_benchmark"), "ms"),
    }
