"""Continual-learning protocol orchestration.

CL and non-CL runs share one step loop over the task sequence: teacher
predictions with the previous step's selected model (CL only), head
growth, multi-epoch training on the weighted loss, dev-based epoch
selection, then test evaluation over all types learned so far. Non-CL
reference runs train from scratch at every step on the union of the data
seen so far with annotations restored for every type learned so far.

All randomness flows from the run seed through fixed named streams, so a
(seed, config, benchmark) triple reproduces bit-identical metrics. Runs
sharing nothing mutable (distinct seeds/permutations) may execute in
parallel; within a run the model is single-writer.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import logging
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from clner import numcore as nc
from clner.baselines import AddNerTagger, ExtendNerTagger
from clner.cldata import CorpusError, Sentence, SynthesizedBenchmark
from clner.encoder import EncoderConfig, TransformerEncoder, Vocab
from clner.metrics import StepEval, evaluate_step
from clner.spankl import SpanKLModel

log = logging.getLogger(__name__)

MODEL_KINDS = ("spankl", "addner", "extendner")
SCHEDULES = ("constant", "warmup_cosine")

# named rng streams; every generator is seeded as [seed, stream, step]
_INIT, _GROW, _SHUFFLE, _DROPOUT = 0, 1, 2, 3


class RunError(Exception):
    """A training run aborted; carries the failing step index."""

    def __init__(self, step: int, message: str):
        super().__init__(f"step {step}: {message}")
        self.step = step


# (field, smallest valid value) for the numeric config fields
_LOWER_BOUNDS = (
    ("epochs", 1), ("batch_size", 1), ("d_model", 1), ("n_heads", 1), ("max_len", 1),
    ("d_span", 1), ("lr_encoder", 0), ("lr_heads", 0), ("weight_decay", 0),
    ("pad_constant", 0), ("warmup_steps", 0), ("seed", 0),
)


@dataclass
class RunConfig:
    model: str = "spankl"
    epochs: int = 5
    batch_size: int = 16
    lr_encoder: float = 1e-3
    lr_heads: float = 3e-3
    weight_decay: float = 0.0
    alpha: float = 1.0
    beta: float = 1.0
    threshold: float = 0.5
    d_model: int = 64
    n_heads: int = 4
    max_len: int = 128
    dropout: float = 0.1
    d_span: int = 50
    pad_constant: float = 1e-4
    seed: int = 0
    freeze_encoder: bool = False
    schedule: str = "constant"
    warmup_steps: int = 200
    dump_matrices: bool = False

    def validate(self) -> list[str]:
        problems = []
        if self.model not in MODEL_KINDS:
            problems.append(f"model: {self.model!r} not one of {MODEL_KINDS}")
        for name, value in self.to_dict().items():
            if isinstance(value, float) and not math.isfinite(value):
                problems.append(f"{name}: must be finite, got {value}")
        for name, low in _LOWER_BOUNDS:
            value = getattr(self, name)
            if value < low:
                problems.append(f"{name}: must be >= {low}, got {value}")
        if self.n_heads >= 1 and self.d_model % self.n_heads:
            problems.append(f"n_heads: {self.n_heads} does not divide d_model {self.d_model}")
        if self.alpha < 0 or self.beta < 0:
            problems.append(f"alpha/beta: must be >= 0, got {self.alpha}/{self.beta}")
        if not 0.0 <= self.dropout < 1.0:
            problems.append(f"dropout: must be in [0, 1), got {self.dropout}")
        if self.schedule not in SCHEDULES:
            problems.append(f"schedule: {self.schedule!r} not one of {SCHEDULES}")
        if not 0.0 < self.threshold < 1.0:
            problems.append(f"threshold: must be in (0, 1), got {self.threshold}")
        return problems

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, str | int | float | bool]) -> "RunConfig":
        """Build a config from string-ish key/value pairs, coercing each
        value to the field's default type; unknown keys are an error."""
        defaults = {f.name: f.default for f in dataclasses.fields(cls)}
        kwargs = {}
        for key, raw in mapping.items():
            if key not in defaults:
                raise ValueError(f"unknown config key {key!r}")
            default = defaults[key]
            if isinstance(default, bool):
                if isinstance(raw, str):
                    if raw.lower() not in ("true", "false", "1", "0", "yes", "no"):
                        raise ValueError(f"{key}: cannot parse {raw!r} as bool")
                    kwargs[key] = raw.lower() in ("true", "1", "yes")
                else:
                    kwargs[key] = bool(raw)
            elif isinstance(default, int):
                kwargs[key] = int(raw)
            elif isinstance(default, float):
                kwargs[key] = float(raw)
            else:
                kwargs[key] = str(raw)
        return cls(**kwargs)


def stream_rng(seed: int, stream: int, step: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream, step])


def build_model(config: RunConfig, vocab_size: int, rng: np.random.Generator):
    encoder = TransformerEncoder(
        vocab_size,
        EncoderConfig(
            d_model=config.d_model,
            n_heads=config.n_heads,
            max_len=config.max_len,
            dropout=config.dropout,
        ),
        rng,
    )
    if config.model == "spankl":
        return SpanKLModel(encoder, d_span=config.d_span, threshold=config.threshold)
    if config.model == "addner":
        return AddNerTagger(encoder)
    if config.model == "extendner":
        return ExtendNerTagger(encoder, pad_constant=config.pad_constant)
    raise ValueError(f"unknown model kind {config.model!r}")


def cache_digest(cache) -> str:
    """Stable digest over a teacher cache of nested dict/list/array data."""
    h = hashlib.sha256()

    def feed(obj):
        if isinstance(obj, dict):
            h.update(b"d")
            for key in sorted(obj):
                h.update(str(key).encode())
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            h.update(b"l")
            for item in obj:
                feed(item)
        elif isinstance(obj, np.ndarray):
            h.update(b"a")
            h.update(str(obj.shape).encode())
            h.update(np.ascontiguousarray(obj, dtype="<f8").tobytes())
        elif obj is None:
            h.update(b"n")
        else:
            h.update(repr(obj).encode())

    feed(cache)
    return h.hexdigest()


# ---------------------------------------------------------------------------
# single-run machinery
# ---------------------------------------------------------------------------


@dataclass
class StepRecord:
    step: int
    dev_f1_per_epoch: list[float]
    selected_epoch: int
    eval: StepEval
    teacher_digest: str | None = None


@dataclass
class RunResult:
    mode: str
    config: RunConfig
    setup: str
    kind: str
    permutation: int
    steps: list[StepRecord] = field(default_factory=list)

    def macro(self, step: int) -> float:
        return self.steps[step - 1].eval.macro

    def final_macro(self) -> float:
        return self.steps[-1].eval.macro


class _Trainer:
    """Shared trainer state for one run over one benchmark."""

    def __init__(self, config: RunConfig, bench: SynthesizedBenchmark, out_dir=None):
        problems = config.validate()
        if problems:
            raise ValueError("invalid run config: " + "; ".join(problems))
        self.config = config
        self.bench = bench
        self.vocab = Vocab(bench.vocab_tokens)
        self.grouping = bench.grouping if bench.kind == "fewnerd" else None
        self.out_dir = Path(out_dir) if out_dir is not None else None
        if self.out_dir is not None:
            self.out_dir.mkdir(parents=True, exist_ok=True)

    def ids_of(self, sentence: Sentence) -> list[int]:
        return self.vocab.encode(sentence.tokens)

    def optimizer(self, model) -> nc.AdamW:
        groups = []
        if not self.config.freeze_encoder:
            groups.append({"params": model.encoder_parameters(), "lr": self.config.lr_encoder})
        groups.append({"params": model.head_parameters(), "lr": self.config.lr_heads})
        return nc.AdamW(groups, weight_decay=self.config.weight_decay)

    def _lr_factor(self, t: int, total: int) -> float:
        warmup = self.config.warmup_steps
        if t <= warmup:
            return t / max(1, warmup)
        span = max(1, total - warmup)
        return 0.5 * (1.0 + np.cos(np.pi * (t - warmup) / span))

    def evaluate(
        self, model, sentences: Sequence[Sentence], eval_types: Sequence[str], step: int
    ) -> tuple[StepEval, list[list[tuple]]]:
        """Decode with every learned head, one graph-free pass per
        sentence length, then score only eval_types. Returns the scores
        and every decoded span list."""
        wanted = set(eval_types)
        decoded = model.predict_many([self.ids_of(sent) for sent in sentences])
        preds = [[(i, j, t) for i, j, t, _ in spans if t in wanted] for spans in decoded]
        golds = [[(s.start, s.end, s.type) for s in sent.spans] for sent in sentences]
        return evaluate_step(step, golds, preds, list(eval_types), self.grouping), decoded

    def train_step(
        self,
        model,
        step: int,
        train_sents: Sequence[Sentence],
        dev_sents: Sequence[Sentence],
        types: Sequence[str],
        distilled: Sequence | None,
    ) -> tuple[list[float], int]:
        """Multi-epoch training on ``types`` with selection by dev
        macro-F1 over the same types; the model ends holding the weights
        of the best dev epoch (later epochs win ties). Each mini-batch is
        one padded graph and one loss call. A frozen encoder is kept out
        of the graph, so it gathers no gradient. A non-finite loss aborts
        the run before its backward pass, a non-finite gradient before
        the update."""
        cfg = self.config
        for p in model.encoder_parameters():
            p.requires_grad = not cfg.freeze_encoder
            p.grad = None
        opt = self.optimizer(model)
        base_lrs = [g["lr"] for g in opt.groups]
        shuffle_rng = stream_rng(cfg.seed, _SHUFFLE, step)
        dropout_rng = stream_rng(cfg.seed, _DROPOUT, step)
        n = len(train_sents)
        if n == 0:
            raise RunError(step, "no training sentences")
        n_batches = (n + cfg.batch_size - 1) // cfg.batch_size
        total_opt_steps = cfg.epochs * n_batches
        dev_curve: list[float] = []
        best: tuple[float, int, dict[str, np.ndarray]] | None = None
        ids = [self.ids_of(sent) for sent in train_sents]
        golds = [[tuple(s) for s in sent.spans] for sent in train_sents]
        opt_step = 0
        for epoch in range(1, cfg.epochs + 1):
            order = shuffle_rng.permutation(n)
            for b in range(n_batches):
                batch = order[b * cfg.batch_size : (b + 1) * cfg.batch_size]
                opt.zero_grad()
                loss = model.batch_loss(
                    [ids[idx] for idx in batch],
                    [golds[idx] for idx in batch],
                    types,
                    [distilled[idx] for idx in batch] if distilled is not None else None,
                    cfg.alpha,
                    cfg.beta,
                    True,
                    dropout_rng,
                )
                if not np.isfinite(loss.data):
                    raise RunError(
                        step, f"non-finite loss {loss.data} at epoch {epoch}, batch {b + 1}"
                    )
                loss.backward()
                if not opt.gradients_finite():
                    raise RunError(
                        step, f"non-finite gradient at epoch {epoch}, batch {b + 1}"
                    )
                opt_step += 1
                if cfg.schedule == "warmup_cosine":
                    factor = self._lr_factor(opt_step, total_opt_steps)
                    for group, base in zip(opt.groups, base_lrs):
                        group["lr"] = base * factor
                opt.step()
            dev_f1 = self.evaluate(model, dev_sents, types, step)[0].macro if dev_sents else 0.0
            dev_curve.append(dev_f1)
            if best is None or dev_f1 >= best[0]:
                snapshot = {k: v.copy() for k, v in model.state_arrays().items()}
                best = (dev_f1, epoch, snapshot)
        model.load_arrays(best[2])
        return dev_curve, best[1]

    # -- per-step artifact I/O ---------------------------------------------
    def step_dir(self, mode: str, step: int) -> Path | None:
        if self.out_dir is None:
            return None
        d = self.out_dir / mode / f"step_{step:02d}"
        d.mkdir(parents=True, exist_ok=True)
        return d

    def dump_step(
        self, model, mode: str, step: int, record: StepRecord, test_sents, decoded
    ) -> None:
        """Write the step's checkpoint, dev record, teacher digest and the
        test-set spans ``evaluate`` already decoded; with dump_matrices,
        the span model's probability matrices from one graph-free pass."""
        d = self.step_dir(mode, step)
        if d is None:
            return
        nc.save_checkpoint(d / "checkpoint.bin", model.state_arrays())
        (d / "dev_record.json").write_text(
            json.dumps(
                {
                    "dev_f1_per_epoch": record.dev_f1_per_epoch,
                    "selected_epoch": record.selected_epoch,
                },
                sort_keys=True,
            )
            + "\n",
            encoding="utf-8",
        )
        if record.teacher_digest is not None:
            (d / "teacher_digest.txt").write_text(record.teacher_digest + "\n")
        matrices = None
        if self.config.dump_matrices and isinstance(model, SpanKLModel):
            matrices = model.teacher_predict([self.ids_of(s) for s in test_sents], model.types)
        lines = []
        for idx, spans in enumerate(decoded):
            rec = {"index": idx, "spans": [[i, j, t, s] for i, j, t, s in spans]}
            if matrices is not None:
                rec["matrices"] = {t: m.tolist() for t, m in matrices[idx].items()}
            lines.append(json.dumps(rec, sort_keys=True))
        (d / "predictions.jsonl").write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_lengths(bench: SynthesizedBenchmark, max_len: int, mode: str) -> None:
    """Reject, before any training, a sentence the run would use that is
    longer than the encoder's max_len; the error names the task, the
    split and the 0-based sentence index."""
    splits = ("train", "dev", "test") if mode == "cl" else ("train_full", "dev_full", "test")
    for l, task in enumerate(bench.tasks, start=1):
        for split in splits:
            for idx, sent in enumerate(getattr(task, split)):
                if len(sent.tokens) > max_len:
                    raise CorpusError(
                        f"task {l} {split} sentence {idx}: length {len(sent.tokens)} "
                        f"exceeds max_len {max_len}"
                    )


def _run(mode: str, config: RunConfig, bench: SynthesizedBenchmark, out_dir=None) -> RunResult:
    """The step loop of both protocols: grow heads for the step's new
    types, train and select on exactly those, evaluate every type learned
    so far. CL builds the model once and, with beta > 0, distils from a
    teacher pass over the old types taken before growth (the single-head
    tagger's teacher must be pre-extension). Non-CL builds a fresh model,
    which has no old types and so no teacher, at every step and trains it
    on the union of the data seen so far."""
    check_lengths(bench, config.max_len, mode)
    tr = _Trainer(config, bench, out_dir)
    result = RunResult(mode, config, bench.setup, bench.kind, bench.sequence.permutation)
    model = None
    for step, task in enumerate(bench.tasks, start=1):
        if model is None or mode == "noncl":
            model = build_model(config, len(tr.vocab), stream_rng(config.seed, _INIT, step))
        if mode == "cl":
            train_sents, dev_sents = task.train, task.dev
        else:
            train_sents, dev_sents = bench.noncl_train(step), bench.noncl_dev(step)
        distilled = digest = None
        if config.beta > 0.0 and model.types:
            distilled = model.teacher_predict([tr.ids_of(s) for s in train_sents], model.types)
            digest = cache_digest(distilled)
        learned = bench.sequence.cumulative_types(step)
        new_types = learned[len(model.types) :]
        model.grow(new_types, stream_rng(config.seed, _GROW, step))
        dev_curve, chosen = tr.train_step(model, step, train_sents, dev_sents, new_types, distilled)
        step_eval, decoded = tr.evaluate(model, task.test, learned, step)
        record = StepRecord(step, dev_curve, chosen, step_eval, digest)
        result.steps.append(record)
        tr.dump_step(model, mode, step, record, task.test, decoded)
        log.info(
            "%s step %d/%d: dev %s, selected epoch %d, test macro %.4f", mode, step,
            len(bench.tasks), [f"{x:.3f}" for x in dev_curve], chosen, step_eval.macro,
        )
    if tr.out_dir is not None:
        write_run_records(tr.out_dir, result)
    return result


def run_cl(config: RunConfig, bench: SynthesizedBenchmark, out_dir=None) -> RunResult:
    """The continual protocol: teacher pass, grow, train, select by dev
    macro-F1, evaluate on the step's test set."""
    return _run("cl", config, bench, out_dir)


def run_noncl(config: RunConfig, bench: SynthesizedBenchmark, out_dir=None) -> RunResult:
    """Per-step upper bound: train from scratch on the union of tasks
    1..l with annotations restored for every type learned so far."""
    return _run("noncl", config, bench, out_dir)


def load_step_model(config: RunConfig, bench: SynthesizedBenchmark, run_dir, step: int):
    """Rebuild the model structure through the given step and load that
    step's selected checkpoint (resume support)."""
    path = Path(run_dir) / "cl" / f"step_{step:02d}" / "checkpoint.bin"
    try:
        arrays = nc.load_checkpoint(path)
    except (OSError, nc.CheckpointError) as e:
        raise RunError(step, f"cannot load checkpoint {path}: {e}") from e
    vocab = Vocab(bench.vocab_tokens)
    model = build_model(config, len(vocab), stream_rng(config.seed, _INIT, 1))
    for l, task in enumerate(bench.sequence.tasks[:step], start=1):
        model.grow(task.types, stream_rng(config.seed, _GROW, l))
    model.load_arrays(arrays)
    return model


# ---------------------------------------------------------------------------
# records on disk
# ---------------------------------------------------------------------------


def metrics_rows(result: RunResult) -> list[dict]:
    rows = []
    base = {
        "model": result.config.model,
        "mode": result.mode,
        "setup": result.setup,
        "permutation": result.permutation,
        "seed": result.config.seed,
    }
    for record in result.steps:
        for t in sorted(record.eval.scores):
            score = record.eval.scores[t]
            rows.append(
                base
                | {
                    "step": record.step,
                    "type": t,
                    "tp": score.counts.tp,
                    "fp": score.counts.fp,
                    "fn": score.counts.fn,
                    "precision": score.precision,
                    "recall": score.recall,
                    "f1": score.f1,
                }
            )
    return rows


METRICS_COLUMNS = (
    "model", "mode", "setup", "permutation", "seed",
    "step", "type", "tp", "fp", "fn", "precision", "recall", "f1",
)


def _fmt(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def write_run_records(out_dir, result: RunResult) -> None:
    """metrics.tsv (per type), summary.tsv (per-step macro), curves.csv
    (per-type and macro F1 by step, for forgetting-curve plots)."""
    out = Path(out_dir)
    rows = metrics_rows(result)
    lines = ["\t".join(METRICS_COLUMNS)]
    lines += ["\t".join(_fmt(r[c]) for c in METRICS_COLUMNS) for r in rows]
    (out / f"metrics_{result.mode}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    summary = ["\t".join(("model", "mode", "setup", "permutation", "seed", "step", "macro_f1"))]
    for record in result.steps:
        summary.append(
            "\t".join(
                (
                    result.config.model,
                    result.mode,
                    result.setup,
                    str(result.permutation),
                    str(result.config.seed),
                    str(record.step),
                    repr(record.eval.macro),
                )
            )
        )
    (out / f"summary_{result.mode}.tsv").write_text("\n".join(summary) + "\n", encoding="utf-8")
    curve_types = _curve_types(result)
    curves = ["step,type,f1"]
    for record in result.steps:
        for t in curve_types:
            if t in record.eval.scores:
                curves.append(f"{record.step},{t},{record.eval.scores[t].f1!r}")
        curves.append(f"{record.step},__macro__,{record.eval.macro!r}")
    (out / f"curves_{result.mode}.csv").write_text("\n".join(curves) + "\n", encoding="utf-8")


def _curve_types(result: RunResult) -> list[str]:
    """Every scored type of every step, sorted; Few-NERD curves keep only
    the coarse groups (fine types are named "coarse-fine")."""
    return sorted(
        {t for r in result.steps for t in r.eval.scores if result.kind != "fewnerd" or "-" not in t}
    )
