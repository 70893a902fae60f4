"""Workload definitions: how each benchmark input is made from a seed.

Every input comes from ``--seed`` alone. The toy corpus is the one the
forgetting-trend acceptance criterion trains on (500 template sentences,
six types, 35% nesting); the long corpus joins consecutive toy sentences
into passages, so both corpora hold exactly the same tokens and gold
mentions and differ only in how they are cut into training units.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from clner import cldata
from clner.clrunner import RunConfig

SENTENCES = 500
SETUP = "split-all"
N_TASKS = 3
PASSAGE_MIN, PASSAGE_MAX = 25, 40
TOY_SPLIT = (0.72, 0.14, 0.14)


@dataclass(frozen=True)
class Workload:
    name: str
    passages: bool
    models: tuple[str, ...]
    max_len: int
    batch_size: int
    epochs: int
    split: tuple[float, float, float]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "toy-cl-spankl", False, ("spankl",), 32, 16, 20, TOY_SPLIT,
            "SpanKL CL run on ~7-token sentences: cost is per-node graph "
            "overhead in encoder, span heads, KD and backward",
        ),
        Workload(
            "toy-cl-iob", False, ("extendner", "addner"), 32, 16, 20, TOY_SPLIT,
            "ExtendNER then AddNER CL runs: encoder and engine only; span "
            "heads, Bernoulli KD and decode_flat are bypassed",
        ),
        Workload(
            # 30% test: 29 passages instead of 14, for steadier F1 and percentiles
            "long-cl-spankl", True, ("spankl",), 48, 2, 40, (0.6, 0.1, 0.3),
            "SpanKL CL run on 25-40-token passages of the same tokens: n^2 "
            "span cells, masked losses, decode_flat loops and padding",
        ),
    )
}


def run_config(workload: Workload, model: str, seed: int) -> RunConfig:
    """The forgetting-trend criterion's model configuration, one seed.

    Passages are ~5 sentences each, so batch 16 over 20 epochs leaves 40
    updates per task and the model learns nothing (test macro-F1 below
    0.12 on seeds 1 and 2); batch 2 over 40 epochs learned on every seed
    tried.
    """
    return RunConfig(
        model=model, epochs=workload.epochs, batch_size=workload.batch_size,
        d_model=32, n_heads=2, d_span=16, max_len=workload.max_len, seed=seed,
    )


def join_passages(corpus: cldata.Corpus, seed: int) -> cldata.Corpus:
    """Concatenate consecutive sentences into passages of uneven length.

    Each passage draws a target length in [PASSAGE_MIN, PASSAGE_MAX] and
    takes whole sentences while it is shorter than the target and the
    next sentence still fits under PASSAGE_MAX. Gold spans shift by the
    passage offset, so every token and mention is kept.
    """
    rng = np.random.default_rng([seed, 101])
    passages: list[cldata.Sentence] = []
    tokens: list[str] = []
    spans: list[cldata.Span] = []
    target = int(rng.integers(PASSAGE_MIN, PASSAGE_MAX + 1))
    for sent in corpus.sentences:
        if tokens and (len(tokens) >= target or len(tokens) + len(sent.tokens) > PASSAGE_MAX):
            passages.append(cldata.Sentence(tokens, tuple(spans)))
            tokens, spans = [], []
            target = int(rng.integers(PASSAGE_MIN, PASSAGE_MAX + 1))
        offset = len(tokens)
        tokens = tokens + list(sent.tokens)
        spans += [cldata.Span(s.start + offset, s.end + offset, s.type) for s in sent.spans]
    passages.append(cldata.Sentence(tokens, tuple(spans)))
    return cldata.Corpus(passages, inventory=corpus.inventory)


def make_benchmark(workload: Workload, seed: int, out_dir: Path) -> cldata.SynthesizedBenchmark:
    """Generate, split, synthesize, save and reload one benchmark: the
    work that ``setup_s`` times."""
    corpus = cldata.generate_toy_corpus(cldata.default_toy_spec(SENTENCES), seed=seed)
    if workload.passages:
        corpus = join_passages(corpus, seed)
    train, dev, test = cldata.split3(corpus, workload.split, seed=seed)
    sequence = cldata.permutations("toy", corpus=corpus, n_tasks=N_TASKS, count=1, seed=seed)[0]
    bench = cldata.synthesize(train, dev, test, sequence, SETUP, seed=seed)
    cldata.save_benchmark(bench, out_dir)
    return cldata.load_benchmark(out_dir)
