"""Corpus ingestion, toy-corpus generation, and class-incremental
benchmark synthesis.

Corpora are token-per-line column files: ``token<TAB>tag``, blank line
between sentences. Tags are IOB (``B-PER``/``I-PER``/``O``) or bare typed
tags in the hierarchical style (``person-actor``), where contiguous equal
tags form one mention and the part before the first ``-`` names the
coarse group. Because plain IOB cannot express nested mentions, the tag
field may hold several ``|``-separated layers; flat files are simply the
one-layer case. Span positions are 1-based inclusive.

All synthesis functions are pure given (corpus, sequence, setup, seed)
and freely parallelizable.
"""
from __future__ import annotations

import json
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

log = logging.getLogger(__name__)

SETUPS = ("split-all", "split-filter", "filter-all", "filter-filter")
# the per-task corpus files of a benchmark directory, ``task_NN/SPLIT.txt``
SPLITS = ("train", "dev", "test", "train_full", "dev_full")


class CorpusError(Exception):
    """Malformed corpus file or inconsistent annotations."""


class SynthesisError(Exception):
    """A benchmark cannot be built from the given corpus and sequence."""


class Span(NamedTuple):
    start: int
    end: int
    type: str


@dataclass
class Sentence:
    """Token sequence plus its typed gold spans (nesting allowed)."""

    tokens: list[str]
    spans: tuple[Span, ...] = ()

    def __post_init__(self):
        self.spans = tuple(sorted(Span(*s) for s in self.spans))
        for s in self.spans:
            if not (1 <= s.start <= s.end <= len(self.tokens)):
                raise CorpusError(
                    f"span {tuple(s)} out of bounds for {len(self.tokens)} tokens"
                )

    def types_present(self) -> set[str]:
        return {s.type for s in self.spans}


def coarse_of(fine: str) -> str:
    return fine.split("-", 1)[0] if "-" in fine else fine


@dataclass
class Corpus:
    sentences: list[Sentence]
    inventory: tuple[str, ...] = ()
    repair_count: int = 0

    def __post_init__(self):
        if not self.inventory:
            self.inventory = tuple(
                sorted({s.type for sent in self.sentences for s in sent.spans})
            )
        stray = {
            s.type for sent in self.sentences for s in sent.spans
        } - set(self.inventory)
        if stray:
            raise CorpusError(f"spans use types outside the inventory: {sorted(stray)}")

    def __len__(self) -> int:
        return len(self.sentences)


# ---------------------------------------------------------------------------
# column-file parsing and writing
# ---------------------------------------------------------------------------


def encode_layer(spans: Iterable[tuple[int, int, str]], n_tokens: int) -> list[str]:
    """IOB tags of one layer of non-overlapping (start, end, type) spans."""
    tags = ["O"] * n_tokens
    for i, j, t in spans:
        if not (1 <= i <= j <= n_tokens):
            raise ValueError(f"span ({i}, {j}) outside a {n_tokens}-token sentence")
        tags[i - 1 : j] = [f"B-{t}"] + [f"I-{t}"] * (j - i)
    return tags


def decode_layer(tags: Sequence[str]) -> tuple[list[Span], int]:
    """One IOB/bare-tag layer to spans, plus the count of orphan I- tags:
    an I-X that does not continue an X mention opens one, as B-X would.
    Contiguous equal bare tags form one mention."""
    spans: list[Span] = []
    repairs = 0
    open_type, open_start = None, 0
    for pos, tag in enumerate([*tags, "O"], start=1):
        prefix = tag[:2] if tag.startswith(("B-", "I-")) else ""
        t = tag[len(prefix) :] if tag != "O" else None
        if t == open_type and prefix != "B-":
            continue  # I-X or bare X goes on with the open X mention
        if open_type is not None:
            spans.append(Span(open_start, pos - 1, open_type))
        repairs += prefix == "I-"
        open_type, open_start = t, pos
    return spans, repairs


def parse_sentence_block(rows: list[list[str]]) -> tuple[Sentence, int]:
    """One sentence from its ``token<TAB>tags`` rows, plus the count of
    orphan I- tags repaired over all its layers."""
    tokens = [r[0] for r in rows]
    layer_lists = [r[1].split("|") for r in rows]
    n_layers = max(len(ls) for ls in layer_lists)
    spans: list[Span] = []
    repairs = 0
    for layer in range(n_layers):
        tags = [ls[layer] if layer < len(ls) else "O" for ls in layer_lists]
        decoded, repaired = decode_layer(tags)
        spans += decoded
        repairs += repaired
    return Sentence(tokens, tuple(spans)), repairs


def read_text(path) -> str:
    """A UTF-8 file's text; a file that cannot be read or decoded is a
    CorpusError naming it."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise CorpusError(f"cannot read {path}: {e}") from e


def parse_corpus(path) -> Corpus:
    """Read a column file into a Corpus. Raises CorpusError with the line
    number for rows that are not exactly ``token<TAB>tag``."""
    blocks: list[list[list[str]]] = [[]]
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        if not line.strip():
            if blocks[-1]:
                blocks.append([])
            continue
        fields = line.split("\t")
        if len(fields) != 2 or not fields[0]:
            raise CorpusError(
                f"{path}:{lineno}: expected 'token<TAB>tag', got {line!r}"
            )
        blocks[-1].append(fields)
    parsed = [parse_sentence_block(rows) for rows in blocks if rows]
    repairs = sum(r for _, r in parsed)
    if repairs:
        log.warning("%s: repaired %d orphan I- tags", path, repairs)
    return Corpus([sent for sent, _ in parsed], repair_count=repairs)


def _assign_layers(spans: Sequence[Span]) -> list[list[Span]]:
    """Greedy layering so no layer holds overlapping spans."""
    layers: list[list[Span]] = []
    for span in sorted(spans, key=lambda s: (s.start, -(s.end - s.start), s.type)):
        for layer in layers:
            if all(span.end < o.start or o.end < span.start for o in layer):
                layer.append(span)
                break
        else:
            layers.append([span])
    return layers


def sentence_to_rows(sentence: Sentence) -> list[str]:
    n = len(sentence.tokens)
    columns = [encode_layer(layer, n) for layer in _assign_layers(sentence.spans) or [[]]]
    return [
        f"{tok}\t" + "|".join(col[i] for col in columns)
        for i, tok in enumerate(sentence.tokens)
    ]


def write_corpus(path, corpus_or_sentences) -> None:
    sentences = (
        corpus_or_sentences.sentences
        if isinstance(corpus_or_sentences, Corpus)
        else corpus_or_sentences
    )
    blocks = ["\n".join(sentence_to_rows(s)) for s in sentences]
    Path(path).write_text("\n\n".join(blocks) + ("\n" if blocks else ""), encoding="utf-8")


def load_corpus_dir(path) -> tuple[Corpus, Corpus, Corpus]:
    """Read train.txt / dev.txt / test.txt and align their inventories."""
    path = Path(path)
    parts = []
    for name in ("train.txt", "dev.txt", "test.txt"):
        f = path / name
        if not f.exists():
            raise CorpusError(f"corpus directory {path} is missing {name}")
        parts.append(parse_corpus(f))
    inventory = tuple(sorted(set().union(*(p.inventory for p in parts))))
    return tuple(
        Corpus(p.sentences, inventory=inventory, repair_count=p.repair_count)
        for p in parts
    )


# ---------------------------------------------------------------------------
# toy corpus generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LexEntry:
    tokens: tuple[str, ...]
    inner: tuple[tuple[int, int, str], ...] = ()  # mention-relative 1-based spans


@dataclass
class ToyCorpusSpec:
    types: tuple[str, ...]
    lexicons: dict[str, tuple[LexEntry, ...]]
    templates: tuple[tuple[str, ...], ...]  # "<TYPE>" items are slots
    sentence_count: int
    nesting: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.nesting <= 1.0:
            raise ValueError(f"nesting probability must be in [0, 1], got {self.nesting}")


_LEX = {
    "PER": [
        ("alice",), ("bob",), ("carol",), ("henry",), ("irene",),
        ("david", "smith"), ("elena", "petrov"), ("grace", "chen"),
    ],
    "LOC": [
        ("paris",), ("york",), ("berlin",), ("oslo",), ("lima",),
        ("cairo",), ("delhi",), ("quito",),
    ],
    "DATE": [
        ("monday",), ("friday",), ("january",), ("march",), ("1999",), ("2004",),
    ],
    "PROD": [
        ("widget",), ("gizmo",), ("turbo", "engine"), ("pixel", "phone"),
        ("nano", "drive"),
    ],
    "EVT": [
        ("marathon",), ("expo",), ("summer", "festival"), ("trade", "fair"),
    ],
    "ORG": [
        ("acme", "corp"), ("zenith", "labs"), ("orion", "group"),
        ("nordic", "bank"), ("vertex", "media"),
    ],
}

_NESTED = {
    "ORG": [
        LexEntry(("bank", "of", "paris"), ((3, 3, "LOC"),)),
        LexEntry(("university", "of", "york"), ((3, 3, "LOC"),)),
        LexEntry(("berlin", "press", "club"), ((1, 1, "LOC"),)),
    ],
    "EVT": [
        LexEntry(("festival", "of", "oslo"), ((3, 3, "LOC"),)),
        LexEntry(("cairo", "book", "fair"), ((1, 1, "LOC"),)),
        LexEntry(("friday", "gala"), ((1, 1, "DATE"),)),
    ],
}

_TEMPLATES = (
    ("<PER>", "visited", "<LOC>", "on", "<DATE>"),
    ("the", "<ORG>", "hired", "<PER>", "last", "<DATE>"),
    ("<EVT>", "was", "held", "in", "<LOC>"),
    ("<PER>", "bought", "a", "<PROD>", "from", "<ORG>"),
    ("<ORG>", "launched", "the", "<PROD>", "on", "<DATE>"),
    ("<PER>", "and", "<PER>", "attended", "<EVT>"),
    ("reporters", "from", "<ORG>", "covered", "<EVT>", "in", "<LOC>"),
    ("<PROD>", "sales", "rose", "after", "<DATE>"),
    ("<LOC>", "will", "host", "<EVT>", "next", "<DATE>"),
    ("<PER>", "works", "at", "<ORG>", "in", "<LOC>"),
    ("it", "rained", "all", "day"),
    ("nothing", "much", "happened"),
)


def _lexicon_for(types: Iterable[str]) -> dict[str, tuple[LexEntry, ...]]:
    chosen = set(types)
    lex = {}
    for t in chosen:
        entries = [LexEntry(tuple(tok)) for tok in _LEX[t]]
        for e in _NESTED.get(t, []):
            if all(inner_t in chosen for _, _, inner_t in e.inner):
                entries.append(e)
        lex[t] = tuple(entries)
    return lex


def default_toy_spec(sentence_count: int = 500, nesting: float = 0.35) -> ToyCorpusSpec:
    """Six-type corpus with frequent cross-type co-occurrence, some
    non-entity sentences, and nested mentions."""
    types = ("PER", "LOC", "ORG", "DATE", "PROD", "EVT")
    return ToyCorpusSpec(types, _lexicon_for(types), _TEMPLATES, sentence_count, nesting)


def nested_toy_spec(sentence_count: int = 50, nesting: float = 0.6) -> ToyCorpusSpec:
    """Three-type corpus (PER/LOC/ORG) rich in nested mention pairs."""
    types = ("PER", "LOC", "ORG")
    templates = (
        ("<PER>", "visited", "<LOC>"),
        ("<PER>", "works", "at", "<ORG>"),
        ("the", "<ORG>", "hired", "<PER>"),
        ("<ORG>", "opened", "in", "<LOC>"),
        ("<PER>", "left", "<ORG>", "for", "<LOC>"),
    )
    return ToyCorpusSpec(types, _lexicon_for(types), templates, sentence_count, nesting)


def generate_toy_corpus(spec: ToyCorpusSpec, seed: int) -> Corpus:
    """Seeded, reproducible corpus with known gold spans."""
    slot_types = {
        item[1:-1]
        for tpl in spec.templates
        for item in tpl
        if item.startswith("<") and item.endswith(">")
    }
    for t in sorted(slot_types):
        if not spec.lexicons.get(t):
            raise ValueError(f"toy corpus spec has an empty lexicon for type {t!r}")
    rng = np.random.default_rng(seed)
    sentences = []
    for _ in range(spec.sentence_count):
        template = spec.templates[rng.integers(len(spec.templates))]
        tokens: list[str] = []
        spans: list[Span] = []
        for item in template:
            if not (item.startswith("<") and item.endswith(">")):
                tokens.append(item)
                continue
            t = item[1:-1]
            entries = spec.lexicons[t]
            nestable = [e for e in entries if e.inner]
            plain = [e for e in entries if not e.inner]
            if nestable and rng.random() < spec.nesting:
                pool = nestable
            else:
                pool = plain or entries
            entry = pool[rng.integers(len(pool))]
            offset = len(tokens)
            tokens.extend(entry.tokens)
            spans.append(Span(offset + 1, offset + len(entry.tokens), t))
            for rel_start, rel_end, inner_t in entry.inner:
                spans.append(Span(offset + rel_start, offset + rel_end, inner_t))
        sentences.append(Sentence(tokens, tuple(spans)))
    return Corpus(sentences, inventory=tuple(sorted(spec.types)))


def split3(
    corpus: Corpus, fractions: tuple[float, float, float] = (0.72, 0.14, 0.14), seed: int = 0
) -> tuple[Corpus, Corpus, Corpus]:
    """Random train/dev/test partition of one corpus, seeded."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError(f"fractions must sum to 1, got {fractions}")
    n = len(corpus)
    order = np.random.default_rng([seed, 7]).permutation(n)
    n_train = int(round(fractions[0] * n))
    n_dev = int(round(fractions[1] * n))
    cuts = [order[:n_train], order[n_train : n_train + n_dev], order[n_train + n_dev :]]
    return tuple(
        Corpus([corpus.sentences[i] for i in sorted(idx)], inventory=corpus.inventory)
        for idx in cuts
    )


# ---------------------------------------------------------------------------
# task sequences and the published permutations
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskSpec:
    name: str
    types: tuple[str, ...]


@dataclass(frozen=True)
class TaskSequence:
    tasks: tuple[TaskSpec, ...]
    permutation: int

    def __post_init__(self):
        seen: set[str] = set()
        for task in self.tasks:
            if not task.types:
                raise ValueError(f"task {task.name!r} defines no entity types")
            dup = seen & set(task.types) | {t for t in task.types if task.types.count(t) > 1}
            if dup:
                raise ValueError(f"entity types repeat within or across tasks: {sorted(dup)}")
            seen |= set(task.types)

    def __len__(self) -> int:
        return len(self.tasks)

    def all_types(self) -> tuple[str, ...]:
        return tuple(t for task in self.tasks for t in task.types)

    def cumulative_types(self, step: int) -> tuple[str, ...]:
        return tuple(t for task in self.tasks[:step] for t in task.types)


ONTONOTES_ORDERS = (
    ("ORG", "PER", "GPE", "DATE", "CARD", "NORP"),
    ("DATE", "NORP", "PER", "CARD", "ORG", "GPE"),
    ("GPE", "CARD", "ORG", "NORP", "DATE", "PER"),
    ("NORP", "ORG", "DATE", "PER", "GPE", "CARD"),
    ("CARD", "GPE", "NORP", "ORG", "PER", "DATE"),
    ("PER", "DATE", "CARD", "GPE", "NORP", "ORG"),
)

FEWNERD_ORDERS = (
    ("location", "person", "organization", "other",
     "product", "building", "art", "event"),
    ("organization", "product", "art", "event",
     "other", "person", "location", "building"),
    ("product", "event", "other", "person",
     "art", "location", "building", "organization"),
    ("building", "other", "product", "person",
     "organization", "location", "art", "event"),
)

# each kind's type list, in its first published order
ONTONOTES_TYPES = ONTONOTES_ORDERS[0]
FEWNERD_COARSE = FEWNERD_ORDERS[0]


def _chunk(order: Sequence, n_tasks: int) -> list[tuple]:
    """``order`` cut into ``n_tasks`` consecutive chunks whose sizes differ
    by at most one, the larger ones first."""
    n = len(order)
    base, extra = divmod(n, n_tasks)
    chunks, pos = [], 0
    for i in range(n_tasks):
        size = base + (1 if i < extra else 0)
        chunks.append(tuple(order[pos : pos + size]))
        pos += size
    return chunks


def permutations(
    kind: str,
    corpus: Corpus | None = None,
    n_tasks: int = 3,
    count: int = 4,
    seed: int = 0,
) -> list[TaskSequence]:
    """Fixed published task orders for the known dataset kinds; seeded
    random orders for toy corpora (grouped into ``n_tasks`` tasks)."""
    if kind == "ontonotes":
        return [
            TaskSequence(tuple(TaskSpec(t, (t,)) for t in order), permutation=i)
            for i, order in enumerate(ONTONOTES_ORDERS, start=1)
        ]
    if kind == "fewnerd":
        if corpus is None:
            raise ValueError("fewnerd permutations need a corpus for the fine types")
        fine_by_coarse: dict[str, list[str]] = {}
        for fine in corpus.inventory:
            fine_by_coarse.setdefault(coarse_of(fine), []).append(fine)
        missing = [c for c in FEWNERD_COARSE if c not in fine_by_coarse]
        if missing:
            raise SynthesisError(f"corpus lacks coarse groups: {missing}")
        return [
            TaskSequence(
                tuple(
                    TaskSpec(c, tuple(sorted(fine_by_coarse[c]))) for c in order
                ),
                permutation=i,
            )
            for i, order in enumerate(FEWNERD_ORDERS, start=1)
        ]
    if kind == "toy":
        if corpus is None:
            raise ValueError("toy permutations need a corpus for the inventory")
        if not 1 <= n_tasks <= len(corpus.inventory):
            raise ValueError(f"task count must be in [1, {len(corpus.inventory)}], got {n_tasks}")
        rng = np.random.default_rng([seed, 13])
        out = []
        for i in range(1, count + 1):
            order = [corpus.inventory[k] for k in rng.permutation(len(corpus.inventory))]
            tasks = tuple(
                TaskSpec(f"task{j + 1}", chunk)
                for j, chunk in enumerate(_chunk(order, n_tasks))
            )
            out.append(TaskSequence(tasks, permutation=i))
        return out
    raise ValueError(f"unknown dataset kind {kind!r}; expected ontonotes, fewnerd, or toy")


# ---------------------------------------------------------------------------
# annotation erasure and benchmark synthesis
# ---------------------------------------------------------------------------


def erase_annotations(sentence: Sentence, allowed_types: Iterable[str]) -> Sentence:
    """Drop gold spans whose type is not allowed; tokens untouched."""
    allowed = set(allowed_types)
    return replace(sentence, spans=tuple(s for s in sentence.spans if s.type in allowed))


@dataclass
class TaskData:
    spec: TaskSpec
    train_full: list[Sentence]
    dev_full: list[Sentence]
    train: list[Sentence]
    dev: list[Sentence]
    test: list[Sentence]


@dataclass
class SynthesizedBenchmark:
    kind: str
    setup: str
    seed: int
    sequence: TaskSequence
    inventory: tuple[str, ...]
    tasks: list[TaskData]
    vocab_tokens: list[str]

    def __len__(self) -> int:
        return len(self.tasks)

    def _union(self, step: int, split: str) -> list[Sentence]:
        allowed = self.sequence.cumulative_types(step)
        sentences = [s for task in self.tasks[:step] for s in getattr(task, split)]
        return [erase_annotations(s, allowed) for s in sentences]

    def noncl_train(self, step: int) -> list[Sentence]:
        """Union of tasks 1..step with annotations restored for every type
        learned so far (re-erased from the stored full annotations)."""
        return self._union(step, "train_full")

    def noncl_dev(self, step: int) -> list[Sentence]:
        return self._union(step, "dev_full")


def _split_groups(n: int, n_tasks: int, rng: np.random.Generator) -> list[list[int]]:
    """A seeded partition of range(n) into near-equal sorted groups."""
    return [sorted(chunk) for chunk in _chunk(list(rng.permutation(n)), n_tasks)]


def build_vocab_tokens(train: Corpus, dev: Corpus) -> list[str]:
    seen: dict[str, None] = {}
    for corpus in (train, dev):
        for sent in corpus.sentences:
            for tok in sent.tokens:
                seen.setdefault(tok)
    return list(seen)


def synthesize(
    train: Corpus,
    dev: Corpus,
    test: Corpus,
    sequence: TaskSequence,
    setup: str,
    seed: int,
    kind: str = "toy",
) -> SynthesizedBenchmark:
    """Build the per-task datasets for one of the four setups.

    Split-*: train/dev randomly partitioned into disjoint per-task groups.
    Filter-*: a task takes every sentence mentioning one of its types.
    *-All: step-l test is the whole original test set.
    *-Filter: step-l test keeps sentences mentioning a type learned so far.
    Task train/dev keep annotations for that task's types only; step-l
    test keeps annotations for all types learned up to l.
    """
    if setup not in SETUPS:
        raise ValueError(f"unknown setup {setup!r}; expected one of {SETUPS}")
    missing = set(sequence.all_types()) - set(train.inventory)
    if missing:
        raise SynthesisError(
            f"task sequence uses types absent from the corpus: {sorted(missing)}"
        )
    train_mode, test_mode = setup.split("-")
    n_tasks = len(sequence)
    if train_mode == "split":
        rng = np.random.default_rng([seed, 23])
        train_groups = _split_groups(len(train), n_tasks, rng)
        dev_groups = _split_groups(len(dev), n_tasks, rng)
    else:
        train_groups, dev_groups = [], []
        for task in sequence.tasks:
            wanted = set(task.types)
            train_groups.append(
                [i for i, s in enumerate(train.sentences) if s.types_present() & wanted]
            )
            dev_groups.append(
                [i for i, s in enumerate(dev.sentences) if s.types_present() & wanted]
            )
    tasks: list[TaskData] = []
    for l, task in enumerate(sequence.tasks, start=1):
        train_full = [train.sentences[i] for i in train_groups[l - 1]]
        dev_full = [dev.sentences[i] for i in dev_groups[l - 1]]
        if not train_full:
            raise SynthesisError(f"task {l} ({task.name}) has zero training sentences")
        cumulative = set(sequence.cumulative_types(l))
        if test_mode == "all":
            step_test = list(test.sentences)
        else:
            step_test = [
                s for s in test.sentences if s.types_present() & cumulative
            ]
        tasks.append(
            TaskData(
                spec=task,
                train_full=train_full,
                dev_full=dev_full,
                train=[erase_annotations(s, task.types) for s in train_full],
                dev=[erase_annotations(s, task.types) for s in dev_full],
                test=[erase_annotations(s, cumulative) for s in step_test],
            )
        )
    return SynthesizedBenchmark(
        kind=kind,
        setup=setup,
        seed=seed,
        sequence=sequence,
        inventory=train.inventory,
        tasks=tasks,
        vocab_tokens=build_vocab_tokens(train, dev),
    )


# ---------------------------------------------------------------------------
# benchmark directory round trip
# ---------------------------------------------------------------------------


def save_benchmark(bench: SynthesizedBenchmark, out_dir) -> dict:
    """One directory per task with a file per split (train/dev/test plus
    the full-annotation train/dev used by non-CL runs), a vocabulary file
    and a manifest; returns the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for l, task in enumerate(bench.tasks, start=1):
        task_dir = out / f"task_{l:02d}"
        task_dir.mkdir(exist_ok=True)
        for split in SPLITS:
            write_corpus(task_dir / f"{split}.txt", getattr(task, split))
    (out / "vocab.txt").write_text(
        "".join(t + "\n" for t in bench.vocab_tokens), encoding="utf-8"
    )
    manifest = {
        "kind": bench.kind,
        "setup": bench.setup,
        "seed": bench.seed,
        "permutation": bench.sequence.permutation,
        "tasks": [
            {"name": t.name, "types": list(t.types)} for t in bench.sequence.tasks
        ],
        "inventory": list(bench.inventory),
        "grouping": {t: coarse_of(t) for t in bench.inventory},
        "sentence_counts": [
            {"train": len(t.train), "dev": len(t.dev), "test": len(t.test)}
            for t in bench.tasks
        ],
    }
    (out / "benchmark.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def read_manifest(path: Path, fields: Mapping[str, tuple]) -> dict:
    """A JSON-object manifest holding every key of ``fields``, a table of
    key -> (description of a valid value, its check); a file that cannot
    be read or parsed, a missing key or a value failing its check is a
    CorpusError naming the file (and the key)."""
    try:
        manifest = json.loads(read_text(path))
    except ValueError as e:
        raise CorpusError(f"{path}: unreadable manifest: {e}") from e
    if not isinstance(manifest, dict):
        raise CorpusError(f"{path}: manifest is not a JSON object")
    missing = [key for key in fields if key not in manifest]
    if missing:
        raise CorpusError(f"{path}: manifest lacks {missing}")
    for key, (wanted, check) in fields.items():
        if not check(manifest[key]):
            raise CorpusError(f"{path}: {key!r} must be {wanted}, got {manifest[key]!r}")
    return manifest


# what a benchmark.json holds; type(v) is int refuses JSON booleans
_BENCHMARK_FIELDS = {
    "kind": ("a string", lambda v: isinstance(v, str)),
    "setup": (f"one of {SETUPS}", lambda v: v in SETUPS),
    "seed": ("an integer", lambda v: type(v) is int),
    "permutation": ("an integer", lambda v: type(v) is int),
    "tasks": ("a list", lambda v: isinstance(v, list)),
    "inventory": ("a list of strings",
                  lambda v: isinstance(v, list) and all(isinstance(t, str) for t in v)),
    "grouping": ("an object", lambda v: isinstance(v, dict)),
}


def load_benchmark(path) -> SynthesizedBenchmark:
    root = Path(path)
    manifest_path = root / "benchmark.json"
    if not manifest_path.exists():
        raise CorpusError(f"{root}: not a benchmark directory (no benchmark.json)")
    manifest = read_manifest(manifest_path, _BENCHMARK_FIELDS)
    grouping = {t: coarse_of(t) for t in manifest["inventory"]}
    if manifest["grouping"] != grouping:
        raise CorpusError(
            f"{manifest_path}: 'grouping' must map each inventory type to the part of its "
            f"name before the first '-', got {manifest['grouping']!r}"
        )
    try:
        sequence = TaskSequence(
            tuple(TaskSpec(t["name"], tuple(t["types"])) for t in manifest["tasks"]),
            permutation=manifest["permutation"],
        )
    except (KeyError, TypeError, ValueError) as e:
        raise CorpusError(f"{manifest_path}: bad task list: {e!r}") from e
    tasks = []
    for l, spec in enumerate(sequence.tasks, start=1):
        task_dir = root / f"task_{l:02d}"
        splits = {split: parse_corpus(task_dir / f"{split}.txt").sentences for split in SPLITS}
        for split in ("train", "train_full"):
            if not splits[split]:
                raise CorpusError(f"{task_dir / split}.txt: task {l} has no training sentences")
        tasks.append(TaskData(spec, **splits))
    return SynthesizedBenchmark(
        kind=manifest["kind"],
        setup=manifest["setup"],
        seed=manifest["seed"],
        sequence=sequence,
        inventory=tuple(manifest["inventory"]),
        tasks=tasks,
        vocab_tokens=read_text(root / "vocab.txt").splitlines(),
    )
