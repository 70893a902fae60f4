"""Command-line entry point.

    clner synthesize  --kind toy --setup split-all --seed 0 --out bench/
    clner train       --benchmark bench/ --mode cl --model spankl --out run/
    clner report      run_cl/ run_noncl/ --out report/

Exit codes: 0 success, 1 usage or config error, 2 data error, 3 runtime
abort. Every output directory receives exactly one manifest.json; its
timestamp honors SOURCE_DATE_EPOCH so identical invocations can produce
byte-identical trees.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import logging
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from clner import __version__
from clner import cldata, metrics
from clner.cldata import CorpusError, SynthesisError
from clner.clrunner import (
    MODEL_KINDS,
    RunConfig,
    RunError,
    read_table,
    record_path,
    run_cl,
    run_noncl,
    run_path,
    write_table,
)
from clner.numcore import CheckpointError

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        raise UsageError(message)


def manifest_timestamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    moment = int(epoch) if epoch else int(time.time())
    return datetime.fromtimestamp(moment, tz=timezone.utc).isoformat()


def write_manifest(out_dir, command: str, inputs: dict, config: dict | None = None, **extra) -> None:
    payload = {
        "command": command,
        "tool_version": __version__,
        "created": manifest_timestamp(),
        "inputs": inputs,
    }
    if config is not None:
        payload["config"] = config
        payload["config_hash"] = hashlib.sha256(
            json.dumps(config, sort_keys=True).encode()
        ).hexdigest()
    payload.update(extra)
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    (Path(out_dir) / "manifest.json").write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


def parse_config_file(path) -> dict[str, str]:
    """Flat key = value lines; # starts a comment."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise UsageError(f"invalid config file {path}: {e}") from None
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _out_dir(out: str, *inputs) -> Path:
    """``--out`` as a path; one that resolves to an input directory would
    be overwritten, so it is a usage error."""
    if any(Path(out).resolve() == Path(i).resolve() for i in inputs if i):
        raise UsageError(f"--out {out} is also an input directory")
    return Path(out)


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def cmd_synthesize(args) -> int:
    _out_dir(args.out, args.corpus)
    if args.kind == "toy":
        spec = cldata.default_toy_spec(args.sentences, args.nesting)
        corpus = cldata.generate_toy_corpus(spec, seed=args.seed)
        train, dev, test = cldata.split3(corpus, seed=args.seed)
        source = f"toy(sentences={args.sentences}, nesting={args.nesting})"
    else:
        if not args.corpus:
            raise UsageError(f"--corpus is required for kind {args.kind!r}")
        train, dev, test = cldata.load_corpus_dir(args.corpus)
        source = str(args.corpus)
    seqs = cldata.permutations(
        args.kind, corpus=train, n_tasks=args.tasks,
        count=max(args.permutation, 4), seed=args.seed,
    )
    by_id = {s.permutation: s for s in seqs}
    if args.permutation not in by_id:
        raise UsageError(
            f"permutation {args.permutation} not available for kind {args.kind!r} "
            f"(have {sorted(by_id)})"
        )
    bench = cldata.synthesize(
        train, dev, test, by_id[args.permutation], args.setup,
        seed=args.seed, kind=args.kind,
    )
    written = cldata.save_benchmark(bench, args.out)
    write_manifest(
        args.out,
        command="synthesize",
        inputs={"corpus": source, "kind": args.kind},
        **{key: written[key] for key in ("setup", "seed", "permutation", "tasks")},
    )
    print(f"benchmark written to {args.out} ({len(bench)} tasks, setup {args.setup})")
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------


def _effective_config(args) -> tuple[RunConfig, list[int]]:
    """The run config and seeds from the config file, flags and --set
    pairs; every seed's config is validated before anything is written."""
    mapping: dict = {}
    if args.config:
        mapping.update(parse_config_file(args.config))
    for flag in ("model", "epochs", "alpha", "beta", "threshold"):
        value = getattr(args, flag)
        if value is not None:
            mapping[flag] = value
    for pair in args.set or []:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        mapping[key.strip()] = value.strip()
    try:
        config = RunConfig.from_mapping(mapping)
    except (ValueError, TypeError) as e:
        raise UsageError(str(e)) from None
    seeds = _int_list(args.seeds) if args.seeds else [config.seed]
    repeated = sorted({seed for seed in seeds if seeds.count(seed) > 1})
    if repeated:
        raise UsageError(f"--seeds repeats {repeated}")
    runs = [config] + [dataclasses.replace(config, seed=seed) for seed in seeds]
    problems = list(dict.fromkeys(p for run in runs for p in run.validate()))
    if problems:
        raise UsageError("invalid config:\n  " + "\n  ".join(problems))
    return config, seeds


def cmd_train(args) -> int:
    out_root = _out_dir(args.out, args.benchmark)
    bench = cldata.load_benchmark(args.benchmark)
    config, seeds = _effective_config(args)
    runner = {"cl": run_cl, "noncl": run_noncl}[args.mode]
    summary_rows = []
    for seed in seeds:
        result = runner(dataclasses.replace(config, seed=seed), bench, run_path(out_root, seed))
        summary_rows += [(seed, r.step, r.eval.macro) for r in result.steps]
        print(
            f"{args.mode} {config.model} seed {seed}: "
            + " ".join(f"step{r.step}={r.eval.macro:.4f}" for r in result.steps)
        )
    write_table(out_root / "sweep_summary.tsv", ("seed", "step", "macro_f1"), summary_rows)
    write_manifest(
        out_root,
        command="train",
        inputs={"benchmark": str(args.benchmark)},
        config=config.to_dict(),
        mode=args.mode,
        seeds=seeds,
        benchmark_kind=bench.kind,
        benchmark_setup=bench.setup,
        benchmark_permutation=bench.sequence.permutation,
        benchmark_steps=len(bench),
        dev_selection="per-step dev set, macro-F1 over that step's types",
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------


# what report reads from a train manifest: key -> (description, check);
# type(v) is int refuses JSON booleans, which isinstance(v, int) accepts
_TRAIN_FIELDS = {
    "command": ("'train'", lambda v: v == "train"),
    "config": ("an object with a string 'model'",
               lambda v: isinstance(v, dict) and isinstance(v.get("model"), str)),
    "mode": ("'cl' or 'noncl'", lambda v: v in ("cl", "noncl")),
    "seeds": ("a list of integers",
              lambda v: isinstance(v, list) and all(type(s) is int for s in v)),
    "benchmark_kind": ("a string", lambda v: isinstance(v, str)),
    "benchmark_setup": ("a string", lambda v: isinstance(v, str)),
    "benchmark_steps": ("an integer >= 1", lambda v: type(v) is int and v >= 1),
    "benchmark_permutation": ("an integer", lambda v: type(v) is int),
}


def _train_manifest(root: Path) -> dict:
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise CorpusError(f"{root}: not a train output directory (no manifest.json)")
    return cldata.read_manifest(manifest_path, _TRAIN_FIELDS)


def _fmt_pct(x: float | None) -> str:
    return "  --  " if x is None else f"{100 * x:6.2f}"


def _median(values) -> float | None:
    present = [v for v in values if v is not None]
    return float(np.median(present)) if present else None


def cmd_report(args) -> int:
    out = _out_dir(args.out, *args.runs)
    roots = [Path(r) for r in args.runs]
    manifests = [_train_manifest(root) for root in roots]
    identities = {
        (m["benchmark_kind"], m["benchmark_setup"], m["benchmark_steps"]) for m in manifests
    }
    if len(identities) > 1:
        raise CorpusError(f"incompatible benchmarks in report inputs: {sorted(identities)}")
    kind, setup, n_steps = next(iter(identities))
    # macro[(model, mode, perm, seed, step)]; each run comes from one root
    macro: dict[tuple, float] = {}
    owner: dict[tuple, Path] = {}
    curves = []
    for root, m in zip(roots, manifests):
        for seed in m["seeds"]:
            run = (m["config"]["model"], m["mode"], m["benchmark_permutation"], seed)
            if owner.setdefault(run, root) is not root:
                raise CorpusError(f"run {run} appears in both {owner[run]} and {root}")
            for row in read_table(record_path(run_path(root, seed), "summary", m["mode"])):
                macro[run + (int(row["step"]),)] = float(row["macro_f1"])
            path = record_path(run_path(root, seed), "curves", m["mode"])
            if path.exists():
                curves += [run + tuple(row.values()) for row in read_table(path, ",")]
    # table[(model, mode, seed, step)]: the mean over the permutations, in
    # sorted order; delta[(model, seed, step)]: CL minus non-CL
    per_perm: dict[tuple, list[float]] = {}
    for (model, mode, _, seed, step), value in sorted(macro.items()):
        per_perm.setdefault((model, mode, seed, step), []).append(value)
    table = {cell: float(np.mean(values)) for cell, values in per_perm.items()}
    delta = {
        (model, seed, step): metrics.gap(value, table[(model, "noncl", seed, step)])
        for (model, mode, seed, step), value in table.items()
        if mode == "cl" and (model, "noncl", seed, step) in table
    }
    models = sorted({k[0] for k in table})
    seeds = sorted({k[2] for k in table})
    steps = range(1, n_steps + 1)
    lines = [
        f"kind: {kind}   setup: {setup}   steps: {n_steps}",
        f"permutations: {sorted({k[2] for k in macro})}   seeds: {seeds}",
        "scores: macro-F1 x 100, mean over permutations, median over seeds",
        "",
        "model        metric   " + "  ".join(f"step{s}" for s in steps),
    ]

    def cell(model: str, mode: str, s: int, st: int) -> float | None:
        """The (model, seed, step) value of a mode, or the Δ for "delta"."""
        return delta.get((model, s, st)) if mode == "delta" else table.get((model, mode, s, st))

    for model in models:
        for label, mode in (("non-CL", "noncl"), ("CL", "cl"), ("Δ", "delta")):
            cells = [_median(cell(model, mode, seed, step) for seed in seeds) for step in steps]
            lines.append(f"{model:<12} {label:<8} " + "  ".join(map(_fmt_pct, cells)))
        lines.append("")
    lines.append("per-seed values at the final step:")
    for model in models:
        for seed in seeds:
            cl, noncl, gap = (cell(model, m, seed, n_steps) for m in ("cl", "noncl", "delta"))
            lines.append(
                f"  {model:<12} seed {seed}:  CL {_fmt_pct(cl)}  non-CL {_fmt_pct(noncl)}  "
                f"Δ {_fmt_pct(gap)}"
            )
    report_text = "\n".join(lines) + "\n"
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(report_text, encoding="utf-8")
    write_table(
        out / "merged_summary.tsv", ("model", "mode", "permutation", "seed", "step", "macro_f1"),
        [key + (value,) for key, value in sorted(macro.items())],
    )
    write_table(
        out / "deltas.tsv", ("model", "seed", "step", "delta"),
        [key + (value,) for key, value in sorted(delta.items())],
    )
    write_table(
        out / "curves.csv", ("model", "mode", "permutation", "seed", "step", "type", "f1"),
        curves, ",",
    )
    write_manifest(out, command="report", inputs={"runs": [str(r) for r in args.runs]})
    print(report_text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="clner", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("synthesize", help="build a class-incremental benchmark")
    p.add_argument("--corpus", help="directory with train.txt/dev.txt/test.txt")
    p.add_argument("--kind", choices=("toy", "ontonotes", "fewnerd"), default="toy")
    p.add_argument("--setup", choices=cldata.SETUPS, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--permutation", type=int, default=1, help="task-order index (1-based)")
    p.add_argument("--tasks", type=int, default=3, help="task count for toy corpora")
    p.add_argument("--sentences", type=int, default=500, help="toy corpus size")
    p.add_argument("--nesting", type=float, default=0.35, help="toy nesting probability")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_synthesize)

    p = sub.add_parser("train", help="run the CL protocol or its non-CL reference")
    p.add_argument("--benchmark", required=True, help="directory from synthesize")
    p.add_argument("--mode", choices=("cl", "noncl"), default="cl")
    p.add_argument("--config", help="flat key = value config file")
    p.add_argument("--model", choices=MODEL_KINDS)
    p.add_argument("--seeds", help="comma-separated run seeds (default: config seed)")
    p.add_argument("--epochs", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--threshold", type=float)
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override any other config key")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("report", help="consolidate runs into tables and curves")
    p.add_argument("runs", nargs="+", help="train output directories")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (CorpusError, SynthesisError, CheckpointError, FileNotFoundError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except RunError as e:
        print(f"run aborted: {e}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


def console() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
