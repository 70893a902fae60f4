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
from clner import cldata
from clner.cldata import CorpusError, SynthesisError
from clner.clrunner import (
    MODEL_KINDS,
    RunConfig,
    RunError,
    run_cl,
    run_noncl,
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
    out: dict[str, str] = {}
    for lineno, line in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), 1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = stripped.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise UsageError(f"expected a comma-separated integer list, got {text!r}") from None


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


def cmd_synthesize(args) -> int:
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
    cldata.save_benchmark(bench, args.out)
    write_manifest(
        args.out,
        command="synthesize",
        inputs={"corpus": source, "kind": args.kind},
        setup=args.setup,
        seed=args.seed,
        permutation=args.permutation,
        tasks=[{"name": t.name, "types": list(t.types)} for t in bench.sequence.tasks],
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
    runs = [config] + [dataclasses.replace(config, seed=seed) for seed in seeds]
    problems = list(dict.fromkeys(p for run in runs for p in run.validate()))
    if problems:
        raise UsageError("invalid config:\n  " + "\n  ".join(problems))
    return config, seeds


def cmd_train(args) -> int:
    bench = cldata.load_benchmark(args.benchmark)
    config, seeds = _effective_config(args)
    runner = {"cl": run_cl, "noncl": run_noncl}[args.mode]
    out_root = Path(args.out)
    summary_rows = []
    for seed in seeds:
        run_config = dataclasses.replace(config, seed=seed)
        run_dir = out_root / f"run_s{seed}"
        result = runner(run_config, bench, run_dir)
        for record in result.steps:
            summary_rows.append((seed, record.step, record.eval.macro))
        print(
            f"{args.mode} {config.model} seed {seed}: "
            + " ".join(f"step{r.step}={r.eval.macro:.4f}" for r in result.steps)
        )
    lines = ["seed\tstep\tmacro_f1"]
    lines += [f"{s}\t{st}\t{m!r}" for s, st, m in summary_rows]
    (out_root / "sweep_summary.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
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


def _load_train_root(root: Path) -> dict:
    manifest_path = root / "manifest.json"
    if not manifest_path.exists():
        raise CorpusError(f"{root}: not a train output directory (no manifest.json)")
    manifest = cldata.read_manifest(manifest_path, (
        "command", "config", "mode", "seeds", "benchmark_kind", "benchmark_setup",
        "benchmark_steps", "benchmark_permutation",
    ))
    if manifest["command"] != "train":
        raise CorpusError(f"{root}: manifest is not from a train command")
    rows = []
    mode = manifest["mode"]
    for seed in manifest["seeds"]:
        summary = root / f"run_s{seed}" / f"summary_{mode}.tsv"
        if not summary.exists():
            raise CorpusError(f"{root}: missing {summary.name} for seed {seed}")
        lines = summary.read_text(encoding="utf-8").splitlines()
        header = lines[0].split("\t")
        for line in lines[1:]:
            rows.append(dict(zip(header, line.split("\t"))))
    return {"manifest": manifest, "rows": rows, "root": root}


def _fmt_pct(x: float | None) -> str:
    return "  --  " if x is None else f"{100 * x:6.2f}"


def cmd_report(args) -> int:
    loaded = [_load_train_root(Path(r)) for r in args.runs]
    identities = {
        (
            d["manifest"]["benchmark_kind"],
            d["manifest"]["benchmark_setup"],
            d["manifest"]["benchmark_steps"],
        )
        for d in loaded
    }
    if len(identities) > 1:
        raise CorpusError(
            f"incompatible benchmarks in report inputs: {sorted(identities)}"
        )
    kind, setup, n_steps = next(iter(identities))
    # macro[(model, mode, perm, seed, step)] = value
    macro: dict[tuple, float] = {}
    for d in loaded:
        model = d["manifest"]["config"]["model"]
        mode = d["manifest"]["mode"]
        perm = d["manifest"]["benchmark_permutation"]
        for row in d["rows"]:
            key = (model, mode, perm, int(row["seed"]), int(row["step"]))
            macro[key] = float(row["macro_f1"])
    models = sorted({k[0] for k in macro})
    perms = sorted({k[2] for k in macro})
    seeds = sorted({k[3] for k in macro})

    def seed_values(model: str, mode: str, seed: int, step: int) -> float | None:
        vals = [
            macro.get((model, mode, p, seed, step))
            for p in perms
            if (model, mode, p, seed, step) in macro
        ]
        return float(np.mean(vals)) if vals else None

    lines = [
        f"kind: {kind}   setup: {setup}   steps: {n_steps}",
        f"permutations: {perms}   seeds: {seeds}",
        "scores: macro-F1 x 100, mean over permutations, median over seeds",
        "",
        "model        metric   " + "  ".join(f"step{s}" for s in range(1, n_steps + 1)),
    ]
    delta_rows = []
    for model in models:
        for mode_label, mode in (("non-CL", "noncl"), ("CL", "cl")):
            cells = []
            for step in range(1, n_steps + 1):
                per_seed = [
                    v for v in (seed_values(model, mode, s, step) for s in seeds)
                    if v is not None
                ]
                cells.append(_fmt_pct(float(np.median(per_seed)) if per_seed else None))
            lines.append(f"{model:<12} {mode_label:<8} " + "  ".join(cells))
        cells = []
        for step in range(1, n_steps + 1):
            per_seed = []
            for seed in seeds:
                cl = seed_values(model, "cl", seed, step)
                nc_ = seed_values(model, "noncl", seed, step)
                if cl is not None and nc_ is not None:
                    per_seed.append(cl - nc_)
                    delta_rows.append((model, seed, step, cl - nc_))
            cells.append(
                _fmt_pct(float(np.median(per_seed)) if per_seed else None)
            )
        lines.append(f"{model:<12} {'Δ':<8} " + "  ".join(cells))
        lines.append("")
    lines.append("per-seed values at the final step:")
    for model in models:
        for seed in seeds:
            cl = seed_values(model, "cl", seed, n_steps)
            nc_ = seed_values(model, "noncl", seed, n_steps)
            delta = cl - nc_ if cl is not None and nc_ is not None else None
            lines.append(
                f"  {model:<12} seed {seed}:  CL {_fmt_pct(cl)}  "
                f"non-CL {_fmt_pct(nc_)}  Δ {_fmt_pct(delta)}"
            )
    report_text = "\n".join(lines) + "\n"
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.txt").write_text(report_text, encoding="utf-8")
    merged = ["model\tmode\tpermutation\tseed\tstep\tmacro_f1"]
    for (model, mode, perm, seed, step), value in sorted(macro.items()):
        merged.append(f"{model}\t{mode}\t{perm}\t{seed}\t{step}\t{value!r}")
    (out / "merged_summary.tsv").write_text("\n".join(merged) + "\n", encoding="utf-8")
    deltas = ["model\tseed\tstep\tdelta"]
    deltas += [f"{m}\t{s}\t{st}\t{d!r}" for m, s, st, d in sorted(delta_rows)]
    (out / "deltas.tsv").write_text("\n".join(deltas) + "\n", encoding="utf-8")
    curve_lines = ["model,mode,permutation,seed,step,type,f1"]
    for d in loaded:
        model = d["manifest"]["config"]["model"]
        mode = d["manifest"]["mode"]
        perm = d["manifest"]["benchmark_permutation"]
        for seed in d["manifest"]["seeds"]:
            curves = d["root"] / f"run_s{seed}" / f"curves_{mode}.csv"
            if curves.exists():
                for line in curves.read_text(encoding="utf-8").splitlines()[1:]:
                    curve_lines.append(f"{model},{mode},{perm},{seed},{line}")
    (out / "curves.csv").write_text("\n".join(curve_lines) + "\n", encoding="utf-8")
    write_manifest(
        out,
        command="report",
        inputs={"runs": [str(r) for r in args.runs]},
    )
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
