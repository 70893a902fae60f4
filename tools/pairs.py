"""Alternating benchmark pairs of the working tree against another revision.

    python3 tools/pairs.py REV --workloads W,.. --pairs N --seconds S --label L

Exports REV with ``git archive`` (``identity.export_tree``) and runs
``bench/run.py --workload W --seed SEED --seconds S --trace 0`` on that
export and on the working tree, each with its own ``src/`` and
``bench/``. Pair k (N >= 10) runs
every workload at seed k, the export first on odd pairs and second on
even ones, so that drift of the machine's speed falls on both sides.

Writes ``BENCH_<L>.json`` at the repository root: both revisions, the
CPU count, the numpy and Python versions, and per workload the status of
every run and per end-to-end metric of ``BENCHMARK.json`` the per-pair
values, each side's median [q1, q3], the ratio of the medians, the
median [q1, q3] of the per-pair ratios (change / parent), the pairs the
change won, and the verdict. A metric counts as a gain when the
change wins at least 90% of at least 10 pairs, the gap between the
medians exceeds the parent's interquartile range, every run is correct
and the change fails no larger share of its operations than the parent.
``final_macro_f1`` is also checked for bit identity on every pair.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from identity import REPO, export_tree  # noqa: E402

WIN_SHARE = 0.9
MIN_PAIRS = 10
SIDES = ("parent", "change")


def summary(values: list[float]) -> dict:
    """Median and [q1, q3] (inclusive quartiles) of one side's values."""
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "iqr": [q1, q3]}


def failed_share(runs: list[dict], side: str) -> float:
    """The share of one side's operations that failed over all pairs."""
    attempted = sum(r[side]["attempted"] for r in runs)
    return sum(r[side]["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(parent: list[float], change: list[float], better: str, runs: list[dict]) -> dict:
    """Compare paired values of one metric, ``better`` being "lower" or
    "higher": the pairs won by the change, the ratio of the medians, and
    whether that is a gain (at least MIN_PAIRS pairs, WIN_SHARE of them
    won, the median gap beyond the parent's interquartile range, and, in
    ``runs``, each side's correct/attempted/failed per pair, every run
    correct and no larger failed share for the change)."""
    sign = 1.0 if better == "lower" else -1.0
    won = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    base, new = summary(parent), summary(change)
    spread = base["iqr"][1] - base["iqr"][0]
    gap = sign * (base["median"] - new["median"])
    # the pairs' own ratios: their spread is the noise within a pair, which
    # the parent's spread across pairs (mostly the machine's drift) is not
    ratios = [c / p for p, c in zip(parent, change)] if all(parent) else None
    sound = all(r[side]["correct"] for r in runs for side in SIDES) and failed_share(
        runs, "change"
    ) <= failed_share(runs, "parent")
    return {
        "better": better,
        "parent": parent,
        "change": change,
        "parent_median": base["median"],
        "parent_iqr": base["iqr"],
        "change_median": new["median"],
        "change_iqr": new["iqr"],
        "ratio": new["median"] / base["median"] if base["median"] else None,
        "pair_ratio": summary(ratios) if ratios else None,
        "won": won,
        "gain": len(parent) >= MIN_PAIRS and won >= math.ceil(WIN_SHARE * len(parent))
        and gap > spread and sound,
    }


def bench_run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run; its last output line as JSON."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode or not lines:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"bench/run.py exited {done.returncode} on {workload} in {tree}")
    return json.loads(lines[-1])


def git(*args: str) -> str:
    return subprocess.run(
        ["git", "-C", str(REPO), *args], check=True, capture_output=True, text=True
    ).stdout.strip()


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="the parent revision")
    parser.add_argument("--workloads", required=True, help="comma-separated workload names")
    parser.add_argument("--pairs", type=int, default=MIN_PAIRS)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        parser.error(f"--pairs must be at least {MIN_PAIRS}")
    workloads = args.workloads.split(",")
    metrics = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]
    import numpy

    record = {
        "parent": {"rev": args.rev, "commit": git("rev-parse", args.rev)},
        "change": {"tree": "working tree", "head": git("rev-parse", "HEAD"),
                   "modified": bool(git("status", "--porcelain", "--untracked-files=no"))},
        "cpus": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "win_share": WIN_SHARE,
        "workloads": {},
    }
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    with tempfile.TemporaryDirectory(prefix="clner-pairs-") as tmp:
        export = Path(tmp)
        export_tree(args.rev, export)
        for k in range(1, args.pairs + 1):
            for w in workloads:
                trees = [("parent", export), ("change", REPO)]
                out = {side: bench_run(tree, w, k, args.seconds)
                       for side, tree in (trees if k % 2 else trees[::-1])}
                runs[w].append({"seed": k, "parent_first": bool(k % 2)} | out)
                print(f"pair {k} {w}: " + ", ".join(
                    f"{side} run_s {out[side]['metrics']['run_s']['value']:.3f}"
                    for side in SIDES), file=sys.stderr)
    for w, pairs in runs.items():
        values = {
            side: {m["name"]: [r[side]["metrics"][m["name"]]["value"] for r in pairs] for m in metrics}
            for side in SIDES
        }
        status = [
            {"seed": r["seed"], "parent_first": r["parent_first"]}
            | {side: {key: r[side][key] for key in ("correct", "attempted", "failed")}
               for side in SIDES}
            for r in pairs
        ]
        record["workloads"][w] = {
            "runs": status,
            "final_macro_f1_identical": values["parent"]["final_macro_f1"]
            == values["change"]["final_macro_f1"],
            "metrics": {
                m["name"]: verdict(values["parent"][m["name"]], values["change"][m["name"]],
                                   m["better"], status)
                for m in metrics
            },
        }
    path = REPO / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for w, result in record["workloads"].items():
        for name, v in result["metrics"].items():
            ratio = "-" if v["ratio"] is None else f"x{v['ratio']:.3f}"
            if v["pair_ratio"]:
                q1, q3 = v["pair_ratio"]["iqr"]
                ratio += f", pairs x{v['pair_ratio']['median']:.3f} [{q1:.3f}, {q3:.3f}]"
            print(f"{w} {name}: {v['parent_median']:.4g} -> {v['change_median']:.4g} "
                  f"({ratio}, won {v['won']}/{len(v['parent'])}"
                  f"{', gain' if v['gain'] else ''})")
        print(f"{w} final_macro_f1 bit-identical on every pair: "
              f"{result['final_macro_f1_identical']}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
