"""Byte-identity check of run trees against another revision, and the
golden run-tree digests that tier-1 checks.

    python3 tools/identity.py REV
    python3 tools/identity.py --write-golden

Exports REV with ``git archive`` and runs the same recipe on that export
and on the working tree, each from its own ``src/``:

- ``clner synthesize --kind toy --setup split-all --seed 3 --sentences 120``;
- ``clner train`` for spankl, extendner and addner, each in ``cl`` and
  ``noncl``, with ``--seeds 1,2``, under configs A, B and C below, then
  ``clner report`` over each (config, model)'s two roots;
- ``clner synthesize --kind fewnerd --setup filter-filter`` from a
  bare-tag corpus of 8 coarse x 2 fine types, written once so both sides
  read the same bytes; ``clner train`` for spankl and extendner in both
  modes under config A, then ``clner report`` over the four roots.

Every run sees ``SOURCE_DATE_EPOCH=1700000000`` and one BLAS thread. The
two output trees are then compared file by file: a ``manifest.json`` is
compared as JSON without its ``inputs`` (they name the output paths),
every other file byte for byte. Prints the counts of equal and differing
files and exits 1 on any difference, including a file present on one side
only.

``--write-golden`` runs the smaller ``golden_recipe`` in this process on
the working tree's ``src/`` and writes its digests, with this numpy
build's version and BLAS, to ``tests/golden_run_tree.json``;
``tests/test_tools.py`` reruns the recipe and compares. A change that
alters run outputs on purpose rewrites the file and says why.
"""
from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "golden_run_tree.json"
CONFIG_A = {"epochs": 2, "d_model": 16, "n_heads": 2, "d_span": 8, "dump_matrices": "true"}
CONFIG_B = CONFIG_A | {"batch_size": 5, "alpha": 0.7, "beta": 1.3, "weight_decay": 0.01}
CONFIG_C = CONFIG_B | {"beta": 0, "freeze_encoder": "true"}
CONFIGS = {"A": CONFIG_A, "B": CONFIG_B, "C": CONFIG_C}
MODELS = ("spankl", "extendner", "addner")
MODES = ("cl", "noncl")
FEWNERD_FINE = tuple(
    f"{coarse}-{fine}"
    for coarse in ("location", "person", "organization", "other",
                   "product", "building", "art", "event")
    for fine in ("a", "b")
)


def export_tree(rev: str, dest: Path) -> None:
    """Write the files of revision ``rev`` of this repository under
    ``dest`` (made if missing) with ``git archive``."""
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _clner(tree: Path, *args) -> None:
    env = os.environ | {
        "PYTHONPATH": str(tree / "src"),
        "SOURCE_DATE_EPOCH": "1700000000",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    done = subprocess.run(
        [sys.executable, "-m", "clner.cli", *map(str, args)], env=env, capture_output=True, text=True
    )
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"clner {args[0]} exited {done.returncode} in {tree}")


def write_fewnerd_corpus(root: Path) -> None:
    """train/dev/test.txt with bare ``coarse-fine`` tags; each sentence
    names two neighbouring types of FEWNERD_FINE, one token per mention."""
    rng = random.Random(0)
    root.mkdir(parents=True)
    for name, count in (("train.txt", 60), ("dev.txt", 12), ("test.txt", 12)):
        blocks = []
        for _ in range(count):
            k = rng.randrange(len(FEWNERD_FINE))
            t, u = FEWNERD_FINE[k], FEWNERD_FINE[(k + 1) % len(FEWNERD_FINE)]
            rows = [("the", "O"), (f"{t}{rng.randrange(3)}", t), ("met", "O"),
                    (f"{u}{rng.randrange(3)}", u), ("today", "O")]
            blocks.append("".join(f"{token}\t{tag}\n" for token, tag in rows))
        (root / name).write_text("\n".join(blocks), encoding="utf-8")


def _train_and_report(tree: Path, bench: Path, config: Path, models, out: Path, report: Path):
    """Train each model in both modes into ``out/MODEL-MODE`` with seeds 1
    and 2, then report over those roots into ``report``."""
    roots = []
    for model in models:
        for mode in MODES:
            roots.append(out / f"{model}-{mode}")
            _clner(tree, "train", "--benchmark", bench, "--config", config, "--model", model,
                   "--mode", mode, "--seeds", "1,2", "--out", roots[-1])
    _clner(tree, "report", *roots, "--out", report)


def run_recipe(tree: Path, out: Path, corpus: Path) -> None:
    """The recipe with ``tree``'s code, every output under ``out``."""
    bench = out / "bench"
    _clner(tree, "synthesize", "--kind", "toy", "--setup", "split-all", "--seed", 3,
           "--sentences", 120, "--out", bench)
    for name, config in CONFIGS.items():
        path = out / f"config_{name}.txt"
        path.write_text("".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8")
        for model in MODELS:
            _train_and_report(tree, bench, path, [model], out / name,
                              out / name / f"{model}-report")
    fewnerd = out / "fewnerd_bench"
    _clner(tree, "synthesize", "--kind", "fewnerd", "--setup", "filter-filter",
           "--corpus", corpus, "--out", fewnerd)
    _train_and_report(tree, fewnerd, out / "config_A.txt", ["spankl", "extendner"],
                      out / "fewnerd", out / "fewnerd" / "report")


def _manifest(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("inputs", None)
    return payload


def compare(left: Path, right: Path) -> tuple[dict[str, int], list[str]]:
    """Counts of equal files and manifests, and the relative paths that
    differ or exist on one side only."""
    names = {p.relative_to(left) for p in left.rglob("*") if p.is_file()}
    names |= {p.relative_to(right) for p in right.rglob("*") if p.is_file()}
    counts = {"files": 0, "manifests": 0}
    differ = []
    for name in sorted(names):
        a, b = left / name, right / name
        if not (a.is_file() and b.is_file()):
            differ.append(f"{name} (one side only)")
        elif name.name == "manifest.json":
            if _manifest(a) == _manifest(b):
                counts["manifests"] += 1
            else:
                differ.append(str(name))
        elif a.read_bytes() == b.read_bytes():
            counts["files"] += 1
        else:
            differ.append(str(name))
    return counts, differ


def golden_recipe(out: Path) -> None:
    """In this process, with the importable ``clner``: a toy benchmark of
    60 sentences in 2 tasks; every model in both modes under config B
    (``out/B/MODEL-MODE``) and spankl CL under config C, whose beta 0
    scores a subset of the heads (``out/C/spankl-cl``); seed 1 each; then
    ``report`` over the config-B roots."""
    from clner import cli

    bench = out / "bench"
    for name in ("B", "C"):
        (out / f"config_{name}.txt").write_text(
            "".join(f"{k} = {v}\n" for k, v in CONFIGS[name].items()), encoding="utf-8"
        )
    trains = [("B", model, mode) for model in MODELS for mode in MODES] + [("C", "spankl", "cl")]
    runs = [("synthesize", "--kind", "toy", "--setup", "split-all", "--seed", 3,
             "--sentences", 60, "--tasks", 2, "--out", bench)]
    for name, model, mode in trains:
        runs.append(("train", "--benchmark", bench, "--config", out / f"config_{name}.txt",
                     "--model", model, "--mode", mode, "--seeds", 1,
                     "--out", out / name / f"{model}-{mode}"))
    roots = [out / name / f"{model}-{mode}" for name, model, mode in trains if name == "B"]
    runs.append(("report", *roots, "--out", out / "B" / "report"))
    with mock.patch.dict(os.environ, {"SOURCE_DATE_EPOCH": "1700000000"}):
        for args in runs:
            code = cli.main([str(a) for a in args])
            if code:
                raise RuntimeError(f"clner {args[0]} exited {code}")


def tree_digests(root: Path) -> dict[str, str]:
    """SHA-256 per file under ``root`` by relative path; a
    ``manifest.json`` is hashed as sorted JSON without its ``inputs``."""
    digests = {}
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name == "manifest.json":
            data = json.dumps(_manifest(path), sort_keys=True).encode()
        else:
            data = path.read_bytes()
        digests[path.relative_to(root).as_posix()] = hashlib.sha256(data).hexdigest()
    return digests


def numpy_build() -> dict[str, str]:
    """The numpy version and BLAS that the golden bits belong to."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def write_golden() -> int:
    sys.path.insert(0, str(REPO / "src"))
    with tempfile.TemporaryDirectory(prefix="clner-golden-") as tmp:
        golden_recipe(Path(tmp))
        files = tree_digests(Path(tmp))
    GOLDEN.write_text(
        json.dumps({"build": numpy_build(), "files": files}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    print(f"{len(files)} file digests written to {GOLDEN.relative_to(REPO)}")
    return 0


def main(argv: list[str]) -> int:
    if argv == ["--write-golden"]:
        return write_golden()
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    rev = argv[0]
    with tempfile.TemporaryDirectory(prefix="clner-identity-") as tmp:
        tmp = Path(tmp)
        export_tree(rev, tmp / "export")
        corpus = tmp / "fewnerd_corpus"
        write_fewnerd_corpus(corpus)
        run_recipe(tmp / "export", tmp / "base", corpus)
        run_recipe(REPO, tmp / "work", corpus)
        counts, differ = compare(tmp / "base", tmp / "work")
    print(f"equal: {counts['files']} files, {counts['manifests']} manifests (without inputs)")
    print(f"differing: {len(differ)}")
    for name in differ:
        print(f"  {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
