"""Byte identity of run trees: the golden digests that tier-1 checks, and
the same check against another revision.

    python3 tools/identity.py REV
    python3 tools/identity.py --write-golden

``recipe_digests`` runs one recipe in its process through ``cli.main``
with the importable ``clner`` and ``SOURCE_DATE_EPOCH=1700000000``:

- ``clner synthesize --kind toy --setup split-all --seed 3 --sentences 120``;
- ``clner train`` for spankl, extendner and addner, each in ``cl`` and
  ``noncl``, with ``--seeds 1,2``, under configs A, B and C below, then
  ``clner report`` over each (config, model)'s two roots;
- ``clner synthesize --kind fewnerd --setup filter-filter`` from a corpus
  of ``cldata.pair_toy_spec(cldata.fewnerd_fine_types(2), 80)``, 8 coarse
  x 2 fine types, generated at seed 0 and cut by ``cldata.split3``;
  ``clner train`` for spankl and extendner in both modes under config A,
  then ``clner report`` over the four roots.

It returns one SHA-256 per output file (``tree_digests``): a
``manifest.json`` is hashed as JSON without its ``inputs`` (they name the
output paths), every other file byte for byte.

``--write-golden`` runs the recipe on the working tree's ``src/`` and
writes its digests, with this numpy build's version and BLAS, to
``tests/golden_run_tree.json``, and prints how many entries of the file
it replaces are unchanged, changed, added and removed;
``tests/test_tools.py`` reruns the recipe and compares. A change that
alters run outputs on purpose rewrites the file and says why.

``REV`` exports that revision with ``git archive`` and runs this file's
recipe twice, each time in a child process with one BLAS thread that
imports ``clner`` from one tree's ``src/``: the export's, then the working
tree's. Prints the counts of equal files and manifests and the names that
differ, and exits 1 on any difference, including a file present on one
side only. REV's ``clner`` must have the ``cldata`` builders the recipe
calls.
"""
from __future__ import annotations

import hashlib
import json
import os
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


def export_tree(rev: str, dest: Path) -> None:
    """Write the files of revision ``rev`` of this repository under
    ``dest`` (made if missing) with ``git archive``."""
    dest.mkdir(parents=True, exist_ok=True)
    archive = subprocess.run(
        ["git", "-C", str(REPO), "archive", rev], check=True, capture_output=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def _train_runs(data: Path, config: Path, models, root: Path, report: Path) -> list[tuple]:
    """The CLI arguments that train each model in both modes into
    ``root/MODEL-MODE`` with seeds 1 and 2, then report over those roots
    into ``report``."""
    runs, roots = [], []
    for model in models:
        for mode in MODES:
            roots.append(root / f"{model}-{mode}")
            runs.append(("train", "--benchmark", data, "--config", config, "--model", model,
                         "--mode", mode, "--seeds", "1,2", "--out", roots[-1]))
    return runs + [("report", *roots, "--out", report)]


def recipe_digests() -> dict[str, str]:
    """Run the recipe in this process and return ``tree_digests`` of its
    output tree: ``bench``, ``config_NAME.txt`` and, per config,
    ``NAME/MODEL-MODE`` and ``NAME/MODEL-report``; then ``fewnerd_bench``,
    ``fewnerd/MODEL-MODE`` and ``fewnerd/report``. The corpus lies
    outside that tree."""
    from clner import cldata, cli

    with tempfile.TemporaryDirectory(prefix="clner-recipe-") as tmp:
        corpus, out = Path(tmp) / "fewnerd_corpus", Path(tmp) / "out"
        corpus.mkdir()
        spec = cldata.pair_toy_spec(cldata.fewnerd_fine_types(2), 80)
        parts = cldata.split3(cldata.generate_toy_corpus(spec, seed=0))
        for name, part in zip(("train", "dev", "test"), parts):
            cldata.write_corpus(corpus / f"{name}.txt", part)
        out.mkdir()
        for name, config in CONFIGS.items():
            (out / f"config_{name}.txt").write_text(
                "".join(f"{k} = {v}\n" for k, v in config.items()), encoding="utf-8"
            )
        bench, fewnerd = out / "bench", out / "fewnerd_bench"
        runs = [("synthesize", "--kind", "toy", "--setup", "split-all", "--seed", 3,
                 "--sentences", 120, "--out", bench)]
        for name in CONFIGS:
            for model in MODELS:
                runs += _train_runs(bench, out / f"config_{name}.txt", [model], out / name,
                                    out / name / f"{model}-report")
        runs.append(("synthesize", "--kind", "fewnerd", "--setup", "filter-filter",
                     "--corpus", corpus, "--out", fewnerd))
        runs += _train_runs(fewnerd, out / "config_A.txt", ["spankl", "extendner"],
                            out / "fewnerd", out / "fewnerd" / "report")
        with mock.patch.dict(os.environ, {"SOURCE_DATE_EPOCH": "1700000000"}):
            for args in runs:
                code = cli.main([str(a) for a in args])
                if code:
                    raise RuntimeError(f"clner {args[0]} exited {code}")
        return tree_digests(out)


def _manifest(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("inputs", None)
    return payload


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


def compare_digests(base: dict[str, str], work: dict[str, str]) -> tuple[list[str], ...]:
    """The sorted names with equal digests, the names in ``base`` only,
    in ``work`` only, and in both with different digests."""
    both = base.keys() & work.keys()
    return (sorted(n for n in both if base[n] == work[n]), sorted(base.keys() - work.keys()),
            sorted(work.keys() - base.keys()), sorted(n for n in both if base[n] != work[n]))


def numpy_build() -> dict[str, str]:
    """The numpy version and BLAS that the golden bits belong to."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def write_golden() -> int:
    sys.path.insert(0, str(REPO / "src"))
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["files"] if GOLDEN.exists() else {}
    files = recipe_digests()
    GOLDEN.write_text(
        json.dumps({"build": numpy_build(), "files": files}, indent=1, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    equal, removed, added, changed = compare_digests(old, files)
    print(f"{len(files)} file digests written to {GOLDEN.relative_to(REPO)}; against the "
          f"file it replaced: {len(equal)} unchanged, {len(changed)} changed, "
          f"{len(added)} added, {len(removed)} removed")
    return 0


def _child_digests(tree: Path, dest: Path) -> dict[str, str]:
    """``recipe_digests`` in a child process whose ``clner`` is
    ``tree``'s, written to ``dest`` (``report`` prints to stdout)."""
    env = os.environ | {
        "PYTHONPATH": os.pathsep.join([str(tree / "src"), str(REPO / "tools")]),
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    }
    code = ("import identity, json, pathlib, sys; "
            "pathlib.Path(sys.argv[1]).write_text(json.dumps(identity.recipe_digests()))")
    done = subprocess.run([sys.executable, "-c", code, str(dest)], env=env, cwd=dest.parent,
                          capture_output=True, text=True)
    if done.returncode:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"the recipe exited {done.returncode} on {tree}")
    return json.loads(dest.read_text(encoding="utf-8"))


def main(argv: list[str]) -> int:
    if argv == ["--write-golden"]:
        return write_golden()
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="clner-identity-") as tmp:
        tmp = Path(tmp)
        export_tree(argv[0], tmp / "export")
        base = _child_digests(tmp / "export", tmp / "base.json")
        work = _child_digests(REPO, tmp / "work.json")
    equal, missing, extra, differ = compare_digests(base, work)
    manifests = sum(Path(name).name == "manifest.json" for name in equal)
    print(f"equal: {len(equal) - manifests} files, {manifests} manifests (without inputs)")
    differ = sorted(differ + [f"{name} (one side only)" for name in missing + extra])
    print(f"differing: {len(differ)}")
    for name in differ:
        print(f"  {name}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
