"""Command-line interface: structure, exit codes, idempotency."""
from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from clner import clrunner
from clner.cldata import (
    FEWNERD_COARSE,
    ONTONOTES_TYPES,
    fewnerd_fine_types,
    generate_toy_corpus,
    pair_toy_spec,
    parse_corpus,
    split3,
    write_corpus,
)
from clner import numcore as nc
from clner.cli import EXIT_DATA, EXIT_OK, EXIT_RUNTIME, EXIT_USAGE, main, parse_config_file
from clner.spankl import SpanKLModel


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def synth(tmp_path, name="bench", **over) -> Path:
    out = tmp_path / name
    args = {
        "--kind": "toy",
        "--setup": "split-all",
        "--seed": "0",
        "--sentences": "80",
        "--tasks": "2",
        "--out": str(out),
    } | {k: str(v) for k, v in over.items()}
    argv = ["synthesize"] + [x for kv in args.items() for x in kv]
    assert main(argv) == EXIT_OK
    return out


TRAIN_FAST = [
    "--epochs", "2",
    "--set", "d_model=16", "--set", "n_heads=2",
    "--set", "d_span=8", "--set", "max_len=32", "--set", "batch_size=8",
]


def write_kind_corpus(root: Path, types, bare: bool = False, sentences: int = 80) -> Path:
    """A corpus directory (train/dev/test.txt) of ``pair_toy_spec(types,
    sentences)`` at seed 0; ``bare`` writes Few-NERD-style tags without the
    B-/I- prefixes."""
    corpus = generate_toy_corpus(pair_toy_spec(types, sentences), seed=0)
    root.mkdir()
    for name, part in zip(("train.txt", "dev.txt", "test.txt"), split3(corpus)):
        write_corpus(root / name, part)
        if bare:
            text = (root / name).read_text(encoding="utf-8")
            (root / name).write_text(re.sub(r"\t[BI]-", "\t", text), encoding="utf-8")
    return root


FEWNERD_FINE = fewnerd_fine_types(2)
# at 320 sentences every split-all CL step trains on a span of each of its types
FEWNERD_SENTENCES = 320


class TestSynthesize:
    def test_structure(self, tmp_path):
        out = synth(tmp_path)
        assert (out / "task_01" / "train.txt").exists()
        assert (out / "task_02" / "test.txt").exists()
        assert (out / "vocab.txt").exists()
        assert (out / "benchmark.json").exists()
        manifests = list(out.glob("manifest.json"))
        assert len(manifests) == 1
        manifest = json.loads(manifests[0].read_text())
        assert manifest["command"] == "synthesize"
        assert manifest["setup"] == "split-all"

    def test_same_seed_byte_identical_trees(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
        a = synth(tmp_path, name="a")
        b = synth(tmp_path, name="b")
        assert tree_bytes(a) == tree_bytes(b)

    def test_invalid_setup_is_usage_error(self, tmp_path, capsys):
        code = main(
            ["synthesize", "--kind", "toy", "--setup", "bogus", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USAGE

    def test_missing_corpus_dir_is_data_error(self, tmp_path):
        code = main(
            [
                "synthesize", "--kind", "fewnerd", "--setup", "split-all",
                "--corpus", str(tmp_path / "absent"), "--out", str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_DATA

    def test_nonexistent_permutation_rejected(self, tmp_path):
        code = main(
            [
                "synthesize", "--kind", "ontonotes", "--setup", "split-all",
                "--permutation", "9", "--corpus", str(tmp_path),
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code in (EXIT_USAGE, EXIT_DATA)

    @pytest.mark.parametrize(
        "kind, types, bare, tasks, layered",
        [
            pytest.param("fewnerd", FEWNERD_FINE, True, 8, False, id="fewnerd-types0-True-8"),
            pytest.param("ontonotes", list(ONTONOTES_TYPES), False, 6, False,
                         id="ontonotes-types1-False-6"),
            pytest.param("ontonotes", list(ONTONOTES_TYPES), False, 6, True,
                         id="ontonotes-layered-nesting-and-CARD-absent-from-train"),
        ],
    )
    def test_corpus_kinds(self, tmp_path, caplog, kind, types, bare, tasks, layered):
        """Synthesize from a corpus directory of each kind, train spankl and
        extendner in both modes, and report over the four roots. Few-NERD
        curves keep only the coarse groups, and the last CL step's per-type
        counts equal a recount of its predictions against its test file.
        The ``layered`` OntoNotes corpus has no CARD mention in train.txt
        (dev and test keep theirs) and one test sentence whose tag column
        nests a PER mention inside an ORG one as two ``|`` layers:
        synthesize keeps CARD in the inventory and its task, whose training
        sentences then hold no span, and each test file keeps the nested
        spans of the types learned by its step; train runs every step and
        scores CARD from its step on against all its test spans, warning at
        each step that trains CARD (CL: its own; non-CL: every step from
        it on) that no training span of it exists."""
        sentences = FEWNERD_SENTENCES if kind == "fewnerd" else 80
        corpus = write_kind_corpus(tmp_path / "corpus", types, bare, sentences)
        if layered:
            train = corpus / "train.txt"
            train.write_text(train.read_text(encoding="utf-8").replace("B-CARD", "O"),
                             encoding="utf-8")
            test = corpus / "test.txt"
            test.write_text(
                test.read_text(encoding="utf-8")
                + "\nthe\tO\nper0\tB-ORG|B-PER\nbank\tI-ORG\nmet\tO\ngpe0\tB-GPE\n",
                encoding="utf-8",
            )
        out = tmp_path / "bench"
        code = main(
            ["synthesize", "--kind", kind, "--setup", "split-all",
             "--corpus", str(corpus), "--out", str(out)]
        )
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["tasks"]) == tasks
        if kind == "fewnerd":
            assert {t["name"]: t["types"] for t in manifest["tasks"]} == {
                c: [f"{c}-a", f"{c}-b"] for c in FEWNERD_COARSE
            }
        else:
            assert [t["types"] for t in manifest["tasks"]] == [[t] for t in ONTONOTES_TYPES]
        last = f"{tasks:02d}"
        gold = [
            {(s.start, s.end, s.type) for s in sent.spans}
            for sent in parse_corpus(out / f"task_{last}" / "test.txt").sentences
        ]
        if layered:
            assert "CARD" in json.loads((out / "benchmark.json").read_text())["inventory"]
            card_step = ONTONOTES_TYPES.index("CARD") + 1
            card_train = parse_corpus(out / f"task_{card_step:02d}" / "train.txt").sentences
            assert card_train and not any(sent.spans for sent in card_train)
            card_gold = sum(t == "CARD" for spans in gold for *_, t in spans)
            assert card_gold > 0
            for step in range(1, tasks + 1):
                nested = parse_corpus(out / f"task_{step:02d}" / "test.txt").sentences[-1]
                learned = ONTONOTES_TYPES[:step]
                assert set(nested.spans) == {
                    span for span in [(2, 3, "ORG"), (2, 2, "PER"), (5, 5, "GPE")]
                    if span[2] in learned
                }
        roots = []
        for model in ("spankl", "extendner"):
            for mode in ("cl", "noncl"):
                roots.append(tmp_path / f"{model}-{mode}")
                caplog.clear()
                assert main(
                    ["train", "--benchmark", str(out), "--model", model, "--mode", mode,
                     "--epochs", "1", "--set", "d_model=8", "--set", "n_heads=2",
                     "--set", "d_span=4", "--out", str(roots[-1])]
                ) == EXIT_OK
                assert len(list((roots[-1] / "run_s0" / mode).glob("step_*"))) == tasks
                warned = [r.getMessage() for r in caplog.records
                          if r.name == "clner.clrunner" and r.levelname == "WARNING"]
                if not layered:
                    assert warned == []
                else:  # CARD is scored from its step on, against all its test spans
                    steps = [card_step] if mode == "cl" else range(card_step, tasks + 1)
                    assert warned == [f"step {step}: no training span of ['CARD']; those heads "
                                      f"train on negatives only" for step in steps]
                    rows = clrunner.read_table(roots[-1] / "run_s0" / f"metrics_{mode}.tsv")
                    card = [row for row in rows if row["type"] == "CARD"]
                    assert [int(row["step"]) for row in card] == list(range(card_step, tasks + 1))
                    assert all(int(row["tp"]) + int(row["fn"]) == card_gold for row in card)
            run = roots[-2] / "run_s0"
            curves = clrunner.read_table(run / "curves_cl.csv", ",")
            groups = FEWNERD_COARSE if kind == "fewnerd" else ONTONOTES_TYPES
            assert {row["type"] for row in curves} == {*groups, "__macro__"}
            counts = {t: [0, 0, 0] for t in types}
            predictions = (run / "cl" / f"step_{last}" / "predictions.jsonl").read_text()
            records = [json.loads(line) for line in predictions.splitlines()]
            assert len(records) == len(gold)
            for record, sent_gold in zip(records, gold):
                pred = {(i, j, t) for i, j, t, _ in record["spans"] if t in counts}
                outcomes = (pred & sent_gold, pred - sent_gold, sent_gold - pred)
                for part, spans in enumerate(outcomes):  # tp, fp, fn
                    for *_, t in spans:
                        counts[t][part] += 1
            rows = clrunner.read_table(run / "metrics_cl.tsv")
            assert {
                row["type"]: [int(row["tp"]), int(row["fp"]), int(row["fn"])]
                for row in rows if row["step"] == str(tasks) and row["type"] in counts
            } == counts
        assert main(["report", *map(str, roots), "--out", str(tmp_path / "report")]) == EXIT_OK

    def test_fewnerd_corpus_without_a_coarse_group_is_data_error(self, tmp_path, capsys):
        types = [t for t in FEWNERD_FINE if not t.startswith("art-")]
        corpus = write_kind_corpus(tmp_path / "corpus", types, bare=True)
        out = tmp_path / "bench"
        code = main(
            ["synthesize", "--kind", "fewnerd", "--setup", "split-all",
             "--corpus", str(corpus), "--out", str(out)]
        )
        assert code == EXIT_DATA
        assert "corpus lacks coarse groups: ['art']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("damage", ["three-column-row", "no-test-file", "non-utf8"])
    def test_damaged_corpus_dir_is_data_error(self, tmp_path, capsys, damage):
        corpus = write_kind_corpus(tmp_path / "corpus", list(ONTONOTES_TYPES))
        if damage == "three-column-row":
            dev = corpus / "dev.txt"
            dev.write_text(dev.read_text(encoding="utf-8").replace("\n", "\tX\n", 1), encoding="utf-8")
            message = f"{dev}:1: expected 'token<TAB>tag'"
        elif damage == "non-utf8":
            test = corpus / "test.txt"
            test.write_bytes(test.read_bytes().replace(b"\t", b"\xe9\t", 1))
            message = f"cannot read {test}: 'utf-8' codec can't decode byte 0xe9"
        else:
            (corpus / "test.txt").unlink()
            message = f"corpus directory {corpus} is missing test.txt"
        out = tmp_path / "bench"
        code = main(
            ["synthesize", "--kind", "ontonotes", "--setup", "split-all",
             "--corpus", str(corpus), "--out", str(out)]
        )
        assert code == EXIT_DATA
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_is_the_corpus_is_usage_error(self, tmp_path, capsys):
        corpus = write_kind_corpus(tmp_path / "corpus", list(ONTONOTES_TYPES))
        before = tree_bytes(corpus)
        code = main(
            ["synthesize", "--kind", "ontonotes", "--setup", "split-all",
             "--corpus", str(corpus), "--out", str(corpus / ".")]
        )
        assert code == EXIT_USAGE
        assert "is also an input directory" in capsys.readouterr().err
        assert tree_bytes(corpus) == before

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--tasks", "0", "task count must be in [1, 6], got 0"),
            ("--tasks", "-1", "task count must be in [1, 6], got -1"),
            ("--tasks", "7", "task count must be in [1, 6], got 7"),
            ("--nesting", "-0.1", "nesting probability must be in [0, 1]"),
            ("--nesting", "1.5", "nesting probability must be in [0, 1]"),
        ],
    )
    def test_bad_toy_size_rejected_before_any_output(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "bench"
        code = main(
            ["synthesize", "--kind", "toy", "--setup", "split-all", "--sentences", "40",
             flag, value, "--out", str(out)]
        )
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


def truncate_or_drop(path: Path, damage: str, key: str) -> None:
    """Cut a JSON manifest off mid-file, or delete one of its keys."""
    text = path.read_text(encoding="utf-8")
    if damage == "truncated":
        path.write_text(text[: len(text) // 2], encoding="utf-8")
    else:
        manifest = json.loads(text)
        del manifest[key]
        path.write_text(json.dumps(manifest), encoding="utf-8")


class TestTrain:
    def test_run_directory_structure(self, tmp_path):
        bench = synth(tmp_path)
        out = tmp_path / "run"
        code = main(
            ["train", "--benchmark", str(bench), "--mode", "cl",
             "--model", "spankl", "--out", str(out)] + TRAIN_FAST
        )
        assert code == EXIT_OK
        run = out / "run_s0"
        assert (run / "cl" / "step_01" / "checkpoint.bin").exists()
        assert (run / "cl" / "step_02" / "checkpoint.bin").exists()
        assert (run / "metrics_cl.tsv").exists()
        assert (out / "manifest.json").exists()
        assert (out / "sweep_summary.tsv").exists()

    def test_extendner_same_invocation(self, tmp_path):
        bench = synth(tmp_path)
        out = tmp_path / "run_ext"
        code = main(
            ["train", "--benchmark", str(bench), "--model", "extendner",
             "--out", str(out)] + TRAIN_FAST
        )
        assert code == EXIT_OK
        header = (out / "run_s0" / "metrics_cl.tsv").read_text().splitlines()[0]
        assert header.split("\t") == list(
            ("model", "mode", "setup", "permutation", "seed",
             "step", "type", "tp", "fp", "fn", "precision", "recall", "f1")
        )

    def test_noncl_mode_tagged(self, tmp_path):
        bench = synth(tmp_path)
        out = tmp_path / "run_nc"
        code = main(
            ["train", "--benchmark", str(bench), "--mode", "noncl",
             "--out", str(out)] + TRAIN_FAST
        )
        assert code == EXIT_OK
        body = (out / "run_s0" / "metrics_noncl.tsv").read_text()
        assert "\tnoncl\t" in body
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["mode"] == "noncl"

    def test_identical_config_and_seed_byte_identical_metrics(self, tmp_path):
        bench = synth(tmp_path)
        args = ["train", "--benchmark", str(bench), "--seeds", "3"] + TRAIN_FAST
        a, b = tmp_path / "runA", tmp_path / "runB"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        for rel in ("run_s3/metrics_cl.tsv", "run_s3/summary_cl.tsv", "sweep_summary.tsv"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        bench = synth(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "model = extendner\nepochs = 1\nd_model = 16\nn_heads = 2\n"
            "d_span = 8\nmax_len = 32\nbatch_size = 8  # trailing comment\n"
        )
        out = tmp_path / "run_cfg"
        code = main(
            ["train", "--benchmark", str(bench), "--config", str(cfg),
             "--model", "spankl", "--out", str(out)]
        )
        assert code == EXIT_OK
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["model"] == "spankl"  # flag beats file
        assert manifest["config"]["epochs"] == 1

    def test_invalid_config_lists_fields(self, tmp_path, capsys):
        bench = synth(tmp_path)
        code = main(
            ["train", "--benchmark", str(bench), "--epochs", "0",
             "--alpha", "-2", "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_USAGE
        err = capsys.readouterr().err
        assert "epochs" in err and "alpha" in err

    @pytest.mark.parametrize(
        "extra",
        [
            ["--set", "d_span=0"],
            ["--set", "n_heads=0"],
            ["--set", "d_model=0"],
            ["--set", "n_heads=3"],
            ["--set", "max_len=0"],
            ["--model", "extendner", "--set", "pad_constant=-1"],
            ["--set", "lr_encoder=-0.001"],
            ["--set", "lr_heads=-0.001"],
            ["--set", "weight_decay=-0.1"],
            ["--set", "warmup_steps=-1"],
            ["--set", "seed=-1"],
            ["--seeds", "-1"],
            ["--seeds", "2,-1"],
            ["--set", "lr_heads=nan"],
            ["--set", "lr_encoder=inf"],
            ["--set", "weight_decay=nan"],
            ["--set", "alpha=inf"],
            ["--alpha", "nan"],
            ["--beta", "nan"],
            ["--beta", "inf"],
            ["--model", "extendner", "--set", "pad_constant=nan"],
            ["--model", "extendner", "--set", "pad_constant=inf"],
            ["--config", "no-such-dir/no-such-config.cfg"],
        ],
        ids=lambda extra: " ".join(extra),
    )
    def test_bad_config_rejected_before_any_output(self, tmp_path, capsys, extra):
        bench = synth(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--benchmark", str(bench), "--out", str(out)] + TRAIN_FAST + extra)
        assert code == EXIT_USAGE
        assert "invalid config" in capsys.readouterr().err
        assert not out.exists()

    def test_out_that_is_the_benchmark_is_usage_error(self, tmp_path, capsys):
        bench = synth(tmp_path)
        before = tree_bytes(bench)
        code = main(["train", "--benchmark", str(bench), "--out", str(bench)] + TRAIN_FAST)
        assert code == EXIT_USAGE
        assert "is also an input directory" in capsys.readouterr().err
        assert tree_bytes(bench) == before

    def test_non_finite_loss_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        bench = synth(tmp_path)
        placed_loss = SpanKLModel.placed_loss
        monkeypatch.setattr(
            SpanKLModel, "placed_loss", lambda *a: placed_loss(*a) * float("nan")
        )
        code = main(["train", "--benchmark", str(bench), "--out", str(tmp_path / "run")] + TRAIN_FAST)
        assert code == EXIT_RUNTIME
        assert "step 1: non-finite loss nan at epoch 1, batch 1" in capsys.readouterr().err

    def test_non_finite_gradient_is_runtime_error(self, tmp_path, capsys, monkeypatch):
        bench = synth(tmp_path)
        opts = []
        optimizer, backward = clrunner._Trainer.optimizer, nc.Tensor.backward

        def keep(self, model):
            opts.append(optimizer(self, model))
            return opts[-1]

        def poisoned(loss):
            backward(loss)
            opts[-1].parameters()[0].grad.flat[-1] = np.inf

        monkeypatch.setattr(clrunner._Trainer, "optimizer", keep)
        monkeypatch.setattr(nc.Tensor, "backward", poisoned)
        code = main(["train", "--benchmark", str(bench), "--out", str(tmp_path / "run")] + TRAIN_FAST)
        assert code == EXIT_RUNTIME
        assert "step 1: non-finite gradient at epoch 1, batch 1" in capsys.readouterr().err

    def test_missing_benchmark_is_data_error(self, tmp_path):
        code = main(
            ["train", "--benchmark", str(tmp_path / "absent"), "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated", "missing-key", "inventory=5", "inventory=[1]", "grouping=5",
            "grouping={}", 'grouping={"PER": "PER"}', "permutation=[1]", "permutation=true",
            "kind=3", "setup=null", 'setup="bogus"', 'seed="x"', "seed=true", "tasks={}",
            "non-utf8-vocab",
        ],
    )
    def test_malformed_benchmark_manifest_is_data_error(self, tmp_path, capsys, damage):
        """A bad benchmark.json value, or a vocab.txt that is not UTF-8, is
        a data error before any output, naming the file and the key."""
        bench = synth(tmp_path)
        named = bench / "benchmark.json"
        key, _, value = damage.partition("=")
        if value:
            manifest = json.loads(named.read_text(encoding="utf-8"))
            manifest[key] = json.loads(value)
            named.write_text(json.dumps(manifest), encoding="utf-8")
        elif damage == "non-utf8-vocab":
            named = bench / "vocab.txt"
            named.write_bytes(named.read_bytes() + b"\xff")
        else:
            key = "tasks"
            truncate_or_drop(named, damage, key)
        out = tmp_path / "run"
        code = main(["train", "--benchmark", str(bench), "--out", str(out)] + TRAIN_FAST)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(named) in err
        assert (f"'{key}'" in err) == (damage not in ("truncated", "non-utf8-vocab"))
        assert not out.exists()

    @pytest.mark.parametrize("into_task", [0, 1])
    def test_repeated_type_in_benchmark_manifest_is_data_error(self, tmp_path, capsys, into_task):
        """A type listed twice, within one task or across two, is a data
        error before any output."""
        bench = synth(tmp_path)
        manifest = json.loads((bench / "benchmark.json").read_text())
        repeated = manifest["tasks"][0]["types"][0]
        manifest["tasks"][into_task]["types"].append(repeated)
        (bench / "benchmark.json").write_text(json.dumps(manifest))
        out = tmp_path / "run"
        code = main(["train", "--benchmark", str(bench), "--out", str(out)] + TRAIN_FAST)
        assert code == EXIT_DATA
        assert f"repeat within or across tasks: ['{repeated}']" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["fewnerd", "toy"])
    def test_task_type_missing_from_inventory_is_data_error(self, tmp_path, capsys, kind):
        """A type that a task names but ``inventory`` lacks is a data
        error before any output. A Few-NERD-kind run used to train six
        steps and stop at the seventh; a toy-kind run never read the
        inventory."""
        if kind == "fewnerd":
            corpus = write_kind_corpus(tmp_path / "corpus", FEWNERD_FINE, bare=True)
            bench = tmp_path / "bench"
            assert main(
                ["synthesize", "--kind", "fewnerd", "--setup", "split-all",
                 "--corpus", str(corpus), "--out", str(bench)]
            ) == EXIT_OK
        else:
            bench = synth(tmp_path)
        named = bench / "benchmark.json"
        manifest = json.loads(named.read_text())
        dropped = "art-b" if kind == "fewnerd" else manifest["tasks"][-1]["types"][0]
        manifest["inventory"].remove(dropped)
        del manifest["grouping"][dropped]
        named.write_text(json.dumps(manifest))
        out = tmp_path / "run"
        code = main(["train", "--benchmark", str(bench), "--out", str(out)] + TRAIN_FAST)
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"{named}: 'tasks' name types not in 'inventory': ['{dropped}']" in err
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["cl", "noncl"])
    def test_task_without_types_is_data_error(self, tmp_path, capsys, mode):
        """Both modes stop before any output; CL used to train step 1
        and abort at step 2, non-CL to report the empty step."""
        bench = synth(tmp_path)
        manifest = json.loads((bench / "benchmark.json").read_text())
        manifest["tasks"][1]["types"] = []
        (bench / "benchmark.json").write_text(json.dumps(manifest))
        out = tmp_path / "run"
        code = main(
            ["train", "--benchmark", str(bench), "--mode", mode, "--out", str(out)] + TRAIN_FAST
        )
        assert code == EXIT_DATA
        assert f"task '{manifest['tasks'][1]['name']}' defines no entity types" in (
            capsys.readouterr().err
        )
        assert not out.exists()

    @pytest.mark.parametrize("name", ["train.txt", "train_full.txt"])
    @pytest.mark.parametrize("mode", ["cl", "noncl"])
    def test_task_without_training_sentences_is_data_error(self, tmp_path, capsys, mode, name):
        """Both modes stop before any output. With an empty train.txt, CL
        used to train step 1 and abort at step 2, and non-CL to train on
        the full annotations; an empty train_full.txt went unnoticed, and
        non-CL trained step 2 on task 1's sentences alone."""
        bench = synth(tmp_path)
        train_file = bench / "task_02" / name
        train_file.write_text("")
        out = tmp_path / "run"
        code = main(
            ["train", "--benchmark", str(bench), "--mode", mode, "--out", str(out)] + TRAIN_FAST
        )
        assert code == EXIT_DATA
        assert f"{train_file}: task 2 has no training sentences" in capsys.readouterr().err
        assert not out.exists()

    def test_overlong_sentence_fails_before_training(self, tmp_path, capsys):
        """Both modes check every split file, so non-CL also refuses a
        sentence that only train.txt holds."""
        bench = synth(tmp_path, **{"--tasks": 3})
        train_file = bench / "task_03" / "train.txt"
        index = train_file.read_text().count("\n\n") + 1
        with train_file.open("a") as fh:
            fh.write("\n" + "".join(f"tok{k}\tO\n" for k in range(40)))
        for mode in ("cl", "noncl"):
            out = tmp_path / f"run-{mode}"
            code = main(
                ["train", "--benchmark", str(bench), "--mode", mode, "--out", str(out)]
                + TRAIN_FAST
            )
            assert code == EXIT_DATA
            err = capsys.readouterr().err
            assert f"task 3 train sentence {index}: length 40 exceeds max_len 32" in err
            assert not out.exists()

    @pytest.mark.parametrize("model", ["spankl", "extendner", "addner"])
    def test_span_of_a_later_task_type_is_data_error(self, tmp_path, capsys, model):
        """A task-2 training span of a task-3 type stops both modes
        before any output. SpanKL used to write step 1 and exit 1 at
        step 2; the taggers trained on, ignoring the span."""
        bench = synth(tmp_path, **{"--tasks": 3})
        stray = json.loads((bench / "benchmark.json").read_text())["tasks"][2]["types"][0]
        train_file = bench / "task_02" / "train.txt"
        text = train_file.read_text(encoding="utf-8")
        train_file.write_text(text.replace("\tO\n", f"\tB-{stray}\n", 1), encoding="utf-8")
        for mode in ("cl", "noncl"):
            out = tmp_path / f"run-{mode}"
            code = main(
                ["train", "--benchmark", str(bench), "--model", model, "--mode", mode,
                 "--out", str(out)] + TRAIN_FAST
            )
            assert code == EXIT_DATA
            assert f"task 2 train sentence 0: type '{stray}' not in (" in capsys.readouterr().err
            assert not out.exists()

    def test_test_span_outside_the_inventory_is_data_error(self, tmp_path, capsys):
        """A Few-NERD-kind step-2 test span of a type outside the inventory
        stops the run before any output; it used to exit 1 at step 2
        ("grouping does not cover fine types") with a partial tree."""
        corpus = write_kind_corpus(tmp_path / "corpus", FEWNERD_FINE, bare=True)
        bench = tmp_path / "bench"
        assert main(
            ["synthesize", "--kind", "fewnerd", "--setup", "split-all",
             "--corpus", str(corpus), "--out", str(bench)]
        ) == EXIT_OK
        test_file = bench / "task_02" / "test.txt"
        text = test_file.read_text(encoding="utf-8")
        test_file.write_text(text.replace("\tO\n", "\tB-zoo-x\n", 1), encoding="utf-8")
        out = tmp_path / "run"
        code = main(["train", "--benchmark", str(bench), "--out", str(out)] + TRAIN_FAST)
        assert code == EXIT_DATA
        assert "task 2 test sentence 0: type 'zoo-x' not in (" in capsys.readouterr().err
        assert not out.exists()

    def test_multiple_seeds(self, tmp_path):
        bench = synth(tmp_path)
        out = tmp_path / "run_multi"
        code = main(
            ["train", "--benchmark", str(bench), "--seeds", "1,2",
             "--out", str(out)] + TRAIN_FAST
        )
        assert code == EXIT_OK
        assert (out / "run_s1").is_dir() and (out / "run_s2").is_dir()
        summary = (out / "sweep_summary.tsv").read_text().splitlines()
        assert len(summary) == 1 + 2 * 2  # header + 2 seeds x 2 steps


    def test_repeated_seed_is_usage_error(self, tmp_path, capsys):
        bench = synth(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--benchmark", str(bench), "--seeds", "1,2,1", "--out", str(out)])
        assert code == EXIT_USAGE
        assert "--seeds repeats [1]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("seeds", [",", "", " , "])
    def test_empty_seed_list_is_usage_error(self, tmp_path, capsys, seeds):
        """A --seeds that names no seed is refused before any output,
        rather than running nothing and failing on the missing root."""
        bench = synth(tmp_path)
        out = tmp_path / "run"
        code = main(["train", "--benchmark", str(bench), "--seeds", seeds, "--out", str(out)])
        assert code == EXIT_USAGE
        assert f"--seeds names no seed: {seeds!r}" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cli_report")
    bench = synth(tmp_path)
    cl_out, nc_out = tmp_path / "cl", tmp_path / "nc"
    assert main(
        ["train", "--benchmark", str(bench), "--mode", "cl",
         "--seeds", "1,2", "--out", str(cl_out)] + TRAIN_FAST
    ) == EXIT_OK
    assert main(
        ["train", "--benchmark", str(bench), "--mode", "noncl",
         "--seeds", "1,2", "--out", str(nc_out)] + TRAIN_FAST
    ) == EXIT_OK
    return tmp_path, cl_out, nc_out


def write_train_root(root: Path, model: str, mode: str, permutation: int, macro: dict) -> Path:
    """A hand-written train output directory: its manifest, and per seed
    the summary and curve files with the given per-step macro-F1 values."""
    for seed, values in macro.items():
        run = root / f"run_s{seed}"
        run.mkdir(parents=True)
        rows = [
            f"{model}\t{mode}\tsplit-all\t{permutation}\t{seed}\t{step}\t{value!r}\n"
            for step, value in enumerate(values, start=1)
        ]
        (run / f"summary_{mode}.tsv").write_text(
            "model\tmode\tsetup\tpermutation\tseed\tstep\tmacro_f1\n" + "".join(rows)
        )
        curves = [f"{step},__macro__,{value!r}\n" for step, value in enumerate(values, start=1)]
        (run / f"curves_{mode}.csv").write_text("step,type,f1\n" + "".join(curves))
    manifest = {
        "command": "train", "config": {"model": model}, "mode": mode, "seeds": sorted(macro),
        "benchmark_kind": "toy", "benchmark_setup": "split-all", "benchmark_steps": 2,
        "benchmark_permutation": permutation,
    }
    (root / "manifest.json").write_text(json.dumps(manifest))
    return root


# (model, mode, permutation) -> seed -> macro-F1 at steps 1 and 2; seed 3
# has no non-CL run and addner has CL runs only
HAND_RUNS = {
    ("spankl", "cl", 1): {1: (0.5, 0.25), 2: (0.75, 0.5), 3: (0.625, 0.375)},
    ("spankl", "cl", 2): {1: (0.25, 0.25), 2: (0.5, 0.25), 3: (0.875, 0.625)},
    ("spankl", "noncl", 1): {1: (0.75, 0.5), 2: (0.875, 0.875)},
    ("spankl", "noncl", 2): {1: (0.625, 0.5), 2: (1.0, 0.875)},
    ("addner", "cl", 1): {1: (0.5, 0.375), 2: (0.25, 0.125), 3: (0.75, 0.5)},
}


class TestReport:
    def test_delta_table_and_files(self, trained):
        tmp_path, cl_out, nc_out = trained
        rep = tmp_path / "rep"
        code = main(["report", str(cl_out), str(nc_out), "--out", str(rep)])
        assert code == EXIT_OK
        text = (rep / "report.txt").read_text()
        assert "Δ" in text and "non-CL" in text
        deltas = (rep / "deltas.tsv").read_text().splitlines()
        # per-seed Δ rows exist: 2 seeds x 2 steps
        assert len(deltas) == 1 + 4
        merged = (rep / "merged_summary.tsv").read_text().splitlines()
        assert len(merged) == 1 + 2 * 2 * 2  # modes x seeds x steps

    def test_report_arithmetic_over_permutations_and_seeds(self, tmp_path):
        """Each (model, mode, seed, step) cell is the mean over the
        permutations; a table cell is the median of those over the seeds,
        and Δ the median over the seeds that have both modes."""
        roots = [
            str(write_train_root(tmp_path / f"{model}_{mode}_p{perm}", model, mode, perm, macro))
            for (model, mode, perm), macro in HAND_RUNS.items()
        ]
        rep = tmp_path / "rep"
        assert main(["report", *roots, "--out", str(rep)]) == EXIT_OK
        assert (rep / "report.txt").read_text().splitlines() == [
            "kind: toy   setup: split-all   steps: 2",
            "permutations: [1, 2]   seeds: [1, 2, 3]",
            "scores: macro-F1 x 100, mean over permutations, median over seeds",
            "",
            "model        metric   step1  step2",
            "addner       non-CL     --      --  ",
            "addner       CL        50.00   37.50",
            "addner       Δ          --      --  ",
            "",
            "spankl       non-CL    81.25   68.75",
            "spankl       CL        62.50   37.50",
            "spankl       Δ        -31.25  -37.50",
            "",
            "per-seed values at the final step:",
            "  addner       seed 1:  CL  37.50  non-CL   --    Δ   --  ",
            "  addner       seed 2:  CL  12.50  non-CL   --    Δ   --  ",
            "  addner       seed 3:  CL  50.00  non-CL   --    Δ   --  ",
            "  spankl       seed 1:  CL  25.00  non-CL  50.00  Δ -25.00",
            "  spankl       seed 2:  CL  37.50  non-CL  87.50  Δ -50.00",
            "  spankl       seed 3:  CL  50.00  non-CL   --    Δ   --  ",
        ]
        assert (rep / "deltas.tsv").read_text().splitlines() == [
            "model\tseed\tstep\tdelta",
            "spankl\t1\t1\t-0.3125",
            "spankl\t1\t2\t-0.25",
            "spankl\t2\t1\t-0.3125",
            "spankl\t2\t2\t-0.5",
        ]
        merged = (rep / "merged_summary.tsv").read_text().splitlines()
        assert len(merged) == 1 + 2 * sum(len(macro) for macro in HAND_RUNS.values())
        assert merged[1] == "addner\tcl\t1\t1\t1\t0.5"
        curves = (rep / "curves.csv").read_text().splitlines()
        assert curves[1:3] == ["spankl,cl,1,1,1,__macro__,0.5", "spankl,cl,1,1,2,__macro__,0.25"]

    def test_run_in_two_roots_is_data_error(self, tmp_path, capsys):
        """Two roots holding the same (model, mode, permutation, seed) run
        stop the report before it writes anything, naming both roots."""
        macro = HAND_RUNS[("spankl", "cl", 1)]
        first = write_train_root(tmp_path / "a", "spankl", "cl", 1, macro)
        second = write_train_root(tmp_path / "b", "spankl", "cl", 1, {2: macro[2]})
        rep = tmp_path / "rep"
        assert main(["report", str(first), str(second), "--out", str(rep)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert "('spankl', 'cl', 1, 2)" in err and str(first) in err and str(second) in err
        assert not rep.exists()

    @pytest.mark.parametrize(
        "damage, message",
        [
            ("short row", "summary_cl.tsv:3: expected 7 fields, got 6"),
            ("empty", "summary_cl.tsv: no header line"),
            ("missing", "No such file or directory"),
            ("non-utf8", "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["short-row", "empty", "missing", "non-utf8"],
    )
    def test_damaged_summary_record_is_data_error(self, tmp_path, capsys, damage, message):
        root = write_train_root(tmp_path / "a", "spankl", "cl", 1, HAND_RUNS[("spankl", "cl", 1)])
        summary = root / "run_s2" / "summary_cl.tsv"
        if damage == "short row":
            summary.write_text(summary.read_text().replace("\t0.5\n", "\n"))
        elif damage == "empty":
            summary.write_text("")
        elif damage == "non-utf8":
            summary.write_bytes(summary.read_bytes() + b"\xff")
        else:
            summary.unlink()
        rep = tmp_path / "rep"
        assert main(["report", str(root), "--out", str(rep)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert message in err and str(root / "run_s2") in err
        assert not rep.exists()

    def test_curve_file_rows(self, trained):
        tmp_path, cl_out, nc_out = trained
        rep = tmp_path / "rep2"
        assert main(["report", str(cl_out), "--out", str(rep)]) == EXIT_OK
        lines = (rep / "curves.csv").read_text().splitlines()
        assert lines[0] == "model,mode,permutation,seed,step,type,f1"
        # one macro row per (seed, step) at least
        assert sum(",__macro__," in l for l in lines) == 2 * 2

    def test_incompatible_benchmarks_rejected(self, trained, tmp_path):
        _, cl_out, _ = trained
        other_bench = synth(tmp_path, name="bench3", **{"--tasks": 3, "--seed": 1})
        out = tmp_path / "other_run"
        assert main(
            ["train", "--benchmark", str(other_bench), "--out", str(out)] + TRAIN_FAST
        ) == EXIT_OK
        code = main(["report", str(cl_out), str(out), "--out", str(tmp_path / "repx")])
        assert code == EXIT_DATA

    @pytest.mark.parametrize(
        "damage",
        [
            "truncated", "missing-key", "seeds=1", 'seeds=["1"]', "seeds=[true]", "config={}",
            'config={"model": 3}', "config=[]", 'mode="both"', "benchmark_steps=0",
            'benchmark_steps="3"', "benchmark_permutation=1.5", "benchmark_kind=[]",
        ],
    )
    def test_malformed_train_manifest_is_data_error(self, trained, tmp_path, capsys, damage):
        _, cl_out, _ = trained
        run = tmp_path / "run"
        (run / "run_s1").mkdir(parents=True)
        (run / "manifest.json").write_bytes((cl_out / "manifest.json").read_bytes())
        key, _, value = damage.partition("=")
        if value:
            manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
            manifest[key] = json.loads(value)
            (run / "manifest.json").write_text(json.dumps(manifest), encoding="utf-8")
        else:
            key = "seeds"
            truncate_or_drop(run / "manifest.json", damage, key)
        code = main(["report", str(run), "--out", str(tmp_path / "rep")])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert str(run / "manifest.json") in err
        assert (f"'{key}'" in err) == (damage != "truncated")
        assert not (tmp_path / "rep").exists()

    def test_out_that_is_an_input_is_usage_error(self, trained, tmp_path, capsys):
        _, cl_out, nc_out = trained
        run = tmp_path / "cl"
        shutil.copytree(cl_out, run)
        before = tree_bytes(run)
        code = main(["report", str(nc_out), str(run), "--out", str(run / ".")])
        assert code == EXIT_USAGE
        assert "is also an input directory" in capsys.readouterr().err
        assert tree_bytes(run) == before
        assert main(["report", str(run), str(nc_out), "--out", str(tmp_path / "rep")]) == EXIT_OK

    def test_report_on_non_run_dir_is_data_error(self, tmp_path):
        code = main(["report", str(tmp_path), "--out", str(tmp_path / "rep")])
        assert code == EXIT_DATA


class TestConfigFileParsing:
    def test_basic(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("# comment\nalpha = 1.5\n\nmodel=spankl\n")
        assert parse_config_file(p) == {"alpha": "1.5", "model": "spankl"}

    def test_malformed_line_rejected(self, tmp_path):
        p = tmp_path / "c.cfg"
        p.write_text("alpha 1.5\n")
        from clner.cli import UsageError

        with pytest.raises(UsageError):
            parse_config_file(p)
