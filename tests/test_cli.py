"""Command-line interface: structure, exit codes, idempotency."""
from __future__ import annotations

import json
from pathlib import Path

import pytest

from clner.cli import EXIT_DATA, EXIT_OK, EXIT_USAGE, main, parse_config_file


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

    def test_missing_benchmark_is_data_error(self, tmp_path):
        code = main(
            ["train", "--benchmark", str(tmp_path / "absent"), "--out", str(tmp_path / "x")]
        )
        assert code == EXIT_DATA

    def test_overlong_sentence_fails_before_training(self, tmp_path, capsys):
        bench = synth(tmp_path, **{"--tasks": 3})
        train_file = bench / "task_03" / "train.txt"
        index = train_file.read_text().count("\n\n") + 1
        with train_file.open("a") as fh:
            fh.write("\n" + "".join(f"tok{k}\tO\n" for k in range(40)))
        out = tmp_path / "run"
        code = main(
            ["train", "--benchmark", str(bench), "--out", str(out)] + TRAIN_FAST
        )
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"task 3 train sentence {index}: length 40 exceeds max_len 32" in err
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
