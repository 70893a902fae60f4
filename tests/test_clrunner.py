"""CL protocol orchestration: teacher caching, dev selection, checkpoint
resume, determinism, and the non-CL reference."""
from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from clner import clrunner
from clner import numcore as nc
from clner import spankl
from clner.cldata import (
    default_toy_spec,
    generate_toy_corpus,
    permutations,
    split3,
    synthesize,
)
from clner.clrunner import (
    RunConfig,
    RunError,
    cache_digest,
    load_step_model,
    run_cl,
    run_noncl,
)
from clner.encoder import TransformerEncoder, Vocab
from clner.metrics import Counts, StepEval, TypeScore
from clner.spankl import SpanKLModel
from helpers import reference_encode, reference_span_scores, sigmoid


TINY = dict(
    epochs=3,
    batch_size=8,
    d_model=16,
    n_heads=2,
    d_span=8,
    max_len=32,
    seed=5,
)


@pytest.fixture(scope="module")
def bench():
    corpus = generate_toy_corpus(default_toy_spec(90), seed=0)
    train, dev, test = split3(corpus, seed=0)
    seq = permutations("toy", corpus=corpus, n_tasks=2, count=1, seed=0)[0]
    return synthesize(train, dev, test, seq, "split-all", seed=0)


@pytest.fixture(scope="module")
def bench3():
    corpus = generate_toy_corpus(default_toy_spec(90), seed=1)
    train, dev, test = split3(corpus, seed=1)
    seq = permutations("toy", corpus=corpus, n_tasks=3, count=1, seed=1)[0]
    return synthesize(train, dev, test, seq, "split-all", seed=1)


class TestRunConfig:
    def test_validation_lists_every_problem(self):
        cfg = RunConfig(model="nope", epochs=0, batch_size=0, beta=-1)
        problems = cfg.validate()
        assert len(problems) == 4
        assert any("model" in p for p in problems)
        assert any("epochs" in p for p in problems)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_floats_rejected(self, value):
        floats = [f.name for f in dataclasses.fields(RunConfig) if isinstance(f.default, float)]
        assert {"lr_heads", "lr_encoder", "weight_decay", "alpha", "beta", "pad_constant"} <= set(floats)
        for name in floats:
            problems = RunConfig(**{name: value}).validate()
            assert f"{name}: must be finite, got {value}" in problems

    def test_from_mapping_coerces_types(self):
        cfg = RunConfig.from_mapping(
            {"model": "extendner", "epochs": "7", "alpha": "0.5", "freeze_encoder": "true"}
        )
        assert cfg.model == "extendner"
        assert cfg.epochs == 7
        assert cfg.alpha == 0.5
        assert cfg.freeze_encoder is True

    def test_from_mapping_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            RunConfig.from_mapping({"optimizer": "sgd"})


class TestRunCl:
    def test_single_task_beta_irrelevant(self, bench):
        corpus = generate_toy_corpus(default_toy_spec(60), seed=3)
        train, dev, test = split3(corpus, seed=3)
        seq = permutations("toy", corpus=corpus, n_tasks=1, count=1, seed=3)[0]
        single = synthesize(train, dev, test, seq, "split-all", seed=3)
        a = run_cl(RunConfig(**TINY, beta=1.0), single)
        b = run_cl(RunConfig(**TINY, beta=0.0), single)
        assert a.steps[0].eval.macro == b.steps[0].eval.macro
        assert a.steps[0].teacher_digest is None

    def test_teacher_digest_once_per_late_step(self, bench):
        result = run_cl(RunConfig(**TINY), bench)
        assert result.steps[0].teacher_digest is None
        assert result.steps[1].teacher_digest is not None

    def test_beta_zero_skips_teacher(self, bench):
        result = run_cl(RunConfig(**TINY, beta=0.0), bench)
        assert all(r.teacher_digest is None for r in result.steps)

    def test_deterministic_metrics(self, bench):
        a = run_cl(RunConfig(**TINY), bench)
        b = run_cl(RunConfig(**TINY), bench)
        for ra, rb in zip(a.steps, b.steps):
            assert ra.eval.macro == rb.eval.macro
            assert ra.dev_f1_per_epoch == rb.dev_f1_per_epoch
            for t in ra.eval.scores:
                assert ra.eval.scores[t].f1 == rb.eval.scores[t].f1

    def test_dev_selection_exports_best_epoch(self, bench, tmp_path):
        out = tmp_path / "run"
        result = run_cl(RunConfig(**TINY), bench, out)
        for record in result.steps:
            assert max(record.dev_f1_per_epoch) == record.dev_f1_per_epoch[
                record.selected_epoch - 1
            ]
            dev_record = json.loads(
                (out / "cl" / f"step_{record.step:02d}" / "dev_record.json").read_text()
            )
            assert dev_record["selected_epoch"] == record.selected_epoch

    def test_step_artifacts_on_disk(self, bench, tmp_path):
        out = tmp_path / "run"
        run_cl(RunConfig(**TINY), bench, out)
        for step in (1, 2):
            d = out / "cl" / f"step_{step:02d}"
            assert (d / "checkpoint.bin").exists()
            assert (d / "predictions.jsonl").exists()
            first = json.loads((d / "predictions.jsonl").read_text().splitlines()[0])
            assert set(first) == {"index", "spans"}
        assert (out / "metrics_cl.tsv").exists()
        assert (out / "curves_cl.csv").exists()

    def test_dump_matrices_adds_matrices_only(self, bench, tmp_path):
        """The dumped matrices are, bit for bit, the sigmoid of the
        reloaded step model's one-sentence logits."""
        run_cl(RunConfig(**TINY), bench, tmp_path / "plain")
        dump_config = RunConfig(**TINY, dump_matrices=True)
        run_cl(dump_config, bench, tmp_path / "dump")

        def records(name):
            path = tmp_path / name / "cl" / "step_02" / "predictions.jsonl"
            return [json.loads(line) for line in path.read_text().splitlines()]

        plain, dump = records("plain"), records("dump")
        learned = set(bench.sequence.cumulative_types(2))
        model = load_step_model(dump_config, bench, tmp_path / "dump", step=2)
        vocab = Vocab(bench.vocab_tokens)
        assert len(dump) == len(bench.tasks[1].test)
        for a, b, sent in zip(plain, dump, bench.tasks[1].test):
            assert b["spans"] == a["spans"]
            assert set(b["matrices"]) == learned
            with nc.no_grad():
                logits = model.logits(vocab.encode(sent.tokens))
            for t, m in b["matrices"].items():
                np.testing.assert_array_equal(np.array(m), sigmoid(logits[t]).data)

    def test_resume_reproduces_teacher_cache(self, bench, tmp_path):
        out = tmp_path / "run"
        config = RunConfig(**TINY)
        run_cl(config, bench, out)
        # fresh model loaded from the step-1 checkpoint must produce the
        # exact cache the continuous run produced at step 2
        model = load_step_model(config, bench, out, step=1)
        old_types = bench.sequence.cumulative_types(1)
        vocab = Vocab(bench.vocab_tokens)
        cache = model.teacher_predict(
            [vocab.encode(s.tokens) for s in bench.tasks[1].train], old_types
        )
        digest = cache_digest(cache)
        recorded = (out / "cl" / "step_02" / "teacher_digest.txt").read_text().strip()
        assert digest == recorded

    def test_non_finite_loss_aborts_with_step_epoch_and_batch(self, bench, monkeypatch):
        batch_loss = SpanKLModel.batch_loss

        def poisoned(self, ids, gold, current, distilled, *rest):
            loss = batch_loss(self, ids, gold, current, distilled, *rest)
            return loss if distilled is None else loss * float("nan")

        monkeypatch.setattr(SpanKLModel, "batch_loss", poisoned)
        with pytest.raises(RunError, match="step 2: non-finite loss nan at epoch 1, batch 1"):
            run_cl(RunConfig(**TINY), bench)

    def test_non_finite_gradient_aborts_before_the_update(self, bench, monkeypatch):
        # the loss stays finite; one gradient entry turns NaN after backward
        opts, before = [], {}
        optimizer, backward = clrunner._Trainer.optimizer, nc.Tensor.backward
        poison_at = [2, 2]  # step 2 (second optimizer), second backward

        def keep(self, model):
            opts.append(optimizer(self, model))
            return opts[-1]

        def poisoned(loss):
            backward(loss)
            if len(opts) == poison_at[0]:
                poison_at[1] -= 1
                if poison_at[1] == 0:
                    params = opts[-1].parameters()
                    before.update({id(p): p.data.copy() for p in params})
                    params[-1].grad.flat[0] = np.nan

        monkeypatch.setattr(clrunner._Trainer, "optimizer", keep)
        monkeypatch.setattr(nc.Tensor, "backward", poisoned)
        with pytest.raises(RunError, match="step 2: non-finite gradient at epoch 1, batch 2"):
            run_cl(RunConfig(**TINY), bench)
        assert before
        for p in opts[-1].parameters():
            np.testing.assert_array_equal(p.data, before[id(p)])

    def test_missing_checkpoint_aborts_with_step(self, bench, tmp_path):
        with pytest.raises(RunError) as err:
            load_step_model(RunConfig(**TINY), bench, tmp_path, step=1)
        assert err.value.step == 1

    def test_head_growth_precedes_training(self, bench, tmp_path):
        out = tmp_path / "run"
        run_cl(RunConfig(**TINY), bench, out)
        from clner.numcore import load_checkpoint

        step1 = load_checkpoint(out / "cl" / "step_01" / "checkpoint.bin")
        step2 = load_checkpoint(out / "cl" / "step_02" / "checkpoint.bin")
        t1 = bench.sequence.tasks[0].types[0]
        t2 = bench.sequence.tasks[1].types[0]
        assert f"heads.{t1}.start_w" in step1
        assert f"heads.{t2}.start_w" not in step1
        assert f"heads.{t2}.start_w" in step2


class TestStepPlan:
    """What each protocol trains at each step: the types, the sentences
    and whether a teacher is used."""

    @staticmethod
    def plan(runner, config, bench, monkeypatch):
        steps = []
        train_step = clrunner._Trainer.train_step

        def spy(self, model, step, train_sents, dev_sents, types, distilled):
            steps.append((tuple(types), len(train_sents), distilled is not None))
            return train_step(self, model, step, train_sents, dev_sents, types, distilled)

        monkeypatch.setattr(clrunner._Trainer, "train_step", spy)
        runner(dataclasses.replace(config, epochs=1), bench)
        return steps

    @pytest.mark.parametrize("beta", [1.0, 0.0])
    def test_cl_trains_each_task_on_its_data(self, bench3, monkeypatch, beta):
        steps = self.plan(run_cl, RunConfig(**TINY, beta=beta), bench3, monkeypatch)
        assert steps == [
            (task.spec.types, len(task.train), beta > 0 and step > 1)
            for step, task in enumerate(bench3.tasks, start=1)
        ]

    @pytest.mark.parametrize("model", ["spankl", "extendner"])
    def test_noncl_trains_every_learned_type_on_the_union(self, bench3, monkeypatch, model):
        steps = self.plan(run_noncl, RunConfig(**TINY, model=model), bench3, monkeypatch)
        assert steps == [
            (bench3.sequence.cumulative_types(step), len(bench3.noncl_train(step)), False)
            for step in (1, 2, 3)
        ]


class TestRunNonCl:
    def test_step_one_identical_to_cl(self, bench):
        cfg = RunConfig(**TINY)
        cl = run_cl(cfg, bench)
        noncl = run_noncl(cfg, bench)
        assert cl.steps[0].eval.macro == noncl.steps[0].eval.macro
        assert cl.steps[0].dev_f1_per_epoch == noncl.steps[0].dev_f1_per_epoch
        for t in cl.steps[0].eval.scores:
            assert cl.steps[0].eval.scores[t].f1 == noncl.steps[0].eval.scores[t].f1

    def test_union_sizes_under_split(self, bench3):
        for step in (1, 2, 3):
            union = bench3.noncl_train(step)
            assert len(union) == sum(len(t.train_full) for t in bench3.tasks[:step])

    def test_tagger_models_run_noncl(self, bench):
        for model in ("extendner", "addner"):
            cfg = dataclasses.replace(RunConfig(**TINY), model=model, epochs=2)
            result = run_noncl(cfg, bench)
            assert len(result.steps) == 2


@pytest.mark.parametrize("model", ["spankl", "extendner", "addner"])
def test_load_step_model_reloads_every_noncl_step(bench, tmp_path, model):
    """Each non-CL step's model, rebuilt from that step's init and growth
    streams and its checkpoint, decodes the step's test set as the run
    recorded."""
    config = RunConfig(**TINY, model=model)
    run_noncl(config, bench, tmp_path)
    vocab = Vocab(bench.vocab_tokens)
    for step, task in enumerate(bench.tasks, start=1):
        reloaded = load_step_model(config, bench, tmp_path, step, mode="noncl")
        path = tmp_path / "noncl" / f"step_{step:02d}" / "predictions.jsonl"
        want = [json.loads(line)["spans"] for line in path.read_text().splitlines()]
        got = reloaded.predict_many([vocab.encode(s.tokens) for s in task.test])
        assert [[list(span) for span in spans] for spans in got] == want


def test_fused_layers_write_the_run_trees_of_the_composed_graph(bench, tmp_path, monkeypatch):
    """CL and non-CL runs of the span model and ExtendNER, at a batch size
    that leaves a short last batch and with uneven loss weights, write
    byte-identical trees (checkpoints, predictions with matrices, teacher
    digests, records) whether the encoder and the span scorer run as the
    fused ops or as the graph of primitive ops they replace."""
    config = RunConfig(
        **(TINY | dict(epochs=2, batch_size=5)),
        alpha=0.7, beta=1.3, weight_decay=0.01, dump_matrices=True,
    )

    def write(root):
        for model in ("spankl", "extendner"):
            cfg = dataclasses.replace(config, model=model)
            run_cl(cfg, bench, root / model)
            run_noncl(cfg, bench, root / model)
        return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}

    fused = write(tmp_path / "fused")
    with monkeypatch.context() as patch:
        patch.setattr(TransformerEncoder, "encode", reference_encode)
        patch.setattr(spankl, "span_logits", reference_span_scores)
        for name in ("embed", "attention_block", "span_scores"):
            patch.setattr(nc, name, None)  # a fused call would now fail
        composed = write(tmp_path / "composed")
    assert len(fused) > 30 and fused.keys() == composed.keys()
    assert [name for name in fused if fused[name] != composed[name]] == []


class TestSchedulesAndFreezing:
    def test_warmup_cosine_runs(self, bench):
        cfg = dataclasses.replace(
            RunConfig(**TINY), schedule="warmup_cosine", warmup_steps=4, epochs=2
        )
        result = run_cl(cfg, bench)
        assert len(result.steps) == 2

    def test_lr_factor_shape(self):
        tr = object.__new__(clrunner._Trainer)
        tr.config = dataclasses.replace(RunConfig(**TINY), warmup_steps=10)
        assert tr._lr_factor(5, 100) == pytest.approx(0.5)
        assert tr._lr_factor(10, 100) == pytest.approx(1.0)
        assert tr._lr_factor(100, 100) == pytest.approx(0.0, abs=1e-12)
        assert tr._lr_factor(55, 100) == pytest.approx(0.5)

    def test_frozen_encoder_parameters_stay_put(self, bench, tmp_path, monkeypatch):
        cfg = dataclasses.replace(RunConfig(**TINY), freeze_encoder=True, epochs=2)
        from clner.clrunner import build_model, stream_rng
        from clner.numcore import load_checkpoint

        built = []

        def keep_model(*args):
            built.append(build_model(*args))
            return built[-1]

        monkeypatch.setattr(clrunner, "build_model", keep_model)
        run_cl(cfg, bench, tmp_path / "run")
        # backward never ran through the frozen encoder: no gradient piled up
        for name, tensor in built[0].encoder.named_parameters().items():
            assert tensor.grad is None or not np.any(tensor.grad), name
        trained = load_checkpoint(tmp_path / "run" / "cl" / "step_02" / "checkpoint.bin")
        fresh = build_model(cfg, len(Vocab(bench.vocab_tokens)), stream_rng(cfg.seed, 0, 1))
        for name, tensor in fresh.encoder.named_parameters().items():
            np.testing.assert_array_equal(trained[name], tensor.data)
        # heads must still have trained
        head_key = f"heads.{bench.sequence.tasks[0].types[0]}.start_w"
        head_fresh = build_model(cfg, len(Vocab(bench.vocab_tokens)), stream_rng(cfg.seed, 0, 1))
        head_fresh.grow(bench.sequence.tasks[0].types, stream_rng(cfg.seed, 1, 1))
        assert not np.array_equal(trained[head_key], head_fresh.state_arrays()[head_key])


class TestRunRecords:
    @staticmethod
    def step(step, found):
        """A StepEval whose type ``t`` scored ``found[t]`` true positives of 4."""
        counts = {t: Counts(tp, 0, 4 - tp) for t, tp in found.items()}
        scores = {t: TypeScore.from_counts(c) for t, c in counts.items()}
        return StepEval(step, counts, scores, 0.5)

    @pytest.mark.parametrize(
        "kind, steps, want",
        [
            (
                "toy",
                [{"PER": 2, "LOC": 4}, {"PER": 1, "ORG": 3, "LOC": 0}],
                ["1,LOC,1.0", "1,PER,0.6666666666666666", "1,__macro__,0.5",
                 "2,LOC,0.0", "2,ORG,0.8571428571428571", "2,PER,0.4", "2,__macro__,0.5"],
            ),
            (
                "fewnerd",
                [{"person-actor": 2, "person": 2}, {"person-actor": 4, "location-GPE": 1,
                                                    "person": 4, "location": 1}],
                ["1,person,0.6666666666666666", "1,__macro__,0.5",
                 "2,location,0.4", "2,person,1.0", "2,__macro__,0.5"],
            ),
        ],
    )
    def test_curves_rows_per_kind(self, tmp_path, kind, steps, want):
        """Toy curves list every scored type; Few-NERD curves list only the
        coarse groups, not the "coarse-fine" types."""
        result = clrunner.RunResult("cl", RunConfig(), "split-all", kind, 1)
        for step, found in enumerate(steps, start=1):
            result.steps.append(clrunner.StepRecord(step, [0.5], 1, self.step(step, found)))
        clrunner.write_run_records(tmp_path, result)
        lines = (tmp_path / "curves_cl.csv").read_text(encoding="utf-8").splitlines()
        assert lines == ["step,type,f1"] + want
