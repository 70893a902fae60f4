"""Span scoring, multi-label BCE, Bernoulli KL distillation, head growth,
and flat decoding."""
from __future__ import annotations

import math

import numpy as np
import pytest

from clner import numcore as nc
from clner import spankl
from clner.encoder import EncoderConfig, TransformerEncoder
from helpers import (
    assert_gradients_match,
    bce_cell,
    bernoulli_kl_cell,
    greedy_decode_oracle,
)


def make_model(seed=0, d_model=16, n_heads=2, d_span=4, max_len=12):
    rng = np.random.default_rng(seed)
    enc = TransformerEncoder(
        20, EncoderConfig(d_model=d_model, n_heads=n_heads, max_len=max_len, dropout=0.1), rng
    )
    return spankl.SpanKLModel(enc, d_span=d_span)


def fixed_head(d_hidden, d_span, start_out, end_out):
    """A one-type stack of heads whose projections ignore the input:
    weights 0, bias = wanted output, so every token maps to the same
    boundary vector. Returns (start_w, start_b, end_w, end_b)."""
    return (
        nc.parameter(np.zeros((1, d_hidden, d_span))),
        nc.parameter(np.asarray(start_out, dtype=np.float64).reshape(1, 1, d_span)),
        nc.parameter(np.zeros((1, d_hidden, d_span))),
        nc.parameter(np.asarray(end_out, dtype=np.float64).reshape(1, 1, d_span)),
    )


class TestSpanLogits:
    def test_zero_start_projection_zeroes_all_logits(self):
        hidden = nc.tensor(np.random.default_rng(1).normal(size=(1, 3, 8)))
        head = fixed_head(8, 4, [0, 0, 0, 0], [1, 2, 3, 4])
        out = spankl.span_logits(hidden, *head)
        np.testing.assert_array_equal(out.data, np.zeros((1, 1, 3, 3)))

    def test_hand_evaluated_one_dimensional(self):
        # start vector [2], end vector [3], d_span 1 -> 2*3*1^(-0.5) = 6
        hidden = nc.tensor(np.ones((1, 2, 8)))
        head = fixed_head(8, 1, [2.0], [3.0])
        out = spankl.span_logits(hidden, *head)
        np.testing.assert_allclose(out.data, 6.0)

    def test_hand_evaluated_scale_factor(self):
        # both boundary vectors all-ones, d_span 4 -> 4 * 4^(-0.5) = 2
        hidden = nc.tensor(np.ones((1, 3, 8)))
        head = fixed_head(8, 4, [1, 1, 1, 1], [1, 1, 1, 1])
        out = spankl.span_logits(hidden, *head)
        np.testing.assert_allclose(out.data, 2.0)

    def test_hidden_width_mismatch_rejected(self):
        hidden = nc.tensor(np.ones((1, 3, 6)))
        with pytest.raises(nc.ShapeError):
            spankl.span_logits(hidden, *fixed_head(8, 4, [0] * 4, [0] * 4))


class TestBceLoss:
    def test_single_cell_logit_zero_gold_one(self):
        m = {"PER": nc.tensor([[0.0]])}
        loss = spankl.bce_loss(m, {"PER": [(1, 1)]}, ["PER"])
        assert loss.item() == pytest.approx(0.693147, abs=1e-6)

    def test_saturated_correct_prediction(self):
        logits = np.full((3, 3), -20.0)
        for i, j in [(0, 1), (2, 2)]:
            logits[i, j] = 20.0
        m = {"PER": nc.tensor(logits)}
        loss = spankl.bce_loss(m, {"PER": [(1, 2), (3, 3)]}, ["PER"])
        assert loss.item() < 1e-6

    def test_matches_per_cell_oracle(self):
        logits = np.array([[0.3, -0.2], [9.0, 0.1]])
        m = {"PER": nc.tensor(logits)}
        loss = spankl.bce_loss(m, {"PER": [(1, 1)]}, ["PER"])
        want = bce_cell(0.3, 1.0) + bce_cell(-0.2, 0.0) + bce_cell(0.1, 0.0)
        assert loss.item() == pytest.approx(want, abs=1e-12)

    def test_gold_outside_bounds_rejected(self):
        m = {"PER": nc.tensor(np.zeros((2, 2)))}
        with pytest.raises(ValueError):
            spankl.bce_loss(m, {"PER": [(1, 3)]}, ["PER"])

    def test_gold_type_outside_current_rejected(self):
        m = {"PER": nc.tensor(np.zeros((2, 2)))}
        with pytest.raises(ValueError):
            spankl.bce_loss(m, {"ORG": [(1, 1)]}, ["PER"])

    def test_nonnegative_on_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            n = int(rng.integers(1, 6))
            m = {"A": nc.tensor(rng.normal(scale=3, size=(n, n)))}
            gold = [(i, int(rng.integers(i, n + 1))) for i in rng.integers(1, n + 1, 2)]
            assert spankl.bce_loss(m, {"A": gold}, ["A"]).item() >= 0.0


class TestKdLoss:
    def test_zero_when_teacher_equals_student(self):
        rng = np.random.default_rng(3)
        logits = rng.uniform(-8, 8, size=(4, 4))
        probs = 1.0 / (1.0 + np.exp(-logits))
        loss = spankl.kd_loss({"A": nc.tensor(logits)}, {"A": probs}, ["A"])
        assert abs(loss.item()) < 1e-12

    def test_limiting_case_log_two(self):
        # teacher certainty vs an undecided student approaches log 2; the
        # clamp at 1 - 1e-7 bounds how close the limit can be approached
        eps = 1e-9
        loss = spankl.kd_loss(
            {"A": nc.tensor([[0.0]])}, {"A": np.array([[1.0 - eps]])}, ["A"]
        )
        assert loss.item() == pytest.approx(math.log(2.0), abs=1e-5)

    def test_oracle_value_point_eight_point_six(self):
        # frozen from the definition evaluated at 30-digit precision
        logit = math.log(0.6 / 0.4)  # sigmoid^-1(0.6)
        loss = spankl.kd_loss({"A": nc.tensor([[logit]])}, {"A": np.array([[0.8]])}, ["A"])
        want = bernoulli_kl_cell(0.8, 0.6)
        assert want == pytest.approx(0.09151622184943568, abs=1e-15)
        assert loss.item() == pytest.approx(want, abs=1e-9)

    def test_missing_distilled_type_rejected(self):
        with pytest.raises(ValueError):
            spankl.kd_loss({"A": nc.tensor([[0.0]])}, {}, ["A"])

    def test_unexpected_distilled_type_rejected(self):
        mats = {"A": nc.tensor([[0.0]])}
        dist = {"A": np.array([[0.5]]), "B": np.array([[0.5]])}
        with pytest.raises(ValueError):
            spankl.kd_loss(mats, dist, ["A"])

    def test_nonnegative_and_zero_iff_equal(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 5))
            logits = rng.uniform(-8, 8, size=(n, n))
            ref = rng.uniform(0.01, 0.99, size=(n, n))
            val = spankl.kd_loss({"A": nc.tensor(logits)}, {"A": ref}, ["A"]).item()
            assert val >= 0.0
            # equality only at matching probabilities
            same = spankl.kd_loss(
                {"A": nc.tensor(logits)}, {"A": 1 / (1 + np.exp(-logits))}, ["A"]
            ).item()
            assert abs(same) < 1e-12
            if not np.allclose(ref, 1 / (1 + np.exp(-logits)), atol=1e-6):
                assert val > 0.0


class TestObjective:
    """The fused objective against alpha * BCE + beta * KL summed cell by
    cell over a padded batch of mixed lengths."""

    TYPES = ["PER", "ORG", "LOC", "MISC"]
    CURRENT = ["ORG", "MISC"]
    LENGTHS = np.array([5, 2, 4])
    GOLDS = [{"ORG": [(1, 3), (5, 5)], "MISC": [(2, 2)]}, {"MISC": [(1, 2)]}, {}]

    def batch(self, seed):
        rng = np.random.default_rng(seed)
        logits = rng.normal(scale=3.0, size=(3, 4, 5, 5))
        teacher = [
            {t: rng.uniform(0.0, 1.0, size=(n, n)) for t in ("PER", "LOC")} for n in self.LENGTHS
        ]
        teacher[0]["PER"][0, 0], teacher[2]["LOC"][1, 3] = 1.0, 0.0  # hit the clamp
        return logits, teacher

    def oracle(self, logits, teacher, alpha, beta):
        want = 0.0
        for b, n in enumerate(self.LENGTHS):
            for k, t in enumerate(self.TYPES):
                for i in range(n):
                    for j in range(i, n):
                        z = logits[b, k, i, j]
                        if t in self.CURRENT:
                            gold = float((i + 1, j + 1) in self.GOLDS[b].get(t, []))
                            want += alpha * bce_cell(z, gold)
                        elif teacher is not None:
                            p = min(max(teacher[b][t][i, j], 1e-7), 1.0 - 1e-7)
                            want += beta * bernoulli_kl_cell(p, 1.0 / (1.0 + math.exp(-z)))
        return want

    @pytest.mark.parametrize("with_teacher", [True, False], ids=["teacher", "no-teacher"])
    def test_value_is_weighted_bce_plus_kl(self, with_teacher):
        for seed in range(5):
            logits, teacher = self.batch(seed)
            types = self.TYPES if with_teacher else self.CURRENT
            rows = [self.TYPES.index(t) for t in types]
            got = spankl.objective(
                nc.tensor(logits[:, rows]), self.LENGTHS, types, self.CURRENT, self.GOLDS,
                teacher if with_teacher else None, 0.7, 1.3,
            ).item()
            want = self.oracle(logits, teacher if with_teacher else None, 0.7, 1.3)
            assert abs(got - want) <= 1e-12 * abs(want), (got, want)

    def test_unread_cells_carry_nothing(self):
        logits, teacher = self.batch(9)
        z = nc.parameter(logits)
        spankl.objective(z, self.LENGTHS, self.TYPES, self.CURRENT, self.GOLDS, teacher, 0.7, 1.3).backward()
        read = np.triu(np.ones((5, 5)))[None, None] * (np.arange(5) < self.LENGTHS[:, None])[:, None, None, :]
        assert np.all(z.grad[np.broadcast_to(read, z.shape) == 0.0] == 0.0)
        assert_gradients_match(
            lambda: spankl.objective(
                z, self.LENGTHS, self.TYPES, self.CURRENT, self.GOLDS, teacher, 0.7, 1.3
            ),
            [z],
        )

    def test_old_types_need_teacher_labels(self):
        logits, _ = self.batch(0)
        with pytest.raises(ValueError, match="distilled labels missing"):
            spankl.objective(
                nc.tensor(logits), self.LENGTHS, self.TYPES, self.CURRENT, self.GOLDS, None, 1.0, 1.0
            )


class TestTotalLoss:
    def test_unit_weights(self):
        out = spankl.total_loss(nc.tensor(0.5), nc.tensor(0.25), 1.0, 1.0)
        assert out.item() == pytest.approx(0.75)

    def test_beta_zero_is_bce_only(self):
        out = spankl.total_loss(nc.tensor(0.5), nc.tensor(9.9), 1.0, 0.0)
        assert out.item() == pytest.approx(0.5)

    def test_all_zero(self):
        assert spankl.total_loss(nc.tensor(0.7), nc.tensor(0.0), 0.0, 1.0).item() == 0.0

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            spankl.total_loss(nc.tensor(0.5), nc.tensor(0.5), -1.0, 1.0)


class TestUpperTriangleOnly:
    def test_losses_ignore_lower_triangle(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(4, 4))
        perturbed = logits.copy()
        perturbed[np.tril_indices(4, k=-1)] += rng.normal(scale=10, size=6)
        gold = {"A": [(1, 2)]}
        ref = {"A": rng.uniform(0.1, 0.9, size=(4, 4))}
        a1 = spankl.bce_loss({"A": nc.tensor(logits)}, gold, ["A"]).item()
        a2 = spankl.bce_loss({"A": nc.tensor(perturbed)}, gold, ["A"]).item()
        k1 = spankl.kd_loss({"A": nc.tensor(logits)}, ref, ["A"]).item()
        k2 = spankl.kd_loss({"A": nc.tensor(perturbed)}, ref, ["A"]).item()
        assert a1 == a2
        assert k1 == k2


class TestHeadGrowth:
    def test_old_logits_bit_identical_after_growth(self):
        model = make_model(seed=6)
        model.grow(["PER"], np.random.default_rng(1))
        ids = [2, 5, 7, 9]
        before = model.logits(ids, ["PER"])["PER"].numpy()
        model.grow(["ORG"], np.random.default_rng(2))
        after = model.logits(ids, ["PER"])["PER"].numpy()
        np.testing.assert_array_equal(before, after)

    def test_parameter_count_grows_by_two_per_type(self):
        model = make_model()
        model.grow(["A", "B", "C"], np.random.default_rng(0))
        # 2 projections per type, each a (weight, bias) pair, stacked on
        # the type axis and named per type in checkpoints
        assert [p.shape for p in model.head_parameters()] == [
            (3, 16, 4), (3, 1, 4), (3, 16, 4), (3, 1, 4)
        ]
        heads = {k: v for k, v in model.state_arrays().items() if k.startswith("heads.")}
        assert len(heads) == 3 * 4
        assert not np.shares_memory(model.start_w.data, model.end_w.data)
        weights = [heads[f"heads.{t}.{part}"] for t in "ABC" for part in ("start_w", "end_w")]
        assert len({w.tobytes() for w in weights}) == 6

    def test_duplicate_registration_rejected(self):
        model = make_model()
        model.grow(["PER"], np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.grow(["PER"], np.random.default_rng(1))


class TestTeacherPredict:
    def test_step_one_empty(self):
        model = make_model()
        model.grow(["PER"], np.random.default_rng(0))
        cache = model.teacher_predict([[1, 2], [3]], old_types=[])
        assert cache == [{}, {}]

    def test_self_distillation_is_zero_loss(self):
        model = make_model(seed=7)
        model.grow(["PER", "ORG"], np.random.default_rng(1))
        ids = [4, 2, 8]
        cache = model.teacher_predict([ids], ["PER", "ORG"])[0]
        mats = model.logits(ids, ["PER", "ORG"])
        loss = spankl.kd_loss(mats, cache, ["PER", "ORG"])
        assert abs(loss.item()) < 1e-12

    def test_cache_immutable_under_student_updates(self):
        model = make_model(seed=8)
        model.grow(["PER"], np.random.default_rng(1))
        ids_list = [[1, 2, 3], [4, 5]]
        cache = model.teacher_predict(ids_list, ["PER"])
        digest_before = [c["PER"].tobytes() for c in cache]
        opt = nc.AdamW([{"params": list(model.named_parameters().values()), "lr": 0.01}])
        for _ in range(3):
            for ids in ids_list:
                opt.zero_grad()
                loss = model.sentence_loss(
                    ids, [(1, 1, "PER")], ["PER"], None, 1.0, 1.0, False, None
                )
                loss.backward()
                opt.step()
        assert [c["PER"].tobytes() for c in cache] == digest_before


class TestDecodeFlat:
    def test_empty_below_threshold(self):
        probs = {"PER": np.full((3, 3), 0.2)}
        assert spankl.decode_flat(probs, 0.5) == []

    def test_overlap_keeps_higher_score(self):
        probs = {"PER": np.zeros((3, 3)), "ORG": np.zeros((3, 3))}
        probs["PER"][0, 1] = 0.9  # span (1, 2)
        probs["ORG"][1, 2] = 0.8  # span (2, 3) overlaps at token 2
        out = spankl.decode_flat(probs, 0.5)
        assert out == [(1, 2, "PER", 0.9)]

    def test_disjoint_spans_both_kept(self):
        probs = {"PER": np.zeros((4, 4)), "ORG": np.zeros((4, 4))}
        probs["PER"][0, 0] = 0.7
        probs["ORG"][2, 3] = 0.6
        out = spankl.decode_flat(probs, 0.5)
        assert set(out) == {(1, 1, "PER", 0.7), (3, 4, "ORG", 0.6)}

    def test_matches_greedy_oracle_on_random_matrices(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            types = ["A", "B", "C"][: int(rng.integers(1, 4))]
            probs = {t: rng.random((n, n)) for t in types}
            got = spankl.decode_flat(probs, 0.5)
            candidates = [
                (i + 1, j + 1, order, t, float(probs[t][i, j]))
                for order, t in enumerate(types)
                for i in range(n)
                for j in range(i, n)
            ]
            assert got == greedy_decode_oracle(candidates, 0.5)
            # invariants: pairwise disjoint, all above threshold
            for a in got:
                assert a[3] > 0.5
            for x in range(len(got)):
                for y in range(x + 1, len(got)):
                    assert got[x][1] < got[y][0] or got[y][1] < got[x][0]

    def test_exact_score_ties_across_types(self):
        # equal scores fall back to (start, end, type order)
        probs = {"A": np.zeros((4, 4)), "B": np.zeros((4, 4))}
        probs["B"][0, 1] = probs["A"][0, 1] = 0.8
        probs["B"][2, 3] = probs["A"][2, 2] = 0.8
        assert spankl.decode_flat(probs, 0.5) == [(1, 2, "A", 0.8), (3, 3, "A", 0.8)]
        # quantized random scores: ties across types on most instances
        rng = np.random.default_rng(13)
        for _ in range(200):
            n = int(rng.integers(1, 7))
            types = ["A", "B", "C"]
            probs = {t: rng.integers(1, 5, (n, n)) / 4.0 for t in types}
            candidates = [
                (i + 1, j + 1, order, t, float(probs[t][i, j]))
                for order, t in enumerate(types)
                for i in range(n)
                for j in range(i, n)
            ]
            assert spankl.decode_flat(probs, 0.5) == greedy_decode_oracle(candidates, 0.5)

    def test_never_reads_lower_triangle(self):
        probs = {"PER": np.zeros((3, 3))}
        probs["PER"][2, 0] = 0.99  # i > j: not a span
        assert spankl.decode_flat(probs, 0.5) == []


class TestPredictNested:
    def test_matches_cell_loop_reference(self):
        model = make_model(seed=10)
        model.grow(["PER", "ORG", "LOC"], np.random.default_rng(4))
        for ids in ([1, 2, 3, 4, 5], [7], [3, 3, 9, 2, 11, 4, 6, 8]):
            probs = {t: nc.sigmoid(m).numpy() for t, m in model.logits(ids).items()}
            thr = float(np.median(np.concatenate([p[np.triu_indices(len(ids))] for p in probs.values()])))
            want = [
                (i + 1, j + 1, t, float(p[i, j]))
                for t, p in probs.items()
                for i in range(len(ids))
                for j in range(i, len(ids))
                if p[i, j] > thr
            ]
            assert model.predict_nested(ids, threshold=thr) == want


class TestEndToEndGradients:
    def test_total_loss_gradients_match_finite_differences(self):
        # 3-token sentence, 2 types, d_span=4, d_model=8
        rng = np.random.default_rng(21)
        enc = TransformerEncoder(
            10, EncoderConfig(d_model=8, n_heads=2, max_len=8, dropout=0.0), rng
        )
        model = spankl.SpanKLModel(enc, d_span=4)
        model.grow(["PER", "ORG"], rng)
        ids = [2, 5, 7]
        gold = [(1, 2, "PER"), (3, 3, "ORG")]
        distilled = {"PER": np.full((3, 3), 0.3), "ORG": np.full((3, 3), 0.6)}

        def build():
            mats = model.logits(ids)
            bce = spankl.bce_loss(mats, {"PER": [(1, 2)], "ORG": [(3, 3)]}, ["PER", "ORG"])
            kd = spankl.kd_loss(mats, distilled, ["PER", "ORG"])
            return spankl.total_loss(bce, kd, 1.0, 1.0)

        params = list(model.named_parameters().values())
        assert_gradients_match(build, params)
        del gold


class TestCheckpointRoundTrip:
    def test_save_load_restores_predictions(self, tmp_path):
        model = make_model(seed=9)
        model.grow(["PER", "ORG"], np.random.default_rng(3))
        ids = [3, 1, 4, 1, 5]
        before = {t: m.numpy() for t, m in model.logits(ids).items()}
        path = tmp_path / "model.ckpt"
        nc.save_checkpoint(path, model.state_arrays())
        clone = make_model(seed=99)
        clone.grow(["PER", "ORG"], np.random.default_rng(77))
        clone.load_arrays(nc.load_checkpoint(path))
        after = {t: m.numpy() for t, m in clone.logits(ids).items()}
        for t in before:
            np.testing.assert_array_equal(before[t], after[t])
