"""Evaluation metrics vs brute-force counting oracles."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clner import metrics
from helpers import prf_oracle, span_counts_oracle


class TestSpanF1:
    def test_perfect_predictions(self):
        gold = [[(1, 2, "PER"), (4, 4, "ORG")], [(2, 3, "PER")]]
        scores = metrics.span_f1(gold, gold)
        assert scores["PER"].f1 == 1.0
        assert scores["ORG"].f1 == 1.0

    def test_no_predictions(self):
        gold = [[(1, 2, "PER")]]
        scores = metrics.span_f1(gold, [[]])
        assert scores["PER"].f1 == 0.0
        assert scores["PER"].precision == 0.0
        assert scores["PER"].recall == 0.0

    def test_half_right(self):
        gold = [[(1, 2, "PER"), (4, 4, "PER")]]
        pred = [[(1, 2, "PER"), (3, 4, "PER")]]
        s = metrics.span_f1(gold, pred)["PER"]
        assert (s.precision, s.recall, s.f1) == (0.5, 0.5, 0.5)

    def test_boundary_and_type_must_both_match(self):
        gold = [[(1, 2, "PER")]]
        assert metrics.span_f1(gold, [[(1, 2, "ORG")]])["PER"].f1 == 0.0
        assert metrics.span_f1(gold, [[(1, 3, "PER")]])["PER"].f1 == 0.0

    def test_sentence_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            metrics.span_f1([[]], [[], []])


class TestMacroF1:
    def test_single_type(self):
        assert metrics.macro_f1({"PER": 0.8}, ["PER"]) == 0.8

    def test_mean(self):
        assert metrics.macro_f1({"A": 1.0, "B": 0.0}, ["A", "B"]) == 0.5

    def test_absent_type_counts_as_zero(self):
        # learned but never seen in this test set: still averaged in
        per_type = {"A": 0.9, "B": 0.6}
        got = metrics.macro_f1(per_type, ["A", "B", "C"])
        assert got == pytest.approx((0.9 + 0.6 + 0.0) / 3)

    def test_empty_learned_rejected(self):
        with pytest.raises(ValueError):
            metrics.macro_f1({}, [])

    @given(st.permutations(["A", "B", "C", "D"]))
    def test_permutation_invariant(self, order):
        per_type = {"A": 0.1, "B": 0.4, "C": 0.9, "D": 0.7}
        assert metrics.macro_f1(per_type, order) == pytest.approx(
            metrics.macro_f1(per_type, ["A", "B", "C", "D"])
        )


class TestCoarseMicroF1:
    def test_single_fine_type_equals_fine_score(self):
        counts = {"person-actor": metrics.Counts(3, 1, 2)}
        got = metrics.coarse_micro_f1(counts, {"person-actor": "person"})["person"]
        assert (got.precision, got.recall, got.f1) == prf_oracle(3, 1, 2)

    def test_pooled_counts(self):
        counts = {
            "a-x": metrics.Counts(tp=1, fp=0, fn=1),
            "a-y": metrics.Counts(tp=1, fp=1, fn=0),
        }
        got = metrics.coarse_micro_f1(counts, {"a-x": "a", "a-y": "a"})["a"]
        assert got.precision == pytest.approx(2 / 3)
        assert got.recall == pytest.approx(2 / 3)
        assert got.f1 == pytest.approx(2 / 3)

    def test_all_zero_counts(self):
        counts = {"a-x": metrics.Counts()}
        assert metrics.coarse_micro_f1(counts, {"a-x": "a"})["a"].f1 == 0.0

    def test_uncovered_fine_type_rejected(self):
        with pytest.raises(ValueError):
            metrics.coarse_micro_f1({"stray": metrics.Counts(1, 0, 0)}, {})

    def test_equals_relabel_then_score_without_fine_confusion(self):
        # pooling within groups == relabeling every span to its coarse type,
        # provided fine types of one coarse group never collide on the same
        # span (a within-group confusion is an error under pooling but a hit
        # after relabeling). Each fine type gets a disjoint position range
        # to guarantee that here.
        rng = np.random.default_rng(5)
        grouping = {"a-x": "a", "a-y": "a", "b-x": "b"}
        home = {"a-x": 1, "a-y": 4, "b-x": 7}
        for _ in range(50):
            gold, pred = [], []
            for _ in range(4):
                def spans():
                    out = set()
                    for t in grouping:
                        for _ in range(int(rng.integers(0, 3))):
                            i = home[t] + int(rng.integers(0, 2))
                            out.add((i, i, t))
                    return out

                gold.append(spans())
                pred.append(spans())
            pooled = metrics.coarse_micro_f1(metrics.span_counts(gold, pred), grouping)
            relabeled_gold = [
                {(i, j, grouping[t]) for i, j, t in sent} for sent in gold
            ]
            relabeled_pred = [
                {(i, j, grouping[t]) for i, j, t in sent} for sent in pred
            ]
            direct = metrics.span_f1(relabeled_gold, relabeled_pred)
            for coarse in direct:
                assert pooled[coarse].counts == direct[coarse].counts

    def test_within_group_confusion_stays_an_error(self):
        # predicting the wrong fine type of the right coarse group is FP+FN
        counts = metrics.span_counts([[(1, 1, "a-x")]], [[(1, 1, "a-y")]])
        pooled = metrics.coarse_micro_f1(counts, {"a-x": "a", "a-y": "a"})["a"]
        assert pooled.counts == metrics.Counts(tp=0, fp=1, fn=1)


class TestGap:
    def test_published_split_all_final_step(self):
        assert metrics.gap(88.98, 89.74) == pytest.approx(-0.76, abs=1e-12)

    def test_zero_when_equal(self):
        assert metrics.gap(85.60, 85.60) == 0.0

    def test_published_filter_all_final_step(self):
        assert metrics.gap(79.31, 86.48) == pytest.approx(-7.17, abs=1e-12)

    @given(
        st.floats(0, 100, allow_nan=False), st.floats(0, 100, allow_nan=False)
    )
    def test_antisymmetric(self, a, b):
        assert metrics.gap(a, b) == -metrics.gap(b, a)


class TestOracleEquivalence:
    def test_counts_match_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(77)
        types = ["A", "B", "C"]
        for _ in range(200):
            n_sent = int(rng.integers(1, 4))
            gold, pred = [], []
            for _ in range(n_sent):
                def spans():
                    out = []
                    for _ in range(int(rng.integers(0, 5))):
                        i = int(rng.integers(1, 7))
                        j = int(rng.integers(i, 7))
                        out.append((i, j, types[rng.integers(len(types))]))
                    return out

                gold.append(spans())
                pred.append(spans())
            ours = metrics.span_counts(gold, pred)
            oracle = span_counts_oracle(gold, pred)
            assert {t: (c.tp, c.fp, c.fn) for t, c in ours.items()} == oracle
            for t, c in ours.items():
                p, r, f1 = prf_oracle(*oracle[t])
                score = metrics.TypeScore.from_counts(c)
                assert abs(score.precision - p) <= 1e-12
                assert abs(score.recall - r) <= 1e-12
                assert abs(score.f1 - f1) <= 1e-12


class TestEvalReport:
    def test_evaluate_step_fine_macro(self):
        gold = [[(1, 1, "A")], [(2, 3, "B")]]
        pred = [[(1, 1, "A")], []]
        ev = metrics.evaluate_step(1, gold, pred, ["A", "B"])
        assert ev.macro == pytest.approx(0.5)

    def test_evaluate_step_coarse_macro(self):
        grouping = {"a-x": "a", "a-y": "a", "b-x": "b"}
        gold = [[(1, 1, "a-x"), (3, 3, "b-x")], [(2, 2, "a-y")]]
        pred = [[(1, 1, "a-x"), (3, 3, "b-x")], []]
        ev = metrics.evaluate_step(1, gold, pred, list(grouping))
        grouped = metrics.evaluate_step(1, gold, pred, list(grouping), grouping)
        # coarse "a" pools 1 TP + 1 FN -> f1 = 2/3; coarse "b" -> 1.0
        assert grouped.macro == pytest.approx((2 / 3 + 1.0) / 2)
        assert grouped.macro != ev.macro
