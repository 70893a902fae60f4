"""IOB tagging baselines: encoding, losses, head surgery, decoding."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clner import numcore as nc
from clner.baselines import (
    AddNerTagger,
    ExtendNerTagger,
    combine_heads,
    flatten_spans,
    head_tag_list,
    iob_encode,
    _spans_from_tags,
    pad_distilled_distribution,
    tag_decode,
)
from clner.encoder import EncoderConfig, TransformerEncoder
from helpers import cross_entropy_rows_oracle, kl_div_rows_oracle, repair_tags_oracle


def small_encoder(seed=0):
    return TransformerEncoder(
        20, EncoderConfig(d_model=16, n_heads=2, max_len=12, dropout=0.1),
        np.random.default_rng(seed),
    )


def flatten_oracle(spans, types):
    """Longest-span-wins flattening, restated: repeatedly take the longest
    remaining span (ties earlier start) that overlaps nothing kept."""
    pool = sorted(
        (s for s in spans if s[2] in set(types)),
        key=lambda s: (-(s[1] - s[0]), s[0], s[2]),
    )
    kept = []
    for s in pool:
        if all(s[1] < k[0] or k[1] < s[0] for k in kept):
            kept.append(s)
    return sorted(kept)


class TestIobEncode:
    def test_no_entities_all_outside(self):
        assert iob_encode([], ["PER"], 3) == ["O", "O", "O"]

    def test_simple_span(self):
        assert iob_encode([(1, 2, "PER")], ["PER"], 3) == ["B-PER", "I-PER", "O"]

    def test_nested_golds_keep_longest(self):
        tags = iob_encode([(1, 3, "PER"), (2, 2, "PER")], ["PER"], 3)
        assert tags == ["B-PER", "I-PER", "I-PER"]

    def test_tie_goes_to_earlier_start(self):
        tags = iob_encode([(2, 3, "X"), (1, 2, "X")], ["X"], 3)
        assert tags == ["B-X", "I-X", "O"]

    def test_only_requested_types_encoded(self):
        tags = iob_encode([(1, 1, "PER"), (2, 2, "ORG")], ["ORG"], 2)
        assert tags == ["O", "B-ORG"]

    def test_out_of_bounds_rejected(self):
        with pytest.raises(ValueError):
            iob_encode([(1, 4, "PER")], ["PER"], 3)

    def test_matches_flatten_oracle_on_random_nests(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            spans = []
            for _ in range(int(rng.integers(0, 5))):
                i = int(rng.integers(1, n + 1))
                j = int(rng.integers(i, n + 1))
                spans.append((i, j, ["A", "B"][rng.integers(2)]))
            kept = flatten_oracle(spans, ["A", "B"])
            assert flatten_spans(spans, ["A", "B"]) == kept
            assert tag_decode(iob_encode(spans, ["A", "B"], n)) == kept


class TestTagScheme:
    def test_head_tag_counts(self):
        assert head_tag_list(["PER"]) == ["O", "B-PER", "I-PER"]
        assert len(head_tag_list(["A", "B", "C"])) == 1 + 2 * 3


class TestTagDecode:
    def test_simple(self):
        assert tag_decode(["B-PER", "I-PER", "O"]) == [(1, 2, "PER")]

    def test_all_outside(self):
        assert tag_decode(["O", "O"]) == []

    def test_adjacent_singletons(self):
        assert tag_decode(["B-PER", "B-PER"]) == [(1, 1, "PER"), (2, 2, "PER")]

    def test_orphan_inside_repaired_to_begin(self):
        assert repair_tags_oracle(["O", "I-PER"]) == ["O", "B-PER"]
        assert tag_decode(["O", "I-PER"]) == [(2, 2, "PER")]

    def test_type_switch_mid_run_repaired(self):
        assert tag_decode(["B-PER", "I-ORG"]) == [(1, 1, "PER"), (2, 2, "ORG")]

    @given(
        st.lists(
            st.tuples(st.integers(1, 6), st.integers(0, 2), st.sampled_from(["A", "B"])),
            max_size=4,
        )
    )
    def test_decode_encode_identity_on_flattened_golds(self, raw):
        n = 8
        spans = [(i, min(i + d, n), t) for i, d, t in raw]
        flat = flatten_spans(spans, ["A", "B"])
        assert tag_decode(iob_encode(flat, ["A", "B"], n)) == sorted(flat)


class TestCombineHeads:
    def test_all_heads_outside(self):
        probs = np.array([[0.9, 0.05, 0.05]])
        tags, _ = combine_heads([(head_tag_list(["PER"]), probs)])
        assert tags == ["O"]

    def test_highest_confidence_non_outside_wins(self):
        per = np.array([[0.1, 0.9, 0.0]])  # argmax B-PER @ 0.9
        org = np.array([[0.4, 0.6, 0.0]])  # argmax B-ORG @ 0.6
        tags, scores = combine_heads(
            [(head_tag_list(["PER"]), per), (head_tag_list(["ORG"]), org)]
        )
        assert tags == ["B-PER"]
        assert scores[0] == pytest.approx(0.9)

    def test_non_outside_beats_confident_outside(self):
        per = np.array([[0.95, 0.05, 0.0]])  # argmax its own O
        org = np.array([[0.4, 0.6, 0.0]])  # argmax B-ORG
        tags, _ = combine_heads(
            [(head_tag_list(["PER"]), per), (head_tag_list(["ORG"]), org)]
        )
        assert tags == ["B-ORG"]

    def test_orphan_inside_repaired_after_merge(self):
        per = np.array([[0.9, 0.05, 0.05], [0.1, 0.2, 0.7]])  # O then I-PER
        spans = _spans_from_tags(*combine_heads([(head_tag_list(["PER"]), per)]))
        assert spans == [(2, 2, "PER", 0.7)]

    @given(
        st.lists(st.integers(1, 2), min_size=1, max_size=3),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_decoding_merged_tags_equals_decoding_repaired_tags(self, widths, n, seed):
        """Decoding opens a mention at an orphan I-, so the merged tags
        decode to the spans of the tags repaired first."""
        rng = np.random.default_rng(seed)
        names = iter("ABCDEF")
        heads = []
        for width in widths:
            tag_list = head_tag_list([next(names) for _ in range(width)])
            heads.append((tag_list, rng.dirichlet(np.ones(len(tag_list)), size=n)))
        tags, scores = combine_heads(heads)
        assert _spans_from_tags(tags, scores) == _spans_from_tags(
            repair_tags_oracle(tags), scores
        )


class TestPadDistilled:
    def test_rows_renormalize_to_one(self):
        dist = np.array([[0.7, 0.2, 0.1]])
        out = pad_distilled_distribution(dist, 5, constant=1e-4)
        np.testing.assert_allclose(out.sum(axis=1), 1.0)
        assert out.shape == (1, 5)

    def test_old_tag_ordering_preserved(self):
        rng = np.random.default_rng(2)
        dist = rng.dirichlet(np.ones(5), size=4)
        out = pad_distilled_distribution(dist, 9)
        assert (out[:, :5].argmax(axis=1) == dist.argmax(axis=1)).all()

    def test_shrinking_rejected(self):
        with pytest.raises(ValueError):
            pad_distilled_distribution(np.ones((1, 5)) / 5, 3)


class TestExtendNer:
    def test_widening_adds_two_columns_per_type(self):
        model = ExtendNerTagger(small_encoder())
        model.grow(["PER"], np.random.default_rng(0))
        assert model.weight.shape[1] == 3
        model.grow(["ORG"], np.random.default_rng(1))
        assert model.weight.shape[1] == 5
        assert model.tag_list == ["O", "B-PER", "I-PER", "B-ORG", "I-ORG"]

    def test_old_output_parameters_bit_identical(self):
        model = ExtendNerTagger(small_encoder())
        model.grow(["PER"], np.random.default_rng(0))
        w_before = model.weight.data.copy()
        b_before = model.bias.data.copy()
        model.grow(["ORG"], np.random.default_rng(1))
        np.testing.assert_array_equal(model.weight.data[:, :3], w_before)
        np.testing.assert_array_equal(model.bias.data[:3], b_before)

    def test_duplicate_type_rejected(self):
        model = ExtendNerTagger(small_encoder())
        model.grow(["PER"], np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.grow(["PER"], np.random.default_rng(1))

    def test_step_one_loss_is_plain_cross_entropy(self):
        model = ExtendNerTagger(small_encoder(3))
        model.grow(["PER"], np.random.default_rng(0))
        ids = [2, 5]
        spans = [(1, 1, "PER")]
        loss = model.sentence_loss(ids, spans, ["PER"], None, 1.0, 1.0, False, None)
        hidden = model.encoder.encode(ids)
        logits = (nc.matmul(hidden, model.weight) + model.bias).numpy()
        want = 0.0
        for pos, gold in enumerate([1, 0]):  # B-PER then O
            z = logits[pos]
            want += -(z[gold] - np.log(np.exp(z - z.max()).sum()) - z.max())
        assert loss.item() == pytest.approx(want, abs=1e-9)

    def test_teacher_equal_student_gives_zero_kl_on_non_gold_tokens(self):
        model = ExtendNerTagger(small_encoder(4))
        model.grow(["PER"], np.random.default_rng(0))
        ids = [3, 7, 9]
        teacher = model.teacher_predict([ids], ["PER"])[0]
        # pad to the same width (no growth): rows renormalize but stay equal
        spans = []  # all tokens gold O -> all tokens take the KL branch
        loss = model.sentence_loss(ids, spans, ["PER"], teacher, 1.0, 1.0, False, None)
        assert loss.item() == pytest.approx(0.0, abs=1e-9)

    def test_per_token_switch_matches_oracle(self):
        # hand construction: 2 tokens; token 1 gold B-PER -> CE; token 2
        # gold O -> KL against the padded teacher row
        model = ExtendNerTagger(small_encoder(5))
        model.grow(["PER"], np.random.default_rng(0))
        teacher_row = np.array([[0.6, 0.3, 0.1], [0.5, 0.25, 0.25]])
        model.grow(["ORG"], np.random.default_rng(1))
        ids = [4, 6]
        spans = [(1, 1, "ORG")]
        loss = model.sentence_loss(
            ids, spans, ["ORG"], teacher_row, 1.0, 1.0, False, None
        )
        hidden = model.encoder.encode(ids)
        logits = (nc.matmul(hidden, model.weight) + model.bias).numpy()
        logprobs = logits - np.log(np.exp(logits - logits.max(1, keepdims=True)).sum(1, keepdims=True)) - logits.max(1, keepdims=True)
        padded = pad_distilled_distribution(teacher_row, 5)
        ce = -logprobs[0, model.tag_list.index("B-ORG")]
        kl = float(
            (padded[1] * (np.log(padded[1]) - logprobs[1])).sum()
        )
        assert loss.item() == pytest.approx(ce + kl, abs=1e-9)

    def test_predict_round_trip_tags(self):
        model = ExtendNerTagger(small_encoder(6))
        model.grow(["PER", "ORG"], np.random.default_rng(0))
        spans = model.predict([1, 2, 3, 4])
        for i, j, t, score in spans:
            assert 1 <= i <= j <= 4
            assert t in ("PER", "ORG")
            assert 0.0 < score <= 1.0


class TestAddNer:
    def test_head_per_task(self):
        model = AddNerTagger(small_encoder())
        model.grow(["PER", "LOC"], np.random.default_rng(0))
        model.grow(["ORG"], np.random.default_rng(1))
        assert [w.shape[1] for w in model.weights] == [5, 3]
        assert model.types == ("PER", "LOC", "ORG")

    def test_duplicate_across_tasks_rejected(self):
        model = AddNerTagger(small_encoder())
        model.grow(["PER"], np.random.default_rng(0))
        with pytest.raises(ValueError):
            model.grow(["PER", "ORG"], np.random.default_rng(1))

    def test_old_heads_untouched_by_growth(self):
        model = AddNerTagger(small_encoder())
        model.grow(["PER"], np.random.default_rng(0))
        before = model.weights[0].data.copy()
        model.grow(["ORG"], np.random.default_rng(1))
        np.testing.assert_array_equal(model.weights[0].data, before)

    def test_step_one_loss_reduces_to_cross_entropy(self):
        model = AddNerTagger(small_encoder(7))
        model.grow(["PER"], np.random.default_rng(0))
        ids = [2, 3]
        loss_a = model.sentence_loss(ids, [(1, 1, "PER")], ["PER"], None, 1.0, 5.0, False, None)
        loss_b = model.sentence_loss(ids, [(1, 1, "PER")], ["PER"], None, 1.0, 0.0, False, None)
        assert loss_a.item() == pytest.approx(loss_b.item())

    def test_teacher_equal_student_zero_kl_on_old_heads(self):
        model = AddNerTagger(small_encoder(8))
        model.grow(["PER"], np.random.default_rng(0))
        ids = [5, 1]
        teacher = model.teacher_predict([ids], ["PER"])[0]
        model.grow(["ORG"], np.random.default_rng(1))
        with_kd = model.sentence_loss(ids, [], ["ORG"], teacher, 1.0, 1.0, False, None)
        without = model.sentence_loss(ids, [], ["ORG"], None, 1.0, 1.0, False, None)
        assert with_kd.item() == pytest.approx(without.item(), abs=1e-9)

    def test_predict_emits_valid_spans(self):
        model = AddNerTagger(small_encoder(9))
        model.grow(["PER"], np.random.default_rng(0))
        model.grow(["ORG"], np.random.default_rng(1))
        for i, j, t, score in model.predict([1, 2, 3]):
            assert 1 <= i <= j <= 3
            assert t in ("PER", "ORG")
            assert 0.0 < score <= 1.0


class TestGradientsFlow:
    def test_extendner_loss_backward_reaches_head_and_encoder(self):
        model = ExtendNerTagger(small_encoder(10))
        model.grow(["PER"], np.random.default_rng(0))
        loss = model.sentence_loss([1, 2, 3], [(2, 3, "PER")], ["PER"], None, 1.0, 1.0, False, None)
        loss.backward()
        assert np.any(model.weight.grad != 0)
        assert np.any(model.encoder.w_q.grad != 0)

    def test_addner_old_head_gets_kd_gradient(self):
        model = AddNerTagger(small_encoder(11))
        model.grow(["PER"], np.random.default_rng(0))
        ids = [4, 2]
        teacher = model.teacher_predict([ids], ["PER"])[0]
        model.grow(["ORG"], np.random.default_rng(1))
        # perturb the old head so teacher and student disagree
        model.weights[0].data += 0.05
        loss = model.sentence_loss(ids, [], ["ORG"], teacher, 1.0, 1.0, False, None)
        loss.backward()
        assert np.any(model.weights[0].grad != 0)


class TestLossEqualsRowOracle:
    """Each tagger's batch loss is (1/B) * sum over sentences of
    alpha * CE + beta * KL, computed row by row from the deleted ops'
    formulas on each sentence's own logits."""

    BATCH = [[3, 7, 9], [4, 6, 2, 8, 5], [1, 11]]
    GOLD = [[(2, 3, "ORG")], [(1, 1, "LOC"), (3, 5, "ORG")], []]
    ALPHA, BETA = 0.7, 1.3

    @pytest.mark.parametrize("with_teacher", [False, True])
    def test_extendner(self, with_teacher):
        model = ExtendNerTagger(small_encoder(12))
        model.grow(["PER"], np.random.default_rng(0))
        teacher = model.teacher_predict(self.BATCH, ["PER"]) if with_teacher else None
        model.grow(["ORG", "LOC"], np.random.default_rng(1))
        got = model.batch_loss(
            self.BATCH, self.GOLD, ["ORG", "LOC"], teacher, self.ALPHA, self.BETA, False, None
        ).item()
        tags = model.tag_list
        want = 0.0
        for b, (ids, spans) in enumerate(zip(self.BATCH, self.GOLD)):
            logits = model._logits(model.encoder.encode(ids)).data
            gold = [tags.index(t) for t in iob_encode(spans, ["ORG", "LOC"], len(ids))]
            ce = np.array([1.0 if g or teacher is None else 0.0 for g in gold])
            want += self.ALPHA * cross_entropy_rows_oracle(logits, gold, ce)
            if teacher is not None:
                ref = pad_distilled_distribution(teacher[b], len(tags))
                want += self.BETA * kl_div_rows_oracle(logits, ref, 1.0 - ce)
        assert abs(got - want / len(self.BATCH)) <= 1e-12

    @pytest.mark.parametrize("with_teacher", [False, True])
    def test_addner(self, with_teacher):
        model = AddNerTagger(small_encoder(13))
        model.grow(["PER"], np.random.default_rng(0))
        teacher = model.teacher_predict(self.BATCH, ["PER"]) if with_teacher else None
        model.grow(["ORG", "LOC"], np.random.default_rng(1))
        got = model.batch_loss(
            self.BATCH, self.GOLD, ["ORG", "LOC"], teacher, self.ALPHA, self.BETA, False, None
        ).item()
        tags = head_tag_list(["ORG", "LOC"])
        want = 0.0
        for b, (ids, spans) in enumerate(zip(self.BATCH, self.GOLD)):
            hidden = model.encoder.encode(ids)
            new_logits = model._head_logits(hidden, 1).data
            gold = [tags.index(t) for t in iob_encode(spans, ["ORG", "LOC"], len(ids))]
            want += self.ALPHA * cross_entropy_rows_oracle(new_logits, gold, np.ones(len(ids)))
            if teacher is not None:
                old_logits = model._head_logits(hidden, 0).data
                want += self.BETA * kl_div_rows_oracle(old_logits, teacher[b][0], np.ones(len(ids)))
        assert abs(got - want / len(self.BATCH)) <= 1e-12
