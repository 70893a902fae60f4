"""Batching contract: one padded graph per mini-batch gives the mean of
the per-sentence losses and the same gradients, and padding receives
exactly zero gradient. Inference groups sentences by exact length and
gives bit for bit what one-sentence calls give, without touching a
gradient.

The padded reference values (KD cells, ExtendNER/AddNER teacher rows)
are validated by the loss ops themselves: a padded KD cell outside
(0, 1) or a padded row that is not a distribution raises, so every case
below also shows that padding is filled with admissible values.
"""
from __future__ import annotations

import numpy as np
import pytest

from clner import numcore as nc
from clner import spankl
from clner.baselines import AddNerTagger, ExtendNerTagger
from clner.clrunner import cache_digest
from clner.encoder import EncoderConfig, TransformerEncoder
from helpers import graph_nodes

BATCH = [[3, 9, 2], [14, 5, 5, 21, 7, 8, 4], [6], [11, 12, 13, 2, 3]]
GOLD = [
    [(1, 2, "PER")],
    [(2, 4, "ORG"), (3, 3, "PER"), (6, 7, "ORG")],
    [],
    [(1, 5, "PER")],
]
LONGEST = max(len(ids) for ids in BATCH)
TOL = 1e-10


def build(kind: str, with_teacher: bool):
    """A model that learned LOC at step 1 and now learns PER and ORG,
    with the step-1 teacher's labels for BATCH when ``with_teacher``."""
    rng = np.random.default_rng(17)
    encoder = TransformerEncoder(
        30, EncoderConfig(d_model=16, n_heads=2, max_len=12, dropout=0.1), rng
    )
    model = {
        "spankl": lambda: spankl.SpanKLModel(encoder, d_span=4),
        "extendner": lambda: ExtendNerTagger(encoder),
        "addner": lambda: AddNerTagger(encoder),
    }[kind]()
    model.grow(["LOC"], rng)
    teacher = model.teacher_predict(BATCH, ["LOC"]) if with_teacher else None
    model.grow(["PER", "ORG"], rng)
    # move every weight off its initial value so old heads disagree with
    # the teacher and biases are not all zero
    for p in model.named_parameters().values():
        p.data = p.data + 0.05 * rng.standard_normal(p.shape)
    return model, teacher


CASES = [
    ("spankl", True),
    ("spankl", False),
    ("extendner", True),
    ("extendner", False),
    ("addner", True),
]


def grads_of(model) -> dict[str, np.ndarray]:
    return {k: p.grad.copy() for k, p in model.named_parameters().items()}


def per_sentence(model, teacher, train: bool):
    params = list(model.named_parameters().values())
    nc.zero_grad(params)
    rng = np.random.default_rng(5)
    terms = [
        model.sentence_loss(
            ids, gold, ["PER", "ORG"], None if teacher is None else teacher[b],
            1.0, 0.7, train, rng,
        )
        for b, (ids, gold) in enumerate(zip(BATCH, GOLD))
    ]
    loss = terms[0]
    for term in terms[1:]:
        loss = loss + term
    loss = nc.mul(loss, 1.0 / len(BATCH))
    loss.backward()
    return loss.item(), grads_of(model)


def batched(model, teacher, train: bool):
    params = list(model.named_parameters().values())
    nc.zero_grad(params)
    loss = model.batch_loss(
        BATCH, GOLD, ["PER", "ORG"], teacher, 1.0, 0.7, train, np.random.default_rng(5)
    )
    loss.backward()
    return loss.item(), grads_of(model)


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("kind,with_teacher", CASES)
class TestBatchEqualsPerSentence:
    def test_loss_and_gradients_match(self, kind, with_teacher, train):
        model, teacher = build(kind, with_teacher)
        want_loss, want_grads = per_sentence(model, teacher, train)
        got_loss, got_grads = batched(model, teacher, train)
        assert abs(got_loss - want_loss) <= TOL
        for name, want in want_grads.items():
            assert np.abs(got_grads[name] - want).max() <= TOL, name

    def test_padding_gets_zero_gradient(self, kind, with_teacher, train, monkeypatch):
        model, teacher = build(kind, with_teacher)
        captured = {}
        encode = model.encoder.encode

        def keep_hidden(*args, **kwargs):
            captured["hidden"] = encode(*args, **kwargs)
            return captured["hidden"]

        monkeypatch.setattr(model.encoder, "encode", keep_hidden)
        if kind == "spankl":
            span_logits = spankl.span_logits

            def keep_logits(*args):
                captured["logits"] = span_logits(*args)
                return captured["logits"]

            monkeypatch.setattr(spankl, "span_logits", keep_logits)
        _, grads = batched(model, teacher, train)
        assert not np.any(grads["encoder.tok_emb"][0])  # padding id
        assert not np.any(grads["encoder.pos_emb"][LONGEST:])
        hidden = captured["hidden"]
        for b, ids in enumerate(BATCH):
            assert not np.any(hidden.grad[b, len(ids):]), f"padded rows of sentence {b}"
        if kind == "spankl":
            cell_grad = captured["logits"].grad
            for b, ids in enumerate(BATCH):
                live = np.zeros((LONGEST, LONGEST), dtype=bool)
                live[: len(ids), : len(ids)] = np.triu(np.ones((len(ids), len(ids)), dtype=bool))
                assert not np.any(cell_grad[b][:, ~live]), f"masked cells of sentence {b}"
                assert np.all(np.any(cell_grad[b][:, live] != 0.0, axis=-1))


@pytest.mark.parametrize("kind,most", [("spankl", 8), ("extendner", 8), ("addner", 12)])
def test_graph_nodes_per_training_batch(kind, most):
    """A padded training batch with a teacher builds one node for the
    embedding, one for the attention layer and one for the span scorer;
    AddNER's count is for its two heads."""
    model, teacher = build(kind, with_teacher=True)
    loss = model.batch_loss(
        BATCH, GOLD, ["PER", "ORG"], teacher, 1.0, 0.7, True, np.random.default_rng(5)
    )
    assert graph_nodes(loss) <= most


def test_graph_nodes_per_span_batch_without_teacher():
    """Without a teacher a span batch scores only the current types'
    heads, which the span scorer picks inside its one node."""
    model, _ = build("spankl", with_teacher=False)
    loss = model.batch_loss(
        BATCH, GOLD, ["PER", "ORG"], None, 1.0, 0.7, True, np.random.default_rng(5)
    )
    assert graph_nodes(loss) <= 5


@pytest.mark.parametrize("train", [False, True], ids=["eval", "train"])
@pytest.mark.parametrize("with_teacher", [True, False], ids=["teacher", "no-teacher"])
def test_trained_loss_is_the_gated_loss(with_teacher, train):
    """``batch_loss`` on one sentence, the loss training runs, equals
    total_loss(bce_loss, kd_loss) on that sentence's logits, the loss the
    gradient and identity criteria check, in value and every gradient."""
    model, teacher = build("spankl", with_teacher)
    params = list(model.named_parameters().values())
    alpha, beta = 1.0, 0.7
    for b, (ids, gold) in enumerate(zip(BATCH, GOLD)):
        nc.zero_grad(params)
        trained = model.batch_loss(
            [ids], [gold], ["PER", "ORG"], None if teacher is None else [teacher[b]],
            alpha, beta, train, np.random.default_rng(b),
        )
        trained.backward()
        want = grads_of(model)
        nc.zero_grad(params)
        mats = model.logits(ids, train=train, rng=np.random.default_rng(b))
        by_type = {"PER": [], "ORG": []}
        for i, j, t in gold:
            by_type[t].append((i, j))
        kd = 0.0 if teacher is None else spankl.kd_loss(mats, teacher[b], ["LOC"])
        gated = spankl.total_loss(spankl.bce_loss(mats, by_type, ["PER", "ORG"]), kd, alpha, beta)
        gated.backward()
        assert abs(trained.item() - gated.item()) <= 1e-12
        for name, got in grads_of(model).items():
            assert np.abs(got - want[name]).max() <= 1e-12, name


# mixed lengths in interleaved order, a repeated sentence and a length
# that occurs once (1 token)
INFER = [[3, 9, 2], [14, 5, 5, 21, 7], [6], [11, 12, 13], [3, 9, 2], [1, 4, 8, 8, 2], [7, 7, 7]]


def arrays(labels) -> list[np.ndarray]:
    """One sentence's teacher labels as a list of arrays: per old type
    (SpanKL), per head (AddNER) or the single softmax (ExtendNER)."""
    if isinstance(labels, dict):
        return [labels[t] for t in sorted(labels)]
    return list(labels) if isinstance(labels, list) else [labels]


@pytest.mark.parametrize("kind", ["spankl", "extendner", "addner"])
class TestLengthBucketedInference:
    @staticmethod
    def built(kind):
        model, _ = build(kind, with_teacher=False)
        rng = np.random.default_rng(3)
        for p in model.named_parameters().values():
            p.grad = rng.standard_normal(p.shape)
        return model, {k: p.grad.copy() for k, p in model.named_parameters().items()}

    def test_predict_many_equals_one_sentence_calls(self, kind):
        model, grads = self.built(kind)
        got = model.predict_many(INFER)
        assert got == [model.predict(ids) for ids in INFER]
        assert any(got) and got[0] == got[4]
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.grad, grads[name], err_msg=name)

    def test_teacher_pass_equals_one_sentence_calls(self, kind):
        model, grads = self.built(kind)
        old = ["LOC", "ORG"]
        got = model.teacher_predict(INFER, old)
        want = [model.teacher_predict([ids], old)[0] for ids in INFER]
        assert cache_digest(got) == cache_digest(want)
        for g, w in zip(got, want):
            assert len(arrays(g)) == len(arrays(w)) > 0
            for a, b in zip(arrays(g), arrays(w)):
                assert np.array_equal(a, b)
        for name, p in model.named_parameters().items():
            np.testing.assert_array_equal(p.grad, grads[name], err_msg=name)


@pytest.mark.parametrize("kind", ["spankl", "extendner", "addner"])
def test_growth_with_no_types_is_a_no_op_and_repeats_are_rejected(kind):
    model, _ = build(kind, False)
    before = {name: arr.copy() for name, arr in model.state_arrays().items()}
    model.grow([], np.random.default_rng(0))
    after = model.state_arrays()
    assert before.keys() == after.keys()
    assert all(np.array_equal(before[name], after[name]) for name in before)
    for repeat in (["MISC", "MISC"], ["PER"]):
        with pytest.raises(ValueError, match="repeat or are already registered"):
            model.grow(repeat, np.random.default_rng(0))
    assert model.types == ("LOC", "PER", "ORG")
