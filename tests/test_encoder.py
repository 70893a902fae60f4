"""Vocabulary and shared contextual encoder."""
from __future__ import annotations

import numpy as np
import pytest

from clner import numcore as nc
from clner.encoder import EncoderConfig, TransformerEncoder, Vocab
from helpers import total


def small_encoder(seed=0, **overrides):
    cfg = EncoderConfig(**{"d_model": 16, "n_heads": 2, "max_len": 12, "dropout": 0.1, **overrides})
    return TransformerEncoder(vocab_size=20, config=cfg, rng=np.random.default_rng(seed))


class TestVocab:
    def test_reserved_ids(self):
        v = Vocab(["apple", "bee"])
        assert v.pad_id == 0 and v.unk_id == 1
        assert v.id_of("apple") == 2
        assert v.id_of("unheard") == v.unk_id

    def test_dedupe_preserves_first_occurrence_order(self):
        v = Vocab(["b", "a", "b", "c", "a"])
        assert len(v) == 5
        assert v.encode(["<pad>", "<unk>", "b", "a", "c"]) == [0, 1, 2, 3, 4]


class TestEncoderConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            EncoderConfig(d_model=10, n_heads=3)

    def test_dropout_range(self):
        with pytest.raises(ValueError):
            EncoderConfig(dropout=1.0)


class TestEncode:
    def test_output_shape_single_token(self):
        enc = small_encoder()
        out = enc.encode([3])
        assert out.shape == (1, 16)

    def test_eval_mode_deterministic(self):
        enc = small_encoder()
        a = enc.encode([3, 4, 5], train=False)
        b = enc.encode([3, 4, 5], train=False)
        np.testing.assert_array_equal(a.data, b.data)

    def test_position_embeddings_break_order_symmetry(self):
        enc = small_encoder(seed=11)
        ab = enc.encode([4, 7], train=False).data
        ba = enc.encode([7, 4], train=False).data
        assert not np.allclose(ab, ba)

    def test_empty_and_overlong_rejected(self):
        enc = small_encoder()
        with pytest.raises(ValueError):
            enc.encode([])
        with pytest.raises(ValueError):
            enc.encode(list(range(13)))

    def test_output_finite(self):
        enc = small_encoder(seed=2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            ids = rng.integers(0, 20, size=rng.integers(1, 12)).tolist()
            assert np.all(np.isfinite(enc.encode(ids).data))

    def test_gradients_reach_every_parameter(self):
        enc = small_encoder(seed=3)
        out = enc.encode([2, 5, 9], train=False)
        loss = total(nc.mul(out, out))
        loss.backward()
        for name, p in enc.named_parameters().items():
            assert p.grad is not None, name
            assert np.any(p.grad != 0.0), f"zero gradient on {name}"

    def test_dropout_active_only_in_train_mode(self):
        enc = small_encoder(seed=4)
        base = enc.encode([1, 2, 3], train=False).data
        dropped = enc.encode([1, 2, 3], train=True, rng=np.random.default_rng(0)).data
        assert not np.allclose(base, dropped)


class TestLoadArrays:
    """``EncoderModel.load_arrays`` checks every checkpoint entry against
    ``state_arrays`` before it copies any, so a refused load leaves the
    model as it was, and the error names the checkpoint entry."""

    @staticmethod
    def grown(kind):
        from clner.baselines import ExtendNerTagger
        from clner.spankl import SpanKLModel

        build = {"spankl": lambda enc: SpanKLModel(enc, d_span=4), "extendner": ExtendNerTagger}
        model = build[kind](small_encoder())
        model.grow(["A", "B"], np.random.default_rng(1))
        return model

    @pytest.mark.parametrize(
        "kind, damaged, shape, message",
        [
            pytest.param("spankl", ["heads.B.end_w"], None,
                         "checkpoint missing parameters: ['heads.B.end_w']", id="spankl-missing"),
            pytest.param("spankl", ["heads.B.end_w"], (16, 5),
                         "(16, 5) for heads.B.end_w does not match", id="spankl-one-type-shape"),
            pytest.param("spankl", ["heads.A.end_w", "heads.B.end_w"], (16, 5),
                         "(16, 5) for heads.A.end_w does not match", id="spankl-every-type-shape"),
            pytest.param("spankl", ["heads.B.start_b"], (1, 4),
                         "(1, 4) for heads.B.start_b does not match", id="spankl-bias-shape"),
            pytest.param("extendner", ["head.b"], None,
                         "checkpoint missing parameters: ['head.b']", id="extendner-missing"),
            pytest.param("extendner", ["head.w"], (16, 4),
                         "(16, 4) for head.w does not match", id="extendner-shape"),
        ],
    )
    def test_refused_load_changes_nothing(self, kind, damaged, shape, message):
        model = self.grown(kind)
        before = {name: arr.copy() for name, arr in model.state_arrays().items()}
        arrays = {name: arr + 1.0 for name, arr in before.items()}
        for name in damaged:
            if shape is None:
                del arrays[name]
            else:
                arrays[name] = np.ones(shape)
        with pytest.raises(ValueError) as refused:
            model.load_arrays(arrays)
        assert message in str(refused.value)
        for name, arr in model.state_arrays().items():
            np.testing.assert_array_equal(arr, before[name], err_msg=name)

    @pytest.mark.parametrize("kind", ["spankl", "extendner"])
    def test_load_copies_every_entry(self, kind):
        model = self.grown(kind)
        arrays = {name: arr + 1.0 for name, arr in model.state_arrays().items()}
        model.load_arrays(arrays)
        for name, arr in model.state_arrays().items():
            np.testing.assert_array_equal(arr, arrays[name], err_msg=name)
            assert not np.shares_memory(arr, arrays[name]), name
