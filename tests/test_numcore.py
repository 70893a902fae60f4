"""Tensor engine: forward values, gradients vs finite differences, Adam."""
from __future__ import annotations

import threading

import numpy as np
import pytest

from clner import numcore as nc
from clner.encoder import EncoderConfig, TransformerEncoder
from clner.numcore.tensor import stable_softmax
from clner.spankl import SpanKLModel
from helpers import (
    PerParameterAdamW,
    assert_gradients_match,
    bce_cell,
    cross_entropy_rows_oracle,
    finite_difference_grads,
    gather_rows,
    kl_div_rows_oracle,
    layer_norm,
    max_rel_err,
    permute,
    reference_attention_block,
    reference_embed,
    reference_span_scores,
    sigmoid,
    softmax,
    total,
    two_branch_sigmoid,
)


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        assert sigmoid(nc.tensor(0.0)).item() == 0.5

    def test_sigmoid_equals_the_two_branch_form_bitwise(self):
        rng = np.random.default_rng(1)
        extremes = [0.0, -0.0, 5e-324, -5e-324, 36.7, -36.7, 709.0, -745.2, 800.0, -800.0]
        for x in (rng.normal(scale=8.0, size=(2, 6, 40, 40)), np.array(extremes + [np.inf, -np.inf])):
            got = sigmoid(x).data
            np.testing.assert_array_equal(got, two_branch_sigmoid(x))
            assert np.array_equal(np.signbit(got), np.signbit(two_branch_sigmoid(x)))

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = nc.matmul(nc.tensor(np.eye(3)), nc.tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_softmax_uniform(self):
        out = softmax(nc.tensor([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

    def test_stable_softmax_is_the_softmax_forward_over_the_last_axis(self):
        """The array function of the taggers' inference: bit for bit the
        former op's forward, finite where exp of a logit overflows."""
        x = np.random.default_rng(2).normal(scale=8.0, size=(3, 5, 7))
        x[0, 0] += 1000.0
        got = stable_softmax(x)
        np.testing.assert_array_equal(got, softmax(nc.tensor(x)).data)
        assert np.isfinite(got).all()
        np.testing.assert_allclose(got.sum(axis=-1), 1.0, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(nc.ShapeError, match=r"\(2, 3\).*\(2, 3\)"):
            nc.matmul(nc.tensor(np.zeros((2, 3))), nc.tensor(np.zeros((2, 3))))
        with pytest.raises(nc.ShapeError, match=r"\(2,\).*\(3,\)"):
            nc.add(nc.tensor(np.zeros(2)), nc.tensor(np.zeros(3)))

    def test_batched_matmul_matches_per_slice_products(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(2, 1, 3, 4)), rng.normal(size=(5, 4, 2))
        out = nc.matmul(nc.tensor(a), nc.tensor(b)).data
        assert out.shape == (2, 5, 3, 2)
        for i in range(2):
            for k in range(5):
                np.testing.assert_array_equal(out[i, k], a[i, 0] @ b[k])
        with pytest.raises(nc.ShapeError):
            nc.matmul(nc.tensor(np.zeros((2, 3, 4))), nc.tensor(np.zeros((3, 4, 2))))

    def test_reshape_and_permute_reject_bad_shapes(self):
        with pytest.raises(nc.ShapeError):
            nc.reshape(nc.tensor(np.zeros((2, 3))), (4, 2))
        with pytest.raises(nc.ShapeError):
            permute(nc.tensor(np.zeros((2, 3))), (0, 0))


class TestBackwardBasics:
    def test_linear_derivative(self):
        w = nc.parameter([1.5])
        x = nc.tensor([2.0])
        loss = total(nc.mul(w, x))
        loss.backward()
        np.testing.assert_array_equal(w.grad, [2.0])

    def test_sigmoid_derivative_at_zero(self):
        w = nc.parameter(0.0)
        loss = sigmoid(w)
        loss.backward()
        assert w.grad == pytest.approx(0.25)

    def test_fanout_accumulates(self):
        x = nc.parameter([3.0])
        y = total(nc.add(x, x))
        y.backward()
        np.testing.assert_array_equal(x.grad, [2.0])

    def test_nonscalar_loss_rejected(self):
        x = nc.parameter([1.0, 2.0])
        with pytest.raises(nc.ShapeError):
            nc.backward(nc.mul(x, 2.0))

    def test_each_node_visited_once(self):
        # diamond: loss depends on z twice through different paths
        z = nc.parameter([1.0, 2.0])
        a = nc.mul(z, 3.0)
        b = nc.add(z, 1.0)
        loss = total(nc.add(a, b))
        loss.backward()
        np.testing.assert_array_equal(z.grad, [4.0, 4.0])


class TestGradientsMatchFiniteDifferences:
    """Central-difference oracle, step 1e-5, relative error < 1e-4."""

    def setup_method(self):
        self.rng = np.random.default_rng(1234)

    def param(self, *shape):
        return nc.parameter(self.rng.normal(size=shape))

    def test_matmul(self):
        a, b = self.param(3, 4), self.param(4, 2)
        assert_gradients_match(lambda: total(sigmoid(nc.matmul(a, b))), [a, b])

    def test_batched_matmul_broadcast(self):
        # leading axes broadcast both ways: (2, 1, 3, 4) @ (5, 4, 2)
        a, b = self.param(2, 1, 3, 4), self.param(5, 4, 2)
        assert_gradients_match(lambda: total(sigmoid(nc.matmul(a, b))), [a, b])
        c = self.param(4, 3)
        assert_gradients_match(lambda: total(sigmoid(nc.matmul(a, c))), [a, c])

    def test_reshape_and_permute(self):
        x = self.param(2, 3, 4)
        weights = self.rng.normal(size=(4, 2, 3))

        def loss():
            moved = permute(nc.reshape(x, (2, 3, 2, 2)), (3, 0, 2, 1))
            return total(nc.mul(sigmoid(nc.reshape(moved, (4, 2, 3))), weights))

        assert_gradients_match(loss, [x])

    def test_add_broadcast_bias(self):
        x, b = self.param(3, 4), self.param(4)
        assert_gradients_match(lambda: total(sigmoid(nc.add(x, b))), [x, b])

    def test_mul_and_sub(self):
        """(a - b)^2, with a - b built as a + (-1) * b."""
        a, b = self.param(5), self.param(5)

        def loss():
            diff = nc.add(a, nc.mul(b, -1.0))
            return total(nc.mul(diff, diff))

        assert_gradients_match(loss, [a, b])

    def test_scalar_operand(self):
        a = self.param(4)
        assert_gradients_match(lambda: total(nc.mul(a, 2.5)), [a])

    def test_softmax_axes(self):
        x = self.param(4, 5)
        for axis in (0, 1):
            assert_gradients_match(
                lambda: total(nc.mul(softmax(x, axis=axis), x)), [x]
            )

    def test_transpose_slice_concat(self):
        a, b = self.param(4, 3), self.param(2, 3)

        def loss():
            joined = nc.concat([permute(a, (1, 0))[:, 0:2], permute(b, (1, 0))], axis=1)
            return total(nc.mul(joined, joined))

        assert_gradients_match(loss, [a, b])

    def test_gather_rows(self):
        table = self.param(6, 4)
        ids = [0, 3, 3, 5]
        assert_gradients_match(
            lambda: total(sigmoid(gather_rows(table, ids))), [table]
        )

    def test_layer_norm(self):
        x, g, b = self.param(4, 6), self.param(6), self.param(6)
        assert_gradients_match(
            lambda: total(sigmoid(layer_norm(x, g, b))), [x, g, b]
        )

    def test_bce_with_logits(self):
        z = self.param(4, 4)
        targets = (self.rng.random((4, 4)) > 0.5).astype(float)
        mask = np.triu(np.ones((4, 4)))
        assert_gradients_match(lambda: nc.bce_with_logits(z, targets, mask), [z])

    def test_bce_with_logits_soft_targets_and_weights(self):
        z = self.param(2, 3, 4, 4)
        targets = self.rng.uniform(0.05, 0.95, size=(2, 3, 4, 4))
        weights = self.rng.uniform(0.0, 2.0, size=(2, 3, 4, 4)) * np.triu(np.ones((4, 4)))
        assert_gradients_match(lambda: nc.bce_with_logits(z, targets, weights), [z])
        # soft-target cross entropy of a cell: t * bce(z, 1) + (1 - t) * bce(z, 0)
        want = sum(
            w * (t * bce_cell(x, 1.0) + (1.0 - t) * bce_cell(x, 0.0))
            for x, t, w in zip(z.data.ravel(), targets.ravel(), weights.ravel())
        )
        assert abs(nc.bce_with_logits(z, targets, weights).item() - want) <= 1e-12

    def test_cross_entropy_rows(self):
        # one-hot gold rows through the fused op, one zero-weight row
        z = self.param(5, 3)
        gold = [0, 2, 1, 1, 0]
        targets = np.eye(3)[gold]
        mask = np.array([1.0, 0.0, 1.0, 1.0, 1.0])
        assert_gradients_match(lambda: nc.softmax_cross_entropy(z, targets, mask), [z])
        got = nc.softmax_cross_entropy(z, targets, mask).item()
        assert abs(got - cross_entropy_rows_oracle(z.data, gold, mask)) <= 1e-12

    def test_kl_div_rows(self):
        # soft teacher rows through the fused op, one zero-weight row; the
        # op is the cross entropy, i.e. KL plus the rows' entropy
        z = self.param(4, 3)
        raw = self.rng.uniform(0.1, 1.0, size=(4, 3))
        ref = raw / raw.sum(axis=1, keepdims=True)
        mask = np.array([1.0, 1.0, 0.0, 1.0])
        assert_gradients_match(lambda: nc.softmax_cross_entropy(z, ref, mask), [z])
        entropy = -(mask * (ref * np.log(ref)).sum(axis=1)).sum()
        got = nc.softmax_cross_entropy(z, ref, mask).item()
        assert abs(got - (kl_div_rows_oracle(z.data, ref, mask) + entropy)) <= 1e-12

    def test_softmax_cross_entropy(self):
        # rows 0-2 one-hot gold, rows 3-5 soft (teacher) rows; weights
        # fractional, zero and above one
        z = self.param(6, 3)
        raw = self.rng.uniform(0.1, 1.0, size=(3, 3))
        targets = np.concatenate([np.eye(3)[[0, 2, 1]], raw / raw.sum(axis=1, keepdims=True)])
        weights = np.array([0.7, 0.0, 1.0, 1.3, 0.25, 0.0])
        assert_gradients_match(lambda: nc.softmax_cross_entropy(z, targets, weights), [z])
        hard, soft = slice(0, 3), slice(3, 6)
        want = cross_entropy_rows_oracle(z.data[hard], [0, 2, 1], weights[hard]) + (
            kl_div_rows_oracle(z.data[soft], targets[soft], weights[soft])
            - (weights[soft] * (targets[soft] * np.log(targets[soft])).sum(axis=1)).sum()
        )
        got = nc.softmax_cross_entropy(z, targets, weights).item()
        assert abs(got - want) <= 1e-12

    def test_softmax_cross_entropy_rejects_bad_targets_and_weights(self):
        z = self.param(2, 3)
        good = np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.5]])
        with pytest.raises(ValueError, match="non-negative"):
            nc.softmax_cross_entropy(z, np.array([[1.2, -0.2, 0.0], [0.2, 0.3, 0.5]]), np.ones(2))
        with pytest.raises(ValueError, match="sum to 1"):
            nc.softmax_cross_entropy(z, np.array([[1.0, 0.0, 0.0], [0.2, 0.3, 0.4]]), np.ones(2))
        with pytest.raises(nc.ShapeError, match="targets shape"):
            nc.softmax_cross_entropy(z, good[:, :2], np.ones(2))
        with pytest.raises(nc.ShapeError, match="weights shape"):
            nc.softmax_cross_entropy(z, good, np.ones(3))
        with pytest.raises(nc.ShapeError, match="weights shape"):
            nc.softmax_cross_entropy(z, good, np.ones((2, 3)))

    def test_two_layer_net(self):
        w1, b1 = self.param(5, 8), self.param(8)
        w2, b2 = self.param(8, 2), self.param(2)
        x = nc.tensor(self.rng.normal(size=(3, 5)))

        def loss():
            h = sigmoid(nc.add(nc.matmul(x, w1), b1))
            out = nc.add(nc.matmul(h, w2), b2)
            return total(nc.mul(sigmoid(out), out))

        assert_gradients_match(loss, [w1, b1, w2, b2])


class TestFusedLayers:
    """``nc.embed``, ``nc.attention_block`` and ``nc.span_scores``: each a
    single node whose gradients pass the finite-difference check and
    whose values and gradients equal, bit for bit, those of the graph of
    primitive ops it replaces (``helpers.reference_*``)."""

    def setup_method(self):
        self.rng = np.random.default_rng(4321)

    def param(self, *shape):
        return nc.parameter(self.rng.normal(size=shape))

    def layer(self, d):
        """Projection weights and biases, then layer-norm gain and bias."""
        return [self.param(d, d) if i % 2 == 0 else self.param(d) for i in range(8)] + [
            self.param(d), self.param(d)
        ]

    def test_embed_gradients(self):
        tok, pos = self.param(6, 4), self.param(5, 4)
        for ids in ([[0, 3, 3], [5, 3, 1]], [2, 2], [[1]]):
            assert_gradients_match(
                lambda: total(sigmoid(nc.embed(tok, pos, ids))), [tok, pos]
            )

    @pytest.mark.parametrize("n_heads", [1, 2, 4])
    @pytest.mark.parametrize("n", [1, 4])
    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("dropout", [False, True])
    def test_attention_block_gradients(self, n_heads, n, padded, dropout):
        e, params = self.param(2, n, 4), self.layer(4)
        lengths = [n, max(1, n - 2)] if padded else None
        keep = (self.rng.random((2, n, 4)) >= 0.3) / 0.7 if dropout else None
        weights = self.rng.normal(size=(2, n, 4))

        def loss():
            return total(nc.mul(nc.attention_block(e, *params, n_heads, lengths, keep), weights))

        # the key bias shifts every score of a query by one constant, which
        # the softmax cancels: its gradient is zero up to roundoff, which
        # a relative finite-difference comparison cannot check
        b_k = params[3]
        assert_gradients_match(loss, [e, *params[:3], *params[4:]])
        assert np.abs(b_k.grad).max() < 1e-12

    @pytest.mark.parametrize("types", [1, 3])
    @pytest.mark.parametrize("n", [1, 4])
    def test_span_scores_gradients(self, types, n):
        hidden = self.param(2, n, 4)
        heads = [self.param(types, 4 if i % 2 == 0 else 1, 3) for i in range(4)]
        assert_gradients_match(
            lambda: total(sigmoid(nc.span_scores(hidden, *heads))), [hidden, *heads]
        )

    def test_span_scores_gradients_of_picked_rows(self):
        """Scoring picked heads in a new order: the gradients pass the
        finite-difference check, and the unpicked head gets zeros."""
        hidden = self.param(2, 3, 4)
        heads = [self.param(3, 4 if i % 2 == 0 else 1, 3) for i in range(4)]
        rows = np.array([2, 0])
        assert_gradients_match(
            lambda: total(sigmoid(nc.span_scores(hidden, *heads, rows))), [hidden, *heads]
        )
        assert all(not p.grad[1].any() for p in heads)

    def test_equal_to_the_composed_graph_bitwise_on_random_shapes(self):
        """300 seeded draws of batch, length, heads, width, types, picked
        head rows (all, or a subset in random order) and span width, with
        and without padding and dropout: every forward value, the loss and
        every parameter gradient are equal bit for bit."""
        fused = (nc.embed, nc.attention_block, nc.span_scores)
        composed = (reference_embed, reference_attention_block, reference_span_scores)
        for trial in range(300):
            rng = np.random.default_rng([77, trial])
            batch, n, n_heads = int(rng.integers(1, 4)), int(rng.integers(1, 8)), int(rng.choice([1, 2, 4]))
            d, types, span = n_heads * int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 5))
            tables = [nc.parameter(rng.normal(size=(7, d))), nc.parameter(rng.normal(size=(n + 2, d)))]
            layer = [nc.parameter(rng.normal(size=(d, d) if i % 2 == 0 else d)) for i in range(8)]
            layer += [nc.parameter(rng.normal(size=d)) for _ in range(2)]
            heads = [nc.parameter(rng.normal(size=(types, d if i % 2 == 0 else 1, span))) for i in range(4)]
            rows = None
            if rng.random() < 0.5:
                rows = rng.choice(types, size=int(rng.integers(1, types + 1)), replace=False)
            picked = types if rows is None else len(rows)
            ids = rng.integers(0, 7, size=(batch, n))
            lengths = rng.integers(1, n + 1, size=batch) if rng.random() < 0.5 else None
            keep = (rng.random((batch, n, d)) >= 0.3) / 0.7 if rng.random() < 0.5 else None
            targets, cell_weights = rng.random((2, batch, picked, n, n))
            params = tables + layer + heads
            runs = []
            for emb, attention, scorer in (fused, composed):
                nc.zero_grad(params)
                e = emb(*tables, ids)
                hidden = attention(e, *layer, n_heads, lengths, keep)
                logits = scorer(hidden, *heads, rows)
                loss = nc.bce_with_logits(logits, targets, cell_weights)
                loss.backward()
                runs.append([e.data, hidden.data, logits.data, loss.data] + [p.grad.copy() for p in params])
            for got, want in zip(*runs):
                np.testing.assert_array_equal(got, want, err_msg=f"trial {trial}")

    def test_shape_checks(self):
        tok, pos = self.param(5, 4), self.param(3, 4)
        with pytest.raises(nc.ShapeError, match="out of range"):
            nc.embed(tok, pos, [[0, 5]])
        with pytest.raises(nc.ShapeError, match="positions"):
            nc.embed(tok, pos, [[0, 1, 2, 3]])
        with pytest.raises(nc.ShapeError, match="width"):
            nc.embed(tok, self.param(3, 2), [[0]])
        e, params = self.param(2, 3, 4), self.layer(4)
        with pytest.raises(nc.ShapeError, match="heads"):
            nc.attention_block(e, *params, 3)
        with pytest.raises(nc.ShapeError, match="parameter shape"):
            nc.attention_block(e, self.param(4, 2), *params[1:], 2)
        with pytest.raises(nc.ShapeError, match="parameter shape"):
            nc.attention_block(e, *params[:-1], self.param(3), 2)
        with pytest.raises(nc.ShapeError, match="lengths"):
            nc.attention_block(e, *params, 2, [3, 4])
        with pytest.raises(nc.ShapeError, match="keep shape"):
            nc.attention_block(e, *params, 2, None, np.ones((2, 3, 2)))
        heads = [self.param(2, 4, 3), self.param(2, 1, 3)] * 2
        with pytest.raises(nc.ShapeError, match="does not match heads"):
            nc.span_scores(self.param(2, 3, 5), *heads)
        with pytest.raises(nc.ShapeError, match="do not stack"):
            nc.span_scores(e, *heads[:3], self.param(2, 3))


class TestDeterminism:
    def test_bitwise_repeatable_forward_backward(self):
        def run():
            rng = np.random.default_rng(42)
            w = nc.parameter(rng.normal(size=(4, 4)))
            x = nc.tensor(rng.normal(size=(3, 4)))
            h = nc.mul(softmax(nc.matmul(x, w), axis=1), (rng.random((3, 4)) >= 0.3) / 0.7)
            loss = total(nc.mul(h, h))
            loss.backward()
            return loss.item(), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


class TestNoGrad:
    @staticmethod
    def every_op():
        """One call of every op, each on parameters where it takes any."""
        rng = np.random.default_rng(9)
        m = nc.parameter(rng.normal(size=(3, 4)))
        v = nc.parameter(rng.normal(size=4))
        w = nc.parameter(rng.normal(size=(4, 2)))
        table = nc.parameter(rng.normal(size=(5, 4)))
        w4 = nc.parameter(rng.normal(size=(4, 4)))
        head_w = nc.parameter(rng.normal(size=(2, 4, 3)))
        head_b = nc.parameter(rng.normal(size=(2, 1, 3)))
        probs = np.full((3, 4), 0.25)
        return {
            "matmul": lambda: nc.matmul(m, w),
            "add": lambda: nc.add(m, v),
            "mul": lambda: nc.mul(m, v),
            "reshape": lambda: nc.reshape(m, (4, 3)),
            "tensor_slice": lambda: nc.tensor_slice(m, np.array([2, 0])),
            "concat": lambda: nc.concat([m, m], axis=0),
            "embed": lambda: nc.embed(table, m, [[4, 0, 4]]),
            "attention_block": lambda: nc.attention_block(
                nc.reshape(m, (1, 3, 4)), *[w4, v] * 4, v, v, 2, [2], np.full((1, 3, 4), 2.0)
            ),
            "span_scores": lambda: nc.span_scores(
                nc.reshape(m, (1, 3, 4)), head_w, head_b, head_w, head_b
            ),
            "bce_with_logits": lambda: nc.bce_with_logits(m, probs),
            "softmax_cross_entropy": lambda: nc.softmax_cross_entropy(m, probs, np.ones(3)),
        }

    def test_every_op_is_covered(self):
        """A new or renamed export is either an op (and so in ``every_op``)
        or listed here."""
        not_ops = {
            "AdamW", "CheckpointError", "ShapeError", "Tensor", "backward", "load_checkpoint",
            "no_grad", "parameter", "save_checkpoint", "tensor", "zero_grad",
        }
        assert set(self.every_op()) == set(nc.__all__) - not_ops

    def test_every_op_records_nothing_and_computes_the_same(self):
        for name, op in self.every_op().items():
            recorded = op()
            assert recorded.requires_grad and recorded._parents, name
            with nc.no_grad():
                out = op()
            assert out.requires_grad is False, name
            assert out._parents == () and out._backprop is None, name
            np.testing.assert_array_equal(out.data, recorded.data, err_msg=name)

    def test_shape_checks_still_run(self):
        with nc.no_grad(), pytest.raises(nc.ShapeError):
            nc.matmul(nc.parameter(np.zeros((2, 3))), nc.parameter(np.zeros((2, 3))))

    @staticmethod
    def records() -> bool:
        return sigmoid(nc.parameter(np.zeros(2))).requires_grad

    def test_mode_restored_after_block_exception_and_nesting(self):
        with nc.no_grad():
            assert not self.records()
        assert self.records()
        with pytest.raises(RuntimeError):
            with nc.no_grad():
                raise RuntimeError("inside")
        assert self.records()
        with nc.no_grad():
            with nc.no_grad():
                assert not self.records()
            assert not self.records()
        assert self.records()

    def test_other_threads_keep_recording(self):
        seen = []
        with nc.no_grad():
            worker = threading.Thread(target=lambda: seen.append(self.records()))
            worker.start()
            worker.join(timeout=10)
            assert not worker.is_alive()
            assert not self.records()
        assert seen == [True]


class TestAdam:
    def test_descent_on_quadratic(self):
        w = nc.parameter(1.0)
        opt = nc.AdamW([{"params": [w], "lr": 0.1}])
        opt.zero_grad()
        loss = nc.mul(w, w)
        loss.backward()
        opt.step()
        assert abs(w.item()) < 1.0

    def test_zero_grad_zero_decay_is_fixed_point(self):
        w = nc.parameter([2.0, -3.0])
        opt = nc.AdamW([{"params": [w], "lr": 0.1}])
        opt.zero_grad()
        opt.step()
        np.testing.assert_array_equal(w.data, [2.0, -3.0])

    def test_missing_gradient_rejected(self):
        w = nc.parameter([1.0])
        opt = nc.AdamW([{"params": [w], "lr": 0.1}])
        with pytest.raises(ValueError):
            opt.step()

    def test_converges_and_matches_scalar_recurrence(self):
        # independent re-run of the update rule on f(w) = (w - 3)^2
        def reference(steps, lr=0.1, b1=0.9, b2=0.999, eps=1e-8):
            w, m, v = 0.0, 0.0, 0.0
            for t in range(1, steps + 1):
                g = 2.0 * (w - 3.0)
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                w -= lr * (m / (1 - b1**t)) / ((v / (1 - b2**t)) ** 0.5 + eps)
            return w

        w = nc.parameter(0.0)
        opt = nc.AdamW([{"params": [w], "lr": 0.1}])
        for _ in range(200):
            opt.zero_grad()
            loss = nc.mul(nc.add(w, -3.0), nc.add(w, -3.0))
            loss.backward()
            opt.step()
        assert abs(w.item() - 3.0) < 1e-2
        assert w.item() == pytest.approx(reference(200), abs=1e-12)

    def test_decoupled_weight_decay_single_step(self):
        # with zero gradient the update reduces to w <- w - lr*wd*w
        w = nc.parameter([4.0])
        opt = nc.AdamW([{"params": [w], "lr": 0.5, "weight_decay": 0.1}])
        opt.zero_grad()
        opt.step()
        np.testing.assert_allclose(w.data, [4.0 - 0.5 * 0.1 * 4.0])

    def test_flat_buffers_equal_the_per_parameter_loop_bitwise(self):
        rng = np.random.default_rng(11)
        shapes = [[(), (3,), (2, 3, 4)], [(5,), (), (4, 1, 2)]]
        values = [[rng.normal(size=s) for s in group] for group in shapes]

        def groups(params):
            return [
                {"params": params[0], "lr": 0.05, "weight_decay": 0.01},
                {"params": params[1], "lr": 0.2},
            ]

        flat = [[nc.parameter(v) for v in group] for group in values]
        loop = [[nc.parameter(v) for v in group] for group in values]
        opt = nc.AdamW(groups(flat), weight_decay=0.03)
        oracle = PerParameterAdamW(groups(loop), weight_decay=0.03)
        for k in range(50):
            opt.zero_grad()
            for a, b in zip(sum(flat, []), sum(loop, [])):
                g = rng.normal(size=a.shape)
                a.grad += g
                b.grad = g.copy()
            for opt_group, oracle_group in zip(opt.groups, oracle.groups):
                opt_group["lr"] = oracle_group["lr"] = oracle_group["lr"] * (0.9 if k % 3 else 1.1)
            opt.step()
            oracle.step()
            for a, b in zip(sum(flat, []), sum(loop, [])):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a.data, b.data)

    def test_snapshot_copy_unchanged_by_later_steps(self):
        rng = np.random.default_rng(12)
        encoder = TransformerEncoder(9, EncoderConfig(d_model=8, n_heads=2, max_len=8), rng)
        model = SpanKLModel(encoder, d_span=4)
        model.grow(["PER", "ORG"], rng)
        opt = nc.AdamW([{"params": model.head_parameters(), "lr": 0.05},
                        {"params": model.encoder_parameters(), "lr": 0.01}])

        def train(steps):
            for _ in range(steps):
                opt.zero_grad()
                model.sentence_loss([3, 1, 4], [(1, 2, "PER")], ["PER", "ORG"], None,
                                    1.0, 1.0, False, None).backward()
                opt.step()

        train(3)
        snapshot = {k: v.copy() for k, v in model.state_arrays().items()}
        frozen = {k: v.copy() for k, v in snapshot.items()}
        train(3)
        for name, arr in snapshot.items():
            np.testing.assert_array_equal(arr, frozen[name], err_msg=name)
        assert any(
            not np.array_equal(arr, snapshot[name]) for name, arr in model.state_arrays().items()
        )

    def test_rebound_parameter_rejected(self):
        w = nc.parameter([1.0, 2.0])
        opt = nc.AdamW([{"params": [w], "lr": 0.1}])
        opt.zero_grad()
        w.grad = np.ones(2)
        with pytest.raises(ValueError, match="rebound"):
            opt.step()
        opt.zero_grad()
        w.data = np.zeros(2)
        with pytest.raises(ValueError, match="rebound"):
            opt.step()

    def test_gradients_finite(self):
        a, b = nc.parameter([1.0]), nc.parameter(np.ones((2, 2)))
        opt = nc.AdamW([{"params": [a], "lr": 0.1}, {"params": [b], "lr": 0.1}])
        opt.zero_grad()
        assert opt.gradients_finite()
        b.grad[1, 0] = np.nan
        assert not opt.gradients_finite()

    def test_per_group_learning_rates(self):
        a, b = nc.parameter([1.0]), nc.parameter([1.0])
        opt = nc.AdamW([{"params": [a], "lr": 0.1}, {"params": [b], "lr": 0.01}])
        opt.zero_grad()
        loss = total(nc.add(nc.mul(a, a), nc.mul(b, b)))
        loss.backward()
        opt.step()
        assert abs(1.0 - a.item()) > abs(1.0 - b.item())


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        arrays = {
            "encoder.tok_emb": rng.normal(size=(5, 3)),
            "heads.PER.start.w": rng.normal(size=(3, 2)),
            "scalar.bias": np.array(1.25),
        }
        path = tmp_path / "model.ckpt"
        nc.save_checkpoint(path, arrays)
        loaded = nc.load_checkpoint(path)
        assert set(loaded) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], np.asarray(arrays[name]))

    def test_documented_byte_layout(self, tmp_path):
        path = tmp_path / "tiny.ckpt"
        nc.save_checkpoint(path, {"w": np.array([1.0, 2.0])})
        blob = path.read_bytes()
        expected = (
            b"CLNCKPT1"
            + (1).to_bytes(4, "little")
            + (1).to_bytes(2, "little")
            + b"w"
            + (1).to_bytes(1, "little")
            + (2).to_bytes(4, "little")
            + np.array([1.0, 2.0], dtype="<f8").tobytes()
        )
        assert blob == expected

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOTACKPT" + b"\x00" * 16)
        with pytest.raises(nc.CheckpointError):
            nc.load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        nc.save_checkpoint(path, {"w": np.ones((4, 4))})
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(nc.CheckpointError):
            nc.load_checkpoint(path)


class TestOracleSanity:
    def test_finite_difference_oracle_on_known_gradient(self):
        # d/dw sum(w^2) = 2w, verified so the oracle itself is trusted
        w = nc.parameter([1.0, -2.0, 0.5])
        (fd,) = finite_difference_grads(
            lambda: float((w.data**2).sum()), [w]
        )
        assert max_rel_err(fd, 2.0 * w.data) < 1e-8
