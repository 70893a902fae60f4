"""Tensor engine: forward values, gradients vs finite differences, Adam."""
from __future__ import annotations

import numpy as np
import pytest

from clner import numcore as nc
from helpers import assert_gradients_match, finite_difference_grads, max_rel_err, total


class TestForwardValues:
    def test_sigmoid_at_zero(self):
        assert nc.sigmoid(nc.tensor(0.0)).item() == 0.5

    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = nc.matmul(nc.tensor(np.eye(3)), nc.tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_softmax_uniform(self):
        out = nc.softmax(nc.tensor([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out.data, [1 / 3, 1 / 3, 1 / 3], atol=1e-15)

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
            nc.permute(nc.tensor(np.zeros((2, 3))), (0, 0))


class TestBackwardBasics:
    def test_linear_derivative(self):
        w = nc.parameter([1.5])
        x = nc.tensor([2.0])
        loss = total(nc.mul(w, x))
        loss.backward()
        np.testing.assert_array_equal(w.grad, [2.0])

    def test_sigmoid_derivative_at_zero(self):
        w = nc.parameter(0.0)
        loss = nc.sigmoid(w)
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
        assert_gradients_match(lambda: total(nc.sigmoid(nc.matmul(a, b))), [a, b])

    def test_batched_matmul_broadcast(self):
        # leading axes broadcast both ways: (2, 1, 3, 4) @ (5, 4, 2)
        a, b = self.param(2, 1, 3, 4), self.param(5, 4, 2)
        assert_gradients_match(lambda: total(nc.sigmoid(nc.matmul(a, b))), [a, b])
        c = self.param(4, 3)
        assert_gradients_match(lambda: total(nc.sigmoid(nc.matmul(a, c))), [a, c])

    def test_reshape_and_permute(self):
        x = self.param(2, 3, 4)
        weights = self.rng.normal(size=(4, 2, 3))

        def loss():
            moved = nc.permute(nc.reshape(x, (2, 3, 2, 2)), (3, 0, 2, 1))
            return total(nc.mul(nc.sigmoid(nc.reshape(moved, (4, 2, 3))), weights))

        assert_gradients_match(loss, [x])

    def test_add_broadcast_bias(self):
        x, b = self.param(3, 4), self.param(4)
        assert_gradients_match(lambda: total(nc.sigmoid(nc.add(x, b))), [x, b])

    def test_mul_and_sub(self):
        a, b = self.param(5), self.param(5)
        assert_gradients_match(
            lambda: total(nc.mul(nc.sub(a, b), nc.sub(a, b))), [a, b]
        )

    def test_scalar_operand(self):
        a = self.param(4)
        assert_gradients_match(lambda: total(nc.mul(a, 2.5)), [a])

    def test_softmax_axes(self):
        x = self.param(4, 5)
        for axis in (0, 1):
            assert_gradients_match(
                lambda: total(nc.mul(nc.softmax(x, axis=axis), x)), [x]
            )

    def test_transpose_slice_concat(self):
        a, b = self.param(4, 3), self.param(2, 3)

        def loss():
            joined = nc.concat([nc.permute(a, (1, 0))[:, 0:2], nc.permute(b, (1, 0))], axis=1)
            return total(nc.mul(joined, joined))

        assert_gradients_match(loss, [a, b])

    def test_gather_rows(self):
        table = self.param(6, 4)
        ids = [0, 3, 3, 5]
        assert_gradients_match(
            lambda: total(nc.sigmoid(nc.gather_rows(table, ids))), [table]
        )

    def test_layer_norm(self):
        x, g, b = self.param(4, 6), self.param(6), self.param(6)
        assert_gradients_match(
            lambda: total(nc.sigmoid(nc.layer_norm(x, g, b))), [x, g, b]
        )

    def test_bce_with_logits(self):
        z = self.param(4, 4)
        targets = (self.rng.random((4, 4)) > 0.5).astype(float)
        mask = np.triu(np.ones((4, 4)))
        assert_gradients_match(lambda: nc.bce_with_logits(z, targets, mask), [z])

    def test_bernoulli_kl_with_logits(self):
        z = self.param(4, 4)
        ref = self.rng.uniform(0.05, 0.95, size=(4, 4))
        mask = np.triu(np.ones((4, 4)))
        assert_gradients_match(lambda: nc.bernoulli_kl_with_logits(z, ref, mask), [z])

    def test_cross_entropy_rows(self):
        z = self.param(5, 3)
        gold = [0, 2, 1, 1, 0]
        mask = np.array([1.0, 0.0, 1.0, 1.0, 1.0])
        assert_gradients_match(lambda: nc.cross_entropy_rows(z, gold, mask), [z])

    def test_kl_div_rows(self):
        z = self.param(4, 3)
        raw = self.rng.uniform(0.1, 1.0, size=(4, 3))
        ref = raw / raw.sum(axis=1, keepdims=True)
        mask = np.array([1.0, 1.0, 0.0, 1.0])
        assert_gradients_match(lambda: nc.kl_div_rows(z, ref, mask), [z])

    def test_two_layer_net(self):
        w1, b1 = self.param(5, 8), self.param(8)
        w2, b2 = self.param(8, 2), self.param(2)
        x = nc.tensor(self.rng.normal(size=(3, 5)))

        def loss():
            h = nc.sigmoid(nc.add(nc.matmul(x, w1), b1))
            out = nc.add(nc.matmul(h, w2), b2)
            return total(nc.mul(nc.sigmoid(out), out))

        assert_gradients_match(loss, [w1, b1, w2, b2])


class TestDeterminism:
    def test_bitwise_repeatable_forward_backward(self):
        def run():
            rng = np.random.default_rng(42)
            w = nc.parameter(rng.normal(size=(4, 4)))
            x = nc.tensor(rng.normal(size=(3, 4)))
            h = nc.mul(nc.softmax(nc.matmul(x, w), axis=1), (rng.random((3, 4)) >= 0.3) / 0.7)
            loss = total(nc.mul(h, h))
            loss.backward()
            return loss.item(), w.grad.copy()

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


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
            loss = nc.mul(nc.sub(w, 3.0), nc.sub(w, 3.0))
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
