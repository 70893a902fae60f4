"""Tensor type, primitive ops, and reverse-mode backward pass.

Every op validates shapes up front and records a graph node only when at
least one input tracks gradients and the calling thread is not inside
``no_grad``. The engine draws no random numbers; callers that need noise
(dropout) build a constant mask themselves.
"""
from __future__ import annotations

import contextlib
import threading
from typing import Callable, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible for an op."""


def _as_array(values) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64)
    return arr


class Tensor:
    """Dense float64 array with an optional gradient accumulator.

    ``grad`` always has the same shape as ``data`` once populated.
    Tensors produced by ops hold links to their inputs (``_parents``) and
    a closure (``_backprop``) that pushes ``grad`` into them; together
    these links are the compute graph of the forward pass. The closure
    receives the output gradient as its argument and holds no reference
    to its own output, so a graph is freed as soon as its loss is.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backprop")

    def __init__(self, values, requires_grad: bool = False):
        self.data = _as_array(values)
        self.requires_grad = requires_grad
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = ()
        self._backprop: Callable[[np.ndarray], None] | None = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on non-scalar tensor of shape {self.shape}")
        return float(self.data.reshape(()))

    def numpy(self) -> np.ndarray:
        """Copy of the values, detached from the graph."""
        return self.data.copy()

    def backward(self) -> None:
        backward(self)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # operator sugar; all routing goes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return tensor_slice(self, key)


def tensor(values, requires_grad: bool = False) -> Tensor:
    return Tensor(values, requires_grad=requires_grad)


def parameter(values) -> Tensor:
    """A trainable leaf tensor."""
    return Tensor(values, requires_grad=True)


def _lift(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _tracked(*tensors: Tensor) -> bool:
    return any(t.requires_grad for t in tensors)


class _GradMode(threading.local):
    recording = True


_grad_mode = _GradMode()


@contextlib.contextmanager
def no_grad():
    """Ops run on this thread inside the block record no graph: their
    outputs neither require grad nor link to their inputs. Other threads
    keep recording; the previous mode returns on exit."""
    previous = _grad_mode.recording
    _grad_mode.recording = False
    try:
        yield
    finally:
        _grad_mode.recording = previous


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backprop) -> Tensor:
    out = Tensor(data)
    if _grad_mode.recording and _tracked(*parents):
        out.requires_grad = True
        out._parents = parents
        out._backprop = backprop
    return out


def _accumulate(t: Tensor, g: np.ndarray) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a gradient back to ``shape`` after numpy broadcasting."""
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every requires_grad tensor reachable from ``loss``.

    Each graph node is visited exactly once; gradients accumulate
    additively where a tensor fans out into several ops.
    """
    if loss.size != 1:
        raise ShapeError(f"backward requires a scalar loss, got shape {loss.shape}")
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p._backprop is not None:
                stack.append((p, False))
            elif id(p) not in seen:
                seen.add(id(p))
    if loss.grad is None:
        loss.grad = np.zeros_like(loss.data)
    loss.grad += 1.0
    for node in reversed(order):
        if node._backprop is not None:
            node._backprop(node.grad)


def zero_grad(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = np.zeros_like(p.data)


# ---------------------------------------------------------------------------
# primitive ops
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product over the last two axes; leading axes broadcast as
    in numpy, so (B, 1, n, d) @ (T, d, k) gives (B, T, n, k). Gradients
    are summed back over the broadcast axes."""
    a, b = _lift(a), _lift(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    try:
        data = a.data @ b.data
    except ValueError:
        raise ShapeError(f"matmul: incompatible shapes {a.shape} x {b.shape}") from None

    def backprop(grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(grad @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ grad, b.shape))

    return _make(data, (a, b), backprop)


def _broadcast_binary(a: Tensor, b: Tensor, fwd, da, db, name: str) -> Tensor:
    try:
        data = fwd(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}") from None

    def backprop(grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(da(grad), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(db(grad), b.shape))

    return _make(data, (a, b), backprop)


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _broadcast_binary(a, b, np.add, lambda g: g, lambda g: g, "add")


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _broadcast_binary(
        a, b, np.multiply, lambda g: g * b.data, lambda g: g * a.data, "mul"
    )


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-x) where x >= 0 and e^x / (1 + e^x) elsewhere, from
    one exp(-|x|), which never overflows."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def sigmoid(x) -> Tensor:
    x = _lift(x)
    s = _stable_sigmoid(x.data)

    def backprop(grad):
        _accumulate(x, grad * s * (1.0 - s))

    return _make(s, (x,), backprop)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _lift(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backprop(g):
        _accumulate(x, (g - (g * s).sum(axis=axis, keepdims=True)) * s)

    return _make(s, (x,), backprop)


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _lift(x)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {x.shape} as {shape}") from None

    def backprop(grad):
        _accumulate(x, grad.reshape(x.shape))

    return _make(data, (x,), backprop)


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Reorder axes as ``numpy.transpose(x, axes)``."""
    x = _lift(x)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"permute: axes {axes} do not permute shape {x.shape}")
    inverse = tuple(np.argsort(axes))

    def backprop(grad):
        _accumulate(x, grad.transpose(inverse))

    return _make(x.data.transpose(axes), (x,), backprop)


def tensor_slice(x: Tensor, key) -> Tensor:
    """Basic indexing, or an index array without repeats; gradient
    scatters back into place."""
    x = _lift(x)
    data = x.data[key]

    def backprop(grad):
        g = np.zeros_like(x.data)
        g[key] += grad
        _accumulate(x, g)

    return _make(data, (x,), backprop)


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    ts = [_lift(t) for t in tensors]
    if not ts:
        raise ShapeError("concat: empty input list")
    try:
        data = np.concatenate([t.data for t in ts], axis=axis)
    except ValueError:
        raise ShapeError(
            f"concat: incompatible shapes {[t.shape for t in ts]} along axis {axis}"
        ) from None
    sizes = [t.shape[axis] for t in ts]
    offsets = np.cumsum([0] + sizes)

    def backprop(grad):
        for t, lo, hi in zip(ts, offsets[:-1], offsets[1:]):
            idx = [slice(None)] * data.ndim
            idx[axis] = slice(lo, hi)
            _accumulate(t, grad[tuple(idx)])

    return _make(data, tuple(ts), backprop)


def gather_rows(table: Tensor, ids: Sequence[int]) -> Tensor:
    """Row lookup (embedding); gradient scatter-adds into the table."""
    table = _lift(table)
    idx = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected a matrix table, got shape {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(
            f"gather_rows: ids out of range for table with {table.shape[0]} rows"
        )
    data = table.data[idx]

    def backprop(grad):
        g = np.zeros_like(table.data)
        np.add.at(g, idx, grad)
        _accumulate(table, g)

    return _make(data, (table,), backprop)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Row-wise layer normalization over the last axis."""
    x, gain, bias = _lift(x), _lift(gain), _lift(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ShapeError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} do not match width {d}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    data = xhat * gain.data + bias.data

    def backprop(g):
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        _accumulate(x, dx)
        reduce_axes = tuple(range(g.ndim - 1))
        _accumulate(gain, (g * xhat).sum(axis=reduce_axes))
        _accumulate(bias, g.sum(axis=reduce_axes))

    return _make(data, (x, gain, bias), backprop)


# ---------------------------------------------------------------------------
# fused loss primitives (numerically stable logit formulations)
# ---------------------------------------------------------------------------


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def bce_with_logits(logits: Tensor, targets: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Weighted sum of per-cell binary cross entropy, in the stable logit
    form softplus(z) - t*z. ``targets`` are soft labels in [0, 1] (a
    teacher probability as well as a gold 0/1), ``weights`` non-negative
    per-cell factors (0 drops a cell); both are constants. The gradient
    of cell z is weight * (sigmoid(z) - t)."""
    logits = _lift(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: targets shape {t.shape} vs logits {logits.shape}")
    w = np.ones_like(t) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: weights shape {w.shape} vs logits {logits.shape}")
    z = logits.data
    data = np.asarray((w * (_softplus(z) - t * z)).sum())

    def backprop(grad):
        _accumulate(logits, grad * w * (_stable_sigmoid(z) - t))

    return _make(data, (logits,), backprop)


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray, weights: np.ndarray) -> Tensor:
    """Weighted sum over rows of the cross entropy -sum_c t_c log
    softmax(z)_c against a soft target row t: a one-hot gold row gives
    the usual cross entropy, a teacher distribution the KL divergence
    minus the teacher's constant entropy. ``targets`` (N, C) must be
    distributions (non-negative, each row summing to 1), which the
    gradient weight * (softmax(z) - t) relies on; ``weights`` (N,) are
    non-negative per-row factors (0 drops a row). Both are constants."""
    logits = _lift(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: expected a matrix, got {logits.shape}")
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeError(f"softmax_cross_entropy: targets shape {t.shape} vs logits {logits.shape}")
    if np.any(t < 0.0):
        raise ValueError("softmax_cross_entropy: target rows must be non-negative")
    if not np.allclose(t.sum(axis=-1), 1.0, atol=1e-8):
        raise ValueError("softmax_cross_entropy: target rows must each sum to 1")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != logits.shape[:1]:
        raise ShapeError(f"softmax_cross_entropy: weights shape {w.shape} vs {logits.shape[0]} rows")
    ls = _log_softmax(logits.data)
    data = np.asarray(-(w * (t * ls).sum(axis=-1)).sum())

    def backprop(grad):
        _accumulate(logits, grad * w[:, None] * (np.exp(ls) - t))

    return _make(data, (logits,), backprop)
