"""Tensor type, primitive ops, and reverse-mode backward pass.

Every op validates shapes up front and records a graph node only when at
least one input tracks gradients. The engine draws no random numbers;
callers that need noise (dropout) build a constant mask themselves.
"""
from __future__ import annotations

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

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

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


def _make(data: np.ndarray, parents: tuple[Tensor, ...], backprop) -> Tensor:
    out = Tensor(data)
    if _tracked(*parents):
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

    out = _make(data, (a, b), backprop)
    return out


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

    out = _make(data, (a, b), backprop)
    return out


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _broadcast_binary(a, b, np.add, lambda g: g, lambda g: g, "add")


def sub(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _broadcast_binary(a, b, np.subtract, lambda g: g, lambda g: -g, "sub")


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _broadcast_binary(
        a, b, np.multiply, lambda g: g * b.data, lambda g: g * a.data, "mul"
    )


def _stable_sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def sigmoid(x) -> Tensor:
    x = _lift(x)
    s = _stable_sigmoid(x.data)

    def backprop(grad):
        _accumulate(x, grad * s * (1.0 - s))

    out = _make(s, (x,), backprop)
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    x = _lift(x)
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)

    def backprop(g):
        _accumulate(x, (g - (g * s).sum(axis=axis, keepdims=True)) * s)

    out = _make(s, (x,), backprop)
    return out


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _lift(x)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {x.shape} as {shape}") from None

    def backprop(grad):
        _accumulate(x, grad.reshape(x.shape))

    out = _make(data, (x,), backprop)
    return out


def permute(x: Tensor, axes: tuple[int, ...]) -> Tensor:
    """Reorder axes as ``numpy.transpose(x, axes)``."""
    x = _lift(x)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"permute: axes {axes} do not permute shape {x.shape}")
    inverse = tuple(np.argsort(axes))

    def backprop(grad):
        _accumulate(x, grad.transpose(inverse))

    out = _make(x.data.transpose(axes), (x,), backprop)
    return out


def tensor_slice(x: Tensor, key) -> Tensor:
    """Basic indexing, or an index array without repeats; gradient
    scatters back into place."""
    x = _lift(x)
    data = x.data[key]

    def backprop(grad):
        g = np.zeros_like(x.data)
        g[key] += grad
        _accumulate(x, g)

    out = _make(data, (x,), backprop)
    return out


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

    out = _make(data, tuple(ts), backprop)
    return out


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

    out = _make(data, (table,), backprop)
    return out


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

    out = _make(data, (x, gain, bias), backprop)
    return out


# ---------------------------------------------------------------------------
# fused loss primitives (numerically stable logit formulations)
# ---------------------------------------------------------------------------


def _softplus(z: np.ndarray) -> np.ndarray:
    return np.logaddexp(0.0, z)


def bce_with_logits(logits: Tensor, targets: np.ndarray, mask: np.ndarray | None = None) -> Tensor:
    """Sum of per-cell binary cross entropy, in the stable logit form
    softplus(z) - t*z. ``targets`` and ``mask`` are constants."""
    logits = _lift(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: targets shape {t.shape} vs logits {logits.shape}")
    m = np.ones_like(t) if mask is None else np.asarray(mask, dtype=np.float64)
    if m.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: mask shape {m.shape} vs logits {logits.shape}")
    z = logits.data
    data = np.asarray((m * (_softplus(z) - t * z)).sum())

    def backprop(grad):
        _accumulate(logits, grad * m * (_stable_sigmoid(z) - t))

    out = _make(data, (logits,), backprop)
    return out


def bernoulli_kl_with_logits(
    logits: Tensor, ref_probs: np.ndarray, mask: np.ndarray | None = None
) -> Tensor:
    """Sum over cells of KL(ref || sigmoid(logit)) for Bernoulli variables.

    ``ref_probs`` must lie strictly inside (0, 1); callers clamp first.
    Uses p*softplus(-z) + (1-p)*softplus(z) + p*log p + (1-p)*log(1-p).
    """
    logits = _lift(logits)
    p = np.asarray(ref_probs, dtype=np.float64)
    if p.shape != logits.shape:
        raise ShapeError(f"bernoulli_kl: ref shape {p.shape} vs logits {logits.shape}")
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("bernoulli_kl: reference probabilities must be in (0, 1)")
    m = np.ones_like(p) if mask is None else np.asarray(mask, dtype=np.float64)
    if m.shape != logits.shape:
        raise ShapeError(f"bernoulli_kl: mask shape {m.shape} vs logits {logits.shape}")
    z = logits.data
    q = 1.0 - p
    cells = p * _softplus(-z) + q * _softplus(z) + p * np.log(p) + q * np.log(q)
    data = np.asarray((m * cells).sum())

    def backprop(grad):
        _accumulate(logits, grad * m * (_stable_sigmoid(z) - p))

    out = _make(data, (logits,), backprop)
    return out


def _log_softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cross_entropy_rows(
    logits: Tensor, gold_ids: Sequence[int], row_mask: np.ndarray | None = None
) -> Tensor:
    """Sum over masked rows of -log softmax(row)[gold]."""
    logits = _lift(logits)
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_rows: expected a matrix, got {logits.shape}")
    ids = np.asarray(gold_ids, dtype=np.int64)
    n, width = logits.shape
    if ids.shape != (n,):
        raise ShapeError(f"cross_entropy_rows: gold shape {ids.shape} vs {n} rows")
    if ids.size and (ids.min() < 0 or ids.max() >= width):
        raise ShapeError(f"cross_entropy_rows: gold id out of range for width {width}")
    m = np.ones(n) if row_mask is None else np.asarray(row_mask, dtype=np.float64)
    if m.shape != (n,):
        raise ShapeError(f"cross_entropy_rows: mask shape {m.shape} vs {n} rows")
    ls = _log_softmax(logits.data)
    data = np.asarray(-(m * ls[np.arange(n), ids]).sum())

    def backprop(grad):
        sm = np.exp(ls)
        sm[np.arange(n), ids] -= 1.0
        _accumulate(logits, grad * m[:, None] * sm)

    out = _make(data, (logits,), backprop)
    return out


def kl_div_rows(
    logits: Tensor, ref_rows: np.ndarray, row_mask: np.ndarray | None = None
) -> Tensor:
    """Sum over masked rows of KL(ref_row || softmax(row)).

    Each reference row must be a distribution (non-negative, sums to 1);
    the gradient formula softmax - ref relies on that normalization.
    """
    logits = _lift(logits)
    p = np.asarray(ref_rows, dtype=np.float64)
    if p.shape != logits.shape:
        raise ShapeError(f"kl_div_rows: ref shape {p.shape} vs logits {logits.shape}")
    if np.any(p < 0.0):
        raise ValueError("kl_div_rows: reference rows must be non-negative")
    if not np.allclose(p.sum(axis=-1), 1.0, atol=1e-8):
        raise ValueError("kl_div_rows: reference rows must each sum to 1")
    n = logits.shape[0]
    m = np.ones(n) if row_mask is None else np.asarray(row_mask, dtype=np.float64)
    if m.shape != (n,):
        raise ShapeError(f"kl_div_rows: mask shape {m.shape} vs {n} rows")
    ls = _log_softmax(logits.data)
    plogp = np.where(p > 0.0, p * np.log(np.maximum(p, 1e-300)), 0.0)
    data = np.asarray((m * (plogp - p * ls).sum(axis=-1)).sum())

    def backprop(grad):
        _accumulate(logits, grad * m[:, None] * (np.exp(ls) - p))

    out = _make(data, (logits,), backprop)
    return out
