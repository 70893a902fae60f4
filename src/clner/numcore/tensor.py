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
        self.data = np.asarray(values, dtype=np.float64)
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

    # operator sugar; all routing goes through the module-level ops
    def __add__(self, other):
        return add(self, other)

    def __mul__(self, other):
        return mul(self, other)

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


def _accumulate(t: Tensor, g: np.ndarray, fresh: bool = False) -> None:
    """Add ``g`` into ``t.grad``. The first gradient is copied unless it is
    ``fresh``: an array the backprop just made, which nothing else holds."""
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g if fresh else np.array(g, dtype=np.float64)
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
            _accumulate(a, _unbroadcast(grad @ np.swapaxes(b.data, -1, -2), a.shape), True)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ grad, b.shape), True)

    return _make(data, (a, b), backprop)


def _broadcast_binary(a: Tensor, b: Tensor, fwd, da, db, name: str, fresh: bool) -> Tensor:
    try:
        data = fwd(a.data, b.data)
    except ValueError:
        raise ShapeError(f"{name}: incompatible shapes {a.shape} and {b.shape}") from None

    def backprop(grad):
        if a.requires_grad:
            _accumulate(a, _unbroadcast(da(grad), a.shape), fresh)
        if b.requires_grad:
            _accumulate(b, _unbroadcast(db(grad), b.shape), fresh)

    return _make(data, (a, b), backprop)


def add(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _broadcast_binary(a, b, np.add, lambda g: g, lambda g: g, "add", False)


def mul(a, b) -> Tensor:
    a, b = _lift(a), _lift(b)
    return _broadcast_binary(
        a, b, np.multiply, lambda g: g * b.data, lambda g: g * a.data, "mul", True
    )


def reshape(x: Tensor, shape: tuple[int, ...]) -> Tensor:
    x = _lift(x)
    try:
        data = x.data.reshape(shape)
    except ValueError:
        raise ShapeError(f"reshape: cannot view shape {x.shape} as {shape}") from None

    def backprop(grad):
        _accumulate(x, grad.reshape(x.shape))

    return _make(data, (x,), backprop)


def tensor_slice(x: Tensor, key) -> Tensor:
    """Basic indexing, or an index array without repeats; gradient
    scatters back into place."""
    x = _lift(x)
    data = x.data[key]

    def backprop(grad):
        g = np.zeros_like(x.data)
        g[key] += grad
        _accumulate(x, g, True)

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


# ---------------------------------------------------------------------------
# fused layers: one node each; the backward runs the numpy expressions of the
# graph of primitive ops it replaces in that graph's accumulation order, so
# values and gradients are the same bit for bit
# ---------------------------------------------------------------------------


def _swap(x: np.ndarray) -> np.ndarray:
    return np.swapaxes(x, -1, -2)


def embed(tok_emb: Tensor, pos_emb: Tensor, ids) -> Tensor:
    """Token plus position embeddings of an (..., n) id array,
    ``tok_emb[ids] + pos_emb[:n]``; the gradient scatter-adds into the
    token table and, summed over the leading axes, into the first n
    position rows."""
    tok_emb, pos_emb = _lift(tok_emb), _lift(pos_emb)
    idx = np.asarray(ids, dtype=np.int64)
    if tok_emb.data.ndim != 2 or pos_emb.data.ndim != 2 or tok_emb.shape[1] != pos_emb.shape[1]:
        raise ShapeError(f"embed: tables {tok_emb.shape} and {pos_emb.shape} differ in width")
    if idx.ndim == 0 or idx.shape[-1] > pos_emb.shape[0]:
        raise ShapeError(f"embed: ids of shape {idx.shape} exceed {pos_emb.shape[0]} positions")
    if idx.size and (idx.min() < 0 or idx.max() >= tok_emb.shape[0]):
        raise ShapeError(f"embed: ids out of range for table with {tok_emb.shape[0]} rows")
    n = idx.shape[-1]
    data = tok_emb.data[idx] + pos_emb.data[:n]

    def backprop(grad):
        if tok_emb.requires_grad:
            g = np.zeros_like(tok_emb.data)
            np.add.at(g, idx, grad)
            _accumulate(tok_emb, g, True)
        if pos_emb.requires_grad:
            g = np.zeros_like(pos_emb.data)
            g[:n] += _unbroadcast(grad, (n, pos_emb.shape[1]))
            _accumulate(pos_emb, g, True)

    return _make(data, (tok_emb, pos_emb), backprop)


def attention_block(
    e: Tensor, w_q: Tensor, b_q: Tensor, w_k: Tensor, b_k: Tensor, w_v: Tensor, b_v: Tensor,
    w_o: Tensor, b_o: Tensor, gain: Tensor, bias: Tensor, n_heads: int,
    lengths: Sequence[int] | None = None, keep: np.ndarray | None = None,
) -> Tensor:
    """One self-attention layer over a (B, n, d) batch: multi-head scaled
    dot-product attention of the projections ``e @ w + b`` with the keys
    past each row's true length (``lengths``, default n) masked out, the
    output projection, the residual, layer normalization over the last
    axis (epsilon 1e-5), then the constant factor ``keep`` (a dropout
    mask divided by the keep rate), if given. The gradient of ``e`` sums
    the residual term, then the q, k and v terms."""
    e, w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o, gain, bias = (
        _lift(t) for t in (e, w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o, gain, bias)
    )
    if e.data.ndim != 3:
        raise ShapeError(f"attention_block: expected a (B, n, d) batch, got {e.shape}")
    batch, n, d = e.shape
    if n_heads < 1 or d % n_heads:
        raise ShapeError(f"attention_block: width {d} does not split into {n_heads} heads")
    params = (w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o, gain, bias)
    for t, shape in zip(params, [(d, d), (d,)] * 4 + [(d,)] * 2):
        if t.shape != shape:
            raise ShapeError(f"attention_block: parameter shape {t.shape}, expected {shape}")
    if keep is not None and np.shape(keep) != (batch, n, d):
        raise ShapeError(f"attention_block: keep shape {np.shape(keep)} vs output {e.shape}")
    dk = d // n_heads
    x = e.data

    def split(t: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
        return t.reshape(batch, n, n_heads, dk).transpose(axes)

    q = split(x @ w_q.data + b_q.data, (0, 2, 1, 3))
    k = split(x @ w_k.data + b_k.data, (0, 2, 3, 1))
    v = split(x @ w_v.data + b_v.data, (0, 2, 1, 3))
    scale = dk**-0.5
    scores = (q @ k) * scale
    if lengths is not None:
        lengths = np.asarray(lengths, dtype=np.int64)
        if lengths.shape != (batch,) or lengths.min() < 1 or lengths.max() > n:
            raise ShapeError(f"attention_block: lengths {lengths.tolist()} for {batch} rows of {n}")
        if lengths.min() < n:
            keys = np.arange(n)[None, :] < lengths[:, None]
            scores = scores + np.where(keys, 0.0, -np.inf)[:, None, None, :]
    attn = np.exp(scores - scores.max(axis=-1, keepdims=True))
    attn = attn / attn.sum(axis=-1, keepdims=True)
    merged = (attn @ v).transpose(0, 2, 1, 3).reshape(batch, n, d)
    r = x + (merged @ w_o.data + b_o.data)
    rc = r - r.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt((rc * rc).mean(axis=-1, keepdims=True) + 1e-5)
    rhat = rc * inv
    data = rhat * gain.data + bias.data
    if keep is not None:
        data = data * keep

    def backprop(g):
        if keep is not None:
            g = g * keep
        dhat = g * gain.data
        dr = inv * (
            dhat - dhat.mean(axis=-1, keepdims=True) - rhat * (dhat * rhat).mean(axis=-1, keepdims=True)
        )
        _accumulate(gain, (g * rhat).sum(axis=(0, 1)), True)
        _accumulate(bias, g.sum(axis=(0, 1)), True)
        _accumulate(b_o, _unbroadcast(dr, b_o.shape), True)
        _accumulate(w_o, _unbroadcast(_swap(merged) @ dr, w_o.shape), True)
        dctx = (dr @ _swap(w_o.data)).reshape(batch, n, n_heads, dk).transpose(0, 2, 1, 3)
        dattn = dctx @ _swap(v)
        dv = _swap(attn) @ dctx
        draw = (dattn - (dattn * attn).sum(axis=-1, keepdims=True)) * attn * scale
        dq, dkey = draw @ _swap(k), _swap(q) @ draw
        de = dr
        for dh, inverse, w, b in (
            (dq, (0, 2, 1, 3), w_q, b_q),
            (dkey, (0, 3, 1, 2), w_k, b_k),
            (dv, (0, 2, 1, 3), w_v, b_v),
        ):
            dlin = dh.transpose(inverse).reshape(batch, n, d)
            _accumulate(b, _unbroadcast(dlin, b.shape), True)
            _accumulate(w, _unbroadcast(_swap(x) @ dlin, w.shape), True)
            de = de + dlin @ _swap(w.data)
        _accumulate(e, de, True)

    return _make(data, (e, w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o, gain, bias), backprop)


def span_scores(
    hidden: Tensor, start_w: Tensor, start_b: Tensor, end_w: Tensor, end_b: Tensor, rows=None
) -> Tensor:
    """(B, n, d) boundary vectors and T stacked heads -> (B, T, n, n)
    logits start_t(h_i) . end_t(h_j) / sqrt(d_span), where start_t(h) =
    h @ start_w[t] + start_b[t] and likewise for the end. Weights are
    (T, d, d_span), biases (T, 1, d_span). ``rows``, an index array
    without repeats, scores only those heads, in its order, and scatters
    their gradients into the full stacks; None scores every head."""
    hidden, start_w, start_b, end_w, end_b = (
        _lift(t) for t in (hidden, start_w, start_b, end_w, end_b)
    )
    stacks = (start_w, start_b, end_w, end_b)
    sw, sb, ew, eb = (t.data if rows is None else t.data[rows] for t in stacks)
    if hidden.data.ndim != 3 or sw.ndim != 3 or sw.shape[1] != hidden.shape[-1]:
        raise ShapeError(f"span_scores: hidden {hidden.shape} does not match heads {sw.shape}")
    batch, n, d = hidden.shape
    types, _, span = sw.shape
    if ew.shape != sw.shape or sb.shape != (types, 1, span) or eb.shape != sb.shape:
        shapes = [sw.shape, sb.shape, ew.shape, eb.shape]
        raise ShapeError(f"span_scores: head shapes {shapes} do not stack")
    h = hidden.data.reshape(batch, 1, n, d)
    start = h @ sw + sb
    end_t = (h @ ew + eb).transpose(0, 1, 3, 2)
    scale = span**-0.5
    data = (start @ end_t) * scale

    def put(stack: Tensor, g: np.ndarray) -> None:
        if rows is not None and stack.requires_grad:
            full = np.zeros_like(stack.data)
            full[rows] += g
            g = full
        _accumulate(stack, g, True)

    def backprop(grad):
        g = grad * scale
        d_h = None
        for d_out, w, b, w_data in (
            (g @ _swap(end_t), start_w, start_b, sw),
            ((_swap(start) @ g).transpose(0, 1, 3, 2), end_w, end_b, ew),
        ):
            put(b, _unbroadcast(d_out, sb.shape))
            put(w, _unbroadcast(_swap(h) @ d_out, w_data.shape))
            term = _unbroadcast(d_out @ _swap(w_data), h.shape)
            d_h = term if d_h is None else d_h + term
        _accumulate(hidden, d_h.reshape(hidden.shape), True)

    return _make(data, (hidden, *stacks), backprop)


# ---------------------------------------------------------------------------
# fused loss primitives (numerically stable logit formulations)
# ---------------------------------------------------------------------------


def stable_sigmoid(x: np.ndarray, e: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + e^-x) where x >= 0 and e^x / (1 + e^x) elsewhere, from
    one e = exp(-|x|) (computed unless given), which never overflows. An
    array function: inference applies it to logits without a graph."""
    e = np.exp(-np.abs(x)) if e is None else e
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def stable_softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis after shifting by its maximum; an
    array function, like ``stable_sigmoid``."""
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def bce_with_logits(logits: Tensor, targets: np.ndarray, weights: np.ndarray | None = None) -> Tensor:
    """Weighted sum of per-cell binary cross entropy, in the stable logit
    form softplus(z) - t*z. ``targets`` are soft labels in [0, 1] (a
    teacher probability as well as a gold 0/1), ``weights`` non-negative
    per-cell factors (0 drops a cell); both are constants. The gradient
    of cell z is weight * (sigmoid(z) - t); the softplus and the sigmoid
    share one exp(-|z|)."""
    logits = _lift(logits)
    t = np.asarray(targets, dtype=np.float64)
    if t.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: targets shape {t.shape} vs logits {logits.shape}")
    w = np.ones_like(t) if weights is None else np.asarray(weights, dtype=np.float64)
    if w.shape != logits.shape:
        raise ShapeError(f"bce_with_logits: weights shape {w.shape} vs logits {logits.shape}")
    z = logits.data
    ez = np.exp(-np.abs(z))
    data = np.asarray((w * (np.maximum(z, 0.0) + np.log1p(ez) - t * z)).sum())

    def backprop(grad):
        _accumulate(logits, grad * w * (stable_sigmoid(z, ez) - t), True)

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
    # one test of both rules (np.allclose's tolerance for the sums), which a NaN fails
    if not (t.min(initial=0.0) >= 0.0 and (np.abs(t.sum(axis=-1) - 1.0) <= 1e-8 + 1e-5).all()):
        if np.any(t < 0.0):
            raise ValueError("softmax_cross_entropy: target rows must be non-negative")
        raise ValueError("softmax_cross_entropy: target rows must each sum to 1")
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != logits.shape[:1]:
        raise ShapeError(f"softmax_cross_entropy: weights shape {w.shape} vs {logits.shape[0]} rows")
    ls = _log_softmax(logits.data)
    data = np.asarray(-(w * (t * ls).sum(axis=-1)).sum())

    def backprop(grad):
        _accumulate(logits, grad * w[:, None] * (np.exp(ls) - t), True)

    return _make(data, (logits,), backprop)
