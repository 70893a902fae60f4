"""Shared independent oracles for the test suite.

These deliberately avoid the library's own computation paths: gradients
come from central finite differences, span scoring from brute-force
counting, and decoding from a direct re-implementation of the greedy
rule. Expected values frozen in tests were produced by these oracles.
"""
from __future__ import annotations

from collections import defaultdict

import numpy as np


def finite_difference_grads(f, params, h=1e-5):
    """Central-difference dL/dp for each parameter tensor.

    ``f`` rebuilds the forward pass from scratch and returns a float;
    parameter data is perturbed in place one element at a time.
    """
    grads = []
    for p in params:
        g = np.zeros_like(p.data)
        flat = p.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = f()
            flat[i] = orig - h
            lo = f()
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * h)
        grads.append(g)
    return grads


def max_rel_err(a, b):
    """Largest deviation relative to the arrays' own magnitude.

    Normalizing per array rather than per element keeps finite-difference
    roundoff on near-zero entries from swamping the comparison while still
    catching any error proportional to the gradient scale.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0), 1e-8)
    return float(np.abs(a - b).max(initial=0.0) / scale)


def total(x):
    """Sum of every entry of ``x`` as a scalar tensor, built from reshape
    and a matmul against ones, for reducing test losses to a scalar."""
    from clner import numcore as nc

    flat = nc.reshape(x, (1, x.size))
    return nc.reshape(nc.matmul(flat, np.ones((x.size, 1))), ())


def assert_gradients_match(build_loss, params, tol=1e-4, h=1e-5):
    """Backward pass vs finite differences on every given parameter."""
    from clner.numcore import zero_grad

    zero_grad(params)
    loss = build_loss()
    loss.backward()
    analytic = [p.grad.copy() for p in params]
    numeric = finite_difference_grads(lambda: build_loss().item(), params, h=h)
    for p, a, n in zip(params, analytic, numeric):
        err = max_rel_err(a, n)
        assert err < tol, f"gradient mismatch {err:.3e} on parameter with shape {p.shape}"


# -- the composed graph that the fused layer ops replace -----------------
#
# ``permute``, ``gather_rows``, ``layer_norm`` and ``softmax`` are the
# engine's former primitive ops, kept as oracles: ``reference_encode`` and
# ``reference_span_logits`` build from them (and the engine's remaining
# primitives) the graph that ``nc.embed``, ``nc.attention_block`` and
# ``nc.span_scores`` must reproduce bit for bit, values and gradients.
# ``sigmoid`` is one too: the tests differentiate through it and through
# ``softmax``, which the engine computes only as the array functions
# ``stable_sigmoid`` and ``stable_softmax`` of ``clner.numcore.tensor``.


def sigmoid(x):
    """``stable_sigmoid`` as an autodiff op."""
    from clner.numcore.tensor import _accumulate, _lift, _make, stable_sigmoid

    x = _lift(x)
    s = stable_sigmoid(x.data)

    def backprop(grad):
        _accumulate(x, grad * s * (1.0 - s))

    return _make(s, (x,), backprop)


def softmax(x, axis=-1):
    """Softmax along ``axis`` as an autodiff op; over the last axis its
    values are ``stable_softmax``'s, bit for bit."""
    from clner.numcore.tensor import _accumulate, _lift, _make

    x = _lift(x)
    e = np.exp(x.data - x.data.max(axis=axis, keepdims=True))
    s = e / e.sum(axis=axis, keepdims=True)

    def backprop(g):
        _accumulate(x, (g - (g * s).sum(axis=axis, keepdims=True)) * s)

    return _make(s, (x,), backprop)


def permute(x, axes):
    """Reorder axes as ``numpy.transpose(x, axes)``."""
    from clner.numcore.tensor import ShapeError, _accumulate, _lift, _make

    x = _lift(x)
    if sorted(axes) != list(range(x.data.ndim)):
        raise ShapeError(f"permute: axes {axes} do not permute shape {x.shape}")
    inverse = tuple(np.argsort(axes))

    def backprop(grad):
        _accumulate(x, grad.transpose(inverse))

    return _make(x.data.transpose(axes), (x,), backprop)


def gather_rows(table, ids):
    """Row lookup (embedding); gradient scatter-adds into the table."""
    from clner.numcore.tensor import ShapeError, _accumulate, _lift, _make

    table = _lift(table)
    idx = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2:
        raise ShapeError(f"gather_rows: expected a matrix table, got shape {table.shape}")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise ShapeError(f"gather_rows: ids out of range for table with {table.shape[0]} rows")

    def backprop(grad):
        g = np.zeros_like(table.data)
        np.add.at(g, idx, grad)
        _accumulate(table, g)

    return _make(table.data[idx], (table,), backprop)


def layer_norm(x, gain, bias, eps=1e-5):
    """Row-wise layer normalization over the last axis."""
    from clner.numcore.tensor import ShapeError, _accumulate, _lift, _make

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

    return _make(xhat * gain.data + bias.data, (x, gain, bias), backprop)


def reference_embed(tok_emb, pos_emb, ids):
    """``nc.embed`` as a gather, a slice and an add."""
    ids = np.asarray(ids, dtype=np.int64)
    return gather_rows(tok_emb, ids) + pos_emb[0 : ids.shape[-1]]


def reference_attention_block(
    e, w_q, b_q, w_k, b_k, w_v, b_v, w_o, b_o, gain, bias, n_heads, lengths=None, keep=None
):
    """``nc.attention_block`` as a graph of primitive ops."""
    from clner import numcore as nc

    batch, n, d = e.shape
    dk = d // n_heads

    def split_heads(x, axes):
        return permute(nc.reshape(x, (batch, n, n_heads, dk)), axes)

    q = split_heads(nc.matmul(e, w_q) + b_q, (0, 2, 1, 3))
    k = split_heads(nc.matmul(e, w_k) + b_k, (0, 2, 3, 1))
    v = split_heads(nc.matmul(e, w_v) + b_v, (0, 2, 1, 3))
    scores = nc.matmul(q, k) * dk**-0.5
    if lengths is not None and min(lengths) < n:
        keys = (np.arange(n)[None, :] < np.asarray(lengths)[:, None]).astype(np.float64)
        scores = scores + np.where(keys[:, None, None, :] > 0.0, 0.0, -np.inf)
    attn = softmax(scores, axis=-1)
    merged = nc.reshape(permute(nc.matmul(attn, v), (0, 2, 1, 3)), (batch, n, d))
    hidden = layer_norm(e + (nc.matmul(merged, w_o) + b_o), gain, bias)
    return hidden if keep is None else hidden * keep


def reference_span_scores(hidden, start_w, start_b, end_w, end_b, rows=None):
    """``nc.span_scores`` as a graph of primitive ops; picked ``rows`` are
    sliced out of each stack by ``tensor_slice``."""
    from clner import numcore as nc

    if rows is not None:
        start_w, start_b, end_w, end_b = (
            nc.tensor_slice(p, rows) for p in (start_w, start_b, end_w, end_b)
        )
    batch, n, d = hidden.shape
    h = nc.reshape(hidden, (batch, 1, n, d))
    start = nc.matmul(h, start_w) + start_b
    end = nc.matmul(h, end_w) + end_b
    return nc.matmul(start, permute(end, (0, 1, 3, 2))) * (start_w.shape[2] ** -0.5)


def reference_encode(self, token_ids, train=False, rng=None, lengths=None):
    """``TransformerEncoder.encode`` built from the reference graphs, with
    the dropout draws in the same per-sentence order; patch it over the
    method to run a model on the composed graph."""
    ids = np.asarray(token_ids, dtype=np.int64)
    batch, n = ids.shape
    lengths = np.full(batch, n) if lengths is None else np.asarray(lengths, dtype=np.int64)
    cfg = self.config
    keep = None
    if train and cfg.dropout > 0.0:
        mask = np.zeros((batch, n, cfg.d_model))
        for row, length in zip(mask, lengths):
            row[:length] = rng.random((length, cfg.d_model)) >= cfg.dropout
        keep = mask / (1.0 - cfg.dropout)
    return reference_attention_block(
        reference_embed(self.tok_emb, self.pos_emb, ids),
        self.w_q, self.b_q, self.w_k, self.b_k, self.w_v, self.b_v, self.w_o, self.b_o,
        self.ln_gain, self.ln_bias, cfg.n_heads, lengths, keep,
    )


def graph_nodes(loss) -> int:
    """Op nodes (tensors with a backprop closure) reachable from ``loss``
    through the parent links."""
    seen, stack, count = {id(loss)}, [loss], 0
    while stack:
        node = stack.pop()
        count += node._backprop is not None
        for parent in node._parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return count


def bce_cell(logit: float, gold: float) -> float:
    """Single-cell binary cross entropy straight from the definition."""
    import math

    p_hat = 1.0 / (1.0 + math.exp(-logit))
    return -(gold * math.log(p_hat) + (1.0 - gold) * math.log(1.0 - p_hat))


def bernoulli_kl_cell(p_ref: float, p_hat: float) -> float:
    """Single-cell Bernoulli KL straight from the definition."""
    import math

    return p_ref * (math.log(p_ref) - math.log(p_hat)) + (1.0 - p_ref) * (
        math.log(1.0 - p_ref) - math.log(1.0 - p_hat)
    )


def _log_softmax_rows(logits):
    z = np.asarray(logits, dtype=np.float64)
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def cross_entropy_rows_oracle(logits, gold_ids, row_weights) -> float:
    """Sum over rows of weight * -log softmax(row)[gold]."""
    ls = _log_softmax_rows(logits)
    return float(sum(w * -ls[r, g] for r, (g, w) in enumerate(zip(gold_ids, row_weights))))


def kl_div_rows_oracle(logits, ref_rows, row_weights) -> float:
    """Sum over rows of weight * KL(ref_row || softmax(row)), with
    0 log 0 = 0."""
    ls = _log_softmax_rows(logits)
    total_kl = 0.0
    for row, (p, w) in enumerate(zip(np.asarray(ref_rows, dtype=np.float64), row_weights)):
        total_kl += w * sum(pc * (np.log(pc) - ls[row, c]) for c, pc in enumerate(p) if pc > 0.0)
    return float(total_kl)


def two_branch_sigmoid(x):
    """Sigmoid evaluated per sign on the gathered elements:
    1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) for the rest."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class PerParameterAdamW:
    """The AdamW update as a loop over parameters, each with its own
    moment arrays, updating ``p.data`` in place from ``p.grad``. Groups
    are dicts with ``params``, ``lr`` and optional ``weight_decay``."""

    def __init__(self, groups, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0):
        self.groups = [
            {"params": list(g["params"]), "lr": float(g["lr"]),
             "weight_decay": float(g.get("weight_decay", weight_decay))}
            for g in groups
        ]
        self.betas, self.eps, self.step_count = betas, eps, 0
        self.moments = {}

    def step(self):
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for group in self.groups:
            lr, wd = group["lr"], group["weight_decay"]
            for p in group["params"]:
                if id(p) not in self.moments:
                    self.moments[id(p)] = (np.zeros_like(p.data), np.zeros_like(p.data))
                m, v = self.moments[id(p)]
                g = p.grad
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                if wd:
                    p.data -= lr * wd * p.data


def repair_tags_oracle(tags):
    """Turn I- tags that do not continue a same-type B-/I- run into B-,
    left to right over the already repaired tags."""
    out = list(tags)
    for pos, tag in enumerate(out):
        if tag.startswith("I-"):
            prev = out[pos - 1] if pos else "O"
            if prev not in (f"B-{tag[2:]}", f"I-{tag[2:]}"):
                out[pos] = f"B-{tag[2:]}"
    return out


def combine_heads_oracle(head_outputs):
    """The AddNER merge rule, token by token: with every head's argmax at
    its own O, emit O (score 1.0); otherwise adopt the non-O argmax of
    highest probability, ties to the lowest head index. ``head_outputs``
    are (tag list, (n, width) rows) pairs; returns the tags and scores."""
    n = head_outputs[0][1].shape[0]
    tags, scores = [], []
    for pos in range(n):
        best = None  # (-prob, head, tag_id)
        for head_idx, (tag_list, probs) in enumerate(head_outputs):
            tag_id = int(np.argmax(probs[pos]))
            if tag_list[tag_id] == "O":
                continue
            key = (-float(probs[pos, tag_id]), head_idx, tag_id)
            if best is None or key < best:
                best = key
        if best is None:
            tags.append("O")
            scores.append(1.0)
        else:
            neg_prob, head_idx, tag_id = best
            tags.append(head_outputs[head_idx][0][tag_id])
            scores.append(-neg_prob)
    return tags, scores


def former_target_check(targets) -> str | None:
    """The two target checks ``softmax_cross_entropy`` once ran on every
    call: the message its refusal matches, or None when accepted."""
    if np.any(targets < 0.0):
        return "non-negative"
    if not np.allclose(targets.sum(axis=-1), 1.0, atol=1e-8):
        return "sum to 1"
    return None


def spans_overlap(a, b) -> bool:
    """Token ranges [a.i, a.j] and [b.i, b.j] (inclusive) intersect."""
    return not (a[1] < b[0] or b[1] < a[0])


def greedy_decode_oracle(candidates, threshold: float):
    """Direct restatement of the flat-decoding rule: sort above-threshold
    candidates by score descending (ties by start, end, type order) and
    accept those not overlapping anything already accepted.

    ``candidates`` are (i, j, type_order, type_name, score) tuples.
    """
    live = [c for c in candidates if c[4] > threshold]
    live.sort(key=lambda c: (-c[4], c[0], c[1], c[2]))
    kept = []
    for c in live:
        if all(not spans_overlap((c[0], c[1]), (k[0], k[1])) for k in kept):
            kept.append(c)
    return [(c[0], c[1], c[3], c[4]) for c in kept]


def span_counts_oracle(gold_spans, pred_spans):
    """Per-type TP/FP/FN via brute-force set comparison per sentence.

    Both arguments are lists (one entry per sentence) of (i, j, type)
    collections.
    """
    counts = defaultdict(lambda: [0, 0, 0])
    for gold, pred in zip(gold_spans, pred_spans):
        gset, pset = set(gold), set(pred)
        for span in pset & gset:
            counts[span[2]][0] += 1
        for span in pset - gset:
            counts[span[2]][1] += 1
        for span in gset - pset:
            counts[span[2]][2] += 1
    return {t: tuple(v) for t, v in counts.items()}


def prf_oracle(tp: int, fp: int, fn: int):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


# -- one call for a batch's planned loss ------------------------------


def planned_loss(model, batch_ids, batch_gold, current_types, distilled, alpha, beta, train, rng):
    """A batch's loss through the entries training uses: the batch's own
    ``loss_plan``, then ``placed_loss``."""
    plan = model.loss_plan([len(ids) for ids in batch_ids], batch_gold, current_types, distilled)
    return model.placed_loss(batch_ids, *plan, alpha, beta, train, rng)


def span_objective(logits, lengths, types, current_types, golds, distilled, alpha, beta):
    """``spankl.place_objective`` of the batch's own ``plan_objective``."""
    from clner.spankl import place_objective, plan_objective

    plan = plan_objective(lengths, types, current_types, golds, distilled)
    return place_objective(logits, lengths, *plan, alpha, beta)


# -- the per-batch loss formulas that the per-step loss plan replaces ----
#
# Each rebuilds and re-checks a batch's targets from its gold spans and
# teacher labels inside the loss call, as every batch once did. The
# planned loss (``loss_plan`` once, ``placed_loss`` per batch) must give
# the same value and gradients bit for bit.


def reference_objective(logits, lengths, types, current_types, golds, distilled, alpha, beta):
    """``span_objective`` with its targets built inside the call."""
    from clner import numcore as nc
    from clner.encoder import length_mask
    from clner.spankl import TEACHER_PROB_CLAMP, triu_mask

    column = {t: k for k, t in enumerate(types)}
    current = [column[t] for t in current_types]
    old_types = [t for t in types if t not in current_types]
    owned = triu_mask(logits.shape[-1]) * length_mask(lengths, logits.shape[-1])[:, None, :]
    target = np.zeros(logits.shape)
    weight = np.zeros(logits.shape)
    weight[:, current] = alpha * owned[:, None]
    for b, gold in enumerate(golds):
        for i, j, t in gold:
            target[b, column[t], i - 1, j - 1] = 1.0
    if not old_types:
        return nc.bce_with_logits(logits, target, weight)
    old = [column[t] for t in old_types]
    for b, (labels, size) in enumerate(zip(distilled, lengths)):
        for t in old_types:
            target[b, column[t], :size, :size] = np.clip(
                labels[t], TEACHER_PROB_CLAMP, 1.0 - TEACHER_PROB_CLAMP
            )
    weight[:, old] = beta * owned[:, None]
    p = target[:, old]
    p = p[np.broadcast_to(owned[:, None] > 0.0, p.shape)]
    entropy = (p * np.log(p) + (1.0 - p) * np.log1p(-p)).sum()
    return nc.bce_with_logits(logits, target, weight) + beta * entropy


def _reference_gold_rows(batch_gold, types, tag_list, n, lengths):
    from clner.baselines import iob_encode

    gold_ids = np.zeros(len(lengths) * n, dtype=np.int64)
    for b, (spans, size) in enumerate(zip(batch_gold, lengths)):
        tags = iob_encode(spans, types, int(size))
        gold_ids[b * n : b * n + size] = [tag_list.index(t) for t in tags]
    return np.eye(len(tag_list))[gold_ids], (gold_ids > 0).astype(np.float64)


def _reference_teacher_rows(dists, width, n, lengths):
    ref = np.full((len(lengths) * n, width), 1.0 / width)
    for b, (dist, size) in enumerate(zip(dists, lengths)):
        ref[b * n : b * n + size] = dist
    return ref


def reference_loss_sum(model, hidden, lengths, batch_gold, current_types, distilled, alpha, beta):
    """The sum of the batch's sentence losses, each model's targets built
    inside the call."""
    from clner import numcore as nc
    from clner.baselines import (
        AddNerTagger, ExtendNerTagger, _flat_rows, _neg_entropy, head_tag_list,
        pad_distilled_distribution,
    )

    if isinstance(model, AddNerTagger):
        rows, real, n = _flat_rows(hidden, lengths)
        taught = min(len(d) for d in distilled) if distilled is not None else 0
        loss = None
        for idx, types in enumerate(model.task_types):
            if set(types) <= set(current_types):
                gold, _ = _reference_gold_rows(batch_gold, types, head_tag_list(types), n, lengths)
                term = nc.softmax_cross_entropy(model._head_logits(rows, idx), gold, alpha * real)
            elif idx < taught:
                width = model.weights[idx].shape[1]
                ref = _reference_teacher_rows([d[idx] for d in distilled], width, n, lengths)
                term = nc.softmax_cross_entropy(
                    model._head_logits(rows, idx), ref, beta * real
                ) + beta * (real * _neg_entropy(ref)).sum()
            else:
                continue
            loss = term if loss is None else loss + term
        return loss
    if isinstance(model, ExtendNerTagger):
        rows, real, n = _flat_rows(hidden, lengths)
        width = len(model.tag_list)
        targets, entity = _reference_gold_rows(batch_gold, current_types, model.tag_list, n, lengths)
        kd = np.zeros_like(real)
        if distilled is not None:
            kd = real * (1.0 - entity)
            padded = [pad_distilled_distribution(d, width, model.pad_constant) for d in distilled]
            taught = kd > 0.0
            targets[taught] = _reference_teacher_rows(padded, width, n, lengths)[taught]
        return nc.softmax_cross_entropy(
            model._logits(rows), targets, alpha * (real - kd) + beta * kd
        ) + beta * (kd * _neg_entropy(targets)).sum()
    current = set(current_types)
    use_kd = distilled is not None and any(t not in current for t in model.types)
    needed = [t for t in model.types if t in current or use_kd]
    wanted, logits = model._span_scores(hidden, needed)
    return reference_objective(
        logits, lengths, wanted, current_types, batch_gold, distilled if use_kd else None, alpha,
        beta,
    )
