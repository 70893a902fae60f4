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
