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
