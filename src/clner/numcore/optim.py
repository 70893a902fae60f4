"""Adam optimizer with decoupled weight decay (AdamW-style update)."""
from __future__ import annotations

import numpy as np

from clner.numcore.tensor import Tensor


def _views(flat: np.ndarray, params: list[Tensor]) -> list[np.ndarray]:
    """Consecutive slices of ``flat`` shaped like each parameter."""
    views, offset = [], 0
    for p in params:
        views.append(flat[offset : offset + p.size].reshape(p.shape))
        offset += p.size
    return views


class AdamW:
    """Decoupled-weight-decay Adam over one or more parameter groups.

    ``groups`` is a list of dicts, each with keys ``params`` (list of
    Tensors) and ``lr``; ``weight_decay`` may be overridden per group.

    Each group keeps its parameters, gradients and moments in flat
    buffers: construction copies the parameters into one array and makes
    each ``p.data`` a view of it, and ``zero_grad`` binds each ``p.grad``
    to a view of one zeroed gradient array. ``step`` then updates a whole
    group with one set of elementwise statements, bit for bit what a loop
    over the parameters gives. Rebinding a parameter's ``data`` or
    ``grad`` while the optimizer is in use detaches it, and ``step``
    refuses to run.
    """

    def __init__(
        self,
        groups,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.groups = []
        # per group: flat data, grad, m and v, and (param, data view, grad view)
        self._flat = []
        for g in groups:
            params = list(g["params"])
            data = np.empty(sum(p.size for p in params))
            data_views = _views(data, params)
            for p, view in zip(params, data_views):
                view[...] = p.data
                p.data = view
            grad = np.zeros_like(data)
            self.groups.append(
                {
                    "params": params,
                    "lr": float(g["lr"]),
                    "weight_decay": float(g.get("weight_decay", weight_decay)),
                }
            )
            self._flat.append(
                (data, grad, np.zeros_like(data), np.zeros_like(data),
                 list(zip(params, data_views, _views(grad, params))))
            )
        self.betas = betas
        self.eps = eps
        self.step_count = 0

    def parameters(self) -> list[Tensor]:
        return [p for g in self.groups for p in g["params"]]

    def zero_grad(self) -> None:
        for _, grad, _, _, views in self._flat:
            grad.fill(0.0)
            for p, _, view in views:
                p.grad = view

    def gradients_finite(self) -> bool:
        """Whether every gradient entry is finite: one check per group."""
        return all(np.isfinite(grad).all() for _, grad, _, _, _ in self._flat)

    def step(self) -> None:
        """Apply one update; requires every parameter to carry a gradient
        in the buffer ``zero_grad`` bound."""
        for *_, views in self._flat:
            for p, data, grad in views:
                if p.grad is None:
                    raise ValueError("adam step: parameter has no gradient populated")
                if p.grad is not grad or p.data is not data:
                    raise ValueError("adam step: parameter data or gradient was rebound")
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for group, (data, g, m, v, _) in zip(self.groups, self._flat):
            lr, wd = group["lr"], group["weight_decay"]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            if wd:
                data -= lr * wd * data
