"""Adam optimizer with decoupled weight decay (AdamW-style update)."""
from __future__ import annotations

import numpy as np

from clner.numcore.tensor import Tensor


class AdamW:
    """Decoupled-weight-decay Adam over one or more parameter groups.

    ``groups`` is a list of dicts, each with keys ``params`` (list of
    Tensors) and ``lr``; ``weight_decay`` may be overridden per group.
    """

    def __init__(
        self,
        groups,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        self.groups = []
        for g in groups:
            self.groups.append(
                {
                    "params": list(g["params"]),
                    "lr": float(g["lr"]),
                    "weight_decay": float(g.get("weight_decay", weight_decay)),
                }
            )
        self.betas = betas
        self.eps = eps
        self.step_count = 0
        self._moments: dict[int, tuple[np.ndarray, np.ndarray]] = {}

    def parameters(self) -> list[Tensor]:
        return [p for g in self.groups for p in g["params"]]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = np.zeros_like(p.data)

    def step(self) -> None:
        """Apply one update; requires every parameter to carry a gradient."""
        for p in self.parameters():
            if p.grad is None:
                raise ValueError("adam step: parameter has no gradient populated")
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for group in self.groups:
            lr, wd = group["lr"], group["weight_decay"]
            for p in group["params"]:
                key = id(p)
                if key not in self._moments:
                    self._moments[key] = (np.zeros_like(p.data), np.zeros_like(p.data))
                m, v = self._moments[key]
                g = p.grad
                m *= b1
                m += (1.0 - b1) * g
                v *= b2
                v += (1.0 - b2) * g * g
                p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                if wd:
                    p.data -= lr * wd * p.data
