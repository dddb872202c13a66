"""Adam with decoupled weight decay (AdamW) at a constant learning rate,
stepping a fixed list of leaf tensors in place."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError


@dataclass
class Adam:
    """First and second moment estimates per tensor plus the shared step
    counter. A tensor without a gradient steps as if its gradient were zero,
    so it still decays."""

    params: list[Tensor]
    lr: float
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-6
    weight_decay: float = 0.1
    steps: int = field(init=False, default=0)
    m: list[np.ndarray] = field(init=False)
    v: list[np.ndarray] = field(init=False)

    def __post_init__(self) -> None:
        if self.lr <= 0:
            raise ConfigError(f"learning rate must be positive, got {self.lr}")
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self) -> None:
        """One update of every tensor. Weight decay is decoupled: applied to
        the parameters, not the gradients. A gradient of the wrong shape
        raises before any tensor moves."""
        grads = [np.zeros_like(p.data) if p.grad is None else p.grad for p in self.params]
        for p, g in zip(self.params, grads):
            if p.data.shape != g.shape:
                raise ValueError(f"Adam: grad shape {g.shape} does not match param {p.data.shape}")
        self.steps += 1
        t = self.steps
        for i, (p, g) in enumerate(zip(self.params, grads)):
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1**t)
            v_hat = self.v[i] / (1.0 - self.beta2**t)
            p.data -= self.lr * (m_hat / (np.sqrt(v_hat) + self.eps) + self.weight_decay * p.data)

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
