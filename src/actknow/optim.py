"""Adam with decoupled weight decay (AdamW) at a constant learning rate,
stepping a fixed list of leaf tensors in place. The moment decay rates and
the denominator's epsilon are fixed: BETA1, BETA2 and EPS."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor
from .errors import ConfigError

BETA1 = 0.9
BETA2 = 0.98
EPS = 1e-6


@dataclass
class Adam:
    """First and second moment estimates per tensor plus the shared step
    counter. A tensor without a gradient steps as if its gradient were zero,
    so it still decays."""

    params: list[Tensor]
    lr: float
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
        # p -= lr * (m_hat / (sqrt(v_hat) + EPS) + weight_decay * p), with
        # m = BETA1 * m + (1 - BETA1) * g and v = BETA2 * v + (1 - BETA2) * g * g
        # updated in place. Each operation and its order is that of the
        # expressions, so the bits are too; the step is built in one scratch
        # array and the denominator in one more
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            step = np.multiply(g, 1.0 - BETA1)
            m *= BETA1
            m += step
            np.multiply(g, 1.0 - BETA2, out=step)
            step *= g
            v *= BETA2
            v += step
            denom = np.divide(v, 1.0 - BETA2**t)
            np.sqrt(denom, out=denom)
            denom += EPS
            np.divide(m, 1.0 - BETA1**t, out=step)
            step /= denom
            np.multiply(p.data, self.weight_decay, out=denom)
            step += denom
            step *= self.lr
            p.data -= step

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None
