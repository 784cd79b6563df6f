"""Adam with decoupled weight decay."""

from __future__ import annotations

import numpy as np

from .errors import NonFiniteGradientError


class Adam:
    """Standard Adam; weight decay shrinks parameters directly (decoupled)
    before each moment update rather than being folded into the gradient.
    """

    def __init__(
        self,
        params: dict,
        lr: float = 1e-4,
        weight_decay: float = 1e-4,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = {name: np.zeros_like(p.data) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.data) for name, p in params.items()}

    @classmethod
    def from_config(cls, params: dict, lr: float, config) -> "Adam":
        """Adam at ``lr`` with a RunConfig's weight decay, betas and epsilon."""
        return cls(
            params,
            lr=lr,
            weight_decay=config.weight_decay,
            beta1=config.beta1,
            beta2=config.beta2,
            eps=config.adam_eps,
        )

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.zero_grad()

    def step(self) -> None:
        self.step_count += 1
        t = self.step_count
        for name, p in self.params.items():
            g = p.grad
            if not np.isfinite(g).all():
                raise NonFiniteGradientError(name, t)
            if self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            m = self.m[name] = self.beta1 * self.m[name] + (1 - self.beta1) * g
            v = self.v[name] = self.beta2 * self.v[name] + (1 - self.beta2) * (g * g)
            m_hat = m / (1 - self.beta1**t)
            v_hat = v / (1 - self.beta2**t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
