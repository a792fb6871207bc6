"""The optimizer of the numpy NN substrate: Adam, as in the paper (§4)."""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError
from .tensor import Parameter


class Adam:
    """Adam [Kingma & Ba, 2014] — the paper's optimizer (§4).

    Args:
        parameters: Parameters to optimize.
        lr: Step size (paper: 1e-4).
        betas: Exponential decay rates for the moment estimates.
        eps: Numerical stabilizer.
    """

    def __init__(
        self,
        parameters: list[Parameter],
        lr: float = 1e-4,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ) -> None:
        if not parameters:
            raise ModelError("optimizer needs at least one parameter")
        if lr <= 0:
            raise ModelError("learning rate must be positive")
        beta1, beta2 = betas
        if not (0 <= beta1 < 1 and 0 <= beta2 < 1):
            raise ModelError("betas must be in [0, 1)")
        self.parameters = list(parameters)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def zero_grad(self) -> None:
        """Clear gradients of all managed parameters."""
        for p in self.parameters:
            p.zero_grad()

    def step(self) -> None:
        """Apply one Adam update; parameters with no gradient are skipped."""
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1 ** t
        bias2 = 1.0 - self.beta2 ** t
        for p, m, v in zip(self.parameters, self._m, self._v):
            if p.grad is None:
                continue
            g = p.grad
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * (g * g)
            m_hat = m / bias1
            v_hat = v / bias2
            p.data = p.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)
