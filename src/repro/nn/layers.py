"""Neural-network modules: Linear layers, activations, containers.

A tiny module system in the PyTorch mold: :class:`Module` tracks
parameters recursively; :class:`Linear` is an affine map; activations
wrap the functional ops; :class:`Sequential` chains modules.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ModelError
from . import functional as F
from .init import xavier_uniform
from .tensor import Parameter, Tensor


class Module:
    """Base class with recursive parameter discovery and state export."""

    def parameters(self) -> list[Parameter]:
        """All trainable parameters in this module tree (depth-first)."""
        params: list[Parameter] = []
        seen: set[int] = set()
        for value in self.__dict__.values():
            params.extend(_collect(value, seen))
        return params

    def zero_grad(self) -> None:
        """Reset gradients of every parameter."""
        for p in self.parameters():
            p.zero_grad()

    def num_parameters(self) -> int:
        """Total scalar parameter count."""
        return sum(p.size for p in self.parameters())

    def astype(self, dtype) -> "Module":
        """Cast every parameter to ``dtype`` in place (the precision hook).

        Modules that hold non-parameter compute state (e.g. FlowGNN's
        aggregation matrices) override this and call ``super().astype``.
        Pending gradients are dropped — casting mid-backward is a bug.

        Returns:
            ``self`` (chainable).
        """
        dtype = np.dtype(dtype)
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
            p.grad = None
        return self

    @property
    def dtype(self) -> np.dtype:
        """Parameter dtype (float64 for parameter-free modules)."""
        params = self.parameters()
        return params[0].data.dtype if params else np.dtype(np.float64)

    def state_dict(self) -> dict[str, np.ndarray]:
        """Flat name->array mapping of all parameters (copy)."""
        return {
            f"param_{i}": p.data.copy() for i, p in enumerate(self.parameters())
        }

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load arrays exported by :meth:`state_dict` (order-based).

        Raises:
            ModelError: On count or shape mismatch.
        """
        params = self.parameters()
        if len(state) != len(params):
            raise ModelError(
                f"state has {len(state)} entries, model has {len(params)}"
            )
        for i, p in enumerate(params):
            arr = state[f"param_{i}"]
            if arr.shape != p.data.shape:
                raise ModelError(
                    f"param {i}: shape {arr.shape} != {p.data.shape}"
                )
            p.data = arr.copy()

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def forward(self, *args, **kwargs):
        raise NotImplementedError


def _collect(value, seen: set[int]) -> list[Parameter]:
    params: list[Parameter] = []
    if isinstance(value, Parameter):
        if id(value) not in seen:
            seen.add(id(value))
            params.append(value)
    elif isinstance(value, Module):
        for p in value.parameters():
            if id(p) not in seen:
                seen.add(id(p))
                params.append(p)
    elif isinstance(value, (list, tuple)):
        for item in value:
            params.extend(_collect(item, seen))
    elif isinstance(value, dict):
        for item in value.values():
            params.extend(_collect(item, seen))
    return params


class Linear(Module):
    """Affine layer ``y = x @ W + b``.

    Args:
        in_features: Input width.
        out_features: Output width.
        bias: Whether to include the bias term.
        rng: Generator for Xavier initialization (deterministic models).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        if rng is None:
            rng = np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            xavier_uniform(in_features, out_features, rng), name="weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class ReLU(Module):
    """ReLU activation module."""

    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        self.modules = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for module in self.modules:
            x = module(x)
        return x


def mlp(
    sizes: list[int],
    rng: np.random.Generator | None = None,
    final_activation: bool = False,
) -> Sequential:
    """Build a ReLU multilayer perceptron.

    Args:
        sizes: Layer widths, e.g. ``[24, 24, 4]``.
        rng: Weight-init generator.
        final_activation: Whether to append a ReLU after the last linear
            layer.

    Raises:
        ModelError: On fewer than two sizes.
    """
    if len(sizes) < 2:
        raise ModelError("mlp needs at least input and output sizes")
    if rng is None:
        rng = np.random.default_rng(0)
    layers: list[Module] = []
    for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
        layers.append(Linear(fan_in, fan_out, rng=rng))
        if i < len(sizes) - 2 or final_activation:
            layers.append(ReLU())
    return Sequential(*layers)
