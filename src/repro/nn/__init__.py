"""Numpy neural-network substrate: autodiff tensors, layers, Adam.

The paper implements Teal in PyTorch, which this package does not
depend on; it provides the equivalent primitives (see the substitution
policy in :mod:`repro.harness`).
"""

from . import functional
from .init import kaiming_uniform, xavier_uniform
from .layers import Linear, Module, ReLU, Sequential, mlp
from .optim import Adam
from .precision import (
    DEFAULT_INFERENCE_PRECISION,
    DEFAULT_PRECISION,
    resolve_precision,
)
from .tensor import Parameter, Tensor, as_tensor

__all__ = [
    "Tensor",
    "Parameter",
    "as_tensor",
    "resolve_precision",
    "DEFAULT_PRECISION",
    "DEFAULT_INFERENCE_PRECISION",
    "functional",
    "Module",
    "Linear",
    "Sequential",
    "ReLU",
    "mlp",
    "Adam",
    "xavier_uniform",
    "kaiming_uniform",
]
