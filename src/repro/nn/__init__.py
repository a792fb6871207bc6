"""Numpy neural-network substrate: autodiff tensors, layers, optimizers.

The paper implements Teal in PyTorch, which this package does not
depend on; it provides the equivalent primitives (see the substitution
policy in :mod:`repro.harness`).
"""

from . import functional
from .init import kaiming_uniform, xavier_uniform
from .layers import LeakyReLU, Linear, Module, ReLU, Sequential, Tanh, mlp
from .optim import SGD, Adam, Optimizer
from .precision import (
    DEFAULT_INFERENCE_PRECISION,
    DEFAULT_PRECISION,
    FLOAT32,
    FLOAT64,
    Precision,
    resolve_precision,
)
from .tensor import Parameter, Tensor, as_tensor

__all__ = [
    "Tensor",
    "Parameter",
    "as_tensor",
    "Precision",
    "resolve_precision",
    "FLOAT32",
    "FLOAT64",
    "DEFAULT_PRECISION",
    "DEFAULT_INFERENCE_PRECISION",
    "functional",
    "Module",
    "Linear",
    "Sequential",
    "ReLU",
    "Tanh",
    "LeakyReLU",
    "mlp",
    "Optimizer",
    "SGD",
    "Adam",
    "xavier_uniform",
    "kaiming_uniform",
]
