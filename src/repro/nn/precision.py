"""Precision policy: dtype as an explicit, end-to-end decision.

The paper's headline result is wall-clock acceleration, and production
systems in this space run their hot paths in single precision on
purpose. This module makes the compute dtype a first-class *policy*
instead of an accident of ``np.asarray``: a :class:`Precision` object
names a storage dtype and the accumulation dtype used for reductions and
acceptance checks, and is threaded through the whole stack —
``nn.Tensor`` (dtype-preserving payloads), FlowGNN / ``TealModel``
(float32 forward via :meth:`~repro.nn.layers.Module.astype`), the ADMM
fine-tuner (single-precision F/z/s/dual updates), ``TealScheme``,
``harness.trained_teal`` (precision in the cache key), the sweep grid,
and the CLI (``--precision {float32,float64}``).

Policy defaults:

- **Training stays float64** — gradients through a 6-layer GNN and Adam's
  second-moment accumulation are where single precision actually bites,
  and training is off the deployment hot path.
- **Inference and sweeps default to float32** — the deployment forward +
  ADMM path matches float64 results within 1e-4 relative on the
  benchmark topologies (verified by ``tests/test_precision.py``) at a
  measurably lower cost.
- **Reductions accumulate in float64** regardless of storage dtype:
  segment sums run through ``np.bincount`` (a float64 accumulator), and
  the ADMM acceptance check scores allocations through the float64
  evaluator — so float32 storage never degrades the *decisions* made
  about an allocation, only the arithmetic inside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ReproError

#: The dtypes a Precision may name (half precision is deliberately
#: excluded: numpy has no fast float16 kernels, so it would only add
#: rounding error without saving time).
_SUPPORTED = ("float32", "float64")


@dataclass(frozen=True)
class Precision:
    """A named dtype policy for the compute substrate.

    Frozen and hashable so it can sit inside cache keys (see
    :func:`repro.harness.trained_teal`).

    Attributes:
        name: ``"float32"`` or ``"float64"``.
    """

    name: str

    def __post_init__(self) -> None:
        if self.name not in _SUPPORTED:
            raise ReproError(
                f"unknown precision {self.name!r}; expected one of {_SUPPORTED}"
            )

    @property
    def dtype(self) -> np.dtype:
        """Storage dtype of tensors, parameters, and ADMM iterates."""
        return np.dtype(self.name)

    @property
    def accumulate_dtype(self) -> np.dtype:
        """Dtype of segment reductions and acceptance/residual checks.

        Always float64: ``np.bincount`` accumulates in double whatever
        the weights' storage dtype, and the objective/acceptance scoring
        runs through the float64 evaluator — documented behaviour the
        parity tests rely on.
        """
        return np.dtype(np.float64)

    @property
    def itemsize(self) -> int:
        """Bytes per element of the storage dtype."""
        return self.dtype.itemsize

    def array(self, value) -> np.ndarray:
        """``np.asarray`` in this precision's storage dtype."""
        return np.asarray(value, dtype=self.dtype)

    def __str__(self) -> str:  # readable in logs / JSON records
        return self.name


#: The two supported policies, as shared singletons.
FLOAT32 = Precision("float32")
FLOAT64 = Precision("float64")

#: Scoring/IO dtype: demand volumes, capacities, and evaluator inputs
#: are always float64 regardless of the compute Precision — the
#: "reductions accumulate in float64" half of the policy. Lint rule
#: RL001 (repro.lint) requires dtype literals in precision-threaded
#: modules to route through this constant or a Precision, so every
#: hardcoded dtype is an explicit, greppable policy decision.
EVALUATION_DTYPE = np.dtype(np.float64)

#: Library-wide default: float64 (full-precision, backward compatible).
DEFAULT_PRECISION = FLOAT64

#: Default for inference-heavy entry points (harness, sweeps, CLI):
#: float32, per the measured parity/speedup tradeoff documented above.
DEFAULT_INFERENCE_PRECISION = FLOAT32


def resolve_precision(
    spec: "Precision | str | np.dtype | None",
    default: "Precision | str" = DEFAULT_PRECISION,
) -> Precision:
    """Coerce a user-facing precision spec to a :class:`Precision`.

    Args:
        spec: ``None`` (use ``default``), a :class:`Precision`, a name
            (``"float32"``/``"float64"``), or a numpy dtype.
        default: Policy used when ``spec`` is None.

    Raises:
        ReproError: On unsupported dtypes or unknown names.
    """
    if spec is None:
        spec = default
    if isinstance(spec, Precision):
        return spec
    if isinstance(spec, str):
        return Precision(spec)
    name = np.dtype(spec).name
    return Precision(name)
