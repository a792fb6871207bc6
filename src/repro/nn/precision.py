"""The compute dtype as an explicit, end-to-end precision policy.

The paper's headline result is wall-clock acceleration, and production
systems in this space run their hot paths in single precision on
purpose. A precision here is simply a numpy dtype — ``float32`` or
``float64`` — validated by :func:`resolve_precision` and threaded
through ``nn.Tensor`` (dtype-preserving payloads), FlowGNN /
``TealModel`` (a one-way :meth:`~repro.nn.layers.Module.astype`), the
ADMM fine-tuner (the dtype of its returned ratios), ``TealScheme``,
``harness.trained_teal`` (the dtype's ``.name`` is in the cache key),
the sweep grid, and the CLI (``--precision {float32,float64}``).

Policy:

- **The trained model is float64 for its whole life.** Gradients
  through a 6-layer GNN and Adam's second-moment accumulation are where
  single precision actually bites, and checkpoints store the float64
  weights, so training, ``load_model``, ``transfer_weights`` and
  ``save_model`` always see ``TealScheme.model`` in float64.
- **float32 inference runs a cast copy.** A float32 ``TealScheme``
  derives an inference ``TealModel`` from the float64 one (one-way
  ``astype`` plus ``transfer_weights``) and rebuilds it whenever the
  float64 weights change. Harness, sweeps and the CLI default to
  float32: the deployment forward + ADMM path matches float64 results
  within 1e-4 relative on the benchmark topologies (verified by
  ``tests/test_precision.py``) at a measurably lower cost.
- **Reductions accumulate in float64** regardless of storage dtype:
  segment sums run through ``np.bincount`` (a float64 accumulator), the
  ADMM iterates are O(P + E) per matrix and always
  :data:`EVALUATION_DTYPE`, and the acceptance check scores allocations
  through the float64 evaluator — so float32 storage never degrades the
  *decisions* made about an allocation, only the arithmetic inside it.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ReproError

#: The supported precisions (half precision is deliberately excluded:
#: numpy has no fast float16 kernels, so it would only add rounding
#: error without saving time).
_SUPPORTED = ("float32", "float64")

#: Scoring/IO dtype: demand volumes, capacities, evaluator inputs and the
#: ADMM iterates are always float64 regardless of the compute precision —
#: the "reductions accumulate in float64" half of the policy. Lint rule
#: RL001 (repro.lint) requires dtype literals in precision-threaded
#: modules to route through this constant or a resolved precision, so
#: every hardcoded dtype is an explicit, greppable policy decision.
EVALUATION_DTYPE = np.dtype(np.float64)

#: Library-wide default: float64 (full-precision, backward compatible).
DEFAULT_PRECISION = np.dtype(np.float64)

#: Default for inference-heavy entry points (harness, sweeps, CLI):
#: float32, per the measured parity/speedup tradeoff documented above.
DEFAULT_INFERENCE_PRECISION = np.dtype(np.float32)


def resolve_precision(
    spec: "str | np.dtype | type | None",
    default: "str | np.dtype" = DEFAULT_PRECISION,
) -> np.dtype:
    """Validate a user-facing precision spec and return its numpy dtype.

    Args:
        spec: ``None`` (use ``default``), a name (``"float32"`` /
            ``"float64"``), or anything ``np.dtype`` accepts.
        default: The precision used when ``spec`` is None.

    Raises:
        ReproError: On unsupported dtypes or unknown names.
    """
    if spec is None:
        spec = default
    try:
        name = np.dtype(spec).name
    except TypeError:
        name = None
    if name not in _SUPPORTED:
        raise ReproError(
            f"unknown precision {spec!r}; expected one of {_SUPPORTED}"
        )
    return np.dtype(name)
