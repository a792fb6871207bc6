"""Model checkpointing and cross-topology weight transfer (§4).

The paper trains one Teal model per topology (~a week) and *retrains*
in 6-10 hours when the topology permanently changes. Retraining is
cheap precisely because every learnable tensor in Teal is
topology-size agnostic: FlowGNN layer weights depend only on embedding
widths, and the shared policy depends only on (k x embedding_dim) —
so the old weights warm-start the new topology's model directly.

This module provides:

- :func:`save_model` / :func:`load_model` — ``.npz`` checkpoints in the
  :mod:`repro.cache` entry format, holding every parameter plus an
  architecture fingerprint, validated on load.
- :func:`transfer_weights` — copy parameters between models built on
  *different* path sets but identical architectures (the §4 retraining
  warm start; demonstrated in ``tests/test_checkpoint.py`` and the
  retraining example).
"""

from __future__ import annotations

from pathlib import Path

from ..cache import read_entry, write_entry
from ..exceptions import ModelError, ReproError
from .model import AllocatorModel, TealModel


def _fingerprint(model: TealModel) -> dict[str, int]:
    """Architecture descriptors that must match between checkpoints."""
    return {
        "num_gnn_layers": model.flow_gnn.num_layers,
        "max_paths": model.pathset.max_paths,
        "embedding_dim": model.flow_gnn.embedding_dim,
        "num_parameters": model.num_parameters(),
    }


def _npz_path(path: str | Path) -> Path:
    path = Path(path)
    return path if path.suffix == ".npz" else path.with_suffix(".npz")


def save_model(model: TealModel, path: str | Path, key: object = None) -> Path:
    """Serialize a model's parameters and architecture to ``.npz``.

    The checkpoint is a :mod:`repro.cache` entry: parameters as arrays,
    the architecture fingerprint and parameter dtype as metadata,
    written atomically so concurrent readers never see a torn file.

    Args:
        model: The trained model.
        path: Destination file (``.npz`` appended if missing).
        key: Optional cache key stored with the checkpoint; a load
            that passes a different key rejects it.

    Returns:
        The written path.
    """
    params = model.parameters()
    meta: dict = _fingerprint(model)
    # Parameter dtype travels with the checkpoint: loading float32
    # weights into a float64 model (or vice versa) must be an explicit
    # astype, not a silent mixed-precision model.
    if params:
        meta["dtype"] = params[0].data.dtype.name
    arrays = {f"param_{i}": p.data for i, p in enumerate(params)}
    return write_entry(_npz_path(path), meta, arrays, key=key)


def load_model(
    model: TealModel, path: str | Path, key: object = None
) -> TealModel:
    """Load parameters saved by :func:`save_model` into ``model``.

    The target model must be constructed with the same architecture
    (layer count, path budget); the path set itself may differ in size —
    that is the point of topology-agnostic weights. The checkpoint's
    parameter dtype must match the model's: a float32-trained checkpoint
    no longer loads silently into a float64 model (cast the model with
    ``model.astype(...)`` first if the mix is intentional). Checkpoints
    without dtype metadata are assumed float64.

    Raises:
        ModelError: On an unusable entry (corrupt, stale
            :data:`~repro.cache.CACHE_FORMAT` stamp, or a ``key``
            mismatch), and on architecture or dtype mismatches. Cache
            tiers treat it as a miss and retrain.
    """
    try:
        meta, arrays = read_entry(_npz_path(path), key=key)
    except ReproError as error:
        raise ModelError(str(error)) from error
    expected = _fingerprint(model)
    for name in ("num_gnn_layers", "max_paths", "embedding_dim"):
        stored = meta.get(name)
        if stored != expected[name]:
            raise ModelError(
                f"checkpoint {name}={stored} does not match model "
                f"{name}={expected[name]}"
            )
    params = model.parameters()
    stored_dtype = meta.get("dtype", "float64")
    model_dtype = params[0].data.dtype.name if params else "float64"
    if stored_dtype != model_dtype:
        raise ModelError(
            f"checkpoint holds {stored_dtype} parameters but the model "
            f"is {model_dtype}; cast explicitly with model.astype(...) "
            "before loading if the precision change is intended"
        )
    stored_count = meta.get("num_parameters")
    if stored_count != expected["num_parameters"]:
        raise ModelError(
            f"checkpoint holds {stored_count} parameters, model has "
            f"{expected['num_parameters']}"
        )
    for i, p in enumerate(params):
        arr = arrays.get(f"param_{i}")
        if arr is None or arr.shape != p.data.shape:
            raise ModelError(
                f"parameter {i}: checkpoint shape "
                f"{None if arr is None else arr.shape} != model shape "
                f"{p.data.shape}"
            )
        p.data = arr
        # Pending gradients described the overwritten weights.
        p.grad = None
    return model


def transfer_weights(source: AllocatorModel, target: AllocatorModel) -> int:
    """Copy parameters from ``source`` into ``target`` (same architecture).

    Both models may be built on different path sets (different
    topologies or demand sets); only the parameter list must align
    shape-for-shape — which holds for TealModels sharing hyperparameters,
    because no weight's shape depends on the topology size (§3.2-§3.3).

    Copied values adopt each *target* parameter's dtype: transferring
    from a float32-cast donor into a float64 model upcasts instead of
    silently turning the target into a mixed-precision model whose
    parameters disagree with its aggregation matrices (cast the donor
    back with ``astype`` first if full-precision weights are wanted).
    Any cached full-precision master state on the target is invalidated
    — it described the overwritten weights.

    Returns:
        The number of parameters copied.

    Raises:
        ModelError: If the parameter lists do not align.
    """
    src = source.parameters()
    dst = target.parameters()
    if len(src) != len(dst):
        raise ModelError(
            f"models have {len(src)} vs {len(dst)} parameters; "
            "architectures differ"
        )
    for i, (a, b) in enumerate(zip(src, dst)):
        if a.data.shape != b.data.shape:
            raise ModelError(
                f"parameter {i}: shapes {a.data.shape} vs {b.data.shape} "
                "differ; architectures are incompatible"
            )
    for a, b in zip(src, dst):
        b.data = a.data.astype(b.data.dtype, copy=True)
        b.grad = None
    if hasattr(target, "_master64"):
        target._master64 = None
    return len(dst)
