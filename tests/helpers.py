"""Shared test helpers (importable from every test module).

Kept outside conftest.py so plain ``from helpers import ...`` works under
pytest's rootdir-based sys.path handling without making ``tests/`` a
package.
"""

from __future__ import annotations

import numpy as np


def numerical_gradient(f, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of scalar f with respect to array x."""
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        original = x[idx]
        x[idx] = original + eps
        fp = f()
        x[idx] = original - eps
        fm = f()
        x[idx] = original
        grad[idx] = (fp - fm) / (2 * eps)
        it.iternext()
    return grad


#: The cache entry kinds of :mod:`repro.cache`, in test-id order.
ENTRY_KINDS = ("scenario", "teal", "gridcell")


def entry_io(kind: str, cache_dir, scenario, model, cell):
    """``(write, load)`` for one cache entry kind, via its public API.

    ``write()`` persists the kind's payload under its cache key in
    ``cache_dir`` and returns the entry path; ``load(path, foreign=False)``
    reads it back with the kind's loader, checking the right key (or,
    with ``foreign=True``, another one).
    """
    from repro.cache import entry_path
    from repro.core import load_model, save_model
    from repro.harness import load_scenario, save_scenario
    from repro.sweep import load_cell_checkpoint, save_cell_checkpoint

    if kind == "scenario":
        key = scenario.build_key
        path = entry_path(cache_dir, kind, key)

        def write():
            return save_scenario(scenario, path)

        def load(path, foreign=False):
            return load_scenario(
                path, expected_key=key + ("other",) if foreign else key
            )

    elif kind == "teal":
        key = ("teal", model.pathset.num_demands)
        path = entry_path(cache_dir, kind, key)

        def write():
            return save_model(model, path, key=key)

        def load(path, foreign=False):
            return load_model(
                model, path, key=key + ("other",) if foreign else key
            )

    else:
        token = "0" * 16

        def write():
            return save_cell_checkpoint(
                cache_dir, token, cell, {"train_seconds": 1.0}
            )

        def load(path, foreign=False):
            return load_cell_checkpoint(
                path, "1" * 16 if foreign else token, cell.coords
            )

    return write, load
