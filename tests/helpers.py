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


def scatter_add_rows(grad: np.ndarray, index: np.ndarray, num_rows: int) -> np.ndarray:
    """``np.add.at`` adjoint of a row gather by ``index`` (-1 = padding).

    ``grad`` is (..., *index.shape, F); returns the (..., num_rows, F)
    sum of each gathered row's gradients, padding slots dropped. The
    reference :func:`repro.nn.functional.regroup`'s gather backward is
    tested against.
    """
    flat = index.reshape(-1)
    keep = flat >= 0
    features = grad.shape[-1]
    lead = grad.shape[: grad.ndim - index.ndim - 1]
    slots = grad.reshape(-1, flat.size, features)
    acc = np.zeros((slots.shape[0], num_rows, features), dtype=grad.dtype)
    np.add.at(
        acc,
        (np.arange(slots.shape[0])[:, None], flat[keep][None, :]),
        slots[:, keep],
    )
    return acc.reshape(lead + (num_rows, features))


def scatter_add_regroup(x, index: np.ndarray, inverse: np.ndarray):
    """:func:`repro.nn.functional.regroup` with a scatter-add backward.

    Same forward (padding slots are zero rows); the backward ignores
    ``inverse`` and scatters through :func:`scatter_add_rows`, the form
    the gather replaced. Patched in for ``F.regroup`` it gives the
    reference gradients and timings of the regroup.
    """
    from repro.nn.functional import row_index
    from repro.nn.tensor import Tensor, as_tensor

    x = as_tensor(x)
    index = row_index(index).index
    padding = index < 0
    data = x.data[..., np.where(padding, 0, index), :]
    data[..., padding, :] = 0.0
    out = Tensor(data, parents=(x,))

    def backward(grad: np.ndarray) -> None:
        if x.requires_grad:
            x._accumulate(scatter_add_rows(grad, index, x.data.shape[-2]))

    out._backward_fn = backward
    return out


#: The cache entry kinds of :mod:`repro.cache`, in test-id order.
ENTRY_KINDS = ("scenario", "teal", "gridjob")


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
    from repro.sweep import load_job_checkpoint, save_job_checkpoint

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
            return save_job_checkpoint(
                cache_dir, token, [cell], {"train_seconds": 1.0}
            )

        def load(path, foreign=False):
            return load_job_checkpoint(
                path, "1" * 16 if foreign else token, [cell.coords]
            )

    return write, load


#: Largest |ratio| gap allowed between ``fine_tune_batch`` and the
#: incidence-level reference (:func:`naive_admm_batch`) at float64,
#: by iteration count. The two run the same ADMM in different but
#: equivalent arithmetic, so they round differently, and the F-solve's
#: ``inv_a / rho`` factor (up to ~3e8 for tiny demands) amplifies that
#: rounding; the gaps sit on the smallest demands, so the flow gaps are
#: below 5e-9. Measured maxima on B4 over four traces (model and
#: Dirichlet warm starts, nominal and failed links, a zero-demand row):
#: 1.6e-15 after 1 iteration, 2.4e-6 after 12, 9.5e-6 after 50. Over
#: 1450 random SWAN-like instances at 12 iterations: 5.1e-6. Each bound
#: is five to twelve times the measured maximum.
REFERENCE_TOL = {1: 2e-14, 12: 3e-5, 50: 1e-4}


def naive_admm_batch(
    tuner, ratios, demands, capacities=None, iterations=None
) -> np.ndarray:
    """Reference ADMM loop over per-incidence ``z``/``lam4`` iterates.

    The incidence-level form of Appendix C, one fresh float64 ndarray
    per op: ``z`` and ``lam4`` hold one entry per (path, edge) incidence,
    reduced with segment sums built here from the path set's COO
    incidence. ``AdmmFineTuner.fine_tune_batch`` runs the equivalent
    edge-space form, so the two agree to rounding, not bit for bit.
    Only the tuner's public config (pathset, rho, iterations, path
    values) is read.
    """
    from repro.core.admm import _project_ratios
    from repro.core.batching import SegmentOps
    from repro.topology.graph import broadcast_capacities

    ps = tuner.pathset
    coo = ps.edge_path_incidence.tocoo()
    pair_path = coo.col.astype(np.int64)
    pair_edge = coo.row.astype(np.int64)
    to_path = SegmentOps(pair_path, ps.num_paths)
    to_edge = SegmentOps(pair_edge, ps.topology.num_edges)
    to_demand = SegmentOps(ps.path_demand, ps.num_demands)
    hops = ps.path_hop_counts.astype(float)
    paths_per_edge = to_edge.sum(np.ones((1, len(pair_edge))))[0]

    demands = np.asarray(demands, dtype=float)
    num_matrices = demands.shape[0]
    if capacities is None:
        capacities = ps.topology.capacities
    capacities = broadcast_capacities(np.asarray(capacities, float), num_matrices)
    pos_mean = np.array(
        [float(row[row > 0].mean()) if (row > 0).any() else 1.0 for row in capacities]
    )
    scale = np.maximum(pos_mean, 1e-9)[:, None]
    d_norm = demands / scale
    c_norm = capacities / scale
    rho = tuner.config.rho
    d_p = d_norm[:, ps.path_demand]
    w_p = tuner.path_values
    a = np.maximum(d_p * d_p * hops, 1e-9)
    F = np.clip(np.asarray(ratios, dtype=float), 0.0, 1.0)
    F_flat = np.zeros((num_matrices, ps.num_paths))
    valid = ps.path_mask
    F_flat[:, ps.demand_path_ids[valid]] = F[:, valid]
    z = (F_flat * d_p)[:, pair_path]
    sum_z = to_edge.sum(z)
    s1 = np.maximum(0.0, 1.0 - to_demand.sum(F_flat))
    s3 = np.maximum(0.0, c_norm - sum_z)
    # Complementary-slackness dual warm start.
    with np.errstate(divide="ignore", invalid="ignore"):
        warm_util = np.where(
            c_norm > 0,
            sum_z / np.maximum(c_norm, 1e-9),
            np.where(sum_z > 1e-9, np.inf, 0.0),
        )
    congestion_price = (warm_util > 1.0).astype(float)
    path_price = to_path.sum(congestion_price[:, pair_edge])
    reduced_value = np.maximum(0.0, w_p - path_price)
    lam1 = to_demand.max(d_p) * to_demand.max(reduced_value)
    lam3 = np.zeros((num_matrices, ps.topology.num_edges))
    lam4 = np.zeros((num_matrices, len(pair_path)))
    iters = tuner.iterations if iterations is None else int(iterations)
    for _ in range(iters):
        b = (
            d_p * w_p
            - lam1[:, ps.path_demand]
            - d_p * to_path.sum(lam4)
            + rho * (1.0 - s1[:, ps.path_demand])
            + rho * d_p * to_path.sum(z)
        )
        inv_a = 1.0 / a
        correction = to_demand.sum(b * inv_a) / (1.0 + to_demand.sum(inv_a))
        F_flat = np.clip(
            (inv_a / rho) * (b - correction[:, ps.path_demand]), 0.0, 1.0
        )
        beta = (
            -lam3[:, pair_edge]
            + lam4
            + rho * (c_norm - s3)[:, pair_edge]
            + rho * (F_flat * d_p)[:, pair_path]
        )
        sum_beta = to_edge.sum(beta)
        z = (beta - (sum_beta / (1.0 + paths_per_edge))[:, pair_edge]) / rho
        sum_F = to_demand.sum(F_flat)
        sum_z = to_edge.sum(z)
        s1 = np.maximum(0.0, (1.0 - sum_F) - lam1 / rho)
        s3 = np.maximum(0.0, (c_norm - sum_z) - lam3 / rho)
        lam1 += rho * (sum_F + s1 - 1.0)
        lam3 += rho * (sum_z + s3 - c_norm)
        lam4 += rho * ((F_flat * d_p)[:, pair_path] - z)
    out = np.zeros_like(F)
    out[:, valid] = F_flat[:, ps.demand_path_ids[valid]]
    return _project_ratios(out)
