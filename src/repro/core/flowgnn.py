"""FlowGNN: the flow-centric graph neural network (§3.2, Figure 4).

FlowGNN represents the *flow-related* entities of TE — edges and paths —
as the nodes of a bipartite GNN:

- an **EdgeNode** per directed link, initialized with the link capacity;
- a **PathNode** per candidate path of each demand, initialized with the
  demand volume (so the node represents a flow, not a physical path);
- an EdgeNode and PathNode are adjacent iff the edge lies on the path.

Each FlowGNN layer is a round of bipartite message passing (capturing
capacity contention) followed by a per-demand DNN layer that jointly
transforms the embeddings of the ≤4 PathNodes belonging to one demand
(capturing the demand constraint). Per §4, the embedding dimension grows
by one element per layer — re-appending the initialization value, the
expressiveness trick of [Nair et al., 2020] — so 6 layers yield 6-element
embeddings.

All aggregation is a constant sparse matrix product (the edge-path
incidence matrix), the numpy stand-in for the paper's GPU scatter ops.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..exceptions import ModelError
from ..nn import functional as F
from ..nn.layers import Linear, Module
from ..nn.tensor import Tensor
from ..paths.pathset import PathSet
from ..topology.graph import broadcast_capacities
from .batching import (
    Workspace,
    csr_matmul_into,
    linear_into,
    padded_take_rows_into,
    pair_linear_into,
    take_rows_into,
    tanh_,
)


class FlowGNNLayer(Module):
    """One bipartite message-passing round (GNN layer of Figure 4).

    Args:
        dim: Embedding width at this layer.
        rng: Weight-init generator.
    """

    def __init__(self, dim: int, rng: np.random.Generator) -> None:
        self.dim = dim
        # Each update sees [own embedding, aggregated neighbor embedding].
        self.edge_update = Linear(2 * dim, dim, rng=rng)
        self.path_update = Linear(2 * dim, dim, rng=rng)

    def forward(
        self,
        edge_emb: Tensor,
        path_emb: Tensor,
        edge_agg: sp.csr_matrix,
        path_agg: sp.csr_matrix,
        edge_agg_t: sp.csr_matrix,
        path_agg_t: sp.csr_matrix,
    ) -> tuple[Tensor, Tensor]:
        """Run message passing and return updated (edge, path) embeddings.

        Embeddings may carry leading batch axes (..., E/P, dim); the
        aggregation then folds the batch into one sparse product.

        Args:
            edge_emb: (..., E, dim) EdgeNode embeddings.
            path_emb: (..., P, dim) PathNode embeddings.
            edge_agg: (E, P) degree-normalized path->edge aggregation
                (the incidence matrix with rows pre-scaled by 1/degree).
            path_agg: (P, E) degree-normalized edge->path aggregation.
            edge_agg_t: Precomputed ``edge_agg.T`` for the backward pass.
            path_agg_t: Precomputed ``path_agg.T`` for the backward pass.
        """
        # Paths -> edges: an edge aggregates the flows competing for it.
        # Each update sees [own embedding, aggregated neighbors] through
        # the split-weight pair_linear (no doubled-width intermediate).
        path_to_edge = F.sparse_matmul(edge_agg, path_emb, transposed=edge_agg_t)
        new_edge = F.tanh(
            F.pair_linear(
                edge_emb, path_to_edge, self.edge_update.weight,
                self.edge_update.bias,
            )
        )
        # Edges -> paths: a path aggregates its (possibly bottleneck) links.
        edge_to_path = F.sparse_matmul(path_agg, new_edge, transposed=path_agg_t)
        new_path = F.tanh(
            F.pair_linear(
                path_emb, edge_to_path, self.path_update.weight,
                self.path_update.bias,
            )
        )
        return new_edge, new_path


class DemandDNNLayer(Module):
    """Per-demand coordination layer (DNN layer of Figure 4, §3.2).

    Jointly transforms the embeddings of one demand's PathNodes so that
    sibling flows (which a GNN layer cannot see — PathNodes are never
    adjacent) become aware of each other. The same weights are shared by
    every demand, keeping the layer topology-size agnostic.

    Args:
        dim: Per-path embedding width.
        num_paths: Path slots per demand (k).
        rng: Weight-init generator.
    """

    def __init__(self, dim: int, num_paths: int, rng: np.random.Generator) -> None:
        self.dim = dim
        self.num_paths = num_paths
        self.transform = Linear(num_paths * dim, num_paths * dim, rng=rng)

    def forward(
        self,
        path_emb: Tensor,
        gather_index: np.ndarray | F.RowIndex,
        scatter_index: np.ndarray | F.RowIndex,
    ) -> Tensor:
        """Update PathNode embeddings demand-by-demand.

        Padding slots gather zeros on the way in (-1 indices); on the way
        out no masking is needed because ``scatter_index`` only reads the
        grid positions of real paths — padding positions never reach the
        result or the gradient. The two indices invert each other, so
        both regroups backpropagate by gathering with the other one.

        Args:
            path_emb: (P, dim) PathNode embeddings, optionally with
                leading batch axes (..., P, dim).
            gather_index: (D, k) path ids with -1 marking padding slots
                (as an array or prepared by ``F.row_index``).
            scatter_index: (P,) flat position of each real path inside the
                (D, k) grid (likewise).

        Returns:
            Updated (..., P, dim) PathNode embeddings.
        """
        gather_index = F.row_index(gather_index)
        scatter_index = F.row_index(scatter_index)
        lead = path_emb.shape[:-2]
        num_demands = gather_index.index.shape[0]
        grouped = F.regroup(path_emb, gather_index, scatter_index)  # (..., D, k, dim)
        flat = grouped.reshape(lead + (num_demands, self.num_paths * self.dim))
        updated = F.tanh(self.transform(flat))
        # Scatter the grid back to per-path rows.
        grid = updated.reshape(lead + (num_demands * self.num_paths, self.dim))
        return F.regroup(grid, scatter_index, gather_index)


class FlowGNN(Module):
    """The full FlowGNN stack: alternating GNN and DNN layers (§3.2, §4).

    Args:
        pathset: The path set defining the bipartite structure.
        num_layers: Number of (GNN, DNN) layer pairs (paper: 6).
        seed: Weight-init seed.

    Raises:
        ModelError: On invalid layer counts.
    """

    def __init__(
        self,
        pathset: PathSet,
        num_layers: int = 6,
        seed: int = 0,
    ) -> None:
        if num_layers < 1:
            raise ModelError("FlowGNN needs at least one layer")
        self.pathset = pathset
        self.num_layers = num_layers
        rng = np.random.default_rng(seed)

        incidence = pathset.edge_path_incidence
        incidence_t = pathset.path_edge_incidence
        edge_degree = np.asarray(incidence.sum(axis=1)).reshape(-1, 1)
        path_degree = np.asarray(incidence_t.sum(axis=1)).reshape(-1, 1)
        self.edge_scale = 1.0 / np.maximum(edge_degree, 1.0)
        self.path_scale = 1.0 / np.maximum(path_degree, 1.0)
        # Degree normalization folded into the aggregation matrices (one
        # sparse product per direction instead of product + rescale), with
        # transposes precomputed for the backward pass.
        self.edge_agg = sp.csr_matrix(
            incidence.multiply(self.edge_scale)
        )
        self.path_agg = sp.csr_matrix(
            incidence_t.multiply(self.path_scale)
        )
        self.edge_agg_t = self.edge_agg.T.tocsr()
        self.path_agg_t = self.path_agg.T.tocsr()

        # The per-demand DNN layers regroup path rows into the (D, k)
        # grid and back through the path set's prepared layouts (-1
        # slots gather zeros, see F.regroup). The fused forward tiles
        # them over its node-major batch, once per batch size.
        self._tiled_indices: dict[int, tuple[np.ndarray, ...]] = {}

        # Compute dtype of the forward (see repro.nn.precision); astype()
        # switches it together with the parameters and aggregation
        # matrices. The fused inference path reuses the workspace buffers.
        self._dtype = np.dtype(np.float64)
        self.workspace = Workspace()

        # Layer dims grow 1, 2, ..., num_layers (§4 embedding growth).
        self.gnn_layers = [
            FlowGNNLayer(layer + 1, rng) for layer in range(num_layers)
        ]
        self.dnn_layers = [
            DemandDNNLayer(layer + 1, pathset.max_paths, rng)
            for layer in range(num_layers)
        ]

    @property
    def embedding_dim(self) -> int:
        """Width of the final PathNode embeddings."""
        return self.num_layers

    @property
    def dtype(self) -> np.dtype:
        """Compute dtype of the forward (switch with :meth:`astype`)."""
        return self._dtype

    def astype(self, dtype) -> "FlowGNN":
        """Cast parameters *and* aggregation matrices to ``dtype``.

        The precision hook of the substrate: the sparse aggregation
        matrices and degree scales must match the embedding dtype or
        every sparse product would silently promote back to float64.
        The cast is one way (a float32 round trip rounds e.g. the 1/3
        degree scales). Workspace buffers are dropped (they are
        dtype-keyed). Parameters are always (re)cast, so a model whose
        parameter dtypes changed out-of-band is repaired.
        """
        dtype = np.dtype(dtype)
        super().astype(dtype)
        self.edge_agg = self.edge_agg.astype(dtype, copy=False)
        self.path_agg = self.path_agg.astype(dtype, copy=False)
        self.edge_agg_t = self.edge_agg_t.astype(dtype, copy=False)
        self.path_agg_t = self.path_agg_t.astype(dtype, copy=False)
        self.edge_scale = self.edge_scale.astype(dtype, copy=False)
        self.path_scale = self.path_scale.astype(dtype, copy=False)
        self._dtype = dtype
        self.workspace.clear()
        return self

    def _scaled_inputs(
        self, demands: np.ndarray, capacities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Validated (B, D) demands, (B, E) capacities and (B,) input
        scales in the model dtype."""
        demands = np.asarray(demands, dtype=self._dtype)
        pathset = self.pathset
        if demands.ndim != 2 or demands.shape[1] != pathset.num_demands:
            raise ModelError("demands must be (batch, num_demands)")
        batch = demands.shape[0]
        capacities = broadcast_capacities(capacities, batch)
        if capacities.shape != (batch, pathset.topology.num_edges):
            raise ModelError("capacities must be (num_edges,) or (batch, num_edges)")
        # C order: a cast of the stride-0 broadcast view keeps its layout,
        # and a strided row mean skips the pairwise sum (1 ulp off).
        capacities = np.ascontiguousarray(capacities, dtype=self._dtype)
        # EdgeNode <- capacity, PathNode <- demand volume, each row scaled
        # by its own capacity mean to keep activations in range. Row t's
        # scale depends on row t only, so batched and looped inference
        # agree bit for bit.
        scale = np.maximum(capacities.mean(axis=-1), 1e-9)
        return demands, capacities, scale

    def _initial_embeddings_batch(
        self, demands: np.ndarray, capacities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(B, E, 1) / (B, P, 1) initializations in the model dtype."""
        demands, capacities, scale = self._scaled_inputs(demands, capacities)
        scale = scale[:, None, None]
        edge_init = capacities[:, :, None] / scale
        path_init = demands[:, self.pathset.path_demand][:, :, None] / scale
        return edge_init, path_init

    def forward_batch(
        self, demands: np.ndarray, capacities: np.ndarray
    ) -> Tensor:
        """Compute (B, P, embedding_dim) flow embeddings for a TM stack.

        The one Tensor entry point of FlowGNN (a single matrix is a
        batch of one). One forward pass covers the whole batch: every
        sparse aggregation and dense layer acts on the stacked
        embeddings, so replaying a trace costs a handful of vectorized
        ops instead of a Python loop per interval.

        Args:
            demands: (B, D) demand volumes, one row per traffic matrix.
            capacities: (E,) shared capacities or (B, E) per-matrix
                capacities (e.g. a failure sweep).

        Returns:
            Batched PathNode embeddings (B, P, embedding_dim).
        """
        edge_init, path_init = self._initial_embeddings_batch(demands, capacities)
        return self._propagate(edge_init, path_init)

    def _propagate(self, edge_init: np.ndarray, path_init: np.ndarray) -> Tensor:
        """Run the layer stack on (B, E, 1) / (B, P, 1) initializations."""
        edge_emb = Tensor(edge_init)
        path_emb = Tensor(path_init)
        for layer in range(self.num_layers):
            edge_emb, path_emb = self.gnn_layers[layer](
                edge_emb,
                path_emb,
                self.edge_agg,
                self.path_agg,
                self.edge_agg_t,
                self.path_agg_t,
            )
            path_emb = self.dnn_layers[layer](
                path_emb, self.pathset.demand_path_rows, self.pathset.path_grid_rows
            )
            if layer < self.num_layers - 1:
                # Embedding growth: re-append the initialization value.
                edge_emb = F.concat([edge_emb, Tensor(edge_init)], axis=-1)
                path_emb = F.concat([path_emb, Tensor(path_init)], axis=-1)
        return path_emb

    # ------------------------------------------------------------------
    # Fused inference: node-major stacks, no tape, workspace buffers
    # ------------------------------------------------------------------
    def initial_embeddings_into(
        self, demands: np.ndarray, capacities: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Node-major (E, B, 1) / (P, B, 1) initializations (workspace
        buffers): the values of :meth:`_initial_embeddings_batch`,
        transposed."""
        demands, capacities, scale = self._scaled_inputs(demands, capacities)
        ws = self.workspace
        batch = demands.shape[0]
        edge_init = ws.buffer(
            "edge_init", (capacities.shape[1], batch, 1), self._dtype
        )
        np.divide(capacities.T[:, :, None], scale[:, None], out=edge_init)
        path_init = ws.buffer(
            "path_init", (self.pathset.num_paths, batch, 1), self._dtype
        )
        path_demands = demands.take(self.pathset.path_demand, axis=1)
        np.divide(path_demands.T[:, :, None], scale[:, None], out=path_init)
        return edge_init, path_init

    def tiled_indices(self, batch: int) -> tuple[np.ndarray, ...]:
        """The path <-> grid regroups over node-major rows (cached).

        Row (n, b) of a node-major (N, B, F) stack is flat row
        ``n * B + b``. Returns ``(safe, padding, scatter)``: the gather
        of the (D, B, k) grid from (P, B) path rows, with the -1 slots
        clamped to 0, the flat grid positions of those slots, and the
        gather of the (P, B) path rows back from the grid. At a batch of
        one they equal the path set's own prepared layouts.
        """
        cached = self._tiled_indices.get(batch)
        if cached is None:
            pathset = self.pathset
            k = pathset.max_paths
            offsets = np.arange(batch)
            path_ids = pathset.demand_path_ids[:, None, :]  # (D, 1, k)
            safe = np.maximum(path_ids, 0) * batch + offsets[:, None]
            padding = np.flatnonzero(np.broadcast_to(path_ids < 0, safe.shape))
            slot = pathset.path_grid_index[:, None]  # (P, 1)
            scatter = ((slot // k) * batch + offsets) * k + slot % k
            cached = (safe.reshape(-1), padding, scatter.reshape(-1))
            self._tiled_indices[batch] = cached
        return cached

    def _propagate_fused(
        self, edge_init: np.ndarray, path_init: np.ndarray
    ) -> np.ndarray:
        """Inference-only layer stack on node-major raw arrays.

        Same math as :meth:`_propagate` — every kernel states the exact
        op order it shares with the Tensor path, so the result is
        bit-identical at the model's dtype — but with no autodiff tape
        and no per-op temporaries: all intermediates live in the
        instance :class:`~repro.core.batching.Workspace`, so repeated
        calls (sweeps, traces) allocate nothing.

        Embeddings are node-major: (E, B, dim) and (P, B, dim), C
        contiguous. Folded to (N, B * dim), each aggregation is one
        sparse product for the whole batch (the Tensor path folds its
        batch the same way), so a forward makes 2 x ``num_layers``
        sparse-kernel calls whatever B. Each dense update is one
        ``pair_linear_into`` / ``linear_into`` call on the stack, whose
        products hand BLAS each matrix's operand as the Tensor path
        does (see :mod:`repro.core.batching`). The per-demand regroups
        gather rows by :meth:`tiled_indices`. At B = 1 the layout and
        ops are those of a single matrix.

        Args:
            edge_init: (E, B, 1) from :meth:`initial_embeddings_into`.
            path_init: (P, B, 1) likewise.

        Returns:
            (P, B, embedding_dim) path embeddings in a workspace buffer;
            callers copy before retaining it.
        """
        ws = self.workspace
        dtype = edge_init.dtype
        num_edges, batch = edge_init.shape[:2]
        num_paths = path_init.shape[0]
        num_demands = self.pathset.num_demands
        k = self.pathset.max_paths
        scatter = self.tiled_indices(batch)[2]

        edge_emb = edge_init
        path_emb = path_init
        for layer in range(self.num_layers):
            dim = layer + 1
            gnn = self.gnn_layers[layer]
            dnn = self.dnn_layers[layer]
            shape_e = (num_edges, batch, dim)
            shape_p = (num_paths, batch, dim)
            # Paths -> edges, then the fused [own, aggregated] update.
            agg_e = ws.buffer(("agg_e", layer), shape_e, dtype)
            csr_matmul_into(
                self.edge_agg,
                path_emb.reshape(num_paths, -1),
                agg_e.reshape(num_edges, -1),
            )
            new_edge = ws.buffer(("edge", layer), shape_e, dtype)
            scratch_e = ws.buffer(("edge_scratch", layer), shape_e, dtype)
            bias = gnn.edge_update.bias
            pair_linear_into(
                edge_emb,
                agg_e,
                gnn.edge_update.weight.data,
                None if bias is None else bias.data,
                new_edge,
                scratch_e,
            )
            tanh_(new_edge)
            # Edges -> paths.
            agg_p = ws.buffer(("agg_p", layer), shape_p, dtype)
            csr_matmul_into(
                self.path_agg,
                new_edge.reshape(num_edges, -1),
                agg_p.reshape(num_paths, -1),
            )
            new_path = ws.buffer(("path", layer), shape_p, dtype)
            scratch_p = ws.buffer(("path_scratch", layer), shape_p, dtype)
            bias = gnn.path_update.bias
            pair_linear_into(
                path_emb,
                agg_p,
                gnn.path_update.weight.data,
                None if bias is None else bias.data,
                new_path,
                scratch_p,
            )
            tanh_(new_path)
            # Per-demand DNN layer: gather -> joint transform -> scatter.
            grouped = self._grouped_into(("grouped", layer), new_path)
            updated = ws.buffer(
                ("updated", layer), (num_demands, batch, k * dim), dtype
            )
            bias = dnn.transform.bias
            linear_into(
                grouped,
                dnn.transform.weight.data,
                None if bias is None else bias.data,
                updated,
            )
            tanh_(updated)
            path_out = ws.buffer(("path_out", layer), shape_p, dtype)
            take_rows_into(
                updated.reshape(-1, dim), scatter, path_out.reshape(-1, dim)
            )
            if layer < self.num_layers - 1:
                # Embedding growth: re-append the initialization value.
                grown_e = ws.buffer(
                    ("edge_grow", layer), (num_edges, batch, dim + 1), dtype
                )
                grown_e[..., :dim] = new_edge
                grown_e[..., dim:] = edge_init
                edge_emb = grown_e
                grown_p = ws.buffer(
                    ("path_grow", layer), (num_paths, batch, dim + 1), dtype
                )
                grown_p[..., :dim] = path_out
                grown_p[..., dim:] = path_init
                path_emb = grown_p
            else:
                path_emb = path_out
        return path_emb

    def _grouped_into(self, key, path_emb: np.ndarray) -> np.ndarray:
        """(P, B, dim) node-major path rows -> the (D, B, k * dim) grid
        of each demand's path slots, padding slots zeroed."""
        batch, dim = path_emb.shape[1:]
        num_demands = self.pathset.num_demands
        k = self.pathset.max_paths
        safe, padding, _ = self.tiled_indices(batch)
        grouped = self.workspace.buffer(
            key, (num_demands * batch * k, dim), path_emb.dtype
        )
        padded_take_rows_into(path_emb.reshape(-1, dim), safe, padding, grouped)
        return grouped.reshape(num_demands, batch, k * dim)

    def grouped_embeddings_into(self, path_emb: np.ndarray) -> np.ndarray:
        """Fused :meth:`grouped_embeddings` on node-major raw arrays.

        Takes the (P, B, embedding_dim) output of
        :meth:`_propagate_fused`; returns a workspace buffer shaped
        (D, B, k * embedding_dim): one (D * B, k * embedding_dim) row
        block for the policy.
        """
        return self._grouped_into("features", path_emb)

    def grouped_embeddings(self, path_emb: Tensor) -> Tensor:
        """Arrange path embeddings as (..., D, k * embedding_dim) policy inputs.

        Padding slots contribute zeros; leading batch axes pass through.
        """
        dim = self.embedding_dim
        lead = path_emb.shape[:-2]
        grouped = F.regroup(
            path_emb, self.pathset.demand_path_rows, self.pathset.path_grid_rows
        )
        return grouped.reshape(
            lead + (self.pathset.num_demands, self.pathset.max_paths * dim)
        )
