"""Ablation model variants evaluated in Figure 14 (§5.7).

- :class:`NaiveDnnModel` ("Teal w/ naive DNN") — a 6-layer fully
  connected network mapping the whole demand vector directly to all
  split-ratio logits, ignoring WAN connectivity entirely.
- :class:`NaiveGnnModel` ("Teal w/ naive GNN") — a conventional GNN over
  the WAN graph itself (one node per site, message passing along links);
  per-demand logits come from the source/destination site embeddings.
  Captures connectivity but not edge-path flow structure.
- :class:`GlobalPolicyModel` ("Teal w/ global policy") — FlowGNN features
  feeding one gigantic policy over *all* demands at once; parameter count
  grows with topology size, which is why the paper reports memory errors
  on ASN (we raise :class:`ModelError` above a parameter budget to model
  the same failure).

All variants reuse :class:`~repro.core.policy.ActionHead`, so the COMA*
and direct-loss trainers run on them unchanged.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from ..config import TealHyperparameters
from ..exceptions import ModelError
from ..nn import functional as F
from ..nn.layers import Linear, mlp
from ..nn.precision import EVALUATION_DTYPE
from ..nn.tensor import Tensor
from ..paths.pathset import PathSet
from ..topology.graph import broadcast_capacities
from .flowgnn import FlowGNN
from .model import AllocatorModel
from .policy import ActionHead

#: Parameter budget above which the global policy "runs out of memory"
#: (models the paper's observed failure on large topologies, §5.7).
GLOBAL_POLICY_PARAM_LIMIT = 40_000_000


def _row_scales(capacities: np.ndarray) -> np.ndarray:
    """(B,) input scales: each capacity row's mean, floored at 1e-9.

    Row by row on purpose: a 1-D mean does not depend on the row's
    place in the stack, so a row is scaled the same alone or batched.
    """
    return np.array([max(float(np.mean(row)), 1e-9) for row in capacities])


class NaiveDnnModel(AllocatorModel):
    """Fully-connected model on the raw demand vector (Figure 14).

    Args:
        pathset: The path set (fixes input/output sizes).
        hyper: Hyperparameters (reuses the learning rate / action std).
        hidden: Hidden width of the 6-layer MLP.
        seed: Weight-init seed.
    """

    def __init__(
        self,
        pathset: PathSet,
        hyper: TealHyperparameters | None = None,
        hidden: int = 128,
        seed: int = 0,
    ) -> None:
        self.pathset = pathset
        self.hyper = hyper if hyper is not None else TealHyperparameters()
        rng = np.random.default_rng(seed)
        in_dim = pathset.num_demands
        out_dim = pathset.num_demands * pathset.max_paths
        self.net = mlp(
            [in_dim, hidden, hidden, hidden, hidden, hidden, out_dim],
            rng=rng,
        )
        self.policy = ActionHead(pathset.max_paths, self.hyper.action_log_std)

    def logits_batch(
        self, demands: np.ndarray, capacities: np.ndarray
    ) -> Tensor:
        demands = np.asarray(demands, EVALUATION_DTYPE)
        batch = demands.shape[0]
        scale = _row_scales(broadcast_capacities(capacities, batch))
        # A (B, 1, D) input keeps each row its own (1, D) product, so a
        # row's logits do not depend on the rest of the stack.
        x = Tensor((demands / scale[:, None])[:, None, :])
        out = self.net(x)
        return out.reshape(
            batch, self.pathset.num_demands, self.pathset.max_paths
        )


class NaiveGnnModel(AllocatorModel):
    """Site-level GNN over the WAN graph (Figure 14).

    Message passing runs on the topology's node adjacency; each demand's
    logits are produced by a shared head reading the concatenated
    source/destination embeddings. This sees connectivity but cannot
    represent per-path contention — the gap Figure 14 quantifies.

    Args:
        pathset: The path set.
        hyper: Hyperparameters.
        embedding_dim: Node-embedding width.
        num_layers: Message-passing rounds.
        seed: Weight-init seed.
    """

    def __init__(
        self,
        pathset: PathSet,
        hyper: TealHyperparameters | None = None,
        embedding_dim: int = 12,
        num_layers: int = 6,
        seed: int = 0,
    ) -> None:
        self.pathset = pathset
        self.hyper = hyper if hyper is not None else TealHyperparameters()
        self.embedding_dim = embedding_dim
        self.num_layers = num_layers
        rng = np.random.default_rng(seed)
        topo = pathset.topology

        rows = [u for u, _ in topo.edges] + [v for _, v in topo.edges]
        cols = [v for _, v in topo.edges] + [u for u, _ in topo.edges]
        data = np.ones(len(rows))
        adjacency = sp.csr_matrix(
            (data, (rows, cols)), shape=(topo.num_nodes, topo.num_nodes)
        )
        degree = np.asarray(adjacency.sum(axis=1)).reshape(-1, 1)
        self.adjacency = adjacency
        self.degree_scale = 1.0 / np.maximum(degree, 1.0)

        self.input_proj = Linear(2, embedding_dim, rng=rng)
        self.layers = [
            Linear(2 * embedding_dim, embedding_dim, rng=rng)
            for _ in range(num_layers)
        ]
        self.head = mlp(
            [2 * embedding_dim, self.hyper.policy_hidden, pathset.max_paths],
            rng=rng,
        )
        self.policy = ActionHead(pathset.max_paths, self.hyper.action_log_std)
        self._src = np.array([s for s, _ in pathset.pairs])
        self._dst = np.array([t for _, t in pathset.pairs])
        self._edge_src = np.array([u for u, _ in topo.edges], dtype=int)

    def logits_batch(
        self, demands: np.ndarray, capacities: np.ndarray
    ) -> Tensor:
        demands = np.asarray(demands, dtype=EVALUATION_DTYPE)
        batch = demands.shape[0]
        capacities = broadcast_capacities(capacities, batch)
        scale = _row_scales(capacities)[:, None]
        # Node features: total outgoing demand and outgoing capacity,
        # accumulated in demand / edge order.
        num_nodes = self.pathset.topology.num_nodes
        out_demand = np.zeros((batch, num_nodes))
        np.add.at(out_demand, (slice(None), self._src), demands)
        out_capacity = np.zeros((batch, num_nodes))
        np.add.at(out_capacity, (slice(None), self._edge_src), capacities)
        features = np.stack([out_demand / scale, out_capacity / scale], axis=-1)

        h = F.tanh(self.input_proj(Tensor(features)))
        for layer in self.layers:
            agg = F.sparse_matmul(self.adjacency, h) * Tensor(self.degree_scale)
            h = F.tanh(layer(F.concat([h, agg])))
        pair_features = F.concat(
            [F.take_rows(h, self._src), F.take_rows(h, self._dst)]
        )
        return self.head(pair_features)


class GlobalPolicyModel(AllocatorModel):
    """FlowGNN + one monolithic policy over all demands (Figure 14).

    Args:
        pathset: The path set.
        hyper: Hyperparameters.
        hidden: Hidden width of the global policy.
        seed: Weight-init seed.

    Raises:
        ModelError: If the flattened policy would exceed the parameter
            budget (the paper's out-of-memory failure mode on ASN).
    """

    def __init__(
        self,
        pathset: PathSet,
        hyper: TealHyperparameters | None = None,
        hidden: int = 256,
        seed: int = 0,
    ) -> None:
        self.pathset = pathset
        self.hyper = hyper if hyper is not None else TealHyperparameters()
        self.flow_gnn = FlowGNN(
            pathset, num_layers=self.hyper.num_gnn_layers, seed=seed
        )
        in_dim = pathset.num_demands * pathset.max_paths * self.flow_gnn.embedding_dim
        out_dim = pathset.num_demands * pathset.max_paths
        approx_params = in_dim * hidden + hidden * out_dim
        if approx_params > GLOBAL_POLICY_PARAM_LIMIT:
            raise ModelError(
                f"global policy would need ~{approx_params / 1e6:.0f}M "
                "parameters; infeasible (matches the paper's memory errors "
                "on large topologies, §5.7)"
            )
        rng = np.random.default_rng(seed + 1)
        self.net = mlp([in_dim, hidden, out_dim], rng=rng)
        self.policy = ActionHead(pathset.max_paths, self.hyper.action_log_std)

    def logits_batch(
        self, demands: np.ndarray, capacities: np.ndarray
    ) -> Tensor:
        embeddings = self.flow_gnn.forward_batch(demands, capacities)
        features = self.flow_gnn.grouped_embeddings(embeddings)
        batch = features.shape[0]
        # (B, 1, X): one (1, X) product per row, as for the naive DNN.
        flat = features.reshape(
            batch, 1, self.pathset.num_demands * features.shape[-1]
        )
        out = self.net(flat)
        return out.reshape(
            batch, self.pathset.num_demands, self.pathset.max_paths
        )
