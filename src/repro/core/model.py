"""TealModel: FlowGNN + shared policy network, trained end to end (§3.3).

The model maps (demands, capacities) to per-demand split ratios in a
single forward pass — the fixed-flop inference that gives Teal its flat
computation time (Figure 7a).
"""

from __future__ import annotations

import numpy as np

from ..config import TealHyperparameters
from ..exceptions import ModelError
from ..nn.layers import Linear, Module
from ..nn.tensor import Tensor
from ..paths.pathset import PathSet
from .batching import linear_into, masked_softmax_into, relu_
from .flowgnn import FlowGNN
from .policy import PolicyNetwork


class AllocatorModel(Module):
    """Protocol base for models that output per-demand action logits.

    Subclasses (TealModel and the Figure 14 ablation variants) provide
    one differentiable forward, ``logits_batch``; the base supplies the
    shared deployment conveniences so trainers treat all variants
    uniformly. The per-matrix calls are batch-of-one wrappers.
    """

    pathset: PathSet
    hyper: TealHyperparameters
    policy: "PolicyNetwork"

    def logits_batch(
        self, demands: np.ndarray, capacities: np.ndarray
    ) -> Tensor:
        """(B, D, k) action logits for a (B, D) stack of traffic matrices.

        Args:
            demands: (B, D) demand volumes, one row per traffic matrix.
            capacities: (E,) shared or (B, E) per-matrix capacities.
        """
        raise NotImplementedError

    def forward(self, demands: np.ndarray, capacities: np.ndarray) -> Tensor:
        """Deterministic split ratios (D, k) — the deployment path."""
        ratios = self.forward_batch(np.asarray(demands)[None], capacities)
        return ratios.reshape(self.pathset.num_demands, self.pathset.max_paths)

    def split_ratios(
        self, demands: np.ndarray, capacities: np.ndarray | None = None
    ) -> np.ndarray:
        """Numpy split ratios for deployment (no gradient bookkeeping)."""
        return self.split_ratios_batch(np.asarray(demands)[None], capacities)[0]

    def forward_batch(
        self, demands: np.ndarray, capacities: np.ndarray
    ) -> Tensor:
        """Deterministic split ratios (B, D, k) for a stack of matrices."""
        logits = self.logits_batch(demands, capacities)
        return self.policy.split_ratios(logits, self.pathset.path_mask)

    def split_ratios_batch(
        self, demands: np.ndarray, capacities: np.ndarray | None = None
    ) -> np.ndarray:
        """Numpy (B, D, k) split ratios for a stack of traffic matrices."""
        if capacities is None:
            capacities = self.pathset.topology.capacities
        return self.forward_batch(demands, capacities).numpy()

    def check_compatible(self, pathset: PathSet) -> None:
        """Ensure a pathset matches the one the model was built around.

        Raises:
            ModelError: If shapes differ (retraining is required — §4).
        """
        if (
            pathset.num_demands != self.pathset.num_demands
            or pathset.num_paths != self.pathset.num_paths
            or pathset.max_paths != self.pathset.max_paths
        ):
            raise ModelError(
                "pathset incompatible with the trained model; Teal requires "
                "retraining when the topology permanently changes (§4)"
            )


class TealModel(AllocatorModel):
    """The end-to-end Teal model for one topology (§4 trains one per WAN).

    Args:
        pathset: Path set fixing the model's bipartite structure.
        hyper: Architecture hyperparameters (defaults match §4).
        num_policy_layers: Hidden layers in the policy net (Figure 15c).
        seed: Weight-init seed.
    """

    def __init__(
        self,
        pathset: PathSet,
        hyper: TealHyperparameters | None = None,
        num_policy_layers: int = 1,
        seed: int = 0,
    ) -> None:
        self.pathset = pathset
        self.hyper = hyper if hyper is not None else TealHyperparameters()
        self.flow_gnn = FlowGNN(
            pathset, num_layers=self.hyper.num_gnn_layers, seed=seed
        )
        input_dim = pathset.max_paths * self.flow_gnn.embedding_dim
        self.policy = PolicyNetwork(
            input_dim=input_dim,
            num_paths=pathset.max_paths,
            hidden=self.hyper.policy_hidden,
            num_hidden_layers=num_policy_layers,
            action_log_std=self.hyper.action_log_std,
            seed=seed + 1,
        )

    def logits_batch(
        self, demands: np.ndarray, capacities: np.ndarray
    ) -> Tensor:
        """(B, D, k) logits via one batched FlowGNN + policy forward."""
        embeddings = self.flow_gnn.forward_batch(demands, capacities)
        features = self.flow_gnn.grouped_embeddings(embeddings)
        return self.policy(features)

    # ------------------------------------------------------------------
    # Fused inference (no tape, preallocated buffers)
    # ------------------------------------------------------------------
    def astype(self, dtype) -> "TealModel":
        """Cast the whole model (FlowGNN aggregation state included).

        One way: casting a float32 model back to float64 upcasts the
        rounded values. ``TealScheme`` therefore never casts its model;
        it casts a copy for float32 inference.
        """
        self.flow_gnn.astype(dtype)
        self.policy.astype(dtype)
        return self

    @property
    def dtype(self) -> np.dtype:
        """Compute dtype of the forward (see :mod:`repro.nn.precision`)."""
        return self.flow_gnn.dtype

    def _policy_fused(self, features: np.ndarray) -> np.ndarray:
        """Raw-array policy MLP on node-major (D, B, k * dim) features,
        through the FlowGNN workspace buffers; returns (D, B, k) logits.

        Each linear is one :func:`~repro.core.batching.linear_into` on
        the node-major stack (see :meth:`FlowGNN._propagate_fused`).
        """
        ws = self.flow_gnn.workspace
        x = features
        # ``mlp`` builds only Linear and ReLU layers.
        for i, module in enumerate(self.policy.net.modules):
            if isinstance(module, Linear):
                out = ws.buffer(
                    ("policy", i),
                    tuple(x.shape[:-1]) + (module.out_features,),
                    x.dtype,
                )
                bias = module.bias
                linear_into(
                    x, module.weight.data,
                    None if bias is None else bias.data, out,
                )
                x = out
            else:
                relu_(x)
        return x

    def _split_ratios_fused(
        self, demands: np.ndarray, capacities: np.ndarray
    ) -> np.ndarray:
        """The (B, D, k) deployment forward on raw arrays (bit-identical
        to the Tensor path at the model dtype; see
        ``tests/test_precision.py``).

        Runs node-major (see :meth:`FlowGNN._propagate_fused`); the
        softmax acts on the (D, B, k) logits and one transposing copy
        returns (B, D, k). Uses the model's shared workspace buffers,
        so one model instance must not run concurrent forwards from
        multiple threads (see :class:`~repro.core.batching.Workspace`)."""
        fg = self.flow_gnn
        edge_init, path_init = fg.initial_embeddings_into(demands, capacities)
        embeddings = fg._propagate_fused(edge_init, path_init)
        features = fg.grouped_embeddings_into(embeddings)
        logits = self._policy_fused(features)
        not_mask = getattr(self, "_not_path_mask", None)
        if not_mask is None:
            not_mask = ~self.pathset.path_mask[:, None, :]
            self._not_path_mask = not_mask
        reduce_buf = fg.workspace.buffer(
            "softmax_reduce", tuple(logits.shape[:-1]) + (1,), logits.dtype
        )
        masked_softmax_into(logits, not_mask, logits, reduce_buf)
        # The result lives in a reused workspace buffer: hand the caller
        # an owned (B, D, k) copy so the next forward cannot mutate it.
        return logits.transpose(1, 0, 2).copy()

    def split_ratios(
        self, demands: np.ndarray, capacities: np.ndarray | None = None
    ) -> np.ndarray:
        """Numpy (D, k) split ratios: the fused forward on a batch of one.

        Bit-identical to ``forward(...).numpy()``, the tape-building
        Tensor forward the equivalence tests compare against.
        """
        if capacities is None:
            capacities = self.pathset.topology.capacities
        return self._split_ratios_fused(np.asarray(demands)[None], capacities)[0]

    def split_ratios_batch(
        self, demands: np.ndarray, capacities: np.ndarray | None = None
    ) -> np.ndarray:
        """Numpy (B, D, k) split ratios via one fused batched forward
        (bit-identical to ``forward_batch(...).numpy()``)."""
        if capacities is None:
            capacities = self.pathset.topology.capacities
        demands = np.asarray(demands)
        if demands.ndim == 2 and demands.shape[0] == 0:
            return np.zeros(
                (0, self.pathset.num_demands, self.pathset.max_paths),
                dtype=self.dtype,
            )
        return self._split_ratios_fused(demands, capacities)

    def flow_embeddings(
        self, demands: np.ndarray, capacities: np.ndarray | None = None
    ) -> np.ndarray:
        """(P, embedding_dim) learned flow embeddings (for §5.8 analysis)."""
        if capacities is None:
            capacities = self.pathset.topology.capacities
        return self.flow_gnn.forward_batch(
            np.asarray(demands)[None], capacities
        ).numpy()[0]
