"""Traffic traces: ordered sequences of matrices with train/val/test splits.

The paper samples disjoint sequences of consecutive 5-minute matrices:
700 for training, 100 for validation, 200 for testing (§5.1).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..config import TEST_INTERVALS, TRAIN_INTERVALS, VALIDATION_INTERVALS
from ..exceptions import TrafficError
from .generators import TrafficGenerator
from .matrix import TrafficMatrix


@dataclass(frozen=True)
class TraceSplit:
    """Train/validation/test partition of a trace."""

    train: list[TrafficMatrix]
    validation: list[TrafficMatrix]
    test: list[TrafficMatrix]

    def __post_init__(self) -> None:
        for name, part in (
            ("train", self.train),
            ("validation", self.validation),
            ("test", self.test),
        ):
            if not part:
                raise TrafficError(f"{name} split is empty")


class TrafficTrace:
    """An ordered sequence of traffic matrices over consecutive intervals.

    Args:
        matrices: Matrices with consecutive interval labels.

    Raises:
        TrafficError: If empty or shapes/intervals are inconsistent.
    """

    def __init__(self, matrices: Sequence[TrafficMatrix]) -> None:
        if not matrices:
            raise TrafficError("trace must contain at least one matrix")
        n = matrices[0].num_nodes
        for i, m in enumerate(matrices):
            if m.num_nodes != n:
                raise TrafficError("all matrices in a trace must share a size")
            if i > 0 and m.interval != matrices[i - 1].interval + 1:
                raise TrafficError("trace intervals must be consecutive")
        self.matrices = list(matrices)

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, index: int) -> TrafficMatrix:
        return self.matrices[index]

    def __iter__(self):
        return iter(self.matrices)

    @property
    def num_nodes(self) -> int:
        """Number of sites in every matrix of the trace."""
        return self.matrices[0].num_nodes

    def split(
        self,
        train: int = TRAIN_INTERVALS,
        validation: int = VALIDATION_INTERVALS,
        test: int = TEST_INTERVALS,
    ) -> TraceSplit:
        """Split into disjoint consecutive train/validation/test sequences.

        Raises:
            TrafficError: If the trace is shorter than the requested total.
        """
        total = train + validation + test
        if len(self.matrices) < total:
            raise TrafficError(
                f"trace has {len(self.matrices)} intervals, "
                f"need {total} for the requested split"
            )
        return TraceSplit(
            train=self.matrices[:train],
            validation=self.matrices[train : train + validation],
            test=self.matrices[train + validation : total],
        )

    def mean_matrix(self) -> TrafficMatrix:
        """Element-wise mean matrix of the trace (used for provisioning)."""
        stacked = np.stack([m.values for m in self.matrices])
        return TrafficMatrix(stacked.mean(axis=0), interval=self.matrices[0].interval)

    def temporal_variances(self) -> np.ndarray:
        """Per-demand variance of changes between consecutive intervals.

        The Figure 10a perturbation scales exactly this quantity.
        """
        stacked = np.stack([m.values for m in self.matrices])
        if stacked.shape[0] < 2:
            return np.zeros_like(stacked[0])
        deltas = np.diff(stacked, axis=0)
        return deltas.var(axis=0)

    @classmethod
    def generate(
        cls,
        num_nodes: int,
        num_intervals: int,
        seed: int = 0,
        **generator_kwargs,
    ) -> "TrafficTrace":
        """Generate a synthetic trace (see :class:`TrafficGenerator`)."""
        generator = TrafficGenerator(num_nodes, seed=seed, **generator_kwargs)
        return cls(generator.generate(num_intervals))
