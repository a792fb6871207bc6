"""Teal core: FlowGNN, multi-agent RL, ADMM, and the end-to-end scheme."""

from .ablations import GlobalPolicyModel, NaiveDnnModel, NaiveGnnModel
from .admm import AdmmFineTuner
from .batching import SegmentOps, Workspace
from .checkpoint import load_model, save_model, transfer_weights
from .coma import ComaTrainer, DecomposableReward, TrainingHistory, masked_softmax_np
from .direct_loss import (
    DirectLossTrainer,
    mlu_surrogate_loss_batch,
    model_path_flows_batch,
    surrogate_loss_batch,
)
from .flowgnn import DemandDNNLayer, FlowGNN, FlowGNNLayer
from .model import AllocatorModel, TealModel
from .policy import ActionHead, PolicyNetwork
from .teal import TealScheme

__all__ = [
    "FlowGNN",
    "FlowGNNLayer",
    "DemandDNNLayer",
    "ActionHead",
    "PolicyNetwork",
    "AllocatorModel",
    "TealModel",
    "ComaTrainer",
    "DecomposableReward",
    "TrainingHistory",
    "masked_softmax_np",
    "DirectLossTrainer",
    "surrogate_loss_batch",
    "mlu_surrogate_loss_batch",
    "model_path_flows_batch",
    "SegmentOps",
    "Workspace",
    "AdmmFineTuner",
    "TealScheme",
    "NaiveDnnModel",
    "NaiveGnnModel",
    "GlobalPolicyModel",
    "save_model",
    "load_model",
    "transfer_weights",
]
