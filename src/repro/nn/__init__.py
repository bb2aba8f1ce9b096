"""repro.nn — numpy autograd + neural-network substrate.

Everything the xFraud detector, the GAT/GEM baselines, and the
GNNExplainer need to express eqs. 2–13 of the paper: tensors with
reverse-mode autodiff, segment (message-passing) kernels, layers,
losses, and optimisers.
"""

from . import functional
from .init import xavier_uniform, zeros
from .module import (
    Dropout,
    Embedding,
    LayerNorm,
    Linear,
    Module,
    ModuleDict,
    ModuleList,
    Parameter,
    ReLU,
    Sequential,
    parameter_writes,
)
from .optim import Adam, AdamW, Optimizer, clip_grad_norm
from .serialization import load_state, save_state
from .segment import (
    gather,
    scatter_rows,
    segment_count,
    segment_max_data,
    segment_mean,
    segment_softmax,
    segment_sum,
)
from .tensor import Tensor, concat, is_grad_enabled, no_grad, where

__all__ = [
    "Tensor",
    "concat",
    "where",
    "no_grad",
    "is_grad_enabled",
    "functional",
    "Module",
    "Parameter",
    "parameter_writes",
    "Linear",
    "LayerNorm",
    "Dropout",
    "Embedding",
    "ModuleList",
    "ModuleDict",
    "Sequential",
    "ReLU",
    "Optimizer",
    "Adam",
    "AdamW",
    "clip_grad_norm",
    "gather",
    "scatter_rows",
    "segment_sum",
    "segment_mean",
    "segment_count",
    "segment_softmax",
    "segment_max_data",
    "save_state",
    "load_state",
    "zeros",
    "xavier_uniform",
]
