"""repro.models — the xFraud detector and the paper's baselines."""

from .detector import (
    DetectorConfig,
    XFraudDetector,
    XFraudDetectorHGT,
    XFraudDetectorPlus,
)
from .gat import GATLayer, GATModel
from .gem import GEMLayer, GEMModel
from .mlp import FeatureMLP
from .hetero_conv import HeteroConvLayer

__all__ = [
    "DetectorConfig",
    "XFraudDetector",
    "XFraudDetectorPlus",
    "XFraudDetectorHGT",
    "HeteroConvLayer",
    "GATModel",
    "GATLayer",
    "GEMModel",
    "GEMLayer",
    "FeatureMLP",
]
