"""repro.data — synthetic transaction-log substrate."""

from .datasets import DatasetBundle, ebay_large_sim, ebay_small_sim, ebay_xlarge_sim, load_dataset
from .events import TxnEvent, decode_event, encode_event, export_events
from .generator import GeneratorConfig, TransactionGenerator
from .records import TransactionLog
from .survey import HETERO_DATASET_SURVEY, survey_table

__all__ = [
    "TransactionLog",
    "TxnEvent",
    "encode_event",
    "decode_event",
    "export_events",
    "GeneratorConfig",
    "TransactionGenerator",
    "DatasetBundle",
    "ebay_small_sim",
    "ebay_large_sim",
    "ebay_xlarge_sim",
    "load_dataset",
    "HETERO_DATASET_SURVEY",
    "survey_table",
]
