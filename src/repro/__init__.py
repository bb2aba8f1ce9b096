"""repro — reproduction of *xFraud: Explainable Fraud Transaction
Detection* (Rao et al., VLDB 2021).

The package mirrors the paper's architecture:

* :mod:`repro.nn` — numpy autograd + neural-network substrate;
* :mod:`repro.data` — synthetic eBay-like transaction logs;
* :mod:`repro.graph` — heterogeneous graphs, samplers, PIC partitioning;
* :mod:`repro.storage` — KV-store data loading;
* :mod:`repro.models` — the xFraud detector (+HGT variant) and the
  GAT / GEM baselines;
* :mod:`repro.train` — single-machine and simulated-distributed
  training plus every metric of the evaluation;
* :mod:`repro.explain` — the modified GNNExplainer, centralities,
  annotations, hit rate, and the learnable hybrid explainer;
* :mod:`repro.stream` — streaming ingestion: durable event log (WAL),
  incremental graph maintenance, online scoring, drift detection.

Quickstart::

    from repro import ebay_small_sim, DetectorConfig, XFraudDetectorPlus
    from repro import Trainer, TrainConfig

    data = ebay_small_sim()
    config = DetectorConfig(feature_dim=data.graph.feature_dim)
    detector = XFraudDetectorPlus(config)
    trainer = Trainer(detector, TrainConfig(epochs=8))
    trainer.fit(data.graph, data.train_nodes, eval_nodes=data.test_nodes)
    print(trainer.evaluate(data.graph, data.test_nodes))
"""

from . import (
    data,
    explain,
    graph,
    models,
    nn,
    obs,
    reliability,
    rules,
    serving,
    storage,
    stream,
    train,
)
from .data import (
    DatasetBundle,
    GeneratorConfig,
    TransactionGenerator,
    TransactionLog,
    TxnEvent,
    ebay_large_sim,
    ebay_small_sim,
    ebay_xlarge_sim,
    export_events,
    load_dataset,
)
from .explain import (
    AnnotatorPanel,
    CommunityWeights,
    ExplainerConfig,
    GNNExplainer,
    HybridExplainer,
    fit_grid,
    fit_ridge,
    topk_hit_rate,
)
from .graph import (
    Community,
    HeteroGraph,
    HGSampler,
    SageSampler,
    build_graph,
    extract_community,
    select_communities,
    train_test_split,
)
from .models import (
    DetectorConfig,
    GATModel,
    GEMModel,
    XFraudDetector,
    XFraudDetectorHGT,
    XFraudDetectorPlus,
)
from .obs import MetricsRegistry, Profiler, Tracer, timed
from .reliability import CheckpointManager, FaultPlan
from .serving import (
    Deadline,
    ScoreRequest,
    ScoreResponse,
    ScoringService,
    ServiceConfig,
    ServiceStats,
)
from .stream import (
    DriftDetector,
    EventLog,
    IncrementalGraphBuilder,
    StreamScorer,
    run_stream_demo,
)
from .train import (
    DistributedTrainer,
    TrainConfig,
    Trainer,
    make_worker_partitions,
    measure_inference_time,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "nn",
    "data",
    "graph",
    "storage",
    "rules",
    "models",
    "train",
    "explain",
    "reliability",
    "serving",
    "stream",
    "obs",
    "MetricsRegistry",
    "Tracer",
    "timed",
    "Profiler",
    "ScoringService",
    "ServiceConfig",
    "ServiceStats",
    "ScoreRequest",
    "ScoreResponse",
    "Deadline",
    "CheckpointManager",
    "FaultPlan",
    "DatasetBundle",
    "GeneratorConfig",
    "TransactionGenerator",
    "TransactionLog",
    "ebay_small_sim",
    "ebay_large_sim",
    "ebay_xlarge_sim",
    "export_events",
    "TxnEvent",
    "load_dataset",
    "EventLog",
    "IncrementalGraphBuilder",
    "StreamScorer",
    "DriftDetector",
    "run_stream_demo",
    "HeteroGraph",
    "build_graph",
    "train_test_split",
    "Community",
    "extract_community",
    "select_communities",
    "SageSampler",
    "HGSampler",
    "DetectorConfig",
    "XFraudDetector",
    "XFraudDetectorPlus",
    "XFraudDetectorHGT",
    "GATModel",
    "GEMModel",
    "Trainer",
    "TrainConfig",
    "DistributedTrainer",
    "make_worker_partitions",
    "measure_inference_time",
    "GNNExplainer",
    "ExplainerConfig",
    "AnnotatorPanel",
    "CommunityWeights",
    "HybridExplainer",
    "fit_grid",
    "fit_ridge",
    "topk_hit_rate",
]
