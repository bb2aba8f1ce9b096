"""repro.graph — heterogeneous transaction-graph substrate."""

from .builder import build_graph, train_test_split
from .community import Community, extract_community, select_communities
from .homophily import HomophilyScore, homophily_report, homophily_score, render_homophily_report
from .hetero import (
    EDGE_TYPE_IDS,
    EDGE_TYPES,
    NODE_TYPE_IDS,
    NODE_TYPES,
    HeteroGraph,
    link_edges,
)
from .cache import SubgraphCache
from .partition import group_partitions, pic_partition, power_iteration_embedding
from ..util import batched
from .sampling import HGSampler, SageSampler, SampledSubgraph, bfs, receptive_field

__all__ = [
    "HeteroGraph",
    "NODE_TYPES",
    "NODE_TYPE_IDS",
    "EDGE_TYPES",
    "EDGE_TYPE_IDS",
    "link_edges",
    "HomophilyScore",
    "homophily_score",
    "homophily_report",
    "render_homophily_report",
    "build_graph",
    "train_test_split",
    "Community",
    "extract_community",
    "select_communities",
    "SageSampler",
    "HGSampler",
    "SampledSubgraph",
    "receptive_field",
    "bfs",
    "SubgraphCache",
    "batched",
    "pic_partition",
    "power_iteration_embedding",
    "group_partitions",
]
