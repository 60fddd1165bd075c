"""quadparts: partitions of 2-connected graphs into nearly connected 4-sets,
clique factors in graph powers, and the exact oracles that verify them."""

from .engine import partition_2connected, partition_with_trace
from .families import enumerate_2connected, random_2connected, spider, subdivided_k4, theta
from .graphs import Multigraph, SimpleGraph, graph_power, is_biconnected
from .graphio import emit_graph, parse_graph
from .oracle import (
    Part,
    Partition,
    brute_force_partition,
    has_kr_factor,
    is_nearly_connected,
    verify_partition,
)
from .treepart import partition_tree

__all__ = [
    "partition_2connected", "partition_with_trace",
    "enumerate_2connected", "random_2connected", "spider", "subdivided_k4", "theta",
    "Multigraph", "SimpleGraph", "graph_power", "is_biconnected",
    "emit_graph", "parse_graph",
    "Part", "Partition", "brute_force_partition", "has_kr_factor",
    "is_nearly_connected", "verify_partition",
    "partition_tree",
]

__version__ = "0.1.0"
