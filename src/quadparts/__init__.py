"""quadparts: partitions of 2-connected graphs into nearly connected 4-sets,
clique factors in graph powers, and the exact oracles that verify them.

The graph families and the tree partitioner are imported on first access
to one of their names (a module ``__getattr__``), so importing the package,
or its command line, does not load them."""

from importlib import import_module

from .engine import partition_2connected, partition_with_trace
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

# name -> the module that defines it, imported on first access
_DEFERRED = {
    "enumerate_2connected": "families", "random_2connected": "families", "spider": "families",
    "subdivided_k4": "families", "theta": "families",
    "partition_tree": "treepart",
}


def __getattr__(name: str):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_DEFERRED[name]}", __name__), name)
    return value


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
