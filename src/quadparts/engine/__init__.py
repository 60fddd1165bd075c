"""Constructive reduction engine for partitioning 2-connected graphs into
nearly connected 4-sets."""

from .driver import (TraceStep, find_reduction, init_labeled, partition_2connected, partition_with_trace,
                     run_reduction, solve_base)
from .model import (BoundTree, EdgeView, EngineBug, Gadget, LabeledMultigraph, Operation, Realization, Split,
                    Subdivide, leaf_gadget)

__all__ = [
    "TraceStep", "find_reduction", "init_labeled", "partition_2connected",
    "partition_with_trace", "run_reduction", "solve_base",
    "BoundTree", "EdgeView", "EngineBug", "Gadget", "LabeledMultigraph",
    "Operation", "Realization", "Split", "Subdivide", "leaf_gadget",
]
