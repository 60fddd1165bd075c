"""Small shared vocabulary for the case lifts: the plain and plus tree-set
names by size, the shape of a requested pair, and :func:`mirrored`, which
serves a pair by reading the lift's configuration from the other end.
How a lift closes lives in :mod:`quadparts.engine.local`."""

from __future__ import annotations

from typing import Callable

from ..labels import Pair, TreeSet
from .model import EngineBug, Realization

PLAIN = {0: TreeSet.S0, 1: TreeSet.S1, 2: TreeSet.S2, 3: TreeSet.S3}
PLUS = {1: TreeSet.S1P, 2: TreeSet.S2P, 3: TreeSet.S3P}

_KIND = {
    TreeSet.S0: ("plain", 0), TreeSet.S1: ("plain", 1),
    TreeSet.S2: ("plain", 2), TreeSet.S3: ("plain", 3),
    TreeSet.S1P: ("plus", 1), TreeSet.S2P: ("plus", 2), TreeSet.S3P: ("plus", 3),
    TreeSet.S2M: ("minus", 2), TreeSet.S3M: ("minus", 3), TreeSet.S5M: ("minus", 5),
}


def pair_shape(pair: Pair) -> tuple[str, int, int]:
    """Classify a plain/plus pair: ('plain'|'plus_right'|'plus_left', x, y)."""
    (ka, x), (kb, y) = _KIND[pair[0]], _KIND[pair[1]]
    if ka == "plain" and kb == "plain":
        return "plain", x, y
    if ka == "plain" and kb == "plus":
        return "plus_right", x, y
    if ka == "plus" and kb == "plain":
        return "plus_left", x, y
    raise EngineBug(f"pair {pair} is not a plain/plus combination")


def mirrored(lift: Callable[[Pair], Realization], pair: Pair) -> Realization:
    """Realize `pair` through `lift` built on the reversed configuration: the
    lift receives the swapped pair and its realization is flipped back."""
    return lift((pair[1], pair[0])).flipped()
