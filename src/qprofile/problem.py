"""Max-Cut instance generation and exact classical scoring.

Instances are simple undirected graphs with four constraints (edges) per
vertex wherever such a graph exists; tiny instances fall back to the complete
graph. Vertices are qubits. Bitstrings assign each vertex to one side of the
cut, with qubit 0 as the leftmost character.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .util import mix_seed

# smallest n with a 4-regular simple graph; below it instances are complete graphs
MIN_REGULAR_QUBITS = 5


class InvalidInstanceError(ValueError):
    """Raised for malformed graphs or out-of-range instance requests."""


@dataclass(frozen=True, slots=True)
class ProblemGraph:
    """Undirected simple graph over qubits 0..n-1.

    Edges are stored as a sorted tuple of (i, j) pairs with i < j.
    """

    n: int
    edges: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.n < 2:
            raise InvalidInstanceError(f"need at least 2 vertices, got {self.n}")
        seen = set()
        for e in self.edges:
            if len(e) != 2:
                raise InvalidInstanceError(f"malformed edge {e!r}")
            i, j = e
            if not (0 <= i < j < self.n):
                raise InvalidInstanceError(f"edge {e} out of range for n={self.n}")
            if e in seen:
                raise InvalidInstanceError(f"duplicate edge {e}")
            seen.add(e)
        object.__setattr__(self, "edges", tuple(sorted(self.edges)))

    def degree(self, v: int) -> int:
        return sum(1 for i, j in self.edges if v in (i, j))


def _complete_graph(n: int) -> ProblemGraph:
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return ProblemGraph(n=n, edges=edges)


@lru_cache(maxsize=64)
def _edge_table(n: int) -> tuple[tuple[int, int] | None, ...]:
    # The (i, j) tuple of key i*n + j for i < j, shared by every n-vertex
    # instance: graphs that outlive their draw hold no edge tuples of their own.
    return tuple((i, j) if i < j else None for i in range(n) for j in range(n))


def _regular_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    # Configuration model: 4 stubs per vertex, random perfect matching,
    # redrawn until it has no self-loop and no parallel edge.
    stubs = [v for v in range(n) for _ in range(4)]
    while True:
        draw = stubs.copy()
        rng.shuffle(draw)
        keys = set()
        pairs = iter(draw)
        for i, j in zip(pairs, pairs):
            key = i * n + j if i < j else j * n + i
            if i == j or key in keys:
                break
            keys.add(key)
        else:
            table = _edge_table(n)
            return [table[key] for key in sorted(keys)]


def generate_instance(n: int, seed: int) -> ProblemGraph:
    """Generate the benchmark graph on n qubits.

    Below MIN_REGULAR_QUBITS (n in {2, 3, 4}) a degree-4 simple graph does
    not exist, so the complete graph is returned. From there on a uniformly
    sampled 4-regular simple graph is drawn via the configuration model with
    rejection: a plain list of stubs is shuffled until its pairing is simple.
    The draw is deterministic in (n, seed), and every instance on n vertices
    takes its edge tuples from one shared table.
    """
    if n < 2:
        raise InvalidInstanceError(f"need at least 2 qubits, got {n}")
    if n < MIN_REGULAR_QUBITS:
        return _complete_graph(n)
    rng = np.random.Generator(np.random.Philox(key=mix_seed(seed, n, 0x9A)))
    return ProblemGraph(n=n, edges=tuple(_regular_edges(n, rng)))


def _basis_index(n: int, bitstring: str) -> int:
    if len(bitstring) != n:
        raise ValueError(f"bitstring length {len(bitstring)} != n={n}")
    if bitstring.strip("01"):  # int(b, 2) alone would accept "0b1", "1_0", " 1"
        raise ValueError(f"bitstring must be binary, got {bitstring!r}")
    return int(bitstring, 2)


def _cuts(g: ProblemGraph, ks):
    """Edges cut by basis index ks (an int or an integer array), with vertex
    i at index bit n-1-i so that indices read their bitstrings left to right."""
    total = ks & 0  # 0, or zeros shaped like ks
    for i, j in g.edges:
        total += ((ks >> (g.n - 1 - i)) ^ (ks >> (g.n - 1 - j))) & 1
    return total


def cut_value(g: ProblemGraph, bitstring: str) -> int:
    """Number of edges whose endpoints fall on opposite sides of the cut."""
    return _cuts(g, _basis_index(g.n, bitstring))


@dataclass(frozen=True)
class ShotCounts:
    """Histogram of sampled bitstrings for a fixed number of shots."""

    counts: dict[str, int]
    shots: int

    def __post_init__(self):
        if self.shots <= 0:
            raise ValueError(f"shots must be positive, got {self.shots}")
        total = 0
        width = None
        for b, c in self.counts.items():
            if c < 0:
                raise ValueError(f"negative count for {b!r}")
            if width is None:
                width = len(b)
            elif len(b) != width:
                raise ValueError("mixed bitstring widths in counts")
            total += c
        if total != self.shots:
            raise ValueError(f"counts sum to {total}, expected {self.shots}")


def score(g: ProblemGraph, counts: ShotCounts | dict[str, int]) -> tuple[float, int]:
    """(shot-weighted mean cut, largest cut among bitstrings drawn at least
    once) of a counts histogram, from one pass over its keys."""
    mapping = counts.counts if isinstance(counts, ShotCounts) else counts
    ks = np.fromiter((_basis_index(g.n, b) for b in mapping), dtype=np.int64, count=len(mapping))
    draws = np.fromiter(mapping.values(), dtype=np.int64, count=len(mapping))
    total = int(draws.sum())
    if total <= 0:
        raise ValueError("empty counts")
    cuts = _cuts(g, ks)
    # integer dot product: the mean is exact up to the one division
    return int(draws @ cuts) / total, int(cuts[draws > 0].max())
