"""Greedy SWAP routing onto a square grid and scaling analysis.

Logical qubits are placed row-major on the smallest square grid that fits.
When a two-qubit gate spans non-adjacent cells, the endpoint with the
smaller logical index walks along a shortest Manhattan path (row step
first) until the pair is adjacent. Each step is one SWAP, materialized as
three CNOTs so routed circuits stay inside the base gate set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, Gate, QaoaParams, build_qaoa, cnot
from .problem import generate_instance
from .util import mix_seed


@dataclass(frozen=True)
class GridLayout:
    rows: int
    cols: int
    assignment: dict[int, tuple[int, int]]  # logical qubit -> (row, col)

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must have positive dimensions")
        cells = set()
        for q, rc in self.assignment.items():
            r, c = rc
            if not (0 <= r < self.rows and 0 <= c < self.cols):
                raise ValueError(f"qubit {q} placed off-grid at {rc}")
            if rc in cells:
                raise ValueError(f"cell {rc} assigned twice")
            cells.add(rc)

    @property
    def capacity(self) -> int:
        return self.rows * self.cols

    def cell_index(self, rc: tuple[int, int]) -> int:
        return rc[0] * self.cols + rc[1]


def grid_layout(n: int) -> GridLayout:
    """Row-major placement on the smallest square grid holding n qubits."""
    if n < 1:
        raise ValueError(f"need at least 1 qubit, got {n}")
    side = math.isqrt(n)
    if side * side < n:
        side += 1
    assignment = {q: (q // side, q % side) for q in range(n)}
    return GridLayout(rows=side, cols=side, assignment=assignment)


class RouteResult(NamedTuple):
    circuit: Circuit
    swap_count: int
    final_assignment: dict[int, tuple[int, int]]


def _manhattan(a: tuple[int, int], b: tuple[int, int]) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _step_toward(src: tuple[int, int], dst: tuple[int, int]) -> tuple[int, int]:
    # Shortest-path step; row adjustment first on ties.
    if src[0] != dst[0]:
        return (src[0] + (1 if dst[0] > src[0] else -1), src[1])
    return (src[0], src[1] + (1 if dst[1] > src[1] else -1))


def route(c: Circuit, layout: GridLayout) -> RouteResult:
    """Insert SWAPs so every two-qubit gate acts on grid-adjacent cells.

    Returns the routed circuit on rows*cols physical qubits, the number of
    SWAPs inserted, and the final logical->physical cell map.
    """
    if c.n > layout.capacity:
        raise ValueError(f"{c.n} qubits exceed grid capacity {layout.capacity}")
    for q in range(c.n):
        if q not in layout.assignment:
            raise ValueError(f"qubit {q} missing from layout assignment")

    pos: dict[int, tuple[int, int]] = dict(layout.assignment)
    occupant: dict[tuple[int, int], int] = {rc: q for q, rc in pos.items()}
    phys = layout.cell_index
    out: list[Gate] = []
    swaps = 0

    def emit_swap(a: tuple[int, int], b: tuple[int, int]):
        nonlocal swaps
        pa, pb = phys(a), phys(b)
        out.extend((cnot(pa, pb), cnot(pb, pa), cnot(pa, pb)))
        qa, qb = occupant.get(a), occupant.get(b)
        if qa is not None:
            pos[qa] = b
        if qb is not None:
            pos[qb] = a
        occupant.pop(a, None)
        occupant.pop(b, None)
        if qa is not None:
            occupant[b] = qa
        if qb is not None:
            occupant[a] = qb
        swaps += 1

    measures: list[Gate] = []
    for g in c.gates:
        if g.kind == "MEASURE":
            measures.append(g)
            continue
        if len(g.qubits) == 1:
            q = g.qubits[0]
            out.append(Gate(g.kind, (phys(pos[q]),), g.theta))
            continue
        a, b = g.qubits
        mover, anchor = (a, b) if a < b else (b, a)
        while _manhattan(pos[mover], pos[anchor]) > 1:
            nxt = _step_toward(pos[mover], pos[anchor])
            emit_swap(pos[mover], nxt)
        out.append(Gate(g.kind, (phys(pos[g.qubits[0]]), phys(pos[g.qubits[1]])), g.theta))

    for g in measures:
        out.append(Gate("MEASURE", (phys(pos[g.qubits[0]]),)))

    routed = Circuit(n=layout.capacity, gates=tuple(out))
    return RouteResult(routed, swaps, dict(pos))


@dataclass(frozen=True)
class PowerLawFit:
    """Least-squares fit of y = a * n^b in log-log space."""

    a: float
    b: float
    residual: float  # RMS of log-space residuals
    points: tuple[tuple[int, float, float], ...] = ()  # (n, mean, std)

    def evaluate(self, n: float) -> float:
        return self.a * float(n) ** self.b

    @classmethod
    def from_points(cls, points) -> "PowerLawFit":
        """Fit the (n, mean, std) points of a SWAP study."""
        points = tuple(points)
        a, b, resid = fit_power_law([pt[0] for pt in points], [pt[1] for pt in points])
        return cls(a=a, b=b, residual=resid, points=points)


def fit_power_law(ns, means) -> tuple[float, float, float]:
    ns = np.asarray(ns, dtype=float)
    means = np.asarray(means, dtype=float)
    if len(ns) < 3:
        raise ValueError("power-law fit needs at least 3 sizes")
    if np.any(means <= 0):
        raise ValueError("power-law fit needs positive means")
    logx = np.log(ns)
    logy = np.log(means)
    coeffs, *_ = np.linalg.lstsq(np.stack([logx, np.ones_like(logx)], axis=1), logy, rcond=None)
    b, loga = float(coeffs[0]), float(coeffs[1])
    resid = logy - (b * logx + loga)
    return math.exp(loga), b, float(np.sqrt(np.mean(resid**2)))


def swap_scaling_experiment(
    ns: tuple[int, ...] | list[int],
    instances_per_n: int = 20,
    seed: int = 1,
    p: int = 2,
) -> PowerLawFit:
    """Route ansatz circuits for each size and fit SWAP count vs n.

    SWAP counts are angle-independent, so fixed nonzero angles are used.
    Instances come from generate_instance, so n <= 4 draws the complete-graph
    fallback, which lies outside the 4-regular family of larger sizes; keep
    such sizes out of a fit meant to extrapolate 4-regular workloads.
    """
    if len(ns) < 3:
        raise ValueError("need at least 3 qubit counts")
    if instances_per_n < 1:
        raise ValueError("need at least 1 instance per size")
    params = QaoaParams(
        p=p, gammas=tuple(0.7 for _ in range(p)), betas=tuple(0.4 for _ in range(p))
    )
    points = []
    for n in sorted(ns):
        counts = []
        for i in range(instances_per_n):
            g = generate_instance(n, seed=mix_seed(seed, n, i))
            circuit = build_qaoa(g, params)
            counts.append(route(circuit, grid_layout(n)).swap_count)
        arr = np.asarray(counts, dtype=float)
        points.append((n, float(arr.mean()), float(arr.std())))
    return PowerLawFit.from_points(points)
