"""Greedy SWAP routing onto a square grid, and the routed-SWAP study.

Logical qubits are placed row-major on the smallest square grid that fits.
When a two-qubit gate spans non-adjacent cells, the endpoint with the
smaller logical index walks along a shortest Manhattan path (row step
first) until the pair is adjacent. Each step is one SWAP, materialized as
three CNOTs so routed circuits stay inside the base gate set.

run_swap_study routes random instances at each size and fits the mean SWAP
count to a * n^b; `qprofile swaps` prints and saves that PowerLawFit, and
extrapolate turns it into a schedule term at the target size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .circuit import Circuit, Gate, QaoaParams, build_qaoa, cnot, h, measure
from .problem import MIN_REGULAR_QUBITS, generate_instance
from .profiler import fit_linear
from .util import mix_seed

# Every size of the 4-regular family up to 14 qubits. The complete-graph
# instances below MIN_REGULAR_QUBITS route differently, and mixing them in
# steepens the fitted exponent that extrapolation applies to 4-regular graphs.
DEFAULT_SWAP_SIZES = tuple(range(MIN_REGULAR_QUBITS, 15))


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


def route(c: Circuit, layout: GridLayout) -> RouteResult:
    """Insert SWAPs so every two-qubit gate acts on grid-adjacent cells.

    Returns the routed circuit on rows*cols physical qubits, the number of
    SWAPs inserted, and the final logical->physical cell map (every qubit
    of layout.assignment, including any beyond c.n). The bookkeeping runs
    on integer cell indices, row * cols + col. A gate whose physical qubits
    equal its logical ones is passed through. SWAP CNOTs and re-placed H,
    CNOT and MEASURE gates come from the interning constructors of
    qprofile.circuit, so each is built once per process; a re-placed RX or
    RZ is built anew.
    """
    if c.n > layout.capacity:
        raise ValueError(f"{c.n} qubits exceed grid capacity {layout.capacity}")
    for q in range(c.n):
        if q not in layout.assignment:
            raise ValueError(f"qubit {q} missing from layout assignment")

    cols = layout.cols
    pos = {q: layout.cell_index(rc) for q, rc in layout.assignment.items()}
    occupant = {cell: q for q, cell in pos.items()}
    out: list[Gate] = []
    measures: list[Gate] = []
    swaps = 0
    for g in c.gates:
        if g.kind == "MEASURE":
            measures.append(g)
            continue
        if len(g.qubits) == 1:
            cell = pos[g.qubits[0]]
            if cell != g.qubits[0]:
                g = h(cell) if g.kind == "H" else Gate(g.kind, (cell,), g.theta)
            out.append(g)
            continue
        a, b = g.qubits
        mover, anchor = (a, b) if a < b else (b, a)
        src = pos[mover]
        row, col = divmod(src, cols)
        to_row, to_col = divmod(pos[anchor], cols)
        # walk a shortest path, row step first, until the pair is adjacent
        while abs(row - to_row) + abs(col - to_col) > 1:
            if row != to_row:
                row += 1 if to_row > row else -1
            else:
                col += 1 if to_col > col else -1
            nxt = row * cols + col
            fwd = cnot(src, nxt)
            out += (fwd, cnot(nxt, src), fwd)
            other = occupant.get(nxt)
            occupant[nxt] = mover
            if other is None:
                del occupant[src]
            else:
                occupant[src] = other
                pos[other] = src
            src = nxt
            swaps += 1
        pos[mover] = src
        cells = (pos[a], pos[b])
        out.append(g if cells == g.qubits else cnot(*cells))

    for g in measures:
        cell = pos[g.qubits[0]]
        out.append(g if cell == g.qubits[0] else measure(cell))

    routed = Circuit(n=layout.capacity, gates=tuple(out))
    final = {q: divmod(cell, cols) for q, cell in pos.items()}
    return RouteResult(routed, swaps, final)


@dataclass(frozen=True, slots=True)
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

    def to_csv(self) -> str:
        """The per-size points; from_csv refits them."""
        lines = ["n,mean_swaps,std_swaps"]
        for n, mean, std in self.points:
            lines.append(f"{n},{mean:.6f},{std:.6f}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "PowerLawFit":
        """Refit to_csv's points; a malformed row raises ValueError naming its line."""
        points = []
        for number, line in enumerate(text.splitlines()[1:], start=2):
            if line.strip():
                try:
                    n_text, mean_text, std_text = line.split(",")
                    points.append((int(n_text), float(mean_text), float(std_text)))
                except ValueError:
                    raise ValueError(f"line {number} is not n,mean_swaps,std_swaps: {line!r}")
        return cls.from_points(points)


def fit_power_law(ns, means) -> tuple[float, float, float]:
    """(a, b, RMS log residual) of a linear fit of log(means) on log(ns)."""
    if len(set(ns)) < 3:
        raise ValueError(f"power-law fit needs at least 3 distinct sizes, got {sorted(set(ns))}")
    logx = np.log(np.asarray(ns, dtype=float))
    means = np.asarray(means, dtype=float)
    if not np.all(np.isfinite(means) & (means > 0)):
        raise ValueError(f"power-law fit needs finite positive means, got {means.tolist()}")
    logy = np.log(means)
    line = fit_linear(zip(logx, logy))
    resid = logy - line.evaluate(logx)
    return math.exp(line.intercept), line.slope, float(np.sqrt(np.mean(resid**2)))


def run_swap_study(
    ns=DEFAULT_SWAP_SIZES,
    instances_per_n: int = 20,
    seed: int = 1,
    p: int = 2,
) -> PowerLawFit:
    """Route random instances at each size and fit mean swaps ~ a * n^b.

    SWAP counts are angle-independent, so fixed nonzero angles are used.
    Instances come from generate_instance, so n <= 4 (below
    MIN_REGULAR_QUBITS) draws the complete-graph fallback, which lies
    outside the 4-regular family of the default sizes; keep such sizes out
    of a fit meant to extrapolate 4-regular workloads.
    """
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
