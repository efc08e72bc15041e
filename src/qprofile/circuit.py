"""Gate-level circuit IR, the layered Max-Cut ansatz, and timing analysis.

The gate set is H, RX, RZ, CNOT, MEASURE. Rotation angles are normalized
into [0, 2pi). Duration accounting packs gates into moments as soon as
their qubits are free; each moment costs the duration of its slowest gate.

h, cnot and measure intern their gates, typed so that numpy and int indices
stay apart: each angle-free gate is built and validated once per process. rx
and rz build per call, since the optimizer moves their angles every step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .problem import ProblemGraph
from .timing import TimingModel

TWO_PI = 2.0 * math.pi
ANGLE_TOL = 1e-9

_ARITY = {"H": 1, "RX": 1, "RZ": 1, "CNOT": 2, "MEASURE": 1}
_TAKES_ANGLE = {"RX", "RZ"}


def _norm_angle(theta: float) -> float:
    t = math.fmod(float(theta), TWO_PI)
    if t < 0:
        t += TWO_PI
    if t >= TWO_PI:  # fmod edge at exactly 2pi
        t -= TWO_PI
    return t


@dataclass(frozen=True, slots=True)
class Gate:
    kind: str
    qubits: tuple[int, ...]
    theta: float | None = None

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.qubits) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} takes {_ARITY[self.kind]} qubit(s)")
        if len(set(self.qubits)) != len(self.qubits):
            raise ValueError(f"repeated qubit in {self.kind}{self.qubits}")
        if self.kind in _TAKES_ANGLE:
            if self.theta is None:
                raise ValueError(f"{self.kind} requires an angle")
            object.__setattr__(self, "theta", _norm_angle(self.theta))
        elif self.theta is not None:
            raise ValueError(f"{self.kind} takes no angle")


@lru_cache(maxsize=4096, typed=True)
def h(q: int) -> Gate:
    return Gate("H", (q,))


def rx(theta: float, q: int) -> Gate:
    return Gate("RX", (q,), theta)


def rz(theta: float, q: int) -> Gate:
    return Gate("RZ", (q,), theta)


@lru_cache(maxsize=4096, typed=True)
def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", (control, target))


@lru_cache(maxsize=4096, typed=True)
def measure(q: int) -> Gate:
    return Gate("MEASURE", (q,))


@dataclass(frozen=True)
class Circuit:
    """Ordered gate list on n qubits. Measurements may only trail."""

    n: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least 1 qubit, got {self.n}")
        object.__setattr__(self, "gates", tuple(self.gates))
        measured: set[int] = set()
        for g in self.gates:
            for q in g.qubits:
                if not 0 <= q < self.n:
                    raise ValueError(f"qubit {q} out of range for n={self.n}")
                if q in measured:
                    raise ValueError(f"gate {g.kind} on qubit {q} after its MEASURE")
            if g.kind == "MEASURE":
                measured.add(g.qubits[0])

    def measured_qubits(self) -> tuple[int, ...]:
        return tuple(g.qubits[0] for g in self.gates if g.kind == "MEASURE")


@dataclass(frozen=True)
class QaoaParams:
    """Per-layer cost and mixer angles, each within [0, 2pi]."""

    p: int
    gammas: tuple[float, ...]
    betas: tuple[float, ...]

    def __post_init__(self):
        if self.p < 1:
            raise ValueError(f"p must be >= 1, got {self.p}")
        object.__setattr__(self, "gammas", tuple(float(x) for x in self.gammas))
        object.__setattr__(self, "betas", tuple(float(x) for x in self.betas))
        if len(self.gammas) != self.p or len(self.betas) != self.p:
            raise ValueError("need exactly p gammas and p betas")
        for x in self.gammas + self.betas:
            if not 0.0 <= x <= TWO_PI:
                raise ValueError(f"angle {x} outside [0, 2pi]")

    @classmethod
    def from_flat(cls, values) -> "QaoaParams":
        vals = tuple(float(v) for v in values)
        if len(vals) % 2 != 0:
            raise ValueError("flat parameter vector must have even length")
        p = len(vals) // 2
        return cls(p=p, gammas=vals[:p], betas=vals[p:])


def build_qaoa(g: ProblemGraph, params: QaoaParams) -> Circuit:
    """Layered Max-Cut ansatz.

    Hadamards on every qubit, then per layer one CNOT-RZ(gamma)-CNOT block
    per edge (in sorted edge order) followed by RX(2 beta) on every qubit,
    and trailing measurements. Gate count: n + p*(3|E| + n) + n. H, CNOT and
    MEASURE are the interned gates of h, cnot and measure, and one RZ per
    layer and qubit serves every edge that targets that qubit.
    """
    gates: list[Gate] = [h(q) for q in range(g.n)]
    cnots = [cnot(i, j) for i, j in g.edges]
    for layer in range(params.p):
        gamma = params.gammas[layer]
        beta = params.betas[layer]
        rzs = [rz(gamma, q) for q in range(g.n)]
        for c, (_, j) in zip(cnots, g.edges):
            gates += (c, rzs[j], c)
        gates += [rx(2.0 * beta, q) for q in range(g.n)]
    gates += [measure(q) for q in range(g.n)]
    return Circuit(n=g.n, gates=tuple(gates))


def _is_zero_angle(theta: float) -> bool:
    return theta <= ANGLE_TOL or TWO_PI - theta <= ANGLE_TOL


def _merge_rz_pass(gates: list[Gate]) -> tuple[list[Gate], bool]:
    out: list[Gate] = []
    last_on: dict[int, int] = {}  # qubit -> index in out of its latest gate
    changed = False
    for g in gates:
        if g.kind == "RZ":
            q = g.qubits[0]
            prev = last_on.get(q)
            if prev is not None and out[prev].kind == "RZ":
                merged = _norm_angle(out[prev].theta + g.theta)
                out[prev] = rz(merged, q)
                changed = True
                continue
        idx = len(out)
        out.append(g)
        for q in g.qubits:
            last_on[q] = idx
    return out, changed


def _drop_zero_rotations(gates: list[Gate]) -> tuple[list[Gate], bool]:
    out = [
        g
        for g in gates
        if not (g.kind in ("RX", "RZ") and _is_zero_angle(g.theta))
    ]
    return out, len(out) != len(gates)


def _cancel_cnot_pairs(gates: list[Gate]) -> tuple[list[Gate], bool]:
    # A CNOT cancels the next gate touching either of its qubits when that
    # gate is the identical CNOT.
    removed = [False] * len(gates)
    changed = False
    for i, g in enumerate(gates):
        if removed[i] or g.kind != "CNOT":
            continue
        qa, qb = g.qubits
        for j in range(i + 1, len(gates)):
            if removed[j]:
                continue
            other = gates[j]
            if qa in other.qubits or qb in other.qubits:
                if other.kind == "CNOT" and other.qubits == g.qubits:
                    removed[i] = removed[j] = True
                    changed = True
                break
    if not changed:
        return gates, False
    return [g for i, g in enumerate(gates) if not removed[i]], True


def simplify(c: Circuit) -> Circuit:
    """Peephole simplification to a fixpoint.

    Merges adjacent RZ on the same qubit (angles mod 2pi), drops RX/RZ
    whose angle is 0 within 1e-9, and cancels adjacent identical CNOT
    pairs. Unitarily equivalent to the input up to global phase.
    """
    gates = list(c.gates)
    while True:
        gates, a = _merge_rz_pass(gates)
        gates, b = _drop_zero_rotations(gates)
        gates, d = _cancel_cnot_pairs(gates)
        if not (a or b or d):
            break
    return Circuit(n=c.n, gates=tuple(gates))


def gate_duration(g: Gate, t: TimingModel) -> float:
    if g.kind == "CNOT":
        return t.gate_2q
    if g.kind == "MEASURE":
        return t.measurement
    return t.gate_1q


def schedule_moments(c: Circuit, t: TimingModel) -> list[tuple[float, list[Gate]]]:
    """Pack gates into moments as-soon-as-possible.

    A gate enters the earliest moment in which all its qubits are free.
    Returns [(moment_duration_seconds, gates)] in time order.
    """
    free_at = [0] * c.n  # per-qubit index of the next free moment
    moments: list[tuple[float, list[Gate]]] = []
    for g in c.gates:
        m = max(free_at[q] for q in g.qubits)
        while len(moments) <= m:
            moments.append((0.0, []))
        dur, gates = moments[m]
        gates.append(g)
        moments[m] = (max(dur, gate_duration(g, t)), gates)
        for q in g.qubits:
            free_at[q] = m + 1
    return moments


def circuit_duration(c: Circuit, t: TimingModel) -> float:
    """Total wall duration of one shot of the circuit, in seconds."""
    return sum(d for d, _ in schedule_moments(c, t))
