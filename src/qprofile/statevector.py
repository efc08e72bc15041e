"""Dense statevector simulation and counter-based shot sampling.

Amplitude index k encodes the bitstring of k with qubit 0 as the leftmost
(most significant) character, so sampling basis state k always yields that
bitstring.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .circuit import Circuit
from .problem import ShotCounts

MAX_SIM_QUBITS = 24
_NORM_TOL = 1e-9
_INV_SQRT2 = 1.0 / math.sqrt(2.0)


@dataclass(frozen=True)
class StateVector:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.amplitudes.shape != (1 << self.n,):
            raise ValueError(
                f"amplitude shape {self.amplitudes.shape} does not match n={self.n}"
            )
        norm = float(np.sum(np.abs(self.amplitudes) ** 2))
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1")

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2


def _apply_run(psi: np.ndarray, n: int, wires: list[int], halves: dict[float, list[int]]) -> np.ndarray:
    """Apply one CNOT-RZ run: |x> -> exp(i phi(x)) |A x>.

    Masks select bits of the amplitude index. wires[q] is the mask of the
    run's input that qubit q holds at the end of the run (row q of A);
    halves maps each RZ half-angle a to the masks its wires held when it
    acted. RZ(2a) contributes exp(i a (2 b - 1)) for wire value b, so the M
    masks of one angle, s of them odd on x, contribute exp(i a (2 s - M)).
    """
    permuted = any(w != 1 << (n - 1 - q) for q, w in enumerate(wires))
    if not (halves or permuted):
        return psi
    k = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    bits: dict[int, np.ndarray] = {}  # index bit p -> uint8 array of bit p of k

    def parity(mask: int) -> np.ndarray:  # uint8, 1 where k & mask has odd weight
        out = None
        while mask:
            p = (mask & -mask).bit_length() - 1
            mask &= mask - 1
            if p not in bits:
                bits[p] = (k >> p & 1).astype(np.uint8)
            out = bits[p] if out is None else out ^ bits[p]
        return out

    for a, masks in halves.items():
        m = len(masks)
        s = np.zeros(1 << n, dtype=np.min_scalar_type(m))
        for mask in masks:
            s += parity(mask)
        psi *= np.exp(1j * a * (2.0 * np.arange(m + 1) - m))[s]
    if not permuted:
        return psi
    dest = np.zeros(1 << n, dtype=np.intp)
    for q, w in enumerate(wires):
        dest |= parity(w).astype(np.intp) << (n - 1 - q)
    out = np.empty_like(psi)
    out[dest] = psi
    return out


def _rotate(psi: np.ndarray, kind: str, theta: float | None, q: int) -> None:
    """H or RX on qubit q, as an in-place butterfly over amplitude pairs."""
    v = psi.reshape(1 << q, 2, -1)
    a, b = v[:, 0], v[:, 1]
    if kind == "H":
        top = a + b
        np.subtract(a, b, out=b)
        top *= _INV_SQRT2
        b *= _INV_SQRT2
    else:
        c, ms = math.cos(theta / 2), -1j * math.sin(theta / 2)
        top = a * c
        top += b * ms
        b *= c
        b += a * ms
    a[...] = top


def _product(pairs: list[np.ndarray]) -> np.ndarray:
    """State vector of a product state, qubit 0 the most significant."""
    psi = pairs[0]
    for pair in pairs[1:]:
        psi = np.multiply.outer(psi, pair).reshape(-1)
    return psi


def simulate(c: Circuit) -> StateVector:
    """Evolve |0...0> through the circuit. MEASURE gates are ignored.

    Each maximal run of CNOT and RZ gates is applied as one diagonal phase
    followed, only when its CNOTs do not cancel, by one index permutation:
    each wire is tracked as a parity mask over the run's input (CNOT XORs
    the control's mask into the target's), and RZ files its wire's mask
    under its half-angle. H and RX are in-place butterflies; before the first
    CNOT or RZ they act on each qubit's own amplitude pair, and the state
    vector is formed there as the pairs' outer product. The amplitudes,
    global phase included, equal a gate-by-gate evolution to rounding.
    """
    if c.n > MAX_SIM_QUBITS:
        raise ValueError(f"simulation capped at {MAX_SIM_QUBITS} qubits, got {c.n}")
    n = c.n
    pairs = [np.array([1.0, 0.0], dtype=np.complex128) for _ in range(n)]
    psi = None
    identity = [1 << (n - 1 - q) for q in range(n)]  # qubit q is index bit n-1-q
    wires, halves = identity.copy(), {}
    for g in c.gates:
        if psi is None:
            if g.kind in ("H", "RX"):
                _rotate(pairs[g.qubits[0]], g.kind, g.theta, 0)
                continue
            if g.kind == "MEASURE":
                continue
            psi = _product(pairs)
        if g.kind == "CNOT":
            control, target = g.qubits
            wires[target] ^= wires[control]
        elif g.kind == "RZ":
            halves.setdefault(g.theta / 2, []).append(wires[g.qubits[0]])
        elif g.kind in ("H", "RX"):
            psi = _apply_run(psi, n, wires, halves)
            wires, halves = identity.copy(), {}
            _rotate(psi, g.kind, g.theta, g.qubits[0])
        # MEASURE: terminal readout, no state change here
    if psi is None:
        psi = _product(pairs)
    return StateVector(n=n, amplitudes=_apply_run(psi, n, wires, halves))


def sample(state: StateVector, shots: int, seed: int) -> ShotCounts:
    """Multinomial shot sampling with a counter-based (Philox) generator.

    Deterministic in (state, shots, seed).
    """
    if shots <= 0:
        raise ValueError(f"shots must be positive, got {shots}")
    probs = state.probabilities()
    probs = probs / probs.sum()
    rng = np.random.Generator(np.random.Philox(key=seed))
    draws = rng.multinomial(shots, probs)
    hit = np.flatnonzero(draws)
    counts = {format(k, f"0{state.n}b"): v for k, v in zip(hit.tolist(), draws[hit].tolist())}
    return ShotCounts(counts=counts, shots=shots)
