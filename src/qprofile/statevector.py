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
_SQRT2 = math.sqrt(2.0)


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


def _apply_1q(psi: np.ndarray, u: np.ndarray, q: int, n: int) -> np.ndarray:
    t = np.moveaxis(psi.reshape((2,) * n), q, 0)
    shape = t.shape
    t = (u @ t.reshape(2, -1)).reshape(shape)
    return np.moveaxis(t, 0, q).reshape(-1)

def _apply_cnot(psi: np.ndarray, control: int, target: int, n: int) -> np.ndarray:
    t = np.moveaxis(psi.reshape((2,) * n), (control, target), (0, 1))
    out = t.copy()
    out[1, 0] = t[1, 1]
    out[1, 1] = t[1, 0]
    return np.moveaxis(out, (0, 1), (control, target)).reshape(-1)


def _h_matrix() -> np.ndarray:
    return np.array([[1, 1], [1, -1]], dtype=np.complex128) / _SQRT2


def _rx_matrix(theta: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)


def _rz_matrix(theta: float) -> np.ndarray:
    return np.array(
        [[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=np.complex128
    )


def simulate(c: Circuit) -> StateVector:
    """Evolve |0...0> through the circuit. MEASURE gates are ignored."""
    if c.n > MAX_SIM_QUBITS:
        raise ValueError(f"simulation capped at {MAX_SIM_QUBITS} qubits, got {c.n}")
    psi = np.zeros(1 << c.n, dtype=np.complex128)
    psi[0] = 1.0
    for g in c.gates:
        if g.kind == "H":
            psi = _apply_1q(psi, _h_matrix(), g.qubits[0], c.n)
        elif g.kind == "RX":
            psi = _apply_1q(psi, _rx_matrix(g.theta), g.qubits[0], c.n)
        elif g.kind == "RZ":
            psi = _apply_1q(psi, _rz_matrix(g.theta), g.qubits[0], c.n)
        elif g.kind == "CNOT":
            psi = _apply_cnot(psi, g.qubits[0], g.qubits[1], c.n)
        # MEASURE: terminal readout, no state change here
    return StateVector(n=c.n, amplitudes=psi)


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
