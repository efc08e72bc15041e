from __future__ import annotations

import math

import numpy as np
import pytest

from qprofile.circuit import Circuit, QaoaParams, build_qaoa, cnot, h, measure, rx, rz, simplify
from qprofile.problem import generate_instance
from qprofile.router import grid_layout, route
from qprofile.statevector import StateVector, sample, simulate


# Gate-by-gate reference: each gate is a 2x2 matrix on its qubit's tensor axis
# or a swap of the target's halves where the control is 1.
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


def _matrix(kind: str, theta: float | None) -> np.ndarray:
    if kind == "H":
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
    if kind == "RX":
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        return np.array([[c, -1j * s], [-1j * s, c]], dtype=np.complex128)
    return np.array([[np.exp(-0.5j * theta), 0], [0, np.exp(0.5j * theta)]], dtype=np.complex128)


def oracle(c: Circuit) -> np.ndarray:
    psi = np.zeros(1 << c.n, dtype=np.complex128)
    psi[0] = 1.0
    for g in c.gates:
        if g.kind == "CNOT":
            psi = _apply_cnot(psi, g.qubits[0], g.qubits[1], c.n)
        elif g.kind != "MEASURE":
            psi = _apply_1q(psi, _matrix(g.kind, g.theta), g.qubits[0], c.n)
    return psi


def _random_circuit(rng: np.random.Generator, n: int, length: int) -> Circuit:
    angles = rng.uniform(0.0, 2.0 * math.pi, 3)  # few angles, so RZ angles repeat
    gates = []
    for _ in range(length):
        kind = rng.choice(["H", "RX", "RZ", "CNOT"] if n > 1 else ["H", "RX", "RZ"])
        if kind == "CNOT":
            control, target = rng.choice(n, 2, replace=False)
            gates.append(cnot(int(control), int(target)))
        else:
            q = int(rng.integers(n))
            theta = float(rng.choice(angles))
            gates.append({"H": h(q), "RX": rx(theta, q), "RZ": rz(theta, q)}[kind])
    return Circuit(n=n, gates=tuple(gates))


def _assert_matches_oracle(c: Circuit) -> None:
    np.testing.assert_allclose(simulate(c).amplitudes, oracle(c), rtol=0, atol=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_random_circuits_match_the_gate_by_gate_oracle(seed):
    rng = np.random.default_rng(seed)
    for n in range(1, 8):
        for length in (5, 20, 60):
            _assert_matches_oracle(_random_circuit(rng, n, length))


def test_cnot_runs_that_do_not_cancel_permute_the_amplitudes():
    # the runs leave the wires a cyclic shift and a non-trivial linear map
    rng = np.random.default_rng(11)
    for n in range(2, 8):
        prep = tuple(rx(float(a), q) for q, a in enumerate(rng.uniform(0.1, 3.0, n)))
        chain = tuple(cnot(q, q + 1) for q in range(n - 1))
        phased = (cnot(0, n - 1), rz(0.7, n - 1), cnot(n - 1, 0), rz(0.7, 0))
        for tail in (chain, chain[::-1] + phased, phased + (h(0),) + chain):
            _assert_matches_oracle(Circuit(n=n, gates=prep + tail))


def test_repeated_rz_angles_share_one_phase_table():
    rng = np.random.default_rng(5)
    for n in range(2, 8):
        gates = [h(q) for q in range(n)]
        for _ in range(3 * n):
            i, j = (int(v) for v in rng.choice(n, 2, replace=False))
            gates += [cnot(i, j), rz(1.3, j), cnot(i, j), rz(1.3, i), rz(0.4, j)]
        _assert_matches_oracle(Circuit(n=n, gates=tuple(gates)))


def test_rz_before_any_hadamard():
    # on |0...0> a leading RZ is a pure global phase, which the amplitudes keep
    for c in (
        Circuit(n=1, gates=(rz(0.9, 0), rz(2.1, 0), h(0))),
        Circuit(n=3, gates=(rz(0.9, 0), rz(2.1, 2), cnot(0, 2), h(0), rz(0.4, 1))),
        Circuit(n=5, gates=(rz(0.9, 4), cnot(4, 1), rz(0.9, 1), rx(0.3, 2), h(1))),
    ):
        _assert_matches_oracle(c)


@pytest.mark.parametrize("n", range(2, 8))
def test_qaoa_circuits_match_the_oracle_raw_simplified_and_routed(n):
    rng = np.random.default_rng(n)
    g = generate_instance(n, n)
    c = build_qaoa(g, QaoaParams.from_flat(rng.uniform(0.0, 2.0 * math.pi, 4)))
    for circuit in (c, simplify(c), route(c, grid_layout(n)).circuit):
        _assert_matches_oracle(circuit)


def test_bell_state_amplitudes():
    c = Circuit(n=2, gates=(h(0), cnot(0, 1), measure(0), measure(1)))
    psi = simulate(c).amplitudes
    expected = np.zeros(4, dtype=complex)
    expected[0] = expected[3] = 1 / math.sqrt(2)
    np.testing.assert_allclose(psi, expected, atol=1e-12)


def test_bell_sampling_has_exact_support():
    c = Circuit(n=2, gates=(h(0), cnot(0, 1)))
    counts = sample(simulate(c), shots=4000, seed=1)
    assert set(counts.counts) == {"00", "11"}
    assert sum(counts.counts.values()) == 4000


def test_basis_state_preparation_and_bit_order():
    # flipping qubit 0 must set the leftmost character
    c = Circuit(n=2, gates=(rx(math.pi, 0),))
    counts = sample(simulate(c), shots=100, seed=0)
    assert counts.counts == {"10": 100}


def test_zero_angle_ansatz_is_uniform():
    g = generate_instance(3, 0)
    c = build_qaoa(g, QaoaParams(p=2, gammas=(0.0, 0.0), betas=(0.0, 0.0)))
    probs = simulate(c).probabilities()
    np.testing.assert_allclose(probs, np.full(8, 1 / 8), atol=1e-12)


def test_sampling_is_deterministic_in_the_seed():
    c = Circuit(n=2, gates=(h(0), h(1)))
    st = simulate(c)
    assert sample(st, 500, seed=9).counts == sample(st, 500, seed=9).counts
    assert sample(st, 500, seed=9).counts != sample(st, 500, seed=10).counts


def test_sampled_frequencies_track_probabilities():
    st = simulate(Circuit(n=1, gates=(h(0),)))
    counts = sample(st, 1000, seed=3)
    assert 400 <= counts.counts["0"] <= 600


def test_total_variation_distance_at_many_shots():
    g = generate_instance(3, 1)
    c = build_qaoa(g, QaoaParams(p=1, gammas=(0.8,), betas=(0.3,)))
    st = simulate(c)
    probs = st.probabilities()
    shots = 100_000
    counts = sample(st, shots, seed=5)
    empirical = np.zeros_like(probs)
    for bits, k in counts.counts.items():
        empirical[int(bits, 2)] = k / shots
    tv = 0.5 * float(np.abs(empirical - probs).sum())
    assert tv < 0.02


def test_state_vector_validation():
    with pytest.raises(ValueError):
        StateVector(n=1, amplitudes=np.array([1.0, 1.0], dtype=complex))
    with pytest.raises(ValueError):
        StateVector(n=2, amplitudes=np.array([1.0, 0.0], dtype=complex))


def test_simulation_size_cap():
    with pytest.raises(ValueError):
        simulate(Circuit(n=25, gates=()))


def test_sample_rejects_nonpositive_shots():
    st = simulate(Circuit(n=1, gates=(h(0),)))
    with pytest.raises(ValueError):
        sample(st, 0, seed=0)
