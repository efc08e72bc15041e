from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from qprofile.circuit import (
    Circuit,
    Gate,
    QaoaParams,
    build_qaoa,
    circuit_duration,
    cnot,
    h,
    measure,
    rx,
    rz,
    schedule_moments,
    simplify,
)
from qprofile.problem import generate_instance
from qprofile.statevector import simulate
from qprofile.timing import TimingModel

TWO_PI = 2.0 * math.pi


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("SWAP", (0, 1))
    with pytest.raises(ValueError):
        Gate("H", (0, 1))
    with pytest.raises(ValueError):
        Gate("CNOT", (2, 2))
    with pytest.raises(ValueError):
        Gate("RX", (0,))  # missing angle
    with pytest.raises(ValueError):
        Gate("H", (0,), theta=1.0)


def test_gates_are_frozen_and_carry_no_instance_dict():
    # the ansatz and the router share gate objects between positions, and
    # the swap study builds thousands of them per op
    g = rz(0.3, 1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.theta = 0.4
    # a new name is refused too; Python 3.11 raises TypeError from the
    # frozen __setattr__ of a slots dataclass, later versions an AttributeError
    with pytest.raises((AttributeError, TypeError)):
        g.label = "x"
    with pytest.raises(AttributeError):
        object.__setattr__(g, "label", "x")
    assert not hasattr(g, "__dict__")


def test_angle_free_gates_are_interned():
    assert cnot(0, 1) is cnot(0, 1)
    assert h(2) is h(2)
    assert measure(3) is measure(3)
    # rotations are built per call: a cache of optimizer angles would only grow
    assert rz(0.3, 1) is not rz(0.3, 1)
    assert rx(0.3, 1) is not rx(0.3, 1)


def test_a_rejected_gate_raises_on_every_call():
    for _ in range(3):
        with pytest.raises(ValueError):
            cnot(1, 1)


def test_a_numpy_qubit_index_does_not_leak_into_the_interned_gate():
    # indices no other test uses, so the numpy call is the first of its kind;
    # numpy integers hash and compare like ints, and would share a cache
    # entry with them unless the cache keys on type
    gates = (cnot(np.int64(517), 518), h(np.int64(519)), measure(np.int64(520)))
    assert repr(cnot(517, 518)) == "Gate(kind='CNOT', qubits=(517, 518), theta=None)"
    assert repr(h(519)) == "Gate(kind='H', qubits=(519,), theta=None)"
    assert repr(measure(520)) == "Gate(kind='MEASURE', qubits=(520,), theta=None)"
    assert gates == (cnot(517, 518), h(519), measure(520))


def test_angles_normalize_into_one_period():
    assert rz(-math.pi / 2, 0).theta == pytest.approx(3 * math.pi / 2)
    assert rx(TWO_PI, 0).theta == pytest.approx(0.0)
    assert rx(5 * math.pi, 0).theta == pytest.approx(math.pi)


def test_circuit_rejects_gates_after_measurement():
    with pytest.raises(ValueError):
        Circuit(n=1, gates=(measure(0), h(0)))
    with pytest.raises(ValueError):
        Circuit(n=2, gates=(h(2),))


def test_measured_qubits_in_order():
    c = Circuit(n=3, gates=(h(0), measure(2), measure(0)))
    assert c.measured_qubits() == (2, 0)


def test_qaoa_params_from_flat_derives_layer_count():
    p = QaoaParams.from_flat((0.1, 0.2, 0.3, 0.4))
    assert p.p == 2
    assert p.gammas == (0.1, 0.2)
    assert p.betas == (0.3, 0.4)
    with pytest.raises(ValueError):
        QaoaParams.from_flat((0.1, 0.2, 0.3))
    with pytest.raises(ValueError):
        QaoaParams(p=1, gammas=(7.0,), betas=(0.1,))  # outside [0, 2pi]


def test_ansatz_shape_on_the_four_qubit_complete_graph():
    g = generate_instance(4, 0)
    c = build_qaoa(g, QaoaParams(p=2, gammas=(0.7, 0.7), betas=(0.4, 0.4)))
    # n + p*(3|E| + n) + n with n=4, |E|=6, p=2
    assert len(c.gates) == 52
    kinds = [gate.kind for gate in c.gates]
    assert kinds[:4] == ["H"] * 4
    assert kinds[4:7] == ["CNOT", "RZ", "CNOT"]
    assert kinds[-4:] == ["MEASURE"] * 4
    assert c.gates[4].qubits == (0, 1)  # edges visited in sorted order
    assert c.gates[5].theta == pytest.approx(0.7)


def test_ansatz_reuses_one_cnot_per_edge_and_one_rz_per_layer_and_qubit():
    g = generate_instance(6, 2)
    params = QaoaParams(p=2, gammas=(0.7, 1.1), betas=(0.4, 0.2))
    c = build_qaoa(g, params)
    built = [h(q) for q in range(g.n)]
    for gamma, beta in zip(params.gammas, params.betas):
        for i, j in g.edges:
            built += [cnot(i, j), rz(gamma, j), cnot(i, j)]
        built += [rx(2.0 * beta, q) for q in range(g.n)]
    built += [measure(q) for q in range(g.n)]
    assert list(c.gates) == built
    blocks = c.gates[g.n:g.n + 3 * len(g.edges)]
    assert all(blocks[k] is blocks[k + 2] for k in range(0, len(blocks), 3))
    assert len({id(gate) for gate in c.gates if gate.kind == "CNOT"}) == len(g.edges)
    assert len({id(gate) for gate in c.gates if gate.kind == "RZ"}) <= params.p * g.n


def test_ansatz_mixer_uses_doubled_angle():
    g = generate_instance(2, 0)
    c = build_qaoa(g, QaoaParams(p=1, gammas=(0.5,), betas=(0.4,)))
    mixers = [gate for gate in c.gates if gate.kind == "RX"]
    assert len(mixers) == 2
    assert all(gate.theta == pytest.approx(0.8) for gate in mixers)


def test_simplify_removes_zero_angle_layers():
    g = generate_instance(2, 0)
    c = build_qaoa(g, QaoaParams(p=1, gammas=(0.0,), betas=(0.0,)))
    s = simplify(c)
    # zero rotations dropped, the exposed CNOT pair cancels
    assert [gate.kind for gate in s.gates] == ["H", "H", "MEASURE", "MEASURE"]


def test_simplify_merges_adjacent_rz():
    c = Circuit(n=1, gates=(rz(1.0, 0), rz(2.5, 0), measure(0)))
    s = simplify(c)
    assert [gate.kind for gate in s.gates] == ["RZ", "MEASURE"]
    assert s.gates[0].theta == pytest.approx(3.5)


def test_simplify_keeps_blocked_cnot_pairs():
    c = Circuit(n=2, gates=(cnot(0, 1), rz(0.3, 1), cnot(0, 1)))
    assert simplify(c).gates == c.gates


def test_simplify_preserves_the_state():
    g = generate_instance(4, 2)
    c = build_qaoa(g, QaoaParams(p=2, gammas=(0.9, 2.1), betas=(0.2, 5.5)))
    raw = simulate(c).amplitudes
    slim = simulate(simplify(c)).amplitudes
    # equality up to global phase
    k = int(np.argmax(np.abs(raw)))
    phase = slim[k] / raw[k]
    assert abs(abs(phase) - 1.0) < 1e-9
    np.testing.assert_allclose(slim, raw * phase, atol=1e-9)


def test_moment_packing_durations():
    t = TimingModel()
    assert circuit_duration(Circuit(n=1, gates=(h(0),)), t) == pytest.approx(40e-9)
    # parallel single-qubit gates share one moment
    assert circuit_duration(Circuit(n=2, gates=(h(0), h(1))), t) == pytest.approx(40e-9)
    # dependent gates serialize
    assert circuit_duration(Circuit(n=2, gates=(h(0), cnot(0, 1))), t) == pytest.approx(140e-9)
    # a moment costs its slowest member
    c = Circuit(n=3, gates=(measure(2), h(0), cnot(0, 1)))
    moments = schedule_moments(c, t)
    assert [d for d, _ in moments] == [pytest.approx(500e-9), pytest.approx(100e-9)]


def test_reference_ansatz_duration():
    g = generate_instance(4, 0)
    c = build_qaoa(g, QaoaParams(p=2, gammas=(0.7, 0.7), betas=(0.4, 0.4)))
    assert circuit_duration(c, TimingModel()) == pytest.approx(3.82e-6, rel=1e-9)
