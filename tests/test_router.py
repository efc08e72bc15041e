from __future__ import annotations

import dataclasses
import hashlib
import math

import pytest

from qprofile.circuit import Circuit, QaoaParams, build_qaoa, cnot, h, measure, simplify
from qprofile.problem import generate_instance
from qprofile.router import (
    GridLayout,
    PowerLawFit,
    fit_power_law,
    grid_layout,
    route,
    run_swap_study,
)
from qprofile.statevector import simulate

PARAMS_P1 = QaoaParams(p=1, gammas=(0.9,), betas=(0.4,))


def test_grid_layout_is_smallest_square():
    assert (grid_layout(4).rows, grid_layout(4).cols) == (2, 2)
    assert (grid_layout(5).rows, grid_layout(5).cols) == (3, 3)
    assert (grid_layout(9).rows, grid_layout(9).cols) == (3, 3)
    assert (grid_layout(10).rows, grid_layout(10).cols) == (4, 4)
    assert grid_layout(6).assignment[4] == (1, 1)  # row-major placement


def test_layout_validation():
    with pytest.raises(ValueError):
        GridLayout(rows=2, cols=2, assignment={0: (2, 0)})
    with pytest.raises(ValueError):
        GridLayout(rows=2, cols=2, assignment={0: (0, 0), 1: (0, 0)})


def test_adjacent_gate_needs_no_swaps():
    c = Circuit(n=4, gates=(cnot(0, 1),))
    result = route(c, grid_layout(4))
    assert result.swap_count == 0
    assert [g.kind for g in result.circuit.gates] == ["CNOT"]
    assert result.final_assignment == grid_layout(4).assignment


def test_diagonal_gate_costs_one_swap():
    # cells (0,0) and (1,1) on the 2x2 grid are distance 2 apart
    c = Circuit(n=4, gates=(cnot(0, 3),))
    result = route(c, grid_layout(4))
    assert result.swap_count == 1
    kinds = [g.kind for g in result.circuit.gates]
    assert kinds == ["CNOT"] * 4  # one swap (3 CNOTs) plus the gate itself
    # the smaller endpoint walked: row-first step lands qubit 0 on (1,0)
    assert result.final_assignment[0] == (1, 0)


def test_complete_graph_ansatz_routes_in_two_swaps_per_layer():
    g = generate_instance(4, 0)
    for p, expected in ((1, 2), (2, 4)):
        params = QaoaParams(p=p, gammas=(0.7,) * p, betas=(0.4,) * p)
        result = route(build_qaoa(g, params), grid_layout(4))
        assert result.swap_count == expected


def test_routed_two_qubit_gates_are_always_grid_adjacent():
    g = generate_instance(7, 4)
    layout = grid_layout(7)
    result = route(build_qaoa(g, PARAMS_P1), layout)
    for gate in result.circuit.gates:
        if len(gate.qubits) == 2:
            ra, ca = divmod(gate.qubits[0], layout.cols)
            rb, cb = divmod(gate.qubits[1], layout.cols)
            assert abs(ra - rb) + abs(ca - cb) == 1


def test_routed_cnots_and_measurements_are_the_interned_gates():
    g = generate_instance(7, 4)
    layout = grid_layout(7)
    result = route(build_qaoa(g, PARAMS_P1), layout)
    moved = [q for q in range(g.n) if result.final_assignment[q] != layout.assignment[q]]
    assert result.swap_count > 0 and moved
    for gate in result.circuit.gates:
        if gate.kind == "CNOT":
            assert gate is cnot(*gate.qubits)
        elif gate.kind == "MEASURE":
            assert gate is measure(gate.qubits[0])


def _routed_probabilities_match(c: Circuit, n: int):
    layout = grid_layout(n)
    result = route(c, layout)
    original = simulate(c).probabilities()
    routed = simulate(result.circuit).probabilities()
    capacity = layout.capacity
    checked = 0.0
    for k in range(1 << n):
        bits = format(k, f"0{n}b")
        routed_bits = ["0"] * capacity
        for q in range(n):
            routed_bits[layout.cell_index(result.final_assignment[q])] = bits[q]
        kk = int("".join(routed_bits), 2)
        assert routed[kk] == pytest.approx(original[k], abs=1e-9)
        checked += routed[kk]
    assert checked == pytest.approx(1.0, abs=1e-9)


def test_routing_preserves_circuit_semantics():
    _routed_probabilities_match(build_qaoa(generate_instance(4, 2), PARAMS_P1), 4)
    _routed_probabilities_match(build_qaoa(generate_instance(5, 3), PARAMS_P1), 5)


def test_measurements_follow_their_qubits():
    g = generate_instance(4, 0)
    layout = grid_layout(4)
    result = route(build_qaoa(g, PARAMS_P1), layout)
    measured = [gate.qubits[0] for gate in result.circuit.gates if gate.kind == "MEASURE"]
    assert measured == [layout.cell_index(result.final_assignment[q]) for q in range(4)]


ROUTE_PARAMS = QaoaParams(p=2, gammas=(0.7, 2.1), betas=(0.4, 1.3))

# SHA-256 of every routed circuit's gates, qubit count, swap count and sorted
# final assignment over _route_corpus(), computed when the router still
# kept (row, col) tuples: routing on cell indices must not move any of it.
ROUTE_DIGEST = "d438d0e4dbcd042991b1fd90917c29c35ef447032bf39f131eb6e78aaecc847f"


def _route_corpus():
    for n in range(2, 21):
        c = build_qaoa(generate_instance(n, n), ROUTE_PARAMS)
        yield c, grid_layout(n)
        yield simplify(c), grid_layout(n)
    # a 3x4 grid with 10 qubits scattered over its 12 cells
    cells = [(2, 3), (0, 0), (1, 2), (2, 0), (0, 3), (1, 0), (2, 2), (0, 1), (1, 3), (2, 1)]
    yield build_qaoa(generate_instance(10, 7), ROUTE_PARAMS), GridLayout(3, 4, dict(enumerate(cells)))
    # a 6-qubit circuit on a layout that also places qubits 6..8
    layout = GridLayout(3, 3, {q: divmod(8 - q, 3) for q in range(9)})
    yield build_qaoa(generate_instance(6, 3), ROUTE_PARAMS), layout


def test_routes_match_the_pinned_digest():
    digest = hashlib.sha256()
    for c, layout in _route_corpus():
        r = route(c, layout)
        digest.update(repr([(g.kind, g.qubits, g.theta) for g in r.circuit.gates]).encode())
        digest.update(repr((r.circuit.n, r.swap_count, sorted(r.final_assignment.items()))).encode())
    assert digest.hexdigest() == ROUTE_DIGEST


def test_route_moves_layout_qubits_beyond_the_circuit():
    # qubit 2 is placed but the circuit has only qubits 0 and 1: the SWAP
    # that brings qubit 0 next to qubit 1 moves qubit 2 all the same
    layout = GridLayout(1, 3, {0: (0, 0), 1: (0, 2), 2: (0, 1)})
    result = route(Circuit(n=2, gates=(cnot(0, 1),)), layout)
    assert result.swap_count == 1
    assert result.final_assignment == {0: (0, 1), 1: (0, 2), 2: (0, 0)}


def test_route_rejects_oversized_circuits():
    c = build_qaoa(generate_instance(5, 0), PARAMS_P1)
    with pytest.raises(ValueError):
        route(c, grid_layout(4))
    with pytest.raises(ValueError):
        route(Circuit(n=2, gates=(h(1),)), GridLayout(rows=2, cols=2, assignment={0: (0, 0)}))


def test_power_law_fit_recovers_exact_laws():
    ns = (4, 6, 8, 10, 12, 14)
    a, b, resid = fit_power_law(ns, [n**2 for n in ns])
    assert a == pytest.approx(1.0, abs=1e-9)
    assert b == pytest.approx(2.0, abs=1e-9)
    assert resid == pytest.approx(0.0, abs=1e-9)
    a, b, _ = fit_power_law(ns, [3 * n for n in ns])
    assert a == pytest.approx(3.0, abs=1e-9)
    assert b == pytest.approx(1.0, abs=1e-9)


def test_power_law_fits_are_frozen_and_carry_no_instance_dict():
    # the swap-study benchmark keeps one fit per study
    fit = PowerLawFit.from_points([(5, 2.0, 0.1), (6, 3.0, 0.2), (7, 4.5, 0.3)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        fit.b = 2.0
    with pytest.raises((AttributeError, TypeError)):
        fit.label = "x"
    assert not hasattr(fit, "__dict__")


def test_power_law_fit_validation():
    with pytest.raises(ValueError):
        fit_power_law((4, 6), (1.0, 2.0))
    with pytest.raises(ValueError, match="3 distinct sizes"):
        fit_power_law((5, 5, 5), (20.0, 21.0, 22.0))
    with pytest.raises(ValueError, match="3 distinct sizes"):
        fit_power_law((5, 5, 6), (20.0, 21.0, 22.0))
    with pytest.raises(ValueError):
        fit_power_law((4, 6, 8), (1.0, 0.0, 2.0))
    for bad in (math.nan, math.inf):  # NaN passes a `<= 0` test
        with pytest.raises(ValueError, match="finite positive means"):
            fit_power_law((4, 6, 8), (1.0, bad, 2.0))


def test_scaling_experiment_is_deterministic():
    a = run_swap_study((4, 5, 6), instances_per_n=3, seed=1)
    b = run_swap_study((4, 5, 6), instances_per_n=3, seed=1)
    assert a.points == b.points
    assert a.b == b.b
    assert [pt[0] for pt in a.points] == [4, 5, 6]
    means = [pt[1] for pt in a.points]
    assert all(m > 0 for m in means)
    assert means == sorted(means)
    evaluated = a.evaluate(10.0)
    assert evaluated == pytest.approx(a.a * 10.0**a.b)


def test_scaling_experiment_validation():
    with pytest.raises(ValueError):
        run_swap_study((4, 6), instances_per_n=2)
    with pytest.raises(ValueError):
        run_swap_study((4, 5, 6), instances_per_n=0)
