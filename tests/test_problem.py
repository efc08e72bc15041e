from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from qprofile.circuit import QaoaParams, build_qaoa, simplify

from qprofile.problem import (
    InvalidInstanceError,
    ProblemGraph,
    ShotCounts,
    cut_value,
    generate_instance,
    score,
)
from qprofile.statevector import sample, simulate


def test_small_sizes_fall_back_to_complete_graphs():
    for n in (2, 3, 4):
        g = generate_instance(n, seed=11)
        assert g.n == n
        assert len(g.edges) == n * (n - 1) // 2
        assert all(g.degree(v) == n - 1 for v in range(n))


def test_larger_sizes_are_four_regular():
    for n in (5, 8, 13):
        g = generate_instance(n, seed=3)
        assert len(g.edges) == 2 * n
        assert all(g.degree(v) == 4 for v in range(n))
        # simple graph: no duplicates, no self loops
        assert len(set(g.edges)) == len(g.edges)
        assert all(i < j for i, j in g.edges)


def test_generation_is_deterministic_in_n_and_seed():
    a = generate_instance(9, seed=42)
    b = generate_instance(9, seed=42)
    assert a.edges == b.edges


# SHA-256 of repr((n, seed, edges)) over n 2..30 and seeds 0..49, computed
# when each draw still shuffled a numpy stub array. Any change to the draw
# moves it, and so would a numpy release whose Generator.shuffle permutes a
# list differently from an array.
INSTANCE_DIGEST = "6aaa6392c16db686cedf6412fa429587fa082d1215bf1e724740f19dcaba75a7"


def test_instances_match_the_pinned_digest():
    digest = hashlib.sha256()
    for n in range(2, 31):
        for seed in range(50):
            digest.update(repr((n, seed, generate_instance(n, seed).edges)).encode())
    assert digest.hexdigest() == INSTANCE_DIGEST


def test_instances_of_one_size_share_their_edge_tuples():
    # The benchmark's swap study keeps one graph per size for every op, so
    # peak RSS grows with the op count. Fresh edge tuples were about 10 KB
    # of the 15 KB each op retained; shared ones cost nothing per graph.
    a, b = generate_instance(12, 1), generate_instance(12, 2)
    ours = {e: e for e in b.edges}
    shared = [e for e in a.edges if e in ours]
    assert shared
    assert all(e is ours[e] for e in shared)


def test_problem_graphs_are_frozen_and_carry_no_instance_dict():
    g = generate_instance(6, 0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.n = 7
    # a new name is refused too; Python 3.11 raises TypeError from the
    # frozen __setattr__ of a slots dataclass, later versions an AttributeError
    with pytest.raises((AttributeError, TypeError)):
        g.label = "x"
    with pytest.raises(AttributeError):
        object.__setattr__(g, "label", "x")
    assert not hasattr(g, "__dict__")  # slots: no per-graph dict is retained


def test_generation_rejects_tiny_instances():
    with pytest.raises(InvalidInstanceError):
        generate_instance(1, seed=0)


def test_graph_validation_catches_bad_edges():
    with pytest.raises(InvalidInstanceError):
        ProblemGraph(n=3, edges=((0, 3),))
    with pytest.raises(InvalidInstanceError):
        ProblemGraph(n=3, edges=((1, 0),))  # must be ordered i < j
    with pytest.raises(InvalidInstanceError):
        ProblemGraph(n=3, edges=((0, 1), (0, 1)))


def test_edges_are_stored_sorted():
    g = ProblemGraph(n=4, edges=((2, 3), (0, 1)))
    assert g.edges == ((0, 1), (2, 3))


def test_cut_value_counts_crossing_edges():
    g = generate_instance(4, seed=0)  # complete graph on 4 vertices
    assert cut_value(g, "0000") == 0
    assert cut_value(g, "0011") == 4
    assert cut_value(g, "0111") == 3


def test_cut_value_reads_qubit_zero_as_leftmost_character():
    g = ProblemGraph(n=3, edges=((0, 1),))
    assert cut_value(g, "100") == 1
    assert cut_value(g, "001") == 0


def test_cut_value_validates_bitstrings():
    g = generate_instance(4, seed=0)
    with pytest.raises(ValueError):
        cut_value(g, "001")
    with pytest.raises(ValueError):
        cut_value(g, "00a1")


def test_shot_counts_validation():
    ShotCounts(counts={"00": 3, "11": 2}, shots=5)
    with pytest.raises(ValueError):
        ShotCounts(counts={"00": 3}, shots=5)
    with pytest.raises(ValueError):
        ShotCounts(counts={"00": -1, "11": 6}, shots=5)
    with pytest.raises(ValueError):
        ShotCounts(counts={"00": 2, "111": 3}, shots=5)
    with pytest.raises(ValueError):
        ShotCounts(counts={}, shots=0)


def test_score_weights_by_shots():
    g = ProblemGraph(n=2, edges=((0, 1),))
    counts = ShotCounts(counts={"00": 500, "11": 500}, shots=1000)
    assert score(g, counts)[0] == 0.0
    assert score(g, {"01": 1, "00": 1})[0] == 0.5
    with pytest.raises(ValueError):
        score(g, {})


@pytest.mark.parametrize("n", range(2, 15))
def test_score_equals_the_cut_value_scan(n):
    g = generate_instance(n, seed=n)
    x = np.random.default_rng(n).uniform(0.0, 2.0 * math.pi, 4)
    counts = sample(simulate(simplify(build_qaoa(g, QaoaParams.from_flat(x)))), 1000, seed=n)
    scan_mean = sum(c * cut_value(g, b) for b, c in counts.counts.items()) / counts.shots
    scan_best = max(cut_value(g, b) for b, c in counts.counts.items() if c > 0)
    for given in (counts, dict(counts.counts)):
        mean, best = score(g, given)
        assert mean == scan_mean
        assert best == scan_best and type(best) is int


def test_score_skips_undrawn_bitstrings_for_the_best_cut():
    g = ProblemGraph(n=2, edges=((0, 1),))
    assert score(g, {"01": 0, "00": 3}) == (0.0, 0)


@pytest.mark.parametrize("key", ["0b1", "1_0", " 1", "1 ", "+1", "1", "100", "0a", "１0"])
def test_score_and_cut_value_refuse_keys_that_are_not_n_binary_digits(key):
    g = ProblemGraph(n=2, edges=((0, 1),))
    with pytest.raises(ValueError):
        cut_value(g, key)
    with pytest.raises(ValueError):
        score(g, {key: 1})
