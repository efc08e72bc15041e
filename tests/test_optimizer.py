from __future__ import annotations

import math
import warnings

import numpy as np
import pytest

from qprofile.optimizer import (
    MAX_DIMENSIONS,
    OptimizationTrace,
    OptimizerConfig,
    OptimizerError,
    _sobol,
    minimize,
    qaoa_objective,
)
from qprofile.problem import ProblemGraph


def _quadratic(x):
    return (x[0] - 1.0) ** 2


def _two_dim_sines(x):
    return math.sin(x[0]) + math.sin(x[1])


def test_finds_the_quadratic_minimum():
    config = OptimizerConfig(bounds=((-4.0, 4.0),), seed=0)
    trace = minimize(_quadratic, config)
    assert trace.best_value < 1e-2
    assert abs(trace.best_params[0] - 1.0) < 0.1


def test_finds_the_sine_valley():
    config = OptimizerConfig(bounds=((0.0, 2 * math.pi),) * 2, seed=3)
    trace = minimize(_two_dim_sines, config)
    assert trace.best_value == pytest.approx(-2.0, abs=1e-2)


def test_trace_bookkeeping():
    config = OptimizerConfig(bounds=((-4.0, 4.0),), seed=1)
    trace = minimize(_quadratic, config)
    values = [v for _, v in trace.evaluations]
    assert trace.best_value == min(values)
    best_at = values.index(trace.best_value)
    assert trace.evaluations[best_at][0] == trace.best_params
    assert 1 <= trace.iterations <= config.max_iterations
    assert trace.terminated_by in ("converged", "budget")
    # the sweep counts as evaluations on top of refinement work
    assert len(trace.evaluations) > config.sample_budget


def test_every_evaluation_stays_inside_the_bounds():
    bounds = ((2.0, 3.0), (-1.0, 0.5))
    config = OptimizerConfig(bounds=bounds, seed=5)
    trace = minimize(lambda x: x[0] * x[1], config)
    for params, _ in trace.evaluations:
        for value, (lo, hi) in zip(params, bounds):
            assert lo <= value <= hi


def test_deterministic_under_a_fixed_seed():
    config = OptimizerConfig(bounds=((0.0, 2 * math.pi),) * 2, seed=11)
    a = minimize(_two_dim_sines, config)
    b = minimize(_two_dim_sines, config)
    assert a.evaluations == b.evaluations
    assert a.best_params == b.best_params
    assert a.iterations == b.iterations
    assert a.terminated_by == b.terminated_by


def test_tiny_iteration_budget_terminates_by_budget():
    config = OptimizerConfig(bounds=((-4.0, 4.0),), max_iterations=3, seed=0)
    trace = minimize(_quadratic, config)
    assert trace.terminated_by == "budget"
    assert trace.iterations <= 3


def test_generous_budget_converges():
    config = OptimizerConfig(bounds=((-4.0, 4.0),), max_iterations=500, local_budget=150, seed=0)
    trace = minimize(_quadratic, config)
    assert trace.terminated_by == "converged"
    assert trace.iterations < 500


def test_non_finite_objective_is_an_error():
    config = OptimizerConfig(bounds=((0.0, 1.0),), seed=0)
    with pytest.raises(OptimizerError):
        minimize(lambda x: math.nan, config)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(bounds=())
    with pytest.raises(ValueError):
        OptimizerConfig(bounds=((1.0, 1.0),))
    with pytest.raises(ValueError):
        OptimizerConfig(bounds=((0.0, 1.0),), sample_budget=0)
    with pytest.raises(ValueError):
        OptimizerConfig(bounds=((0.0, 1.0),), stall_window=0)


def test_trace_is_a_frozen_record():
    trace = OptimizationTrace(
        evaluations=(((0.5,), 1.0),),
        best_params=(0.5,),
        best_value=1.0,
        iterations=1,
        terminated_by="converged",
    )
    with pytest.raises(AttributeError):
        trace.best_value = 2.0


def test_qaoa_objective_is_the_negated_average_cut():
    g = ProblemGraph(n=2, edges=((0, 1),))
    assert qaoa_objective(g, {"01": 3, "00": 1}) == pytest.approx(-0.75)


@pytest.mark.parametrize("d", [1, 2, 4, 7, MAX_DIMENSIONS])
def test_sobol_points_are_stratified(d):
    # 2^m scrambled Sobol' points put one point in each of the 2^m equal
    # intervals of every dimension, and the first 2^j of them fill 2^j
    for seed in range(5):
        points = _sobol(d, 64, seed)
        assert points.shape == (64, d) and np.all((points >= 0.0) & (points < 1.0))
        for n in (2, 8, 64):
            cells = np.sort(np.floor(points[:n] * n).astype(int), axis=0)
            assert np.array_equal(cells, np.repeat(np.arange(n)[:, None], d, axis=1))
    assert not np.array_equal(_sobol(d, 8, 0), _sobol(d, 8, 1))


def test_sobol_points_equal_scipys_scrambled_sobol():
    qmc = pytest.importorskip("scipy.stats.qmc")
    for d in (1, 2, 4, 9, MAX_DIMENSIONS):
        for seed in (0, 3, 2**40 + 7, 2**64 - 1):
            for n in (1, 5, 32):
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # scipy warns when n is not 2^m
                    expected = qmc.Sobol(d, scramble=True, seed=seed).random(n)
                assert np.array_equal(_sobol(d, n, seed), expected)


def test_the_sobol_sweep_is_capped_at_its_table():
    OptimizerConfig(bounds=((0.0, 1.0),) * MAX_DIMENSIONS)
    with pytest.raises(ValueError, match="at most"):
        OptimizerConfig(bounds=((0.0, 1.0),) * (MAX_DIMENSIONS + 1))
