"""Global optimization of noisy objectives over a bounded box.

Two stages: a low-discrepancy (Sobol) sweep of the box, then bounded
Nelder-Mead refinement from the best sampled starts. Iterations are
simplex refinement iterations; the Sobol sweep and the simplex
initialization count only as objective evaluations. A refinement start
ends early when the best value seen so far stops improving by more than
the tolerance across a window of consecutive simplex iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .problem import ProblemGraph, ShotCounts, expected_cut


class OptimizerError(RuntimeError):
    """Raised when the objective misbehaves (non-finite values)."""


@dataclass(frozen=True)
class OptimizerConfig:
    bounds: tuple[tuple[float, float], ...]
    sample_budget: int = 32  # Sobol evaluations
    local_budget: int = 40  # simplex iterations per start
    starts: int = 3
    tolerance: float = 1e-3
    stall_window: int = 3
    max_iterations: int = 50  # simplex iterations across all starts
    seed: int = 0

    def __post_init__(self):
        if not self.bounds:
            raise ValueError("need at least one dimension")
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"bad bound ({lo}, {hi})")
        if min(self.sample_budget, self.local_budget, self.starts, self.max_iterations) < 1:
            raise ValueError("budgets must be positive")
        if self.tolerance < 0 or self.stall_window < 1:
            raise ValueError("tolerance must be non-negative and stall window positive")


@dataclass(frozen=True)
class OptimizationTrace:
    evaluations: tuple[tuple[tuple[float, ...], float], ...]  # (params, value)
    best_params: tuple[float, ...]
    best_value: float
    iterations: int  # simplex refinement iterations
    terminated_by: str  # "converged" or "budget"


class _Recorder:
    """Wraps the objective: logs every call, tracks the running best."""

    def __init__(self, objective):
        self._objective = objective
        self.evaluations: list[tuple[tuple[float, ...], float]] = []
        self.best_params: tuple[float, ...] | None = None
        self.best_value = math.inf

    def __call__(self, x: np.ndarray) -> float:
        params = tuple(float(v) for v in x)
        value = float(self._objective(params))
        if not math.isfinite(value):
            raise OptimizerError(f"objective returned {value} at {params}")
        self.evaluations.append((params, value))
        if value < self.best_value:
            self.best_value = value
            self.best_params = params
        return value


def _clamp(x: np.ndarray, bounds) -> np.ndarray:
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    return np.minimum(np.maximum(x, lo), hi)


def _nelder_mead(
    rec: _Recorder, x0: np.ndarray, config: OptimizerConfig, iteration_budget: int
) -> tuple[int, str]:
    """Bounded simplex refinement around x0.

    Runs at most min(local_budget, iteration_budget) simplex iterations.
    Returns (iterations used, "stall" | "cap"): "stall" when the best value
    improved by less than the tolerance over stall_window consecutive
    iterations, "cap" when an iteration budget ended the start.
    """
    bounds = config.bounds
    d = len(bounds)
    cap = min(config.local_budget, iteration_budget)

    steps = np.array([0.1 * (hi - lo) for lo, hi in bounds])
    vertices = [np.array(x0, dtype=float)]
    for i in range(d):
        v = np.array(x0, dtype=float)
        v[i] = v[i] + steps[i] if v[i] + steps[i] <= bounds[i][1] else v[i] - steps[i]
        vertices.append(_clamp(v, bounds))
    values = [rec(v) for v in vertices]

    best_history = [rec.best_value]
    iters = 0
    while iters < cap:
        order = np.argsort(values, kind="stable")
        vertices = [vertices[i] for i in order]
        values = [values[i] for i in order]
        centroid = np.mean(vertices[:-1], axis=0)
        worst = vertices[-1]

        reflected = _clamp(centroid + (centroid - worst), bounds)
        fr = rec(reflected)
        if fr < values[0]:
            expanded = _clamp(centroid + 2.0 * (centroid - worst), bounds)
            fe = rec(expanded)
            if fe < fr:
                vertices[-1], values[-1] = expanded, fe
            else:
                vertices[-1], values[-1] = reflected, fr
        elif fr < values[-2]:
            vertices[-1], values[-1] = reflected, fr
        else:
            contracted = _clamp(centroid + 0.5 * (worst - centroid), bounds)
            fc = rec(contracted)
            if fc < values[-1]:
                vertices[-1], values[-1] = contracted, fc
            else:
                # shrink toward the best vertex
                for i in range(1, len(vertices)):
                    vertices[i] = _clamp(
                        vertices[0] + 0.5 * (vertices[i] - vertices[0]), bounds
                    )
                    values[i] = rec(vertices[i])

        iters += 1
        best_history.append(rec.best_value)
        if len(best_history) > config.stall_window:
            window_gain = best_history[-config.stall_window - 1] - best_history[-1]
            if window_gain < config.tolerance:
                return iters, "stall"
    return iters, "cap"


def minimize(objective, config: OptimizerConfig) -> OptimizationTrace:
    """Minimize a (possibly noisy) objective over the configured box.

    Deterministic under the config seed for deterministic objectives.
    """
    rec = _Recorder(objective)
    d = len(config.bounds)

    sampler = qmc.Sobol(d=d, scramble=True, seed=config.seed)
    unit = sampler.random(config.sample_budget)
    lo = np.array([b[0] for b in config.bounds])
    hi = np.array([b[1] for b in config.bounds])
    samples = lo + unit * (hi - lo)
    sample_values = [rec(x) for x in samples]

    order = np.argsort(sample_values, kind="stable")
    total_iters = 0
    terminated_by = "converged"
    for rank in range(min(config.starts, len(order))):
        budget_left = config.max_iterations - total_iters
        if budget_left <= 0:
            terminated_by = "budget"
            break
        used, reason = _nelder_mead(rec, samples[order[rank]], config, budget_left)
        total_iters += used
        if reason == "cap" and total_iters >= config.max_iterations:
            terminated_by = "budget"
            break

    if rec.best_params is None:
        raise OptimizerError("no evaluations completed")
    return OptimizationTrace(
        evaluations=tuple(rec.evaluations),
        best_params=rec.best_params,
        best_value=rec.best_value,
        iterations=total_iters,
        terminated_by=terminated_by,
    )


def qaoa_objective(g: ProblemGraph, counts: ShotCounts | dict) -> float:
    """Negated shot-averaged cut value; minimizing this maximizes the cut."""
    return -expected_cut(g, counts)
