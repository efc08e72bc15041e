"""Global optimization of noisy objectives over a bounded box.

Two stages: a low-discrepancy (Sobol) sweep of the box, then bounded
Nelder-Mead refinement from the best sampled starts. Iterations are
simplex refinement iterations; the Sobol sweep and the simplex
initialization count only as objective evaluations. A refinement start
ends early when the best value seen so far stops improving by more than
TOLERANCE across STALL_WINDOW consecutive simplex iterations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problem import ProblemGraph, ShotCounts, score

# Sobol' direction numbers of dimensions 1..31 as (primitive polynomial,
# initial direction numbers), from Joe and Kuo, "Constructing Sobol sequences
# with better two-dimensional projections", SIAM J. Sci. Comput. 30 (2008).
# Dimension 0 is all ones.
_SOBOL_ROWS = (
    (3, (1,)),
    (7, (1, 3)),
    (11, (1, 3, 1)),
    (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)),
    (25, (1, 3, 5, 13)),
    (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)),
    (47, (1, 1, 7, 11, 19)),
    (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)),
    (61, (1, 3, 5, 5, 31)),
    (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)),
    (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)),
    (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)),
    (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)),
    (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)),
    (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)),
    (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)),
    (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)),
    (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)),
    (213, (1, 3, 7, 3, 13, 59, 17)),
)
_SOBOL_BITS = 30
MAX_DIMENSIONS = len(_SOBOL_ROWS) + 1
TOLERANCE = 1e-3
STALL_WINDOW = 3


class OptimizerError(RuntimeError):
    """Raised when the objective misbehaves (non-finite values)."""


@dataclass(frozen=True)
class OptimizerConfig:
    bounds: tuple[tuple[float, float], ...]
    sample_budget: int = 32  # Sobol evaluations
    local_budget: int = 40  # simplex iterations per start
    starts: int = 3
    max_iterations: int = 50  # simplex iterations across all starts
    seed: int = 0

    def __post_init__(self):
        if not self.bounds:
            raise ValueError("need at least one dimension")
        if len(self.bounds) > MAX_DIMENSIONS:
            raise ValueError(
                f"the Sobol sweep covers at most {MAX_DIMENSIONS} dimensions, got {len(self.bounds)}"
            )
        for lo, hi in self.bounds:
            if not lo < hi:
                raise ValueError(f"bad bound ({lo}, {hi})")
        if min(self.sample_budget, self.local_budget, self.starts, self.max_iterations) < 1:
            raise ValueError("budgets must be positive")


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
    improved by less than TOLERANCE over STALL_WINDOW consecutive
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
        if len(best_history) > STALL_WINDOW:
            window_gain = best_history[-STALL_WINDOW - 1] - best_history[-1]
            if window_gain < TOLERANCE:
                return iters, "stall"
    return iters, "cap"


def _sobol(d: int, n: int, seed: int) -> np.ndarray:
    """The first n points of the d-dimensional Sobol' sequence in [0, 1)^d,
    scrambled by a random lower-triangular linear matrix and a digital shift
    per dimension (Matousek 1998) drawn from default_rng(seed).

    The draws and their order are those of scipy.stats.qmc.Sobol(d,
    scramble=True, seed=seed).random(n), so the points are bit-identical.
    """
    bits = _SOBOL_BITS
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(d, bits), dtype=np.uint32) @ (1 << np.arange(bits, dtype=np.int64))
    ltm = np.tril(rng.integers(2, size=(d, bits, bits), dtype=np.uint32)).astype(np.int64)
    # v[k, j] is direction number j of dimension k, with j + 1 significant bits
    v = np.ones((d, bits), dtype=np.int64)
    for k, (poly, init) in enumerate(_SOBOL_ROWS[: d - 1], start=1):
        m = len(init)
        v[k, :m] = init
        for j in range(m, bits):
            new = v[k, j - m]
            for i in range(m):
                if poly >> (m - 1 - i) & 1:
                    new ^= v[k, j - i - 1] << (i + 1)
            v[k, j] = new
    msb_first = np.arange(bits - 1, -1, -1)
    aligned = v << msb_first  # every direction number as a bits-bit fraction
    scrambled = np.empty_like(v)
    for k in range(d):
        np.fill_diagonal(ltm[k], 1)
        digits = aligned[k] >> msb_first[:, None] & 1  # digits[r, j]: bit r of number j
        scrambled[k] = (ltm[k] @ digits % 2).T @ (1 << msb_first)
    points = np.empty((n, d), dtype=np.int64)
    quasi = shift
    for i in range(n):
        points[i] = quasi
        quasi = quasi ^ scrambled[:, (~i & (i + 1)).bit_length() - 1]  # Gray-code step
    return points * (1.0 / (1 << bits))


def minimize(objective, config: OptimizerConfig) -> OptimizationTrace:
    """Minimize a (possibly noisy) objective over the configured box.

    Deterministic under the config seed for deterministic objectives.
    """
    rec = _Recorder(objective)
    d = len(config.bounds)

    unit = _sobol(d, config.sample_budget, config.seed)
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

    return OptimizationTrace(
        evaluations=tuple(rec.evaluations),
        best_params=rec.best_params,
        best_value=rec.best_value,
        iterations=total_iters,
        terminated_by=terminated_by,
    )


def qaoa_objective(g: ProblemGraph, counts: ShotCounts | dict) -> float:
    """Negated shot-averaged cut value; minimizing this maximizes the cut."""
    return -score(g, counts)[0]
