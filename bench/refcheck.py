"""Reference computations made apart from qprofile, and the checks built on them.

Nothing here calls the program's simulator, scorer, brute-force search or
power-law fit: the expected cut comes from a numpy QAOA statevector
(diagonal cut phase plus RX mixer), cut values from bit operations, nominal
instrument times from the latency profile's published fields, and grid
adjacency from the row-major square layout.
"""

from __future__ import annotations

import math

import numpy as np

SIGMAS = 5.0  # an evaluation fails beyond this many sigmas of shot noise
EXPONENT_BAND = (1.4, 2.0)  # README's band for the routed-SWAP exponent
PHASES = ("stop", "prepare", "start", "wait_done", "retrieve", "final_stop")


def cut_vector(n: int, edges) -> np.ndarray:
    """Cut value of every basis state; qubit i is bit n-1-i of the index."""
    k = np.arange(1 << n, dtype=np.int64)
    cut = np.zeros(1 << n, dtype=np.int64)
    for i, j in edges:
        cut += ((k >> (n - 1 - i)) ^ (k >> (n - 1 - j))) & 1
    return cut


def qaoa_probabilities(n: int, cut: np.ndarray, gammas, betas) -> np.ndarray:
    """|<k|psi>|^2 for H^n, then per layer exp(i*gamma*C) and RX(2*beta) on
    every qubit. The CNOT-RZ-CNOT edge blocks equal exp(i*gamma*C) up to a
    global phase."""
    psi = np.full(1 << n, 2.0 ** (-n / 2), dtype=np.complex128)
    for gamma, beta in zip(gammas, betas):
        psi *= np.exp(1j * gamma * cut)
        c, s = math.cos(beta), -1j * math.sin(beta)
        for q in range(n):
            view = psi.reshape(1 << q, 2, -1)
            a0 = view[:, 0, :].copy()
            a1 = view[:, 1, :].copy()
            view[:, 0, :] = c * a0 + s * a1
            view[:, 1, :] = s * a0 + c * a1
    return np.abs(psi) ** 2


def cut_moments(n: int, cut: np.ndarray, params) -> tuple[float, float]:
    """Exact mean and variance of the cut under the p-layer state whose flat
    parameters are (gammas..., betas...)."""
    p = len(params) // 2
    probs = qaoa_probabilities(n, cut, params[:p], params[p:])
    probs = probs / probs.sum()
    mean = float(probs @ cut)
    var = float(probs @ (cut.astype(np.float64) ** 2)) - mean * mean
    return mean, max(var, 0.0)


def objective_in_noise(n, cut, params, value, shots) -> bool:
    """The objective (negated shot-averaged cut) lies within SIGMAS of the
    exact expected cut."""
    mean, var = cut_moments(n, cut, params)
    return abs(-value - mean) <= SIGMAS * math.sqrt(var / shots) + 1e-9


def nominal_phases(profile, prepare_mode, schedule_s, sizes, readout_modules) -> dict:
    """Instrument time, in seconds per phase, that the profile prescribes for
    one job. Parallel prepare serialises the gated component of every file
    and overlaps the rest, so it counts one concurrent component and the
    largest file's per-byte term."""
    per_byte_ms = profile.prepare_per_byte_ns * 1e-6
    if prepare_mode == "parallel":
        prepare_ms = (
            len(sizes) * profile.prepare_serial_ms
            + profile.prepare_concurrent_ms
            + max(sizes) * per_byte_ms
        )
    else:
        prepare_ms = sum(
            profile.prepare_serial_ms + profile.prepare_concurrent_ms + b * per_byte_ms
            for b in sizes
        )
    return {
        "stop": profile.stop_ms / 1e3,
        "prepare": prepare_ms / 1e3,
        "start": profile.start_ms / 1e3,
        "wait_done": schedule_s * profile.dilation + profile.done_finalize_ms / 1e3,
        "retrieve": profile.retrieve_ms * readout_modules / 1e3,
        "final_stop": profile.stop_ms / 1e3,
    }


def phases_below_nominal(timings, nominal: dict) -> list[str]:
    """Instrument phases that took less than their nominal.

    start and wait_done are checked as one interval: the server starts the
    done clock before its start reply is sent, so the time that reply takes
    to arrive is measured in start, not in wait_done."""
    measured = {
        "stop": timings.stop_s,
        "prepare": timings.prepare_s,
        "retrieve": timings.retrieve_s,
        "final_stop": timings.final_stop_s,
        "start+wait_done": timings.start_s + timings.wait_done_wall_s,
    }
    wanted = dict(nominal)
    wanted["start+wait_done"] = wanted.pop("start") + wanted.pop("wait_done")
    return [name for name, s in measured.items() if s < wanted[name]]


def power_law(ns, means) -> tuple[float, float]:
    """(a, b) of mean = a * n^b by least squares in log-log space."""
    b, log_a = np.polyfit(np.log(np.asarray(ns, float)), np.log(np.asarray(means, float)), 1)
    return math.exp(log_a), float(b)


def grid_side(n: int) -> int:
    side = math.isqrt(n)
    return side if side * side >= n else side + 1


def route_problems(original, routed, swaps: int, n: int) -> list[str]:
    """A routed circuit puts every CNOT on grid-adjacent cells of the
    row-major square grid and adds exactly three CNOTs per SWAP."""
    side = grid_side(n)
    problems = []
    for g in routed.gates:
        if g.kind == "CNOT":
            (ra, ca), (rb, cb) = (divmod(q, side) for q in g.qubits)
            if abs(ra - rb) + abs(ca - cb) != 1:
                problems.append(f"CNOT on non-adjacent cells {g.qubits}")
                break
    added = sum(g.kind == "CNOT" for g in routed.gates) - sum(
        g.kind == "CNOT" for g in original.gates
    )
    if added != 3 * swaps:
        problems.append(f"{added} CNOTs added for {swaps} SWAPs")
    return problems
