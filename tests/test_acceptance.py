"""End-to-end acceptance gate.

Every test here checks one numbered criterion against the full stack and
prints a single verdict line (visible even under capture), so a test run
doubles as a checklist transcript. The benchmark cells behind criteria 1,
3, and 4 run real protocol latencies and take a few minutes combined; they
are module-scoped fixtures shared across the criteria that need them.
"""

from __future__ import annotations

import base64
import math
import random
import statistics
import time

import numpy as np
import pytest

from qprofile.circuit import Circuit, QaoaParams, build_qaoa, cnot, h, measure, rx
from qprofile.client import ClusterClient
from qprofile.cluster import SEQUENCER_STATES, ClusterService, LatencyProfile, Topology
from qprofile.compiler import compile, measure_job_size
from qprofile.harness import BenchmarkConfig, run_benchmark
from qprofile.optimizer import OptimizerConfig
from qprofile.problem import generate_instance
from qprofile.profiler import (
    PHASE_ORDER,
    PhaseRecord,
    aggregate,
    compute_speedup,
    extrapolate,
    fit_linear,
    schedule_speedup,
    swap_overhead_seconds,
)
from qprofile.router import PowerLawFit, fit_power_law, run_swap_study
from qprofile.statevector import sample, simulate
from qprofile.timing import DEFAULT_TIMING, TimingModel

FIXED_PARAMS = QaoaParams(p=2, gammas=(0.7, 0.7), betas=(0.4, 0.4))

# reference phase means for the 4-qubit, 1000-shot, passive, sequential cell (ms)
REFERENCE_MEANS_MS = {
    "stop": 19.5,
    "prepare": 207.2,
    "start": 57.1,
    "wait_done": 56.3,
    "retrieve": 58.9,
    "schedule": 211.7,
}


def announce(capsys, criterion: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"criterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}", flush=True)


def _cell(**overrides):
    base = dict(
        qubits=(4,),
        shots=1000,
        runs=5,
        reset="passive",
        prepare="sequential",
        dilation=1.0,
        seed=0,
        p=2,
        timing_mode="real",
    )
    base.update(overrides)
    config = BenchmarkConfig(**base)
    t0 = time.perf_counter()
    result = run_benchmark(config)
    return result, time.perf_counter() - t0


@pytest.fixture(scope="module")
def baseline_cell():
    return _cell()


@pytest.fixture(scope="module")
def active_seq_cell():
    return _cell(runs=3, reset="active")


@pytest.fixture(scope="module")
def active_par_cell():
    return _cell(runs=3, reset="active", prepare="parallel")


@pytest.fixture(scope="module")
def swap_fit():
    return run_swap_study()  # 4-regular sizes 5..14, 20 instances per size, seed 1, p 2


@pytest.fixture(scope="module")
def virtual_series():
    small = OptimizerConfig(
        bounds=((0.0, 2.0 * math.pi),) * 4,
        sample_budget=6,
        local_budget=4,
        starts=1,
        max_iterations=4,
    )
    config = BenchmarkConfig(
        qubits=(4, 6, 8),
        shots=1000,
        runs=1,
        seed=0,
        p=2,
        timing_mode="virtual",
        optimizer=small,
    )
    return run_benchmark(config)


def test_criterion_01_phase_breakdown(baseline_cell, capsys):
    result, elapsed = baseline_cell
    report = result.report(4)
    drift = {
        phase: abs(report.phase_mean(phase) - nominal) / nominal
        for phase, nominal in REFERENCE_MEANS_MS.items()
    }
    worst = max(drift, key=drift.get)
    ok = all(d <= 0.10 for d in drift.values()) and 60.0 <= elapsed <= 480.0
    announce(
        capsys, 1, ok,
        f"4q passive cell phase means within 10% of reference "
        f"(worst: {worst} {drift[worst]:+.1%}); cell wall time {elapsed:.0f} s",
    )
    for phase, nominal in REFERENCE_MEANS_MS.items():
        assert report.phase_mean(phase) == pytest.approx(nominal, rel=0.10), phase
    # soft wall-clock envelope around the expected few-minute runtime
    assert 60.0 <= elapsed <= 480.0


def test_criterion_02_schedule_speedup_model(capsys):
    ratio = schedule_speedup(DEFAULT_TIMING, circuit_seconds=11.7e-6)
    ok = abs(ratio - 16.67) / 16.67 <= 0.01
    announce(
        capsys, 2, ok,
        f"active-reset schedule speedup at 11.7 us circuit = {ratio:.4f} (expect 16.67 +/- 1%)",
    )
    assert ratio == pytest.approx(16.67, rel=0.01)


def test_criterion_03_active_reset_wall_speedup(baseline_cell, active_seq_cell, capsys):
    base = baseline_cell[0].report(4)
    active = active_seq_cell[0].report(4)
    speedup = compute_speedup(base, active).overall
    ok = 1.33 <= speedup <= 1.47
    announce(
        capsys, 3, ok,
        f"passive -> active total speedup {speedup:.3f} (expect 1.40 +/- 0.07)",
    )
    assert 1.33 <= speedup <= 1.47


def test_criterion_04_parallel_prepare_speedup(active_seq_cell, active_par_cell, capsys):
    seq = active_seq_cell[0].report(4)
    par = active_par_cell[0].report(4)
    isolated = compute_speedup(seq, par).isolated["prepare"]
    par_prepare = par.phase_mean("prepare")
    ok = 1.27 <= isolated <= 1.47 and abs(par_prepare - 73.9) / 73.9 <= 0.15
    announce(
        capsys, 4, ok,
        f"isolated prepare speedup {isolated:.3f} (expect 1.37 +/- 0.10); "
        f"parallel prepare mean {par_prepare:.1f} ms (expect 73.9 +/- 15%)",
    )
    assert 1.27 <= isolated <= 1.47
    assert par_prepare == pytest.approx(73.9, rel=0.15)


def test_criterion_05_job_size_scaling_and_prepare_ratio(capsys):
    sizes = (4, 6, 8, 10, 12, 14)
    jobs = {
        n: compile(build_qaoa(generate_instance(n, 0), FIXED_PARAMS), 1000, "passive")
        for n in sizes
    }
    fit = fit_linear([(n, measure_job_size(jobs[n]).total_bytes) for n in sizes])

    service = ClusterService(LatencyProfile(), Topology.for_qubits(14), noise_seed=11)
    host, port = service.start()
    try:
        with ClusterClient(host, port) as client:

            def timed_prepare(mode: str) -> float:
                t0 = time.perf_counter()
                client.prepare(jobs[14], mode)
                return time.perf_counter() - t0

            client.prepare(jobs[14], "parallel")  # warm the stream pool
            seq_times, par_times = [], []
            for _ in range(3):
                client.stop()
                seq_times.append(timed_prepare("sequential"))
                client.stop()
                par_times.append(timed_prepare("parallel"))
            client.stop()
    finally:
        service.shutdown()
    ratio = statistics.mean(seq_times) / statistics.mean(par_times)
    ok = fit.r2 >= 0.99 and ratio >= 3.0
    announce(
        capsys, 5, ok,
        f"job bytes vs qubits linear with r2={fit.r2:.5f} (expect >= 0.99); "
        f"14q sequential/parallel prepare ratio {ratio:.2f} (expect >= 3)",
    )
    assert fit.r2 >= 0.99
    assert ratio >= 3.0


def test_criterion_06_swap_scaling_exponent(swap_fit, capsys):
    ns = (4, 6, 8, 10, 12, 14)
    a_sq, b_sq, _ = fit_power_law(ns, [float(n * n) for n in ns])
    a_ln, b_ln, _ = fit_power_law(ns, [3.0 * n for n in ns])
    synth_dev = max(abs(a_sq - 1.0), abs(b_sq - 2.0), abs(a_ln - 3.0), abs(b_ln - 1.0))

    measured = swap_fit.b
    ok = synth_dev <= 1e-9 and 1.4 <= measured <= 2.0
    announce(
        capsys, 6, ok,
        f"synthetic exponents recovered to {synth_dev:.1e}; routed swap exponent "
        f"b={measured:.4f} (expect within [1.4, 2.0])",
    )
    assert synth_dev <= 1e-9
    assert 1.4 <= measured <= 2.0, (
        "routed swap count over the default 4-regular study sizes must grow as "
        "n^b with b in [1.4, 2.0]"
    )


def test_criterion_07_simulator_statistics(capsys):
    zeros = QaoaParams(p=2, gammas=(0.0, 0.0), betas=(0.0, 0.0))
    probs = simulate(build_qaoa(generate_instance(4, 0), zeros)).probabilities()
    uniform_dev = float(np.max(np.abs(probs - 1.0 / 16.0)))

    bell = Circuit(2, (h(0), cnot(0, 1), measure(0), measure(1)))
    bell_counts = sample(simulate(bell), 100_000, seed=5)
    bell_ok = set(bell_counts.counts) <= {"00", "11"}

    flip = Circuit(2, (rx(math.pi, 0), measure(0), measure(1)))
    flip_counts = sample(simulate(flip), 1000, seed=6)
    basis_ok = set(flip_counts.counts) == {"10"}

    circ = build_qaoa(generate_instance(3, 2), QaoaParams(p=1, gammas=(0.8,), betas=(0.3,)))
    state = simulate(circ)
    exact = state.probabilities()
    counts = sample(state, 100_000, seed=9)
    tv = 0.5 * sum(
        abs(counts.counts.get(format(i, "03b"), 0) / 100_000 - exact[i]) for i in range(8)
    )

    ok = uniform_dev <= 1e-12 and bell_ok and basis_ok and tv < 0.02
    announce(
        capsys, 7, ok,
        f"zero-angle state uniform to {uniform_dev:.1e}; Bell and basis-flip "
        f"supports exact; 100k-shot total variation {tv:.4f} (expect < 0.02)",
    )
    assert uniform_dev <= 1e-12
    assert bell_ok and basis_ok
    assert tv < 0.02


def test_criterion_08_optimizer_finds_the_max_cut(capsys):
    config = BenchmarkConfig(
        qubits=(4,), shots=1000, runs=20, seed=0, p=2, timing_mode="virtual"
    )
    result = run_benchmark(config)
    summaries = result.cells[4].summaries
    hits = sum(1 for s in summaries if s.best_observed_cut >= 3.999)
    counts = [s.iterations for s in summaries]
    spread = max(counts) - min(counts)
    ok = hits >= 18 and spread > 0
    announce(
        capsys, 8, ok,
        f"best observed cut reached 4 in {hits}/20 seeded runs (expect >= 18); "
        f"iteration counts span {min(counts)}..{max(counts)}",
    )
    assert hits >= 18
    assert spread > 0


def test_criterion_09_protocol_robustness_and_rtt(zeroed_service, capsys):
    topo = Topology()
    service = ClusterService(LatencyProfile.zeroed(), topo, noise_seed=13)
    rng = random.Random(42)
    modules = list(topo.module_ids()) + ["cm9", "", 7]
    program = base64.b64encode(b"# waveforms\n{}\n# schedule\nstop\n").decode()

    def random_request():
        roll = rng.random()
        if roll < 0.15:
            return {"cmd": "stop"}
        if roll < 0.30:
            return {"cmd": "start"}
        if roll < 0.45:
            return {"cmd": "status"}
        if roll < 0.60:
            return {"cmd": "retrieve", "module": rng.choice(modules)}
        if roll < 0.85:
            return {
                "cmd": "prepare",
                "module": rng.choice(modules),
                "seq": rng.choice([0, 1, 5, 6, -1, "x"]),
                "program": rng.choice([program, "!!not base64!!", 42]),
                "meta": rng.choice([{"qubit": 0, "shots": 5, "schedule_s": 0.0}, [], None]),
            }
        return rng.choice([{"cmd": "nope"}, {}, [], "text", {"cmd": 3}])

    for _ in range(500):
        reply = service.dispatch(random_request())
        assert isinstance(reply, dict) and "ok" in reply
        if not reply["ok"]:
            assert reply["error"] in {"bad_frame", "bad_state", "unknown_target"}
        for seq in service.state.seqs.values():
            assert seq.status in SEQUENCER_STATES

    # a canonical cycle still works after the storm
    assert service.dispatch({"cmd": "stop"})["ok"]
    meta = {"qubit": 0, "shots": 5, "schedule_s": 0.0}
    for module in ("cm0", "rm0"):
        reply = service.dispatch(
            {"cmd": "prepare", "module": module, "seq": 0, "program": program, "meta": meta}
        )
        assert reply["ok"], reply
    assert service.dispatch({"cmd": "start"})["ok"]
    retrieved = service.dispatch({"cmd": "retrieve", "module": "rm0"})
    assert retrieved["ok"] and len(retrieved["bits"]["0"]) == 5
    assert service.dispatch({"cmd": "stop"})["ok"]

    _, host, port = zeroed_service
    with ClusterClient(host, port) as client:
        client.status()  # warm the connection
        rtts = []
        for _ in range(100):
            t0 = time.perf_counter()
            client.status()
            rtts.append((time.perf_counter() - t0) * 1e3)
    mean_rtt = statistics.mean(rtts)
    p95_rtt = sorted(rtts)[94]
    ok = mean_rtt < 5.0 and p95_rtt < 5.0
    announce(
        capsys, 9, ok,
        f"500 randomized commands left every sequencer in a legal state; "
        f"bare command RTT mean {mean_rtt:.3f} ms, p95 {p95_rtt:.3f} ms (expect < 5 ms)",
    )
    assert mean_rtt < 5.0
    assert p95_rtt < 5.0


# per-phase linear laws in ms used for the synthetic extrapolation check
LAWS = {
    "compile": (0.4, 1.0),
    "stop": (0.0, 19.5),
    "prepare": (51.8, 0.0),
    "start": (0.0, 57.1),
    "wait_done": (0.0, 56.3),
    "schedule": (2.0, 195.0),
    "retrieve": (9.8, 19.6),
    "final_stop": (0.0, 19.5),
    "optimizer": (0.2, 0.5),
}


def _law_report(n: int):
    values = {name: slope * n + off for name, (slope, off) in LAWS.items()}
    record = PhaseRecord(
        run=0,
        iteration=0,
        qubits=n,
        total_ms=sum(values.values()),
        **{f"{name}_ms": v for name, v in values.items()},
    )
    return aggregate([record], {"shots": 1000})


def test_criterion_10_extrapolation(virtual_series, swap_fit, capsys):
    # synthetic reports built from exact linear laws must extrapolate exactly
    table = extrapolate({n: _law_report(n) for n in (4, 6, 8, 10)}, 50)
    rows = dict(table.rows)
    synth_dev = max(
        abs(rows[name] - (slope * 50 + off) / 1e3) for name, (slope, off) in LAWS.items()
    )

    # documented swap-term example: a=0.1, b=1.7, 1000 shots, 100 ns two-qubit gates
    example_fit = PowerLawFit(a=0.1, b=1.7, residual=0.0, points=((4, 1.0, 0.0),))
    example = swap_overhead_seconds(50, example_fit, 1000, TimingModel())

    # measured virtual series extrapolated with the measured swap fit
    measured = extrapolate(
        {n: virtual_series.report(n) for n in (4, 6, 8)}, 50, swap_fit=swap_fit
    )
    mrows = dict(measured.rows)
    expected_order = [p for p in PHASE_ORDER if p != "total"] + ["total"]
    swap_term_expected = swap_overhead_seconds(50, swap_fit, 1000, TimingModel())

    ok = (
        synth_dev <= 1e-9
        and abs(example - 0.0229) / 0.0229 <= 0.02
        and [name for name, _ in measured.rows] == expected_order
        and measured.swap_term_s > 0
    )
    announce(
        capsys, 10, ok,
        f"synthetic laws extrapolate exactly (max dev {synth_dev:.1e}); "
        f"example swap term {example * 1e3:.2f} ms (expect ~22.9); measured 50q "
        f"table total {mrows['total']:.3f} s with swap term {measured.swap_term_s:.4f} s",
    )
    assert synth_dev <= 1e-9
    assert rows["total"] == pytest.approx(sum(v for k, v in rows.items() if k != "total"))
    assert example == pytest.approx(0.0229, rel=0.02)
    assert [name for name, _ in measured.rows] == expected_order
    assert measured.swap_term_s == pytest.approx(swap_term_expected)
    assert measured.swap_term_s > 0
    assert mrows["total"] == pytest.approx(
        sum(v for k, v in mrows.items() if k != "total")
    )
