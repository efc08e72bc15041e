"""Self-test of the benchmark's checks: clean runs pass, planted faults count.

    python3 bench/selftest.py

Each case runs one short window of a workload in this process with a fault
planted in the program's objective, acquisition, routing or cluster path
(a module attribute replaced for the length of the case), and requires the
checks to count every op as failed. It also compares the reference QAOA
statevector with the program's simulator, and checks that a traced run's
Chrome trace nests properly on every thread. Exits 1 if any case fails.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import dataclasses
import json
from contextlib import contextmanager

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import numpy as np

import qprofile.client as qclient
import qprofile.harness as harness
import qprofile.router as router
from qprofile import (
    AcquisitionData,
    QaoaParams,
    RouteResult,
    ShotCounts,
    build_qaoa,
    cut_value,
    generate_instance,
    simplify,
    simulate,
)

import refcheck
import workloads
from spans import Patcher

OUT_DIR = os.path.join(BENCH_DIR, "out")
results: list[tuple[str, bool, str]] = []


def report(name: str, ok: bool, detail: str) -> None:
    results.append((name, ok, detail))
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", flush=True)


@contextmanager
def planted(*faults):
    """Replace (owner, attribute, make) for the length of the block."""
    patcher = Patcher()
    for owner, attr, make in faults:
        patcher.wrap(owner, attr, make)
    try:
        yield
    finally:
        patcher.restore()


def short_run(workload: str, trace: bool = False, min_ops: int = 1) -> dict:
    return workloads.run(workload, seed=7, seconds=0.0, trace=trace, import_s=0.0,
                         out_dir=OUT_DIR, min_ops=min_ops)


def expect_clean(name: str, result: dict) -> None:
    ok = result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    report(name, ok, f"correct={result['correct']} failed={result['failed']}/{result['attempted']}")


def expect_all_failed(name: str, result: dict) -> None:
    ok = not result["correct"] and result["failed"] == result["attempted"] > 0
    report(name, ok, f"correct={result['correct']} failed={result['failed']}/{result['attempted']}")


def reference_matches_program() -> None:
    worst = 0.0
    rng = np.random.default_rng(3)
    for n in (4, 5, 7):
        g = generate_instance(n, n)
        x = rng.uniform(0.0, 2.0 * np.pi, 4)
        program = simulate(simplify(build_qaoa(g, QaoaParams.from_flat(x)))).probabilities()
        reference = refcheck.qaoa_probabilities(n, refcheck.cut_vector(n, g.edges), x[:2], x[2:])
        worst = max(worst, float(np.max(np.abs(program - reference))))
        cuts = refcheck.cut_vector(n, g.edges)
        for k in range(1 << n):
            if cuts[k] != cut_value(g, format(k, f"0{n}b")):
                report("reference cut vector", False, f"n={n} k={k}")
                return
    report("reference statevector", worst < 1e-10, f"max |p_program - p_reference| = {worst:.1e}")


def trace_nests(path: str) -> None:
    with open(path) as fh:
        events = [e for e in json.load(fh)["traceEvents"] if e["ph"] == "X"]
    by_thread: dict[int, list] = {}
    for e in events:
        by_thread.setdefault(e["tid"], []).append(e)
    for tid, evs in by_thread.items():
        stack: list[float] = []
        for e in sorted(evs, key=lambda e: (e["ts"], -e["dur"])):
            while stack and e["ts"] >= stack[-1] - 0.01:
                stack.pop()
            end = e["ts"] + e["dur"]
            if stack and end > stack[-1] + 0.01:
                report("trace nesting", False, f"{e['name']} overlaps its parent on thread {tid}")
                return
            stack.append(end)
    report("trace nesting", bool(events), f"{len(events)} spans on {len(by_thread)} threads nest")


def point_mass_sampler(sample):
    def all_zero(state, shots, seed):
        return ShotCounts(counts={"0" * state.n: shots}, shots=shots)
    return all_zero


def short_acquisition(retrieve_all):
    def dropped_shot(client, job):
        acq = retrieve_all(client, job)
        bits = {q: b[:-1] if q == 0 else b for q, b in acq.bits.items()}
        return AcquisitionData(shots=acq.shots, bits=bits, raw=acq.raw, replies=acq.replies)
    return dropped_shot


def miscounting_router(route):
    def one_swap_too_many(circuit, layout):
        result = route(circuit, layout)
        return RouteResult(result.circuit, result.swap_count + 1, result.final_assignment)
    return one_swap_too_many


def fast_stop_cluster(service_cls):
    class FastStop(service_cls):
        def __init__(self, profile, topology=None, noise_seed=None):
            fast = dataclasses.replace(profile, stop_ms=profile.stop_ms / 2)
            super().__init__(fast, topology, noise_seed)
    return FastStop


def main() -> int:
    reference_matches_program()
    expect_clean("loop-14q clean", short_run("loop-14q"))
    traced = short_run("loop-14q", trace=True)
    expect_clean("loop-14q traced", traced)
    trace_nests(os.path.join(OUT_DIR, "trace-loop-14q-seed7.json"))
    with planted((harness, "sample", point_mass_sampler)):
        expect_all_failed("point-mass sampler", short_run("loop-14q"))
    with planted((qclient.ClusterClient, "retrieve_all", short_acquisition)):
        expect_all_failed("acquisition one shot short", short_run("loop-14q"))
    expect_clean("swap-study clean", short_run("swap-study", min_ops=3))
    with planted((router, "route", miscounting_router), (workloads, "route", miscounting_router)):
        expect_all_failed("router miscounts SWAPs", short_run("swap-study", min_ops=3))
    with planted((harness, "ClusterService", fast_stop_cluster)):
        expect_all_failed("stop shorter than nominal", short_run("cell-4q-parallel"))
    failed = [name for name, ok, _ in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-test cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
