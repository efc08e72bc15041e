"""The benchmark in bench/ wraps module attributes of the program and calls
some of them directly. These tests install its wrappers and put the originals
back, and make its direct calls, so a refactor that removes, renames or
re-signs one of them fails here rather than in a benchmark run.
"""

from __future__ import annotations

import importlib
import os

BENCH_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "bench")


def test_benchmark_wrappers_install_and_restore(monkeypatch):
    monkeypatch.syspath_prepend(BENCH_DIR)
    workloads = importlib.import_module("workloads")
    spans = importlib.import_module("spans")
    patcher = spans.Patcher()
    tracer = spans.Tracer()
    try:
        workloads.Recorder(patcher, tracer)
        workloads.install_tracing(patcher, tracer, workloads.LayerCounts())
        originals: dict = {}
        for owner, attr, original in patcher._saved:  # an attribute may be wrapped twice
            originals.setdefault((owner, attr), original)
    finally:
        patcher.restore()
    assert originals
    for (owner, attr), original in originals.items():
        assert getattr(owner, attr) is original, f"{owner!r}.{attr} not restored"


def test_benchmark_nominal_reports_build(monkeypatch):
    # nominal_reports builds IterationTimings and calls record_iteration itself
    monkeypatch.syspath_prepend(BENCH_DIR)
    reports = importlib.import_module("workloads").nominal_reports()
    assert sorted(reports) == [4, 8, 14]
    for report in reports.values():
        assert report.phase_mean("total") > report.phase_mean("schedule") > 0


def test_swap_study_calls_the_router_names_the_benchmark_wraps(monkeypatch):
    # bench/workloads.py counts instances, builds and routes on qprofile.router,
    # and bench/selftest.py plants a miscounting router.route there
    import qprofile.router as router
    from qprofile import run_swap_study

    calls = {"generate_instance": 0, "build_qaoa": 0, "route": 0}

    def counted(name):
        original = getattr(router, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(router, name, counted(name))
    run_swap_study(ns=(5, 6, 7), instances_per_n=2, seed=0)
    assert calls == {"generate_instance": 6, "build_qaoa": 6, "route": 6}


def test_selftest_plants_install_restore_and_reach_the_embedded_cluster(monkeypatch):
    # bench/selftest.py plants these faults; Tier-1 does not run it, so a
    # refactor of what they replace (cluster construction above all) must fail here
    import qprofile.client as qclient
    import qprofile.harness as harness
    import qprofile.router as router
    from qprofile import BenchmarkConfig, LatencyProfile, Topology, run_benchmark
    from qprofile.optimizer import OptimizerConfig

    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # selftest sets them on import; undone at teardown
    monkeypatch.syspath_prepend(BENCH_DIR)
    selftest = importlib.import_module("selftest")
    workloads = importlib.import_module("workloads")
    plants = [
        [(harness, "sample", selftest.point_mass_sampler)],
        [(qclient.ClusterClient, "retrieve_all", selftest.short_acquisition)],
        [(router, "route", selftest.miscounting_router),
         (workloads, "route", selftest.miscounting_router)],
        [(harness, "ClusterService", selftest.fast_stop_cluster)],
    ]
    for faults in plants:
        originals = {(owner, attr): getattr(owner, attr) for owner, attr, _ in faults}
        with selftest.planted(*faults):
            for (owner, attr), original in originals.items():
                assert getattr(owner, attr) is not original, f"{owner!r}.{attr} not planted"
        for (owner, attr), original in originals.items():
            assert getattr(owner, attr) is original, f"{owner!r}.{attr} not restored"

    built = []

    def recorded(service_cls):
        class Recorded(service_cls):
            def __init__(self, *args):
                super().__init__(*args)
                built.append(self)

        return Recorded

    config = BenchmarkConfig(
        qubits=(4,), shots=100, runs=1, p=1, timing_mode="virtual", dilation=0.0,
        profile=LatencyProfile(dilation=0.0),
        optimizer=OptimizerConfig(bounds=((0.0, 6.0),) * 2, sample_budget=4, local_budget=2,
                                  starts=1, max_iterations=3),
    )
    with selftest.planted((harness, "ClusterService", selftest.fast_stop_cluster)):
        planted = harness.ClusterService
        assert planted(LatencyProfile(), Topology()).profile.stop_ms == LatencyProfile().stop_ms / 2
        with selftest.planted((harness, "ClusterService", recorded)):
            result = run_benchmark(config)
    assert [s.error for s in result.cells[4].summaries] == [None]
    assert len(built) == 1 and isinstance(built[0], planted)
    assert built[0].topology == Topology.for_qubits(4)
    assert built[0].profile == LatencyProfile.zeroed()  # virtual mode's server, stop halved
