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
