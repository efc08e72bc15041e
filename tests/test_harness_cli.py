from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
import math
import os
import select
import signal
import subprocess
import sys
import time

import pytest

import qprofile
import qprofile.harness as harness
from qprofile.circuit import QaoaParams, build_qaoa
from qprofile.cli import _check_latencies, build_parser, main, parse_cluster, parse_qubits
from qprofile.client import ClusterClient
from qprofile.cluster import INSTRUMENT_PHASES, ClusterService, LatencyProfile, Topology
from qprofile.compiler import compile as compile_job
from qprofile.harness import (
    BenchmarkConfig,
    BenchmarkError,
    load_reports,
    run_benchmark,
    write_outputs,
)
from qprofile.optimizer import OptimizerConfig
from qprofile.problem import generate_instance
from qprofile.profiler import (
    PHASE_ORDER,
    AggregateReport,
    PhaseStats,
    extrapolate,
    swap_overhead_seconds,
)
from qprofile.router import PowerLawFit, grid_layout, route, run_swap_study
from qprofile.statevector import MAX_SIM_QUBITS
from qprofile.timing import DEFAULT_TIMING

TWO_PI = 2.0 * math.pi

SMALL_OPTIMIZER = OptimizerConfig(
    bounds=((0.0, TWO_PI),) * 2,
    sample_budget=8,
    local_budget=6,
    starts=1,
    max_iterations=6,
)


def _virtual_config(**overrides) -> BenchmarkConfig:
    base = dict(
        qubits=(3,),
        shots=100,
        runs=2,
        timing_mode="virtual",
        seed=7,
        p=1,
        optimizer=SMALL_OPTIMIZER,
    )
    base.update(overrides)
    return BenchmarkConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        BenchmarkConfig(qubits=())
    with pytest.raises(ValueError):
        BenchmarkConfig(qubits=(1,))
    with pytest.raises(ValueError):
        BenchmarkConfig(qubits=(25,))
    with pytest.raises(ValueError, match="repeat"):
        BenchmarkConfig(qubits=(4, 6, 4))
    with pytest.raises(ValueError):
        BenchmarkConfig(reset="warm")
    with pytest.raises(ValueError):
        BenchmarkConfig(prepare="burst")
    with pytest.raises(ValueError):
        BenchmarkConfig(timing_mode="dry")
    with pytest.raises(ValueError):
        BenchmarkConfig(dilation=-1.0)
    with pytest.raises(ValueError, match="profile.dilation"):
        BenchmarkConfig(profile=LatencyProfile(dilation=0.0))  # dilation stays 1.0
    with pytest.raises(ValueError):
        BenchmarkConfig(host="localhost")  # port missing


def test_optimizer_seeds_differ_per_qubit_count():
    config = BenchmarkConfig()
    assert config.optimizer_for(4).seed != config.optimizer_for(6).seed
    assert config.optimizer_for(4).seed == config.optimizer_for(4).seed
    custom = BenchmarkConfig(optimizer=SMALL_OPTIMIZER)
    assert custom.optimizer_for(4).sample_budget == 8


def test_meta_carries_the_run_configuration():
    meta = _virtual_config().meta()
    assert meta["shots"] == 100
    assert meta["timing_mode"] == "virtual"
    assert meta["profile"] == "default"


def test_virtual_runs_are_bit_reproducible(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    write_outputs(run_benchmark(_virtual_config()), str(out_a))
    write_outputs(run_benchmark(_virtual_config()), str(out_b))
    names = ["records_3q.jsonl", "report_3q.csv", "report_3q.json", "summary.json"]
    assert sorted(os.listdir(out_a)) == sorted(os.listdir(out_b)) == names
    for name in names:  # summary.json too: no output path leaks into a file
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# measured phases against a cluster that never sleeps, so a gap would show
ZERO_LATENCY = dict(timing_mode="real", profile=LatencyProfile.zeroed(), dilation=0.0)


@pytest.mark.parametrize(
    "overrides",
    [{}, {**ZERO_LATENCY, "prepare": "sequential"}, {**ZERO_LATENCY, "prepare": "parallel"}],
    ids=["virtual", "real-sequential", "real-parallel"],
)
def test_total_equals_the_sum_of_its_phases(overrides):
    cell = run_benchmark(_virtual_config(runs=1, **overrides)).cells[3]
    for rec in cell.records:
        assert rec.total_ms == sum(rec.phase(name) for name in PHASE_ORDER if name != "total")
    component_sum = sum(cell.report.phase_mean(name) for name in PHASE_ORDER if name != "total")
    assert cell.report.phase_mean("total") == pytest.approx(component_sum, rel=1e-9)


@pytest.mark.parametrize("n", [4, 12])
def test_real_phases_book_the_time_between_objective_calls(monkeypatch, n):
    # At zero latency and dilation 0 nothing is slept, so the time from the
    # first objective call to the last is host work that phases must book:
    # compile and the instrument phases of each iteration but the last, and
    # the optimizer (the end of one protocol exchange to the next compile)
    # of each iteration but the first. schedule is booked but not slept.
    entries = []
    minimize = harness.minimize

    def stamped_minimize(objective, config):
        def stamped(x):
            entries.append(time.perf_counter())
            return objective(x)

        return minimize(stamped, config)

    monkeypatch.setattr(harness, "minimize", stamped_minimize)
    config = BenchmarkConfig(
        qubits=(n,), runs=1, seed=1, dilation=0.0, profile=LatencyProfile.zeroed()
    )
    records = run_benchmark(config).cells[n].records
    assert len(records) == len(entries) >= 10
    booked = sum(r.phase(name) for r in records[:-1] for name in ("compile", *INSTRUMENT_PHASES))
    booked += sum(r.optimizer_ms for r in records[1:])
    assert booked == pytest.approx((entries[-1] - entries[0]) * 1e3, rel=0.01)


def test_virtual_phase_means_match_the_profile_nominals():
    profile = LatencyProfile()
    result = run_benchmark(_virtual_config(runs=1))
    report = result.report(3)
    assert report.phase_mean("stop") == pytest.approx(profile.stop_ms)
    assert report.phase_mean("start") == pytest.approx(profile.start_ms)
    assert report.phase_mean("retrieve") == pytest.approx(profile.retrieve_ms)
    assert report.phase_mean("wait_done") == pytest.approx(profile.done_finalize_ms)
    assert report.phase_mean("compile") == 0.0
    assert report.phase_mean("optimizer") == 0.0


def _acceptance_cell(reset: str, prepare: str) -> BenchmarkConfig:
    """The 4-qubit cell of the acceptance criteria, with a short optimizer."""
    return BenchmarkConfig(
        qubits=(4,),
        shots=1000,
        runs=1,
        reset=reset,
        prepare=prepare,
        seed=0,
        p=2,
        timing_mode="virtual",
        optimizer=OptimizerConfig(
            bounds=((0.0, TWO_PI),) * 4, sample_budget=4, local_budget=2, starts=1
        ),
    )


@pytest.mark.parametrize(
    "reset, prepare, reference_ms",
    [("passive", "sequential", 207.2), ("active", "parallel", 73.9)],
    ids=["criterion-1-cell", "criterion-4-cell"],
)
def test_virtual_prepare_follows_the_prepare_mode(reset, prepare, reference_ms):
    # reference_ms is the acceptance reference for the cell's prepare mean
    cell = run_benchmark(_acceptance_cell(reset, prepare)).cells[4]
    assert cell.report.phase_mean("prepare") == pytest.approx(reference_ms, rel=1e-3)
    assert cell.nominal.phase_mean("prepare") == pytest.approx(reference_ms, rel=1e-3)


def test_check_names_prepare_when_only_prepare_drifts():
    # the server prepares each file in 3 ms where the checked profile says 9 ms;
    # every other phase is served at its checked nominal
    checked = LatencyProfile(
        stop_ms=50.0,
        start_ms=50.0,
        retrieve_ms=50.0,
        prepare_serial_ms=1.0,
        prepare_concurrent_ms=8.0,
        prepare_per_byte_ns=0.0,
        done_finalize_ms=60.0,
        dilation=0.0,
    )
    service = ClusterService(
        dataclasses.replace(checked, prepare_concurrent_ms=2.0), Topology(), noise_seed=5
    )
    host, port = service.start()
    try:
        result = run_benchmark(
            _virtual_config(
                runs=1,
                timing_mode="real",
                dilation=0.0,
                profile=checked,
                host=host,
                port=port,
                optimizer=OptimizerConfig(
                    bounds=((0.0, TWO_PI),) * 2, sample_budget=2, local_budget=1, starts=1
                ),
            )
        )
    finally:
        service.shutdown()
    failures = _check_latencies(result)
    assert [line.split(":")[0] for line in failures] == ["3q prepare"], failures


def test_outputs_round_trip(tmp_path):
    result = run_benchmark(_virtual_config(runs=1))
    write_outputs(result, str(tmp_path))
    for name in ("report_3q.json", "report_3q.csv", "records_3q.jsonl", "summary.json"):
        assert (tmp_path / name).exists()
    loaded = load_reports(str(tmp_path))
    assert loaded[3] == result.report(3)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["config"]["qubits"] == [3]
    assert all(run["terminated_by"] != "error" for run in summary["runs"])
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(BenchmarkError):
        load_reports(str(empty))


def test_all_runs_failing_raises_a_benchmark_error():
    # odd-length parameter vectors cannot split into angle pairs
    broken = OptimizerConfig(bounds=((0.0, TWO_PI),) * 3, sample_budget=2, starts=1)
    with pytest.raises(BenchmarkError):
        run_benchmark(_virtual_config(runs=1, optimizer=broken))


def test_external_endpoint_is_used(tmp_path):
    service = ClusterService(LatencyProfile.zeroed(), Topology(), noise_seed=3)
    host, port = service.start()
    try:
        config = _virtual_config(runs=1, host=host, port=port)
        result = run_benchmark(config)
        assert result.report(3).phases["total"].count >= 1
    finally:
        service.shutdown()


def test_swap_study_csv_written_and_reloadable(tmp_path):
    path = tmp_path / "swaps.csv"
    argv = ["swaps", "--qubits", "4,5,6", "--instances", "2", "--seed", "1", "--out", str(path)]
    assert main(argv) == 0
    fit = run_swap_study(ns=(4, 5, 6), instances_per_n=2, seed=1)
    text = path.read_text()
    assert text.splitlines()[0] == "n,mean_swaps,std_swaps"
    assert text == fit.to_csv()
    loaded = PowerLawFit.from_csv(text)
    assert loaded.points == fit.points
    assert loaded.b == pytest.approx(fit.b, rel=1e-6)


def test_default_swap_fit_predicts_held_out_routing():
    # Fresh 30-qubit instances, seeded apart from the study's own draws and
    # well beyond its largest size: the default fit must predict their mean
    # routed SWAP count, since extrapolation uses it exactly this way.
    params = QaoaParams(p=2, gammas=(0.7, 0.7), betas=(0.4, 0.4))
    counts = [
        route(build_qaoa(generate_instance(30, seed), params), grid_layout(30)).swap_count
        for seed in range(1000, 1010)
    ]
    held_out = sum(counts) / len(counts)
    predicted = run_swap_study().evaluate(30)
    assert abs(predicted - held_out) <= 0.25 * held_out, (predicted, held_out)


# -- CLI ----------------------------------------------------------------------


def test_parse_qubits_forms():
    assert parse_qubits("4") == (4,)
    assert parse_qubits("4,6,8") == (4, 6, 8)
    assert parse_qubits("4..14") == (4, 6, 8, 10, 12, 14)
    assert parse_qubits("4..15..3") == (4, 7, 10, 13)
    assert parse_qubits("2, 3") == (2, 3)
    with pytest.raises(ValueError):
        parse_qubits("")
    with pytest.raises(ValueError):
        parse_qubits("8..4")
    with pytest.raises(ValueError):
        parse_qubits("4..8..0")


def test_parse_cluster_forms():
    assert parse_cluster("embedded") == (None, None)
    assert parse_cluster("127.0.0.1:7780") == ("127.0.0.1", 7780)
    with pytest.raises(ValueError):
        parse_cluster("nohost")
    with pytest.raises(ValueError):
        parse_cluster(":80")
    assert parse_cluster("127.0.0.1:65535") == ("127.0.0.1", 65535)
    # out-of-range ports would otherwise wrap around to another service
    for port in ("0", "65536", "102303"):
        with pytest.raises(ValueError):
            parse_cluster(f"127.0.0.1:{port}")


def test_cli_serve_rejects_an_out_of_range_port(capsys):
    assert main(["serve", "--bind", "127.0.0.1:70000"]) == 2
    assert "65535" in capsys.readouterr().err
    # --bind follows --cluster's host:port rule, except that port 0 is allowed
    for bind in ("127.0.0.1:", "7780", ":7780", "127.0.0.1:-1"):
        assert main(["serve", "--bind", bind]) == 2
        assert "--bind must be host:port" in capsys.readouterr().err


@contextlib.contextmanager
def _serve_process(*args: str):
    """A `qprofile serve --bind 127.0.0.1:0` child and the port it printed.
    Every wait is bounded, and the child is killed if it is still running."""
    src = os.path.dirname(os.path.dirname(qprofile.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    proc = subprocess.Popen(
        [sys.executable, "-m", "qprofile.cli", "serve", "--bind", "127.0.0.1:0", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], 30.0)
        assert ready, "no address line within 30 s"
        line = proc.stdout.readline()
        assert line.startswith("cluster listening on 127.0.0.1:"), line
        yield proc, int(line.rsplit(":", 1)[1])
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30.0)


def test_cli_serve_runs_until_sigterm():
    with _serve_process() as (proc, port):
        with ClusterClient("127.0.0.1", port) as client:
            assert client.status()["state"] == "idle"
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30.0)
        assert proc.returncode == 0, err
        assert out.strip() == "cluster stopped"


def test_cli_serve_holds_every_placement_run_accepts(tmp_path):
    # the largest job run accepts, compiled only: its files sit on modules 0..3
    g = generate_instance(MAX_SIM_QUBITS, 1)
    job = compile_job(build_qaoa(g, QaoaParams.from_flat([0.7, 0.4])), 100, "passive")
    profile = tmp_path / "cluster.json"
    profile.write_text(json.dumps({"latency": dataclasses.asdict(LatencyProfile.zeroed())}))
    with _serve_process("--profile", str(profile)) as (_, port):
        with ClusterClient("127.0.0.1", port) as client:
            client.prepare(job, "sequential")
            assert client.status()["state"] == "armed"
            client.stop()


def _run_args(out_dir: str, *extra: str) -> list[str]:
    return [
        "run",
        "--qubits", "3",
        "--runs", "1",
        "--shots", "100",
        "--p", "1",
        "--timing-mode", "virtual",
        "--out", out_dir,
        *extra,
    ]


def test_cli_run_writes_reports(tmp_path, capsys):
    code = main(_run_args(str(tmp_path)))
    assert code == 0
    out = capsys.readouterr().out
    assert "== 3 qubits ==" in out
    assert "phase,mean_ms,std_ms" in out
    assert (tmp_path / "report_3q.json").exists()


def test_cli_run_check_passes_in_accounting_mode(tmp_path, capsys):
    code = main(_run_args(str(tmp_path), "--check"))
    assert code == 0
    assert "latency check passed" in capsys.readouterr().out


def test_cli_run_check_passes_for_virtual_parallel_prepare(tmp_path, capsys):
    code = main(_run_args(str(tmp_path), "--prepare", "parallel", "--check"))
    assert code == 0
    assert "latency check passed" in capsys.readouterr().out


def test_cli_run_check_fails_on_profile_drift(tmp_path, capsys):
    # a latency-free external server cannot match the default profile nominals
    service = ClusterService(LatencyProfile.zeroed(), Topology(), noise_seed=5)
    host, port = service.start()
    try:
        code = main([
            "run",
            "--qubits", "3",
            "--runs", "1",
            "--shots", "50",
            "--p", "1",
            "--cluster", f"{host}:{port}",
            "--dilation", "0",
            "--check",
        ])
    finally:
        service.shutdown()
    assert code == 4
    assert "CHECK FAIL" in capsys.readouterr().err


def test_cli_run_fails_when_the_cluster_sleeps_less_schedule_than_the_dilation(capsys):
    # the server sleeps no schedule (dilation 0) where the default profile says 1.0
    service = ClusterService(LatencyProfile.zeroed(), Topology(), noise_seed=5)
    host, port = service.start()
    try:
        code = main([
            "run",
            "--qubits", "3",
            "--runs", "1",
            "--shots", "50",
            "--p", "1",
            "--cluster", f"{host}:{port}",
        ])
    finally:
        service.shutdown()
    assert code == 3
    assert "dilation" in capsys.readouterr().err


def test_cli_rejects_bad_configuration(capsys):
    assert main(["run", "--qubits", "0"]) == 2
    assert main(["run", "--cluster", "nope"]) == 2
    assert main(["bogus"]) == 2


def test_cli_swaps_rejects_fewer_than_three_distinct_sizes(capsys):
    assert main(["swaps", "--qubits", "5,5,5", "--instances", "1"]) == 2
    assert "3 distinct sizes" in capsys.readouterr().err


def test_cli_defaults_are_the_config_and_study_defaults():
    parser = build_parser()
    run = parser.parse_args(["run"])
    config = BenchmarkConfig()
    assert parse_qubits(run.qubits) == config.qubits
    assert (run.shots, run.runs, run.reset, run.prepare, run.seed, run.p, run.timing_mode) == (
        config.shots, config.runs, config.reset, config.prepare, config.seed, config.p,
        config.timing_mode,
    )
    swaps = parser.parse_args(["swaps"])
    study = inspect.signature(run_swap_study).parameters
    assert parse_qubits(swaps.qubits) == study["ns"].default
    assert (swaps.instances, swaps.seed, swaps.p) == (
        study["instances_per_n"].default, study["seed"].default, study["p"].default
    )


@pytest.mark.parametrize(
    "config, named",
    [
        pytest.param({"latency": {"stop_msec": 1}}, "stop_msec", id="latency-stop_msec"),
        pytest.param({"topology": {"racks": 1}}, "topology", id="topology-racks"),
        pytest.param({"latency": {"stop_ms": "x"}}, "stop_ms", id="latency-string"),
        pytest.param({"latency": {"stop_ms": True}}, "stop_ms", id="latency-boolean"),
        pytest.param({"latency": {"retrieve_ms": float("nan")}}, "retrieve_ms", id="latency-nan"),
        pytest.param({"latency": 5}, "latency", id="latency-not-an-object"),
        pytest.param({"topology": {"control_modules": "3"}}, "topology", id="topology-string"),
        pytest.param({"topology": {"readout_modules": 2.0}}, "topology", id="topology-float"),
        pytest.param({"topology": {"modules": "3"}}, "topology", id="modules-string"),
        pytest.param({"topology": {"modules": 2.0}}, "topology", id="modules-float"),
        pytest.param({"topology": {"modules": True}}, "topology", id="modules-boolean"),
        pytest.param({"latncy": {"stop_ms": 1.0}}, "latncy", id="misspelled-section"),
        pytest.param([1, 2], "JSON object", id="top-level-list"),
    ],
)
def test_cli_names_an_unknown_profile_key(tmp_path, capsys, config, named):
    profile = tmp_path / "cluster.json"
    profile.write_text(json.dumps(config))
    assert main(["run", "--qubits", "3", "--runs", "1", "--profile", str(profile)]) == 2
    assert named in capsys.readouterr().err


def test_cli_run_dilation_defaults_to_the_profile(tmp_path):
    profile = tmp_path / "cluster.json"
    profile.write_text(json.dumps({"latency": {"dilation": 0.0}}))
    for out, extra, expected in (("a", (), 0.0), ("b", ("--dilation", "0.5"), 0.5)):
        assert main(_run_args(str(tmp_path / out), "--profile", str(profile), *extra)) == 0
        summary = json.loads((tmp_path / out / "summary.json").read_text())
        report = json.loads((tmp_path / out / "report_3q.json").read_text())
        assert summary["config"]["dilation"] == expected
        assert summary["config"]["profile"]["dilation"] == expected
        assert report["meta"]["dilation"] == expected


def test_cli_reports_unreachable_clusters(capsys):
    import socket

    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    _, free_port = probe.getsockname()
    probe.close()
    code = main(["run", "--qubits", "3", "--runs", "1", "--cluster", f"127.0.0.1:{free_port}"])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_cli_swaps_and_extrapolate_pipeline(tmp_path, capsys):
    study = tmp_path / "swaps.csv"
    assert main(["swaps", "--qubits", "4,5,6", "--instances", "2", "--seed", "1",
                 "--out", str(study)]) == 0
    assert study.exists()

    reports = tmp_path / "reports"
    assert main([
        "run",
        "--qubits", "2,3,4",
        "--runs", "1",
        "--shots", "100",
        "--p", "1",
        "--timing-mode", "virtual",
        "--out", str(reports),
    ]) == 0

    table = tmp_path / "table.csv"
    code = main([
        "extrapolate",
        "--in", str(reports),
        "--target", "50",
        "--swap-fit", str(study),
        "--out", str(table),
    ])
    assert code == 0
    lines = table.read_text().splitlines()
    assert lines[0] == "phase,runtime_s_at_target"
    assert lines[-1].startswith("total,")
    out = capsys.readouterr().out
    assert "total," in out

    # inside the measured range the table is still produced, with a note
    code = main(["extrapolate", "--in", str(reports), "--target", "3", "--no-swap"])
    assert code == 0
    assert "inside the measured range" in capsys.readouterr().out

    # --swap-fit wins over --no-swap
    assert main(["extrapolate", "--in", str(reports), "--target", "50",
                 "--swap-fit", str(study), "--no-swap"]) == 0
    assert capsys.readouterr().out.splitlines() == table.read_text().splitlines()

    for bad in (("--target", "-5"), ("--target", "50", "--shots", "-3")):
        code = main(["extrapolate", "--in", str(reports), "--swap-fit", str(study), *bad])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    # a study whose mean is not finite has no power law
    nan_study = tmp_path / "nan.csv"
    nan_study.write_text("n,mean_swaps,std_swaps\n5,nan,0.0\n6,4.0,0.0\n7,6.0,0.0\n")
    code = main(["extrapolate", "--in", str(reports), "--target", "50",
                 "--swap-fit", str(nan_study)])
    assert code == 2
    assert "finite positive means" in capsys.readouterr().err


def _write_reports(path, p_by_n: dict[int, int]) -> dict[int, AggregateReport]:
    """Reports at the sizes of p_by_n, each carrying its own meta p, written
    to path as run --out writes them."""
    reports = {}
    for n, p in p_by_n.items():
        phases = {name: PhaseStats(mean_ms=10.0 + n, std_ms=0.0, count=2) for name in PHASE_ORDER}
        reports[n] = AggregateReport(meta={"qubits": n, "shots": 1000, "p": p}, phases=phases)
    path.mkdir()
    for n, report in reports.items():
        (path / f"report_{n}q.json").write_text(report.to_json() + "\n")
    return reports


@pytest.mark.parametrize("p", [1, 3])
def test_cli_extrapolate_default_study_routes_the_reports_p(tmp_path, capsys, p):
    reports = _write_reports(tmp_path / "reports", {4: p, 6: p, 8: p})
    assert main(["extrapolate", "--in", str(tmp_path / "reports"), "--target", "50"]) == 0
    rows = dict(line.split(",") for line in capsys.readouterr().out.splitlines()[1:])
    plain = dict(extrapolate(reports, 50).rows)
    term = swap_overhead_seconds(50, run_swap_study(p=p), 1000, DEFAULT_TIMING)
    assert rows["schedule"] == f"{plain['schedule'] + term:.6f}"


def test_cli_extrapolate_refuses_reports_that_disagree_on_p(tmp_path, capsys):
    # the linear fits would mix two workloads, whichever SWAP term is used
    _write_reports(tmp_path / "reports", {4: 2, 6: 2, 8: 3})
    for extra in ((), ("--no-swap",)):
        argv = ["extrapolate", "--in", str(tmp_path / "reports"), "--target", "50", *extra]
        assert main(argv) == 2
        assert "disagree on p" in capsys.readouterr().err


@pytest.mark.parametrize(
    "broken, named",
    [
        pytest.param(lambda raw: raw.pop("phases"), "phases", id="no-phases"),
        pytest.param(lambda raw: raw.update(phases=[]), "phases", id="phases-a-list"),
        pytest.param(lambda raw: raw.update(meta=[]), "meta", id="meta-a-list"),
        pytest.param(lambda raw: raw["phases"]["prepare"].update(mean_ms="fast"), "mean_ms",
                     id="text-mean"),
        pytest.param(lambda raw: raw["phases"]["stop"].pop("count"), "count", id="no-count"),
        # json.loads reads NaN, and no measurement gives a negative std or an empty phase
        pytest.param(lambda raw: raw["phases"]["prepare"].update(mean_ms=float("nan")),
                     "mean_ms", id="nan-mean"),
        pytest.param(lambda raw: raw["phases"]["start"].update(std_ms=-1.0), "std_ms",
                     id="negative-std"),
        pytest.param(lambda raw: raw["phases"]["retrieve"].update(count=0), "count",
                     id="zero-count"),
    ],
)
def test_cli_extrapolate_names_the_file_and_key_of_a_malformed_report(
    tmp_path, capsys, broken, named
):
    _write_reports(tmp_path / "reports", {4: 2, 6: 2, 8: 2})
    path = tmp_path / "reports" / "report_6q.json"
    raw = json.loads(path.read_text())
    broken(raw)
    path.write_text(json.dumps(raw))
    assert main(["extrapolate", "--in", str(tmp_path / "reports"), "--target", "50"]) == 2
    err = capsys.readouterr().err
    assert "report_6q.json" in err and named in err, err


@pytest.mark.parametrize(
    "row", [pytest.param("5,3.0", id="short-row"), pytest.param("five,3.0,1.0", id="text-size")]
)
def test_cli_extrapolate_names_the_line_of_a_malformed_swap_fit(tmp_path, capsys, row):
    _write_reports(tmp_path / "reports", {4: 2, 6: 2, 8: 2})
    study = tmp_path / "swaps.csv"
    study.write_text(f"n,mean_swaps,std_swaps\n4,2.0,0.0\n{row}\n6,5.0,0.0\n")
    argv = ["extrapolate", "--in", str(tmp_path / "reports"), "--target", "50",
            "--swap-fit", str(study)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert str(study) in err and "line 3" in err and row in err, err


def test_cli_extrapolate_requires_reports(tmp_path):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    code = main(["extrapolate", "--in", str(tmp_path / "empty"), "--target", "50", "--no-swap"])
    assert code == 3
