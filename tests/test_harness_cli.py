from __future__ import annotations

import dataclasses
import json
import math
import os

import pytest

from qprofile.circuit import QaoaParams, build_qaoa
from qprofile.cli import _check_latencies, main, parse_cluster, parse_qubits
from qprofile.cluster import ClusterService, LatencyProfile, Topology
from qprofile.harness import (
    BenchmarkConfig,
    BenchmarkError,
    load_reports,
    load_swap_fit,
    run_benchmark,
    run_swap_study,
    swap_study_csv,
    write_outputs,
)
from qprofile.optimizer import OptimizerConfig
from qprofile.problem import generate_instance
from qprofile.profiler import PHASE_ORDER
from qprofile.router import grid_layout, route

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
    with pytest.raises(ValueError):
        BenchmarkConfig(reset="warm")
    with pytest.raises(ValueError):
        BenchmarkConfig(prepare="burst")
    with pytest.raises(ValueError):
        BenchmarkConfig(timing_mode="dry")
    with pytest.raises(ValueError):
        BenchmarkConfig(dilation=-1.0)
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
    run_benchmark(_virtual_config(out_dir=str(out_a)))
    run_benchmark(_virtual_config(out_dir=str(out_b)))
    for name in ("report_3q.json", "report_3q.csv", "records_3q.jsonl"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    summary_a = json.loads((out_a / "summary.json").read_text())
    summary_b = json.loads((out_b / "summary.json").read_text())
    assert summary_a["runs"] == summary_b["runs"]


# measured phases against a cluster that never sleeps, so a gap would show
ZERO_LATENCY = dict(timing_mode="real", profile=LatencyProfile.zeroed(), dilation=0.0)


@pytest.mark.parametrize(
    "overrides",
    [{}, {**ZERO_LATENCY, "prepare": "sequential"}, {**ZERO_LATENCY, "prepare": "parallel"}],
    ids=["virtual", "real-sequential", "real-parallel"],
)
def test_total_equals_the_sum_of_its_phases(overrides):
    cell = run_benchmark(_virtual_config(runs=1, **overrides)).cells[3]
    for phase in [cell.report.phase_mean, *(rec.phase for rec in cell.records)]:
        component_sum = sum(phase(name) for name in PHASE_ORDER if name != "total")
        assert phase("total") == pytest.approx(component_sum, rel=1e-9)


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
    assert cell.nominal_ms["prepare"] == pytest.approx(reference_ms, rel=1e-3)


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
    result = run_benchmark(_virtual_config(runs=1, out_dir=str(tmp_path)))
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
    fit = run_swap_study(ns=(4, 5, 6), instances_per_n=2, seed=1, out_path=str(path))
    text = path.read_text()
    assert text.splitlines()[0] == "n,mean_swaps,std_swaps"
    assert text == swap_study_csv(fit)
    loaded = load_swap_fit(str(path))
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
            "--check",
        ])
    finally:
        service.shutdown()
    assert code == 4
    assert "CHECK FAIL" in capsys.readouterr().err


def test_cli_rejects_bad_configuration(capsys):
    assert main(["run", "--qubits", "0"]) == 2
    assert main(["run", "--cluster", "nope"]) == 2
    assert main(["bogus"]) == 2


@pytest.mark.parametrize(
    "config, named",
    [
        pytest.param({"latency": {"stop_msec": 1}}, "stop_msec", id="latency-stop_msec"),
        pytest.param({"topology": {"racks": 1}}, "racks", id="topology-racks"),
        pytest.param({"latency": {"stop_ms": "x"}}, "stop_ms", id="latency-string"),
        pytest.param({"latency": {"stop_ms": True}}, "stop_ms", id="latency-boolean"),
        pytest.param({"latency": {"retrieve_ms": float("nan")}}, "retrieve_ms", id="latency-nan"),
        pytest.param({"latency": 5}, "latency", id="latency-not-an-object"),
        pytest.param({"topology": {"control_modules": "3"}}, "control_modules",
                     id="topology-string"),
        pytest.param({"topology": {"readout_modules": 2.0}}, "readout_modules",
                     id="topology-float"),
        pytest.param([1, 2], "JSON object", id="top-level-list"),
    ],
)
def test_cli_names_an_unknown_profile_key(tmp_path, capsys, config, named):
    profile = tmp_path / "cluster.json"
    profile.write_text(json.dumps(config))
    assert main(["run", "--qubits", "3", "--runs", "1", "--profile", str(profile)]) == 2
    assert named in capsys.readouterr().err


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


def test_cli_extrapolate_requires_reports(tmp_path):
    os.makedirs(tmp_path / "empty", exist_ok=True)
    code = main(["extrapolate", "--in", str(tmp_path / "empty"), "--target", "50", "--no-swap"])
    assert code == 3
