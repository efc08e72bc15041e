"""Benchmark orchestration: optimize a cut problem against the cluster while
profiling every phase of every iteration.

Each run drives the full loop: build the ansatz for the optimizer's current
parameters, lower it to sequencer programs, push the job through the cluster
protocol, then score the parameters from a local statevector simulation (the
cluster's acquisition payload is structurally faithful but carries no qubit
physics, so the objective substitutes simulated shots with per-iteration
seeds). Wall-clock phase timings come from the protocol exchange itself.

Every iteration also gets a nominal PhaseRecord: the profile's latencies
for its job (LatencyProfile.phase_ms, prepare following the prepare mode),
the nominal schedule, and zero compile/optimizer time. A cell's nominal
report aggregates them, and run --check compares the measured report with
it. timing_mode "virtual" keeps the whole protocol exchange but books the
nominal record in place of the measured one, making reports
bit-reproducible; it is meant for regression tests, not measurement.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import re
import time
from dataclasses import dataclass, replace

from .circuit import QaoaParams, build_qaoa, simplify
from .client import ClusterClient
from .cluster import ClusterService, LatencyProfile, Topology
from .compiler import compile
from .optimizer import OptimizerConfig, minimize
from .problem import ProblemGraph, generate_instance, score
from .profiler import AggregateReport, PhaseRecord, aggregate, record_iteration
from .statevector import MAX_SIM_QUBITS, sample, simulate
from .util import mix_seed

# Unused here (the objective calls score), but bench/workloads.py wraps both
# names on this module to trace them.
from .optimizer import qaoa_objective  # noqa: F401
from .problem import cut_value  # noqa: F401

RESET_MODES = ("passive", "active")
PREPARE_MODES = ("sequential", "parallel")
TIMING_MODES = ("real", "virtual")

# fixed tweak distinguishing the optimizer seed stream from shot seeds
_OPT_SEED_TAG = 0x0971


class BenchmarkError(RuntimeError):
    pass


@dataclass(frozen=True)
class BenchmarkConfig:
    """One benchmark cell grid: every configured qubit count is run with the
    same shots/runs/reset/prepare settings. It holds what is measured, not
    where results go: write_outputs takes the output directory.

    `dilation` must match the dilation the serving cluster applies to its
    schedule sleeps, and equal `profile.dilation`, which the embedded server
    runs with.
    """

    qubits: tuple[int, ...] = (4, 6, 8, 10, 12, 14)
    shots: int = 1000
    runs: int = 40
    reset: str = "passive"
    prepare: str = "sequential"
    dilation: float = 1.0
    seed: int = 0
    p: int = 2
    timing_mode: str = "real"
    profile: LatencyProfile = LatencyProfile()
    profile_name: str = "default"
    host: str | None = None
    port: int | None = None
    optimizer: OptimizerConfig | None = None

    def __post_init__(self):
        if not self.qubits:
            raise ValueError("need at least one qubit count")
        if len(set(self.qubits)) < len(self.qubits):
            raise ValueError(f"qubit counts must not repeat, got {self.qubits}")
        for n in self.qubits:
            if not 2 <= n <= MAX_SIM_QUBITS:
                raise ValueError(f"qubit count {n} outside supported range 2..{MAX_SIM_QUBITS}")
        if self.shots < 1 or self.runs < 1 or self.p < 1:
            raise ValueError("shots, runs, and p must be positive")
        if self.reset not in RESET_MODES:
            raise ValueError(f"reset must be one of {RESET_MODES}")
        if self.prepare not in PREPARE_MODES:
            raise ValueError(f"prepare must be one of {PREPARE_MODES}")
        if self.timing_mode not in TIMING_MODES:
            raise ValueError(f"timing_mode must be one of {TIMING_MODES}")
        if self.profile.dilation != self.dilation:
            raise ValueError(
                f"dilation {self.dilation} disagrees with profile.dilation {self.profile.dilation}"
            )
        if (self.host is None) != (self.port is None):
            raise ValueError("host and port must be given together")

    def optimizer_for(self, n: int) -> OptimizerConfig:
        """Optimizer settings for one qubit count. The seed is fixed per
        (benchmark seed, n), so repeated runs share initial parameters and
        differ only through shot noise."""
        seed = mix_seed(self.seed, n, _OPT_SEED_TAG)
        if self.optimizer is not None:
            return replace(self.optimizer, seed=seed)
        bounds = ((0.0, 2.0 * math.pi),) * (2 * self.p)
        return OptimizerConfig(bounds=bounds, seed=seed)

    def meta(self) -> dict:
        return {
            "shots": self.shots,
            "runs": self.runs,
            "reset": self.reset,
            "prepare": self.prepare,
            "dilation": self.dilation,
            "seed": self.seed,
            "p": self.p,
            "timing_mode": self.timing_mode,
            "profile": self.profile_name,
        }


@dataclass(frozen=True)
class RunSummary:
    qubits: int
    run: int
    iterations: int
    terminated_by: str
    best_value: float
    best_params: tuple[float, ...]
    best_observed_cut: float
    error: str | None = None

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class CellResult:
    report: AggregateReport
    records: tuple[PhaseRecord, ...]
    summaries: tuple[RunSummary, ...]
    nominal: AggregateReport  # of the nominal records of the same iterations


@dataclass(frozen=True)
class BenchmarkResult:
    config: BenchmarkConfig
    cells: dict[int, CellResult]

    def report(self, n: int) -> AggregateReport:
        return self.cells[n].report


def _one_run(
    config: BenchmarkConfig,
    g: ProblemGraph,
    client: ClusterClient,
    n: int,
    run_idx: int,
    opt_cfg: OptimizerConfig,
) -> tuple[list[PhaseRecord], list[PhaseRecord], RunSummary]:
    records: list[PhaseRecord] = []
    nominals: list[PhaseRecord] = []
    best_cut = 0.0
    last_exit: float | None = None

    def objective(x) -> float:
        nonlocal best_cut, last_exit
        entered = time.perf_counter()
        optimizer_ms = 0.0 if last_exit is None else (entered - last_exit) * 1e3

        params = QaoaParams.from_flat(x)
        circ = simplify(build_qaoa(g, params))
        job = compile(circ, config.shots, config.reset)
        compile_ms = (time.perf_counter() - entered) * 1e3

        _acq, timings = client.run_iteration(job, prepare_mode=config.prepare)
        # what follows, up to the next compile, is booked as the next optimizer
        last_exit = time.perf_counter()
        iteration = len(records)
        nominals.append(
            PhaseRecord.from_phases(
                run_idx,
                iteration,
                n,
                compile=0.0,
                schedule=job.schedule_seconds * 1e3,
                optimizer=0.0,
                **config.profile.phase_ms(job, config.prepare),
            )
        )

        shot_seed = mix_seed(config.seed, n, run_idx, iteration)
        counts = sample(simulate(circ), config.shots, shot_seed)
        mean_cut, best_observed = score(g, counts)
        best_cut = max(best_cut, best_observed)

        if config.timing_mode == "virtual":
            records.append(nominals[-1])
        else:
            records.append(
                record_iteration(
                    timings,
                    compile_ms=compile_ms,
                    optimizer_ms=optimizer_ms,
                    schedule_nominal_s=job.schedule_seconds,
                    dilation=config.dilation,
                    run=run_idx,
                    iteration=iteration,
                    qubits=n,
                )
            )
        return -mean_cut

    trace = minimize(objective, opt_cfg)
    summary = RunSummary(
        qubits=n,
        run=run_idx,
        iterations=trace.iterations,
        terminated_by=trace.terminated_by,
        best_value=trace.best_value,
        best_params=trace.best_params,
        best_observed_cut=best_cut,
    )
    return records, nominals, summary


def _run_cells(config: BenchmarkConfig, host: str, port: int) -> BenchmarkResult:
    cells: dict[int, CellResult] = {}
    for n in config.qubits:
        g = generate_instance(n, mix_seed(config.seed, n))
        opt_cfg = config.optimizer_for(n)
        records: list[PhaseRecord] = []
        nominals: list[PhaseRecord] = []
        summaries: list[RunSummary] = []
        with ClusterClient(host, port) as client:
            for run_idx in range(config.runs):
                try:
                    run_records, run_nominals, summary = _one_run(
                        config, g, client, n, run_idx, opt_cfg
                    )
                except Exception as exc:  # isolate per-run failures
                    summaries.append(
                        RunSummary(
                            qubits=n,
                            run=run_idx,
                            iterations=0,
                            terminated_by="error",
                            best_value=math.nan,
                            best_params=(),
                            best_observed_cut=0.0,
                            error=f"{type(exc).__name__}: {exc}",
                        )
                    )
                    continue
                records.extend(run_records)
                nominals.extend(run_nominals)
                summaries.append(summary)
        if not records:
            errors = "; ".join(s.error or "?" for s in summaries)
            raise BenchmarkError(f"all {config.runs} runs failed for {n} qubits: {errors}")
        cells[n] = CellResult(
            report=aggregate(records, config.meta()),
            records=tuple(records),
            summaries=tuple(summaries),
            nominal=aggregate(nominals, config.meta()),
        )
    return BenchmarkResult(config=config, cells=cells)


def run_benchmark(config: BenchmarkConfig) -> BenchmarkResult:
    """Run every configured cell, against an embedded cluster unless an
    external endpoint is given. Writes nothing; see write_outputs."""
    if config.host is not None and config.port is not None:
        return _run_cells(config, config.host, config.port)
    server_profile = LatencyProfile.zeroed() if config.timing_mode == "virtual" else config.profile
    with ClusterService(server_profile, Topology.for_qubits(max(config.qubits))) as service:
        return _run_cells(config, *service.address)


def write_outputs(result: BenchmarkResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for n, cell in result.cells.items():
        with open(os.path.join(out_dir, f"report_{n}q.json"), "w") as fh:
            fh.write(cell.report.to_json() + "\n")
        with open(os.path.join(out_dir, f"report_{n}q.csv"), "w") as fh:
            fh.write(cell.report.to_csv())
        with open(os.path.join(out_dir, f"records_{n}q.jsonl"), "w") as fh:
            for rec in cell.records:
                fh.write(json.dumps(rec.to_dict(), sort_keys=True) + "\n")
    summary = {
        "config": dataclasses.asdict(result.config),
        "runs": [s.to_dict() for n in result.cells for s in result.cells[n].summaries],
    }
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_reports(report_dir: str) -> dict[int, AggregateReport]:
    """Read report_{n}q.json files back from a benchmark output directory."""
    found: dict[int, AggregateReport] = {}
    pattern = re.compile(r"^report_(\d+)q\.json$")
    for name in sorted(os.listdir(report_dir)):
        m = pattern.match(name)
        if not m:
            continue
        with open(os.path.join(report_dir, name)) as fh:
            try:
                found[int(m.group(1))] = AggregateReport.from_json(fh.read())
            except ValueError as exc:  # json.JSONDecodeError too
                raise ValueError(f"{name} in {report_dir}: {exc}") from exc
    if not found:
        raise BenchmarkError(f"no report_<n>q.json files in {report_dir}")
    return found
