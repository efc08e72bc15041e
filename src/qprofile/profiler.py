"""Phase-resolved runtime records, aggregation, speedups, extrapolation.

Phase durations live in milliseconds here. One PhaseRecord type holds both a
measured iteration (record_iteration) and a nominal one (the latency
profile's prediction); either way total is the sum of the nine timed phases.
The schedule phase is always the nominal execution time of the uploaded
schedule, never the slept wall time, so time dilation in the cluster cannot
distort the breakdown; the wait-done phase is netted of the slept schedule
share accordingly, and a wait shorter than that share raises.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .client import IterationTimings
from .timing import DEFAULT_TIMING, TimingModel

if TYPE_CHECKING:  # router imports fit_linear from here
    from .router import PowerLawFit

PHASE_ORDER = (
    "compile",
    "stop",
    "prepare",
    "start",
    "wait_done",
    "schedule",
    "retrieve",
    "final_stop",
    "optimizer",
    "total",
)


@dataclass(frozen=True)
class PhaseRecord:
    """Milliseconds spent in each phase of one iteration."""

    run: int
    iteration: int
    qubits: int
    compile_ms: float
    stop_ms: float
    prepare_ms: float
    start_ms: float
    wait_done_ms: float  # netted of slept schedule time
    schedule_ms: float  # nominal
    retrieve_ms: float
    final_stop_ms: float
    optimizer_ms: float
    total_ms: float

    @classmethod
    def from_phases(cls, run: int, iteration: int, qubits: int, **ms: float) -> "PhaseRecord":
        """A record from the milliseconds of the nine timed phases, keyed by
        phase name. total is their sum, in PHASE_ORDER."""
        for name, v in ms.items():
            if v < 0:
                raise ValueError(f"{name} must be non-negative, got {v}")
        total = sum(ms[name] for name in PHASE_ORDER if name != "total")
        fields = {f"{name}_ms": v for name, v in ms.items()}
        return cls(run=run, iteration=iteration, qubits=qubits, **fields, total_ms=total)

    def phase(self, name: str) -> float:
        return getattr(self, f"{name}_ms")

    def to_dict(self) -> dict:
        return {
            "run": self.run,
            "iteration": self.iteration,
            "qubits": self.qubits,
            **{name: self.phase(name) for name in PHASE_ORDER},
        }


def record_iteration(
    timings: IterationTimings,
    compile_ms: float,
    optimizer_ms: float,
    schedule_nominal_s: float,
    dilation: float = 1.0,
    run: int = 0,
    iteration: int = 0,
    qubits: int = 0,
) -> PhaseRecord:
    """Fold one iteration's measured wall timings into a phase record.

    wait_done is the measured wall wait minus the slept schedule share
    (nominal x dilation). A wait shorter than that share means the cluster
    slept less schedule than dilation says, and raises ValueError.
    """
    schedule_ms = schedule_nominal_s * 1e3
    wait_done_ms = timings.wait_done_wall_s * 1e3 - schedule_ms * dilation
    if wait_done_ms < 0:
        raise ValueError(
            f"wait_done measured {timings.wait_done_wall_s * 1e3:.3f} ms, shorter than "
            f"the {schedule_ms * dilation:.3f} ms of schedule that dilation {dilation} "
            "says the cluster sleeps: pass the dilation the cluster was started with"
        )
    return PhaseRecord.from_phases(
        run,
        iteration,
        qubits,
        compile=compile_ms,
        stop=timings.stop_s * 1e3,
        prepare=timings.prepare_s * 1e3,
        start=timings.start_s * 1e3,
        wait_done=wait_done_ms,
        schedule=schedule_ms,
        retrieve=timings.retrieve_s * 1e3,
        final_stop=timings.final_stop_s * 1e3,
        optimizer=optimizer_ms,
    )


@dataclass(frozen=True)
class PhaseStats:
    mean_ms: float
    std_ms: float  # population standard deviation
    count: int


@dataclass(frozen=True)
class AggregateReport:
    meta: dict
    phases: dict[str, PhaseStats]

    def phase_mean(self, name: str) -> float:
        return self.phases[name].mean_ms

    def to_json(self) -> str:
        return json.dumps(
            {
                "meta": self.meta,
                "phases": {
                    name: {
                        "mean_ms": stats.mean_ms,
                        "std_ms": stats.std_ms,
                        "count": stats.count,
                    }
                    for name, stats in self.phases.items()
                },
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "AggregateReport":
        """Parse to_json's text. Raises ValueError naming phases, meta or the
        phase stat that is wrong (finite JSON numbers, >= 0; count >= 1)."""
        raw = json.loads(text)
        if not isinstance(raw, dict) or not isinstance(raw.get("phases"), dict):
            raise ValueError("report needs a phases object")
        if not isinstance(raw.get("meta", {}), dict):
            raise ValueError("report meta must be an object")
        keys = ("mean_ms", "std_ms", "count")
        phases = {}
        for name, p in raw["phases"].items():
            values = [p.get(key) if isinstance(p, dict) else None for key in keys]
            for key, value in zip(keys, values):
                lowest = 1 if key == "count" else 0
                if type(value) not in (int, float) or not lowest <= value < math.inf:
                    raise ValueError(f"phase {name} needs a finite {key} >= {lowest}: {value!r}")
            phases[name] = PhaseStats(float(values[0]), float(values[1]), int(values[2]))
        return cls(meta=raw.get("meta", {}), phases=phases)

    def to_csv(self) -> str:
        lines = ["phase,mean_ms,std_ms"]
        for name in PHASE_ORDER:
            if name in self.phases:
                s = self.phases[name]
                lines.append(f"{name},{s.mean_ms:.6f},{s.std_ms:.6f}")
        return "\n".join(lines) + "\n"


def aggregate(records, meta: dict | None = None) -> AggregateReport:
    """Pool per-iteration records into per-phase mean/std (population).

    Both are taken from the values shifted by the first record's, so a phase
    that is equal in every record reads exactly that value, with std 0."""
    records = list(records)
    if not records:
        raise ValueError("no records to aggregate")
    qubit_counts = {r.qubits for r in records}
    if len(qubit_counts) != 1:
        raise ValueError(f"mixed qubit counts in records: {sorted(qubit_counts)}")
    phases = {}
    for name in PHASE_ORDER:
        values = np.array([r.phase(name) for r in records], dtype=float)
        shifted = values - values[0]
        phases[name] = PhaseStats(
            mean_ms=float(values[0] + shifted.mean()),
            std_ms=float(shifted.std()),
            count=len(values),
        )
    base_meta = {"qubits": qubit_counts.pop()}
    if meta:
        base_meta.update(meta)
    return AggregateReport(meta=base_meta, phases=phases)


@dataclass(frozen=True)
class SpeedupReport:
    overall: float
    per_phase: dict[str, float]
    isolated: dict[str, float]


def compute_speedup(baseline: AggregateReport, variant: AggregateReport) -> SpeedupReport:
    """Ratios of baseline to variant phase means.

    `overall` is the ratio of total means. `isolated[phase]` answers what
    the overall speedup would be if only that phase had changed: baseline
    total over (baseline total minus that phase's saving). A phase at 0 in
    both reports has ratio 1.0; one at 0 only in the variant has ratio inf.
    """
    base_total = baseline.phase_mean("total")
    var_total = variant.phase_mean("total")
    if var_total <= 0:
        raise ValueError("variant total mean must be positive")
    per_phase = {}
    isolated = {}
    for name in baseline.phases:
        if name == "total" or name not in variant.phases:
            continue
        b = baseline.phase_mean(name)
        v = variant.phase_mean(name)
        per_phase[name] = b / v if v > 0 else 1.0 if b == 0 else math.inf
        denom = base_total - (b - v)
        isolated[name] = base_total / denom if denom > 0 else math.inf
    return SpeedupReport(overall=base_total / var_total, per_phase=per_phase, isolated=isolated)


def schedule_speedup(t: TimingModel, circuit_seconds: float) -> float:
    """Passive-to-active schedule-time ratio for a circuit of given length."""
    if circuit_seconds < 0:
        raise ValueError("circuit duration must be non-negative")
    return (t.passive_reset + circuit_seconds) / (t.active_reset + circuit_seconds)


@dataclass(frozen=True)
class LinearFit:
    slope: float
    intercept: float
    r2: float

    def evaluate(self, x: float) -> float:
        return self.slope * x + self.intercept


def fit_linear(points) -> LinearFit:
    """Least-squares line through (x, y) points. r2 is 1.0 for a zero-variance y."""
    pts = list(points)
    if len(pts) < 2:
        raise ValueError("need at least 2 points")
    x = np.array([p[0] for p in pts], dtype=float)
    y = np.array([p[1] for p in pts], dtype=float)
    if np.all(x == x[0]):
        raise ValueError("degenerate fit: all x equal")
    coeffs, *_ = np.linalg.lstsq(np.stack([x, np.ones_like(x)], axis=1), y, rcond=None)
    slope, intercept = float(coeffs[0]), float(coeffs[1])
    ss_res = float(np.sum((y - (slope * x + intercept)) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return LinearFit(slope=slope, intercept=intercept, r2=r2)


@dataclass(frozen=True)
class ExtrapolationTable:
    target_n: int
    rows: tuple[tuple[str, float], ...]  # (phase, seconds at target)
    swap_term_s: float
    interpolation: bool

    def to_csv(self) -> str:
        lines = ["phase,runtime_s_at_target"]
        for phase, seconds in self.rows:
            lines.append(f"{phase},{seconds:.6f}")
        return "\n".join(lines) + "\n"


def swap_overhead_seconds(
    n: int, swap_fit: PowerLawFit, shots: int, t: TimingModel
) -> float:
    """Added schedule time from routing: shots x swaps(n) x 3 CNOTs x t_2q."""
    return shots * swap_fit.evaluate(n) * 3.0 * t.gate_2q


def shared_meta(reports_by_n: dict[int, AggregateReport], key: str) -> int:
    """The meta[key] every report carries, as an int. Raises ValueError when
    a report lacks it or two reports disagree on it."""
    values = {report.meta.get(key) for report in reports_by_n.values()}
    if len(values) != 1 or None in values:
        raise ValueError(f"reports disagree on {key}: {sorted(values, key=repr)}")
    return int(values.pop())


def extrapolate(
    reports_by_n: dict[int, AggregateReport],
    target_n: int,
    swap_fit: PowerLawFit | None = None,
    shots: int | None = None,
) -> ExtrapolationTable:
    """Linear per-phase extrapolation to target_n, in seconds.

    The schedule row additionally carries the routed-SWAP overhead when a
    power-law fit is provided, at DEFAULT_TIMING's two-qubit gate time. The
    total row is the sum of the others.
    """
    if len(reports_by_n) < 3:
        raise ValueError("need measured reports for at least 3 qubit counts")
    ns = sorted(reports_by_n)
    key_sets = {frozenset(reports_by_n[n].phases) for n in ns}
    if len(key_sets) != 1:
        raise ValueError("reports disagree on phase keys")
    keys = key_sets.pop()
    phase_names = [p for p in PHASE_ORDER if p in keys and p != "total"]

    shots = shared_meta(reports_by_n, "shots") if shots is None else shots
    if target_n < 1 or shots < 1:
        raise ValueError(f"target and shots must be at least 1, got {target_n} and {shots}")

    swap_term_s = (
        swap_overhead_seconds(target_n, swap_fit, shots, DEFAULT_TIMING) if swap_fit else 0.0
    )
    rows: list[tuple[str, float]] = []
    total = 0.0
    for name in phase_names:
        fit = fit_linear([(n, reports_by_n[n].phase_mean(name)) for n in ns])
        seconds = fit.evaluate(target_n) / 1e3
        if name == "schedule":
            seconds += swap_term_s
        rows.append((name, seconds))
        total += seconds
    rows.append(("total", total))
    return ExtrapolationTable(
        target_n=target_n,
        rows=tuple(rows),
        swap_term_s=swap_term_s,
        interpolation=target_n < max(ns),
    )
