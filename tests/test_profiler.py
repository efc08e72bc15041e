from __future__ import annotations

import math

import pytest

from qprofile.client import IterationTimings
from qprofile.profiler import (
    PHASE_ORDER,
    AggregateReport,
    PhaseRecord,
    PhaseStats,
    aggregate,
    compute_speedup,
    extrapolate,
    fit_linear,
    record_iteration,
    schedule_speedup,
    swap_overhead_seconds,
)
from qprofile.router import PowerLawFit
from qprofile.timing import TimingModel


def _timings(**overrides) -> IterationTimings:
    base = dict(
        stop_s=0.0195,
        prepare_s=0.2072,
        start_s=0.0571,
        wait_done_wall_s=0.268,
        retrieve_s=0.0589,
        final_stop_s=0.0195,
        wall_total_s=0.6302,
        schedule_nominal_s=0.2117,
        prepare_mode="sequential",
        reset_mode="passive",
    )
    base.update(overrides)
    return IterationTimings(**base)


def _record(value: float, run: int = 0, iteration: int = 0, qubits: int = 4) -> PhaseRecord:
    fields = {f"{name}_ms": value for name in PHASE_ORDER}
    return PhaseRecord(run=run, iteration=iteration, qubits=qubits, **fields)


def test_wait_done_is_netted_of_the_slept_schedule():
    rec = record_iteration(_timings(), compile_ms=2.0, optimizer_ms=1.0, schedule_nominal_s=0.2117)
    assert rec.wait_done_ms == pytest.approx(268.0 - 211.7)
    assert rec.schedule_ms == pytest.approx(211.7)
    assert rec.total_ms == pytest.approx(2.0 + 1.0 + 630.2)


def test_accounting_mode_keeps_the_nominal_schedule():
    rec = record_iteration(
        _timings(wait_done_wall_s=0.056, wall_total_s=0.4182),
        compile_ms=0.0,
        optimizer_ms=0.0,
        schedule_nominal_s=0.2117,
        dilation=0.0,
    )
    assert rec.wait_done_ms == pytest.approx(56.0)
    assert rec.schedule_ms == pytest.approx(211.7)
    # the un-slept schedule still counts toward the total
    assert rec.total_ms == pytest.approx(418.2 + 211.7)


def test_wait_shorter_than_the_slept_schedule_names_the_dilation():
    with pytest.raises(ValueError, match="dilation"):
        record_iteration(
            _timings(wait_done_wall_s=0.1),
            compile_ms=0.0,
            optimizer_ms=0.0,
            schedule_nominal_s=0.2117,
        )


def test_negative_inputs_are_rejected():
    with pytest.raises(ValueError):
        record_iteration(_timings(), compile_ms=-1.0, optimizer_ms=0.0, schedule_nominal_s=0.1)
    with pytest.raises(ValueError):
        record_iteration(_timings(stop_s=-0.1), compile_ms=0.0, optimizer_ms=0.0, schedule_nominal_s=0.1)


def test_record_accessors():
    rec = _record(7.0, run=2, iteration=5)
    assert rec.phase("prepare") == 7.0
    d = rec.to_dict()
    assert d["run"] == 2 and d["iteration"] == 5 and d["qubits"] == 4
    assert all(name in d for name in PHASE_ORDER)


def test_aggregate_pools_mean_and_population_deviation():
    report = aggregate([_record(10.0), _record(20.0, iteration=1)], {"shots": 9})
    for name in PHASE_ORDER:
        stats = report.phases[name]
        assert stats.mean_ms == pytest.approx(15.0)
        assert stats.std_ms == pytest.approx(5.0)
        assert stats.count == 2
    assert report.meta["qubits"] == 4
    assert report.meta["shots"] == 9


def test_aggregate_is_permutation_invariant():
    records = [_record(float(v), iteration=i) for i, v in enumerate((3, 1, 8))]
    assert aggregate(records) == aggregate(list(reversed(records)))


def test_aggregate_rejects_empty_and_mixed_inputs():
    with pytest.raises(ValueError):
        aggregate([])
    with pytest.raises(ValueError):
        aggregate([_record(1.0), _record(1.0, qubits=6)])


def test_single_record_has_zero_deviation():
    report = aggregate([_record(10.0)])
    assert report.phases["total"].std_ms == 0.0


def test_aggregate_reads_a_constant_phase_exactly():
    # np.mean of three 56.3 is 56.29999999999999, with a std of 7e-15
    for count in (3, 7, 120):
        report = aggregate([_record(56.3, iteration=i) for i in range(count)])
        for name in PHASE_ORDER:
            assert report.phases[name].mean_ms == 56.3
            assert report.phases[name].std_ms == 0.0

def test_report_serialization_round_trip():
    report = aggregate([_record(10.0), _record(20.0, iteration=1)], {"shots": 9})
    again = AggregateReport.from_json(report.to_json())
    assert again == report
    csv = report.to_csv()
    lines = csv.splitlines()
    assert lines[0] == "phase,mean_ms,std_ms"
    assert lines[1].startswith("compile,")
    assert lines[-1].startswith("total,")


def _ratio_report(total: float, prepare: float) -> AggregateReport:
    return AggregateReport(
        meta={"qubits": 4},
        phases={
            "total": PhaseStats(mean_ms=total, std_ms=0.0, count=5),
            "prepare": PhaseStats(mean_ms=prepare, std_ms=0.0, count=5),
        },
    )


def test_speedup_ratios_on_reference_breakdowns():
    baseline = _ratio_report(694.8, 212.1)
    active = _ratio_report(495.7, 207.2)
    parallel = _ratio_report(348.8, 73.9)
    assert compute_speedup(baseline, active).overall == pytest.approx(1.40, abs=0.005)
    upgrade = compute_speedup(active, parallel)
    assert upgrade.overall == pytest.approx(1.42, abs=0.005)
    # counterfactual where only the prepare phase had improved
    assert upgrade.isolated["prepare"] == pytest.approx(1.37, abs=0.005)


def test_speedup_of_identical_reports_is_one():
    for report in (_ratio_report(100.0, 40.0), _ratio_report(100.0, 0.0)):
        s = compute_speedup(report, report)
        assert s.overall == 1.0
        assert s.per_phase["prepare"] == 1.0
        assert s.isolated["prepare"] == 1.0


def test_speedup_guards():
    with pytest.raises(ValueError):
        compute_speedup(_ratio_report(10.0, 5.0), _ratio_report(0.0, 5.0))
    s = compute_speedup(_ratio_report(10.0, 5.0), _ratio_report(10.0, 0.0))
    assert s.per_phase["prepare"] == math.inf


def test_schedule_speedup_reference_point():
    ratio = schedule_speedup(TimingModel(), 11.7e-6)
    assert ratio == pytest.approx(211.7 / 12.7, rel=1e-9)
    assert abs(ratio - 16.67) / 16.67 < 0.01


def test_schedule_speedup_limits():
    t = TimingModel(passive_reset=1e-6, active_reset=1e-6)
    assert schedule_speedup(t, 5e-6) == 1.0
    assert schedule_speedup(TimingModel(), 1.0) < 1.001
    with pytest.raises(ValueError):
        schedule_speedup(TimingModel(), -1e-6)


def test_linear_fit_reference_line():
    fit = fit_linear([(4, 1.0), (14, 2.0)])
    assert fit.slope == pytest.approx(0.1)
    assert fit.intercept == pytest.approx(0.6)
    assert fit.evaluate(50) == pytest.approx(5.6)
    assert fit.r2 == pytest.approx(1.0)


def test_linear_fit_zero_variance_convention():
    fit = fit_linear([(1, 3.0), (2, 3.0), (9, 3.0)])
    assert fit.slope == pytest.approx(0.0)
    assert fit.r2 == 1.0


def test_linear_fit_guards():
    with pytest.raises(ValueError):
        fit_linear([(1, 1.0)])
    with pytest.raises(ValueError):
        fit_linear([(2, 1.0), (2, 5.0)])


def test_swap_overhead_formula():
    fit = PowerLawFit(a=0.1, b=1.7, residual=0.0)
    t = TimingModel()
    term = swap_overhead_seconds(50, fit, 1000, t)
    assert term == pytest.approx(1000 * 0.1 * 50**1.7 * 3 * 100e-9, rel=1e-12)
    assert term == pytest.approx(22.9e-3, rel=0.02)


def _linear_reports(ns, laws, shots=1000):
    reports = {}
    for n in ns:
        phases = {
            name: PhaseStats(mean_ms=slope * n + off, std_ms=0.0, count=3)
            for name, (slope, off) in laws.items()
        }
        reports[n] = AggregateReport(meta={"qubits": n, "shots": shots}, phases=phases)
    return reports


LAWS = {
    "compile": (0.5, 1.0),
    "stop": (0.0, 19.5),
    "prepare": (6.0, 10.0),
    "start": (0.0, 57.1),
    "wait_done": (0.1, 56.0),
    "schedule": (2.0, 200.0),
    "retrieve": (1.5, 55.0),
    "final_stop": (0.0, 19.5),
    "optimizer": (0.2, 0.5),
    "total": (10.3, 418.6),
}


def test_extrapolation_reproduces_exact_lines():
    reports = _linear_reports((4, 6, 8), LAWS)
    table = extrapolate(reports, 50)
    assert table.swap_term_s == 0.0
    assert not table.interpolation
    rows = dict(table.rows)
    for name, (slope, off) in LAWS.items():
        if name == "total":
            continue
        assert rows[name] == pytest.approx((slope * 50 + off) / 1e3, abs=1e-12)
    assert rows["total"] == pytest.approx(sum(v for k, v in rows.items() if k != "total"))
    assert [name for name, _ in table.rows] == [p for p in PHASE_ORDER if p != "total"] + ["total"]


def test_extrapolation_adds_the_swap_term_to_the_schedule_row():
    reports = _linear_reports((4, 6, 8), LAWS)
    fit = PowerLawFit(a=0.1, b=1.7, residual=0.0)
    plain = dict(extrapolate(reports, 50).rows)
    routed = extrapolate(reports, 50, swap_fit=fit)
    rows = dict(routed.rows)
    t = TimingModel()
    assert routed.swap_term_s == pytest.approx(swap_overhead_seconds(50, fit, 1000, t))
    assert rows["schedule"] == pytest.approx(plain["schedule"] + routed.swap_term_s)
    assert rows["compile"] == pytest.approx(plain["compile"])


def test_extrapolation_flags_interpolation():
    reports = _linear_reports((4, 6, 8), LAWS)
    assert extrapolate(reports, 6).interpolation
    assert extrapolate(reports, 6).rows  # still emits the table


def test_extrapolation_input_guards():
    reports = _linear_reports((4, 6, 8), LAWS)
    with pytest.raises(ValueError):
        extrapolate({4: reports[4], 6: reports[6]}, 50)
    broken = dict(reports)
    broken[8] = AggregateReport(
        meta={"qubits": 8, "shots": 1000},
        phases={"total": PhaseStats(1.0, 0.0, 1)},
    )
    with pytest.raises(ValueError):
        extrapolate(broken, 50)
    # a non-positive target or shot count has no runtime: (-5) ** b is complex
    for target, shots in ((0, None), (-5, None), (50, 0), (50, -3)):
        with pytest.raises(ValueError):
            extrapolate(reports, target, shots=shots)
    with pytest.raises(ValueError):
        extrapolate(_linear_reports((4, 6, 8), LAWS, shots=0), 50)


def test_extrapolation_needs_consistent_shots():
    reports = _linear_reports((4, 6, 8), LAWS)
    odd = _linear_reports((10,), LAWS, shots=50)
    mixed = {**reports, **odd}
    with pytest.raises(ValueError):
        extrapolate(mixed, 50)
    table = extrapolate(mixed, 50, shots=1000)  # explicit override wins
    assert dict(table.rows)["stop"] == pytest.approx(0.0195)


def test_table_csv_shape():
    reports = _linear_reports((4, 6, 8), LAWS)
    csv = extrapolate(reports, 50).to_csv()
    lines = csv.splitlines()
    assert lines[0] == "phase,runtime_s_at_target"
    assert lines[-1].startswith("total,")
    assert len(lines) == 1 + len(PHASE_ORDER)
