"""The benchmark's workloads, its timed window, its checks and its metrics.

Every workload is a closed loop with one client: the next operation (op)
starts only when the previous one has returned.

- loop-14q: run_benchmark at 14 qubits, p=2, 1000 shots, passive reset,
  sequential prepare, against an embedded cluster with a zeroed latency
  profile and dilation 0. Nothing sleeps: every op is framework cost.
- cell-4q-parallel: run_benchmark at 4 qubits with the default latency
  profile at dilation 1, active reset, parallel prepare. Most of an op is
  the latency the profile prescribes; host cost shows in cpu_ms_per_op and,
  in the traced run, in harness.overhead_ms_p50.
- swap-study: run_swap_study over the sizes 5..14, then the 50-qubit
  extrapolate it feeds. Pure-Python routing and instance generation.

In the loops an op is one objective evaluation (build, compile, a full
cluster round, simulate, sample, score). The timed window runs whole
optimizer runs, each a run_benchmark call with its own seed, until the
window has lasted the requested seconds and holds MIN_OPS ops. The op clock
wraps the objective that harness hands to optimizer.minimize, so the
program's own phase records are never read. Checks run after the window.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

import qprofile.client as qclient
import qprofile.cluster as qcluster
import qprofile.harness as harness
import qprofile.problem as problem
import qprofile.router as router
import qprofile.wire as wire
from qprofile import (
    BenchmarkConfig,
    ClusterClient,
    ClusterService,
    IterationTimings,
    LatencyProfile,
    QaoaParams,
    TimingModel,
    Topology,
    aggregate,
    build_qaoa,
    compile,
    extrapolate,
    generate_instance,
    grid_layout,
    mix_seed,
    qaoa_objective,
    record_iteration,
    route,
    run_benchmark,
    run_swap_study,
    sample,
    simplify,
    simulate,
)

import refcheck
from spans import CountingSocket, Patcher, Tracer

SHOTS = 1000
P = 2
MIN_OPS = 100  # so that at least ten op times lie beyond p90
SETUP_REPEATS = 3
SWAP_SIZES = tuple(range(5, 15))
# 10 instances per size (the library default is 20) halves a study, so a
# 30-second run holds well over MIN_OPS studies.
SWAP_INSTANCES = 10
SWAP_TARGET = 50
STUDY_ANGLES = QaoaParams(p=P, gammas=(0.7,) * P, betas=(0.4,) * P)

_TAG_SETUP, _TAG_ROUND, _TAG_STUDY = 0x5E7, 0x20D, 0x57D


@dataclass(frozen=True)
class LoopSpec:
    qubits: int
    reset: str
    prepare: str
    profile: LatencyProfile  # its dilation is the cell's dilation


LOOPS = {
    "loop-14q": LoopSpec(14, "passive", "sequential", LatencyProfile.zeroed(0.0)),
    "cell-4q-parallel": LoopSpec(4, "active", "parallel", LatencyProfile()),
}
WORKLOADS = (*LOOPS, "swap-study")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class Op:
    __slots__ = ("t0", "t1", "params", "value", "error", "graph", "timings", "job",
                 "bits", "fit", "swap_term_s", "graphs")

    def __init__(self):
        self.t0 = self.t1 = self.params = self.value = self.error = None
        self.graph = self.timings = self.job = self.bits = None
        self.fit = self.swap_term_s = None
        self.graphs = []


class Recorder:
    """Ops and optimizer runs as the timed window saw them.

    It installs the op clock and a few reference captures (the instance a
    run optimizes, each job's shape, each acquisition's length); the checks
    read them after the window."""

    def __init__(self, patcher: Patcher, tracer: Tracer | None):
        self.tracer = tracer
        self.ops: list[Op] = []
        self.rounds: list[tuple] = []  # (graph, RunSummary or error text)
        self.graph = None
        self.current: Op | None = None
        patcher.wrap(harness, "generate_instance", self._capture_graph)
        patcher.wrap(harness, "minimize", self._time_objective)
        patcher.wrap(qclient.ClusterClient, "run_iteration", self._capture_iteration)
        patcher.wrap(router, "generate_instance", self._capture_study_graph)

    def new_op(self) -> Op:
        op = Op()
        self.current = op
        self.ops.append(op)
        return op

    def _capture_graph(self, generate):
        def captured(n, seed):
            self.graph = generate(n, seed)
            return self.graph
        return captured

    def _capture_study_graph(self, generate):
        def captured(n, seed):
            g = generate(n, seed)
            self.current.graphs.append(g)
            return g
        return captured

    def _time_objective(self, minimize):
        tracer = self.tracer

        def timed_minimize(objective, config):
            body = tracer.wrap("bench.op", objective) if tracer else objective

            def timed(x):
                op = self.new_op()
                op.graph = self.graph
                op.params = tuple(x)
                op.t0 = time.perf_counter()
                try:
                    op.value = body(x)
                except Exception as exc:
                    op.error = f"{type(exc).__name__}: {exc}"
                    raise
                finally:
                    op.t1 = time.perf_counter()
                return op.value

            run = tracer.wrap("optimizer.minimize", minimize) if tracer else minimize
            return run(timed, config)

        return timed_minimize

    def _capture_iteration(self, run_iteration):
        def captured(client, job, prepare_mode="sequential"):
            acquisition, timings = run_iteration(client, job, prepare_mode)
            op = self.current
            op.timings = timings
            op.job = (job.schedule_seconds, tuple(f.size_bytes() for f in job.files),
                      len(job.readout_modules()))
            op.bits = (acquisition.shots, {q: len(b) for q, b in acquisition.bits.items()})
            return acquisition, timings
        return captured


# -- tracing ------------------------------------------------------------------


class LayerCounts:
    """Counts kept outside spans, where a span per call would cost too much."""

    def __init__(self):
        self.cut_calls = 0
        self.scan_s = 0.0  # cut_value calls made by harness itself
        self.routes = 0
        self.swaps = 0


def install_tracing(patcher: Patcher, tracer: Tracer, counts: LayerCounts) -> None:
    for module, attr, name in (
        (harness, "build_qaoa", "circuit.build_qaoa"),
        (harness, "simplify", "circuit.simplify"),
        (harness, "compile", "compiler.compile"),
        (harness, "simulate", "statevector.simulate"),
        (harness, "sample", "statevector.sample"),
        (harness, "qaoa_objective", "optimizer.qaoa_objective"),
        (harness, "record_iteration", "profiler.record_iteration"),
        (harness, "generate_instance", "problem.generate_instance"),
        (router, "generate_instance", "problem.generate_instance"),
        (router, "build_qaoa", "circuit.build_qaoa"),
    ):
        patcher.wrap(module, attr, lambda fn, name=name: tracer.wrap(name, fn))
    for attr in ("run_iteration", "stop", "prepare", "start", "wait_done", "retrieve_all"):
        patcher.wrap(qclient.ClusterClient, attr,
                     lambda fn, attr=attr: tracer.wrap(f"client.{attr}", fn))
    patcher.wrap(qclient.ClusterConnection, "request", tracer.wrap_request)
    patcher.wrap(qcluster.ClusterService, "dispatch", lambda fn: tracer.wrap(
        "cluster.dispatch", fn,
        label=lambda a: a[1].get("cmd") if isinstance(a[1], dict) else None))

    def counting_send(send):
        def send_frame(sock, obj):
            if tracer.in_request():
                sock = CountingSocket(sock, tracer)
            return send(sock, obj)
        return send_frame

    def counting_recv(recv):
        def recv_frame(sock):
            if tracer.in_request():
                sock = CountingSocket(sock, tracer)
            return recv(sock)
        return recv_frame

    patcher.wrap(wire, "send_frame", counting_send)
    patcher.wrap(wire, "recv_frame", counting_recv)

    def scan_cut(cut_value):
        def timed(g, bitstring):
            t0 = time.perf_counter()
            value = cut_value(g, bitstring)
            counts.scan_s += time.perf_counter() - t0
            counts.cut_calls += 1
            return value
        return timed

    def counted_cut(cut_value):
        def counted(g, bitstring):
            counts.cut_calls += 1
            return cut_value(g, bitstring)
        return counted

    patcher.wrap(harness, "cut_value", scan_cut)
    patcher.wrap(problem, "cut_value", counted_cut)

    def counted_route(route_fn):
        def routed(circuit, layout):
            result = route_fn(circuit, layout)
            counts.routes += 1
            counts.swaps += result.swap_count
            return result
        return tracer.wrap("router.route", routed)

    patcher.wrap(router, "route", counted_route)


# -- workloads ----------------------------------------------------------------


def loop_setup(spec: LoopSpec, seed: int) -> None:
    """Service start, instance generation and one evaluation's worth of
    build, compile, cluster round, simulation, sampling and scoring."""
    g = generate_instance(spec.qubits, seed)
    rng = np.random.default_rng(seed)
    params = QaoaParams.from_flat(rng.uniform(0.0, 2.0 * math.pi, 2 * P))
    with ClusterService(spec.profile, Topology.for_qubits(spec.qubits)) as service:
        with ClusterClient(*service.address) as client:
            circ = simplify(build_qaoa(g, params))
            client.run_iteration(compile(circ, SHOTS, spec.reset), prepare_mode=spec.prepare)
            qaoa_objective(g, sample(simulate(circ), SHOTS, seed))


def loop_round(spec: LoopSpec, rec: Recorder, seed: int) -> None:
    """One optimizer run: a run_benchmark call with its own seed."""
    config = BenchmarkConfig(
        qubits=(spec.qubits,), shots=SHOTS, runs=1, reset=spec.reset,
        prepare=spec.prepare, dilation=spec.profile.dilation, seed=seed, p=P,
        profile=spec.profile,
    )
    run = rec.tracer.wrap("harness.run_benchmark", run_benchmark) if rec.tracer else run_benchmark
    try:
        outcome = run(config).cells[spec.qubits].summaries[0]
    except harness.BenchmarkError as exc:
        outcome = str(exc)
    rec.rounds.append((rec.graph, outcome))


def nominal_reports() -> dict:
    """Phase reports at 4, 8 and 14 qubits built from the default profile's
    nominal latencies, for extrapolate to extend."""
    profile = LatencyProfile()
    reports = {}
    for n in (4, 8, 14):
        job = compile(simplify(build_qaoa(generate_instance(n, n), STUDY_ANGLES)), SHOTS, "passive")
        nom = refcheck.nominal_phases(profile, "sequential", job.schedule_seconds,
                                      [f.size_bytes() for f in job.files],
                                      len(job.readout_modules()))
        timings = IterationTimings(
            stop_s=nom["stop"], prepare_s=nom["prepare"], start_s=nom["start"],
            wait_done_wall_s=nom["wait_done"], retrieve_s=nom["retrieve"],
            final_stop_s=nom["final_stop"], wall_total_s=sum(nom.values()),
            schedule_nominal_s=job.schedule_seconds, prepare_mode="sequential",
            reset_mode="passive",
        )
        record = record_iteration(timings, compile_ms=0.0, optimizer_ms=0.0,
                                  schedule_nominal_s=job.schedule_seconds, qubits=n)
        reports[n] = aggregate([record], {"shots": SHOTS})
    return reports


def swap_setup(seed: int) -> dict:
    reports = nominal_reports()
    fit = run_swap_study(ns=SWAP_SIZES[:3], instances_per_n=2, seed=seed)
    extrapolate(reports, SWAP_TARGET, swap_fit=fit, shots=SHOTS)
    return reports


def swap_op(rec: Recorder, seed: int, reports: dict) -> None:
    """One routed-SWAP study with a fresh study seed, then the 50-qubit
    extrapolation it feeds. Only one instance per size is kept for the
    re-routing check, except for the run's first study."""
    op = rec.new_op()

    def study():
        op.fit = run_swap_study(ns=SWAP_SIZES, instances_per_n=SWAP_INSTANCES, seed=seed)
        op.swap_term_s = extrapolate(reports, SWAP_TARGET, swap_fit=op.fit, shots=SHOTS).swap_term_s

    body = rec.tracer.wrap("bench.op", study) if rec.tracer else study
    op.t0 = time.perf_counter()
    try:
        body()
    except Exception as exc:
        op.error = f"{type(exc).__name__}: {exc}"
    op.t1 = time.perf_counter()
    k = len(rec.ops) - 1
    if k:
        op.graphs = op.graphs[k % SWAP_INSTANCES::SWAP_INSTANCES]


# -- checks -------------------------------------------------------------------


def op_nominal(spec: LoopSpec | None, op: Op) -> dict:
    if spec is None or op.job is None:
        return dict.fromkeys(refcheck.PHASES, 0.0)
    schedule_s, sizes, modules = op.job
    return refcheck.nominal_phases(spec.profile, spec.prepare, schedule_s, sizes, modules)


def check_loop(spec: LoopSpec, rec: Recorder) -> tuple[list[str], list[str], list[str], str]:
    """Ops that raised, ops whose output is wrong, run-level problems, and a
    one-line summary."""
    n = spec.qubits
    cuts: dict = {}

    def cut_of(g):
        if g.edges not in cuts:
            cuts[g.edges] = refcheck.cut_vector(n, g.edges)
        return cuts[g.edges]

    errors, wrong = [], []
    for i, op in enumerate(rec.ops):
        if op.error:
            errors.append(f"op {i}: {op.error}")
            continue
        why = []
        if not refcheck.objective_in_noise(n, cut_of(op.graph), op.params, op.value, SHOTS):
            why.append(f"objective {op.value} outside {refcheck.SIGMAS} sigma")
        shots, lengths = op.bits
        if shots != SHOTS or any(lengths.get(q) != SHOTS for q in range(n)):
            why.append(f"retrieve returned {shots} shots, lengths {sorted(set(lengths.values()))}")
        below = refcheck.phases_below_nominal(op.timings, op_nominal(spec, op))
        if below:
            why.append(f"below nominal: {below}")
        if why:
            wrong.append(f"op {i}: " + "; ".join(why))

    problems = []
    reached = 0
    for r, (g, outcome) in enumerate(rec.rounds):
        if isinstance(outcome, str) or outcome.error:
            problems.append(f"run {r} failed: {outcome if isinstance(outcome, str) else outcome.error}")
            continue
        cut = cut_of(g)
        max_cut = int(cut.max())
        if outcome.best_observed_cut > max_cut:
            problems.append(f"run {r}: observed cut {outcome.best_observed_cut} > max cut {max_cut}")
        best_mean, _ = refcheck.cut_moments(n, cut, outcome.best_params)
        if best_mean <= len(g.edges) / 2:
            problems.append(f"run {r}: best expected cut {best_mean:.3f} <= |E|/2")
        reached += outcome.best_observed_cut == max_cut
    summary = f"{reached}/{len(rec.rounds)} optimizer runs observed the maximum cut"
    return errors, wrong, problems, summary


def check_swap(rec: Recorder) -> tuple[list[str], list[str], list[str], str]:
    t_2q = TimingModel().gate_2q
    errors, wrong = [], []
    for k, op in enumerate(rec.ops):
        if op.error:
            errors.append(f"study {k}: {op.error}")
            continue
        why = []
        ns = [pt[0] for pt in op.fit.points]
        means = [pt[1] for pt in op.fit.points]
        a, b = refcheck.power_law(ns, means)
        lo, hi = refcheck.EXPONENT_BAND
        if tuple(ns) != SWAP_SIZES:
            why.append(f"sizes {ns}")
        if not lo <= b <= hi:
            why.append(f"exponent {b:.4f} outside [{lo}, {hi}]")
        if not (math.isclose(a, op.fit.a, rel_tol=1e-9) and math.isclose(b, op.fit.b, rel_tol=1e-9)):
            why.append(f"fit ({op.fit.a}, {op.fit.b}) != reference ({a}, {b})")
        term = SHOTS * a * SWAP_TARGET ** b * 3 * t_2q
        if not math.isclose(op.swap_term_s, term, rel_tol=1e-9):
            why.append(f"swap term {op.swap_term_s} != {term}")
        swaps = defaultdict(list)
        for g in op.graphs:
            circuit = build_qaoa(g, STUDY_ANGLES)
            routed = route(circuit, grid_layout(g.n))
            why += refcheck.route_problems(circuit, routed.circuit, routed.swap_count, g.n)
            swaps[g.n].append(routed.swap_count)
        if k == 0:
            for n, mean, _ in op.fit.points:
                if len(swaps[n]) != SWAP_INSTANCES or not math.isclose(np.mean(swaps[n]), mean):
                    why.append(f"re-routed mean swaps at n={n} differ from the study's {mean}")
        if why:
            wrong.append(f"study {k}: " + "; ".join(why))
    return errors, wrong, [], f"{len(rec.ops)} studies checked"


# -- metrics ------------------------------------------------------------------


def end_to_end(rec: Recorder, window_s: float, cpu_s: float) -> dict:
    walls = [op.t1 - op.t0 for op in rec.ops if op.error is None]
    return {
        "ops_per_s": len(rec.ops) / window_s,
        "op_ms_p50": statistics.median(walls) * 1e3,
        "op_ms_p90": float(np.quantile(walls, 0.9)) * 1e3,
        "cpu_ms_per_op": cpu_s / len(rec.ops) * 1e3,
    }


PER_LAYER_UNITS = {
    "statevector.simulate_ms": "ms",
    "statevector.sample_ms": "ms",
    "problem.score_ms": "ms",
    "problem.cut_value_calls": "count",
    "problem.generate_ms": "ms",
    "circuit.build_ms": "ms",
    "circuit.simplify_ms": "ms",
    "compiler.compile_ms": "ms",
    "compiler.job_kb": "kB",
    "client.stop_ms": "ms",
    "client.prepare_ms": "ms",
    "client.start_ms": "ms",
    "client.wait_done_ms": "ms",
    "client.retrieve_ms": "ms",
    "client.requests": "count",
    "client.rtt_ms_p50": "ms",
    "client.status_polls": "count",
    "client.prepare_over_ms": "ms",
    "client.wait_done_over_ms": "ms",
    "client.retrieve_over_ms": "ms",
    "client.instrument_over_ms": "ms",
    "harness.overhead_ms_p50": "ms",
    "cluster.handler_ms": "ms",
    "wire.transport_ms": "ms",
    "wire.kb_sent": "kB",
    "wire.kb_received": "kB",
    "optimizer.step_ms": "ms",
    "profiler.record_ms": "ms",
    "harness.unattributed_ms": "ms",
    "router.route_ms": "ms",
    "router.swaps": "count",
    "trace.ops_per_s": "1/s",
}


def per_layer(tracer: Tracer, counts: LayerCounts, rec: Recorder, spec: LoopSpec | None,
              window_s: float, trace_path: str) -> dict:
    """Per-op layer figures from the traced run (per instance for routing and
    generation, per request for the RTT)."""
    self_times = tracer.self_times()
    tracer.write_chrome(trace_path, self_times)
    total = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    for sid, name, t0, t1, parent, _, label in tracer.spans:
        key = f"{name}:{label}" if name == "client.request" and label == "status" else name
        total[key] += t1 - t0
        calls[key] += 1
        durations[name].append(t1 - t0)
    requests = calls["client.request"] + calls["client.request:status"]
    request_s = total["client.request"] + total["client.request:status"]
    n = len(rec.ops)
    nominal = defaultdict(float)
    for op in rec.ops:
        for phase, s in op_nominal(spec, op).items():
            nominal[phase] += s
    instrument_nominal = sum(nominal.values())
    job_bytes = sum(sum(op.job[1]) for op in rec.ops if op.job)

    def per_op_ms(*names):
        return sum(total[x] for x in names) / n * 1e3

    def self_ms(name):
        return sum(self_times[s[0]] for s in tracer.spans if s[1] == name) / n * 1e3

    def per_call_ms(name):
        return total[name] / calls[name] * 1e3 if calls[name] else 0.0

    values = {
        "statevector.simulate_ms": per_op_ms("statevector.simulate"),
        "statevector.sample_ms": per_op_ms("statevector.sample"),
        "problem.score_ms": per_op_ms("optimizer.qaoa_objective") + counts.scan_s / n * 1e3,
        "problem.cut_value_calls": counts.cut_calls / n,
        "problem.generate_ms": per_call_ms("problem.generate_instance"),
        "circuit.build_ms": per_op_ms("circuit.build_qaoa"),
        "circuit.simplify_ms": per_op_ms("circuit.simplify"),
        "compiler.compile_ms": per_op_ms("compiler.compile"),
        "compiler.job_kb": job_bytes / n / 1e3,
        "client.stop_ms": per_op_ms("client.stop"),
        "client.prepare_ms": per_op_ms("client.prepare"),
        "client.start_ms": per_op_ms("client.start"),
        "client.wait_done_ms": per_op_ms("client.wait_done"),
        "client.retrieve_ms": per_op_ms("client.retrieve_all"),
        "client.requests": requests / n,
        "client.rtt_ms_p50": statistics.median(durations["client.request"]) * 1e3 if requests else 0.0,
        "client.status_polls": calls["client.request:status"] / n,
        "client.prepare_over_ms": (total["client.prepare"] - nominal["prepare"]) / n * 1e3,
        "client.wait_done_over_ms": (total["client.wait_done"] - nominal["wait_done"]) / n * 1e3,
        "client.retrieve_over_ms": (total["client.retrieve_all"] - nominal["retrieve"]) / n * 1e3,
        "client.instrument_over_ms": (total["client.run_iteration"] - instrument_nominal) / n * 1e3,
        "harness.overhead_ms_p50": statistics.median(
            [op.t1 - op.t0 - sum(op_nominal(spec, op).values()) for op in rec.ops if op.error is None]
        ) * 1e3,
        "cluster.handler_ms": per_op_ms("cluster.dispatch"),
        "wire.transport_ms": (request_s - total["cluster.dispatch"]) / n * 1e3,
        "wire.kb_sent": tracer.bytes["sent"] / n / 1e3,
        "wire.kb_received": tracer.bytes["received"] / n / 1e3,
        "optimizer.step_ms": self_ms("optimizer.minimize"),
        "profiler.record_ms": per_op_ms("profiler.record_iteration"),
        "harness.unattributed_ms": self_ms("bench.op") - counts.scan_s / n * 1e3,
        "router.route_ms": per_call_ms("router.route"),
        "router.swaps": counts.swaps / counts.routes if counts.routes else 0.0,
        "trace.ops_per_s": n / window_s,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}


# -- entry point --------------------------------------------------------------


def run(workload: str, seed: int, seconds: float, trace: bool, import_s: float,
        out_dir: str, min_ops: int = MIN_OPS) -> dict:
    """Set up, run the timed window, check, and return the result object."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    spec = LOOPS.get(workload)

    setup_times = []
    reports = None
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        setup_seed = mix_seed(seed, rep, _TAG_SETUP)
        if spec:
            loop_setup(spec, setup_seed)
        else:
            reports = swap_setup(setup_seed)
        setup_times.append(time.perf_counter() - t0)

    patcher = Patcher()
    tracer = Tracer() if trace else None
    counts = LayerCounts()
    rec = Recorder(patcher, tracer)
    if tracer:
        install_tracing(patcher, tracer, counts)
    try:
        c0 = time.process_time()
        t0 = time.perf_counter()
        k = 0
        while True:
            if spec:
                loop_round(spec, rec, mix_seed(seed, k, _TAG_ROUND))
            else:
                swap_op(rec, mix_seed(seed, k, _TAG_STUDY), reports)
            k += 1
            window_s = time.perf_counter() - t0
            if window_s >= seconds and len(rec.ops) >= min_ops:
                break
        cpu_s = time.process_time() - c0
    finally:
        patcher.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    errors, wrong, problems, summary = check_loop(spec, rec) if spec else check_swap(rec)
    print(f"{workload} seed {seed}: {len(rec.ops)} ops in {k} rounds over {window_s:.2f} s; "
          f"{summary}; {len(errors)} ops raised, {len(wrong)} ops wrong", file=sys.stderr)
    for line in errors[:5] + wrong[:5] + problems[:5]:
        print(f"  {line}", file=sys.stderr)

    if tracer:
        os.makedirs(out_dir, exist_ok=True)
        trace_path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
        metrics = per_layer(tracer, counts, rec, spec, window_s, trace_path)
        print(f"  trace: {trace_path} ({len(tracer.spans)} spans)", file=sys.stderr)
    else:
        values = end_to_end(rec, window_s, cpu_s)
        values["setup_s"] = import_s + statistics.median(setup_times)
        values["peak_rss_mb"] = peak_rss_mb
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    return {
        "correct": not problems and not wrong,
        "attempted": len(rec.ops),
        "failed": len(errors) + len(wrong),
        "metrics": metrics,
    }
