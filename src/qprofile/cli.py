"""Command line entry points.

Exit codes: 0 success, 2 bad arguments or configuration, 3 runtime or
transport failure, 4 latency self-check failed (run --check only).
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import json
import os
import sys

from .client import ProtocolError, TransportError
from .cluster import INSTRUMENT_PHASES, LatencyProfile, Topology, load_cluster_config, serve
from .harness import (
    PREPARE_MODES,
    RESET_MODES,
    TIMING_MODES,
    BenchmarkConfig,
    BenchmarkError,
    BenchmarkResult,
    load_reports,
    run_benchmark,
    write_outputs,
)
from .profiler import extrapolate, shared_meta
from .router import PowerLawFit, run_swap_study
from .statevector import MAX_SIM_QUBITS

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3
EXIT_CHECK = 4

# acceptable relative drift of measured instrument phases from profile nominals
CHECK_TOLERANCE = 0.10


def parse_qubits(text: str) -> tuple[int, ...]:
    """Parse "4", "4,6,8", "4..14" (inclusive, step 2), or "4..15..3"."""
    out: list[int] = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ".." in item:
            parts = item.split("..")
            if len(parts) not in (2, 3):
                raise ValueError(f"bad qubit range {item!r}")
            lo, hi = int(parts[0]), int(parts[1])
            step = int(parts[2]) if len(parts) == 3 else 2
            if step < 1 or hi < lo:
                raise ValueError(f"bad qubit range {item!r}")
            out.extend(range(lo, hi + 1, step))
        else:
            out.append(int(item))
    if not out:
        raise ValueError(f"no qubit counts in {text!r}")
    return tuple(out)


def parse_host_port(text: str, option: str, lowest_port: int = 1) -> tuple[str, int]:
    """Split "host:port". Raises ValueError naming option unless the host is
    non-empty and the port is a decimal in lowest_port..65535."""
    host, sep, port_text = text.rpartition(":")
    if not sep or not host or not port_text.isdigit() or not lowest_port <= int(port_text) <= 65535:
        raise ValueError(f"{option} must be host:port (port {lowest_port}..65535), got {text!r}")
    return host, int(port_text)


def parse_cluster(text: str) -> tuple[str | None, int | None]:
    """"embedded" -> in-process service; "host:port" -> external endpoint."""
    return (None, None) if text == "embedded" else parse_host_port(text, "--cluster")


def _load_profile(path: str | None, dilation: float | None) -> tuple[LatencyProfile, str]:
    profile = load_cluster_config(path) if path else LatencyProfile()
    if dilation is not None:  # --dilation overrides the profile's
        profile = dataclasses.replace(profile, dilation=dilation)
    return profile, os.path.basename(path) if path else "default"


def _check_latencies(result: BenchmarkResult) -> list[str]:
    """Compare each instrument phase's mean with its mean in the cell's
    nominal report (the profile's latencies for the jobs the cell ran)."""
    failures = []
    for n, cell in result.cells.items():
        for phase in INSTRUMENT_PHASES:
            nominal = cell.nominal.phase_mean(phase)
            if nominal <= 0:
                continue
            measured = cell.report.phase_mean(phase)
            drift = abs(measured - nominal) / nominal
            if drift > CHECK_TOLERANCE:
                failures.append(
                    f"{n}q {phase}: measured {measured:.2f} ms vs nominal "
                    f"{nominal:.2f} ms ({drift:.1%} drift)"
                )
    return failures


def _cmd_run(args) -> int:
    profile, profile_name = _load_profile(args.profile, args.dilation)
    host, port = parse_cluster(args.cluster)
    config = BenchmarkConfig(
        qubits=parse_qubits(args.qubits),
        shots=args.shots,
        runs=args.runs,
        reset=args.reset,
        prepare=args.prepare,
        dilation=profile.dilation,
        seed=args.seed,
        p=args.p,
        timing_mode=args.timing_mode,
        profile=profile,
        profile_name=profile_name,
        host=host,
        port=port,
    )
    result = run_benchmark(config)
    for n in config.qubits:
        print(f"== {n} qubits ==")
        print(result.report(n).to_csv(), end="")
    if args.out:
        write_outputs(result, args.out)
        print(f"reports written to {args.out}")
    if args.check:
        failures = _check_latencies(result)
        if failures:
            for line in failures:
                print(f"CHECK FAIL {line}", file=sys.stderr)
            return EXIT_CHECK
        print("latency check passed")
    return EXIT_OK


def _cmd_serve(args) -> int:
    host, port = parse_host_port(args.bind, "--bind", lowest_port=0)
    profile, _ = _load_profile(args.profile, args.dilation)
    # every placement of every qubit count run accepts
    serve(host, port, profile, Topology.for_qubits(MAX_SIM_QUBITS))
    return EXIT_OK


def _cmd_swaps(args) -> int:
    fit = run_swap_study(
        ns=parse_qubits(args.qubits),
        instances_per_n=args.instances,
        seed=args.seed,
        p=args.p,
    )
    print(json.dumps({"a": fit.a, "b": fit.b, "residual": fit.residual}, sort_keys=True))
    for n, mean, std in fit.points:
        print(f"n={n:3d} swaps mean={mean:9.2f} std={std:7.2f}")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(fit.to_csv())
        print(f"study written to {args.out}")
    return EXIT_OK


def _cmd_extrapolate(args) -> int:
    reports = load_reports(args.in_dir)
    p = shared_meta(reports, "p")  # one workload, which the default study routes
    if args.swap_fit:  # a saved study carries no p
        with open(args.swap_fit) as fh:
            try:
                swap_fit = PowerLawFit.from_csv(fh.read())
            except ValueError as exc:
                raise ValueError(f"{args.swap_fit}: {exc}") from exc
    else:
        swap_fit = None if args.no_swap else run_swap_study(p=p)
    table = extrapolate(reports, args.target, swap_fit=swap_fit)
    if table.interpolation:
        print(f"note: target {table.target_n} lies inside the measured range")
    print(table.to_csv(), end="")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(table.to_csv())
        print(f"table written to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qprofile",
        description="Phase-resolved profiling of a variational workload "
        "against a virtual control cluster.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    config = BenchmarkConfig()
    study = {k: v.default for k, v in inspect.signature(run_swap_study).parameters.items()}

    run = sub.add_parser("run", help="run the benchmark and print phase reports")
    run.add_argument(
        "--qubits", default=",".join(map(str, config.qubits)), help='e.g. "4", "4,6", "4..14"'
    )
    run.add_argument("--shots", type=int, default=config.shots)
    run.add_argument("--runs", type=int, default=config.runs)
    run.add_argument("--reset", choices=RESET_MODES, default=config.reset)
    run.add_argument("--prepare", choices=PREPARE_MODES, default=config.prepare)
    run.add_argument("--dilation", type=float, help="schedule dilation (default: the profile's)")
    run.add_argument("--seed", type=int, default=config.seed)
    run.add_argument("--p", type=int, default=config.p, help="ansatz layer count")
    run.add_argument("--timing-mode", choices=TIMING_MODES, default=config.timing_mode)
    run.add_argument("--profile", help="cluster config JSON (latency profile)")
    run.add_argument(
        "--cluster", default="embedded", help='"embedded" (default) or host:port'
    )
    run.add_argument("--out", help="directory for reports, records, and summary")
    run.add_argument(
        "--check",
        action="store_true",
        help=f"exit 4 if the mean of any of {', '.join(INSTRUMENT_PHASES)} drifts "
        f">{CHECK_TOLERANCE:.0%}% from its profile nominal",
    )
    run.set_defaults(func=_cmd_run)

    srv = sub.add_parser("serve", help="run a virtual cluster service")
    srv.add_argument("--bind", default="127.0.0.1:7780", help="host:port, port 0 for ephemeral")
    srv.add_argument("--profile", help="cluster config JSON (latency profile)")
    srv.add_argument("--dilation", type=float, help="schedule dilation (default: the profile's)")
    srv.set_defaults(func=_cmd_serve)

    sw = sub.add_parser("swaps", help="measure routed-SWAP scaling and fit a power law")
    sw.add_argument(
        "--qubits",
        default=",".join(map(str, study["ns"])),
        help="qubit counts to route (default: %(default)s)",
    )
    sw.add_argument(
        "--instances", type=int, default=study["instances_per_n"], help="instances per size"
    )
    sw.add_argument("--seed", type=int, default=study["seed"])
    sw.add_argument("--p", type=int, default=study["p"])
    sw.add_argument("--out", help="write the study as CSV")
    sw.set_defaults(func=_cmd_swaps)

    ex = sub.add_parser("extrapolate", help="extrapolate phase runtimes to a target size")
    ex.add_argument("--in", dest="in_dir", required=True, help="directory with report_<n>q.json")
    ex.add_argument("--target", type=int, required=True)
    ex.add_argument("--swap-fit", help="swaps --out CSV (default: a study at the reports' p)")
    ex.add_argument("--no-swap", action="store_true", help="skip the SWAP schedule term")
    ex.add_argument("--out", help="write the table as CSV")
    ex.set_defaults(func=_cmd_extrapolate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (BenchmarkError, TransportError, ProtocolError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
