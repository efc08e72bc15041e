"""Virtual control-cluster service with configurable command latencies.

Speaks the length-prefixed JSON protocol from `wire`. The cluster is a set
of control and readout modules, each holding six sequencers that step
through idle -> armed -> running -> done -> idle. Command handling sleeps
for configurable durations so host tooling can be profiled against
realistic stack behavior without hardware.

Commands:

    {"cmd": "stop"}
    {"cmd": "prepare", "module": M, "seq": S, "program": <text>,
     "meta": {"qubit": Q, "shots": N, "schedule_s": T}}
    {"cmd": "start"}
    {"cmd": "status"}
    {"cmd": "retrieve", "module": M}

Replies are {"ok": true, ...} or {"ok": false, "error": code, "msg": ...}
with error codes bad_frame, bad_state, unknown_target. A start reply is
{"ok": true, "state": "running", "done_in_s": T}, where T is the time left,
in seconds, until the schedule completes (schedule x dilation plus
done_finalize_ms, counted from when the schedule began running); status
reports done from then on. A prepare with an invalid meta, like a
well-delimited frame that is not UTF-8 JSON or nests too deeply to decode,
gets a bad_frame reply; the sequencer stays idle and the connection stays
open.
"""

from __future__ import annotations

import json
import math
import signal
import socket
import socketserver
import threading
import time
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import wire
from .compiler import _MODULE_PREFIX, SEQUENCERS_PER_MODULE, CompiledJob
from .util import mix_seed

SEQUENCER_STATES = ("idle", "armed", "running", "done")
# the phases of one iteration that the cluster's latencies set, in order
INSTRUMENT_PHASES = ("stop", "prepare", "start", "wait_done", "retrieve", "final_stop")


@dataclass(frozen=True)
class LatencyProfile:
    """Server-side handling delays. Defaults are calibrated to a reference
    rack-mounted cluster reached over gigabit Ethernet.

    The serial prepare component is spent under a cluster-wide lock, the
    concurrent component (plus the per-byte transfer term) outside it.
    dilation scales only the slept schedule execution time; 0 means the
    schedule is accounted nominally but not slept.
    """

    stop_ms: float = 19.5
    start_ms: float = 57.11
    retrieve_ms: float = 58.9
    prepare_serial_ms: float = 6.86
    prepare_concurrent_ms: float = 19.04
    prepare_per_byte_ns: float = 8.0
    done_finalize_ms: float = 56.3
    dilation: float = 1.0

    def __post_init__(self):
        for name, value in asdict(self).items():
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    @classmethod
    def zeroed(cls, dilation: float = 0.0) -> "LatencyProfile":
        return cls(
            stop_ms=0.0,
            start_ms=0.0,
            retrieve_ms=0.0,
            prepare_serial_ms=0.0,
            prepare_concurrent_ms=0.0,
            prepare_per_byte_ns=0.0,
            done_finalize_ms=0.0,
            dilation=dilation,
        )

    def prepare_ms(self, program_bytes: int) -> float:
        return (
            self.prepare_serial_ms
            + self.prepare_concurrent_ms
            + program_bytes * self.prepare_per_byte_ns * 1e-6
        )

    def phase_ms(self, job: CompiledJob, prepare_mode: str) -> dict[str, float]:
        """Nominal instrument time, in ms, of each phase of one iteration of
        job, keyed in iteration order.

        Sequential prepare is the sum of prepare_ms over the job's files.
        Parallel prepare gates only the serial component: files x
        prepare_serial_ms, plus one prepare_concurrent_ms and the largest
        file's per-byte term. retrieve is paid per readout module. wait_done
        follows PhaseRecord: done_finalize_ms, without the slept schedule
        (schedule_seconds x dilation) that the client's wall wait adds.
        """
        sizes = [f.size_bytes() for f in job.files]
        if prepare_mode == "sequential":
            prepare = sum(self.prepare_ms(b) for b in sizes)
        elif prepare_mode == "parallel":
            # prepare_ms of the largest file already holds one serial component
            prepare = (len(sizes) - 1) * self.prepare_serial_ms + self.prepare_ms(max(sizes))
        else:
            raise ValueError(f"unknown prepare mode {prepare_mode!r}")
        retrieve = self.retrieve_ms * len(job.readout_modules())
        ms = (self.stop_ms, prepare, self.start_ms, self.done_finalize_ms, retrieve, self.stop_ms)
        return dict(zip(INSTRUMENT_PHASES, ms, strict=True))


@dataclass(frozen=True)
class Topology:
    """`modules` control modules and as many readout modules, each with
    SEQUENCERS_PER_MODULE slots: compile puts both roles of qubit q on
    module q // SEQUENCERS_PER_MODULE, so one count sizes both."""

    modules: int = 3

    def __post_init__(self):
        if self.modules < 1:
            raise ValueError(f"modules must be positive, got {self.modules}")

    def module_ids(self) -> tuple[str, ...]:
        roles = ("control", "readout")
        return tuple(f"{_MODULE_PREFIX[r]}{i}" for r in roles for i in range(self.modules))

    @classmethod
    def for_qubits(cls, n: int) -> "Topology":
        """The smallest topology holding compile's placement of n qubits."""
        return cls(modules=max(1, -(-n // SEQUENCERS_PER_MODULE)))


def load_cluster_config(path: str) -> LatencyProfile:
    """Read a latency profile, {"latency": {...}}, from a JSON file. Raises
    ValueError naming the key when the file or its latency section is not a
    JSON object, a top-level key is not "latency", a latency key is one
    LatencyProfile lacks, or a latency is not a number (LatencyProfile then
    refuses a negative or non-finite one; JSON booleans are not numbers)."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError(f"{path} must hold a JSON object, got {type(raw).__name__}")
    unknown = sorted(set(raw) - {"latency"})
    if unknown:
        raise ValueError(f"unknown key(s) in {path}: {', '.join(unknown)} (only latency is read)")
    values = raw.get("latency", {})
    if not isinstance(values, dict):
        raise ValueError(f"latency in {path} must be an object, got {values!r}")
    unknown = sorted(set(values) - {f.name for f in fields(LatencyProfile)})
    if unknown:
        raise ValueError(f"unknown latency key(s) in {path}: {', '.join(unknown)}")
    for key, value in values.items():
        if type(value) not in (int, float):
            raise ValueError(f"latency key {key} in {path} must be a number, got {value!r}")
    return LatencyProfile(**values)


class _Sequencer:
    __slots__ = ("status", "meta")

    def __init__(self):
        self.status = "idle"
        self.meta: dict = {}


class ClusterState:
    """Shared sequencer state. All mutation happens under one lock; the
    running -> done edge is evaluated lazily against the run clock."""

    def __init__(self, topology: Topology):
        self.lock = threading.Lock()
        self.prepare_gate = threading.Lock()  # serializes the serial component
        self.seqs: dict[tuple[str, int], _Sequencer] = {}
        for m in topology.module_ids():
            for s in range(SEQUENCERS_PER_MODULE):
                self.seqs[(m, s)] = _Sequencer()
        self.done_at: float | None = None
        self.start_pending = False

    def _refresh_locked(self):
        if self.done_at is not None and time.monotonic() >= self.done_at:
            for seq in self.seqs.values():
                if seq.status == "running":
                    seq.status = "done"

    def phase_locked(self) -> str:
        self._refresh_locked()
        statuses = {s.status for s in self.seqs.values()}
        for phase in ("running", "done", "armed"):
            if phase in statuses:
                return phase
        return "idle"


class ClusterService:
    """Embeddable threaded TCP service around a ClusterState."""

    def __init__(
        self,
        profile: LatencyProfile | None = None,
        topology: Topology | None = None,
        noise_seed: int | None = None,
    ):
        self.profile = profile if profile is not None else LatencyProfile()
        self.topology = topology if topology is not None else Topology()
        self.state = ClusterState(self.topology)
        seed = noise_seed if noise_seed is not None else time.time_ns()
        self._noise = np.random.Generator(np.random.Philox(key=mix_seed(seed, 0xAC)))
        self._server: socketserver.ThreadingTCPServer | None = None
        self._thread: threading.Thread | None = None

    # -- command handlers ---------------------------------------------------

    def handle_stop(self) -> dict:
        time.sleep(self.profile.stop_ms * 1e-3)
        with self.state.lock:
            for seq in self.state.seqs.values():
                seq.status = "idle"
            self.state.done_at = None
            self.state.start_pending = False
        return {"ok": True, "state": "idle"}

    def handle_prepare(self, module: str, seq_id, program, meta) -> dict:
        if not isinstance(module, str) or type(seq_id) is not int:
            return _err("bad_frame", "prepare needs string module and integer seq")
        key = (module, seq_id)
        if key not in self.state.seqs:
            return _err("unknown_target", f"no sequencer {seq_id} on module {module!r}")
        if not isinstance(program, str):
            return _err("bad_frame", "program must be text")
        try:
            program_bytes = len(program.encode("utf-8"))
        except UnicodeEncodeError:  # a lone surrogate escape such as "\ud800"
            return _err("bad_frame", "program is not valid UTF-8 text")
        problem = _meta_problem(meta)
        if problem:
            return _err("bad_frame", problem)

        with self.state.lock:
            seq = self.state.seqs[key]
            if seq.status != "idle":
                return _err("bad_state", f"sequencer {key} is {seq.status}, not idle")

        with self.state.prepare_gate:
            time.sleep(self.profile.prepare_serial_ms * 1e-3)
        time.sleep((self.profile.prepare_ms(program_bytes) - self.profile.prepare_serial_ms) * 1e-3)

        with self.state.lock:
            seq = self.state.seqs[key]
            if seq.status != "idle":
                return _err("bad_state", f"sequencer {key} is {seq.status}, not idle")
            seq.status = "armed"
            seq.meta = dict(meta)
        return {"ok": True}

    def handle_start(self) -> dict:
        with self.state.lock:
            phase = self.state.phase_locked()
            if self.state.start_pending or phase == "running":
                return _err("bad_state", "schedule already running")
            if phase != "armed":
                return _err("bad_state", f"nothing armed to start (cluster {phase})")
            self.state.start_pending = True
        time.sleep(self.profile.start_ms * 1e-3)
        with self.state.lock:
            self.state.start_pending = False
            armed = [s for s in self.state.seqs.values() if s.status == "armed"]
            if not armed:  # a stop raced the start sleep
                return _err("bad_state", "schedule was stopped before start completed")
            schedule_s = max(s.meta["schedule_s"] for s in armed)
            for s in armed:
                s.status = "running"
            done_in_s = schedule_s * self.profile.dilation + self.profile.done_finalize_ms * 1e-3
            self.state.done_at = time.monotonic() + done_in_s
        return {"ok": True, "state": "running", "done_in_s": done_in_s}

    def handle_status(self) -> dict:
        with self.state.lock:
            return {"ok": True, "state": self.state.phase_locked()}

    def handle_retrieve(self, module: str) -> dict:
        if module not in self.topology.module_ids():
            return _err("unknown_target", f"no module {module!r}")
        time.sleep(self.profile.retrieve_ms * 1e-3)
        with self.state.lock:
            phase = self.state.phase_locked()
            if phase != "done":
                return _err("bad_state", f"cluster is {phase}, not done")
            ran = [
                seq.meta
                for key, seq in sorted(self.state.seqs.items())
                if key[0] == module and seq.status == "done"
            ]
            bits: dict[str, list[int]] = {}
            raw: dict[str, list[float]] = {}
            shots = 0
            for meta in ran:  # the state lock also serialises the noise stream
                shots = max(shots, meta["shots"])
                draw = self._noise.integers(0, 2, size=meta["shots"])
                bits[str(meta["qubit"])] = draw.tolist()
                iq = self._noise.normal(0.0, 1.0, size=2)
                raw[str(meta["qubit"])] = [round(float(iq[0]), 6), round(float(iq[1]), 6)]
        return {"ok": True, "shots": shots, "bits": bits, "raw": raw}

    # -- dispatch -----------------------------------------------------------

    def dispatch(self, request) -> dict:
        if not isinstance(request, dict):
            return _err("bad_frame", "request must be a JSON object")
        cmd = request.get("cmd")
        if cmd == "stop":
            return self.handle_stop()
        if cmd == "prepare":
            return self.handle_prepare(
                request.get("module"),
                request.get("seq"),
                request.get("program"),
                request.get("meta"),
            )
        if cmd == "start":
            return self.handle_start()
        if cmd == "status":
            return self.handle_status()
        if cmd == "retrieve":
            return self.handle_retrieve(request.get("module"))
        return _err("bad_frame", f"unknown command {cmd!r}")

    # -- lifecycle ----------------------------------------------------------

    def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        if self._server is not None:
            raise RuntimeError("service already started")
        service = self

        class Handler(socketserver.BaseRequestHandler):
            def handle(self):
                sock = self.request
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                while True:
                    try:
                        request = wire.recv_frame(sock)
                    except json.JSONDecodeError:
                        try:
                            wire.send_frame(sock, _err("bad_frame", "payload is not valid JSON"))
                            continue
                        except OSError:
                            return
                    except (wire.FrameError, OSError):
                        return
                    if request is None:
                        return
                    reply = service.dispatch(request)
                    try:
                        wire.send_frame(sock, reply)
                    except OSError:
                        return

        class Server(socketserver.ThreadingTCPServer):
            allow_reuse_address = True
            daemon_threads = True
            # absorb parallel-prepare connection bursts without SYN drops
            request_queue_size = 128

        self._server = Server((host, port), Handler)
        self._thread = threading.Thread(
            target=self._server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        self._thread.start()
        return self._server.server_address

    @property
    def address(self) -> tuple[str, int]:
        if self._server is None:
            raise RuntimeError("service not started")
        return self._server.server_address

    def shutdown(self):
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
            self._thread = None

    def __enter__(self) -> "ClusterService":
        self.start()
        return self

    def __exit__(self, *exc):
        self.shutdown()
        return False


def _err(code: str, msg: str) -> dict:
    return {"ok": False, "error": code, "msg": msg}


def _meta_problem(meta) -> str | None:
    """Why a prepare's meta cannot drive start and retrieve, or None. The
    type checks are exact, so JSON booleans are not numbers here."""
    if not isinstance(meta, dict):
        return "meta must be an object"
    if type(meta.get("qubit")) is not int:
        return "meta.qubit must be an integer"
    if type(meta.get("shots")) is not int or meta["shots"] < 1:
        return "meta.shots must be a positive integer"
    schedule_s = meta.get("schedule_s")
    if type(schedule_s) not in (int, float) or not 0 <= schedule_s < math.inf:
        return "meta.schedule_s must be a finite non-negative number"
    return None


def serve(host: str, port: int, profile: LatencyProfile, topology: Topology) -> None:
    """Serve a cluster of topology on host:port (port 0: ephemeral) until SIGINT/SIGTERM."""
    stop_event = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):  # before the address line invites a signal
        signal.signal(sig, lambda signum, frame: stop_event.set())
    service = ClusterService(profile, topology)
    host_out, port_out = service.start(host, port)
    print(f"cluster listening on {host_out}:{port_out}", flush=True)
    try:
        while not stop_event.wait(0.2):
            pass
    finally:
        service.shutdown()
        print("cluster stopped", flush=True)
