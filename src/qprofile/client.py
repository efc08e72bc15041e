"""Host-side driver for the cluster service.

Runs the per-iteration command sequence stop -> prepare -> start ->
wait-done -> retrieve -> stop against one cluster. The clock is read once at
each phase boundary, so the six phases are contiguous and sum to the
iteration's measured wall time. Program uploads go either sequentially over
the main connection or in parallel with one connection per program file
(connections are reused across iterations). Parallel uploads are all sent
from the calling thread, one frame on each stream, before any reply is read:
the cluster serves each stream on its own handler thread, so the uploads
overlap there, and the client uses no worker threads. The start reply
announces, in done_in_s, how long the schedule has left to run; wait-done
sleeps that long and then confirms with status, which normally takes one
request.
"""

from __future__ import annotations

import json
import math
import socket
import time
from dataclasses import dataclass

from . import wire
from .compiler import CompiledJob, ProgramFile

POLL_INTERVAL_S = 0.001
CONNECT_TIMEOUT_S = 10.0
# wait_done gives up this long after the announced done time
WAIT_TIMEOUT_S = 120.0


class TransportError(Exception):
    """Connection-level failure (refused, closed, timed out)."""


class ProtocolError(Exception):
    """Server replied ok=false."""

    def __init__(self, code: str, msg: str):
        super().__init__(f"{code}: {msg}")
        self.code = code
        self.msg = msg


@dataclass(frozen=True)
class AcquisitionData:
    """Acquisition payloads exactly as retrieved, merged across modules."""

    shots: int
    bits: dict[int, tuple[int, ...]]
    raw: dict[int, tuple[float, ...]]
    replies: tuple[dict, ...]  # verbatim per-module reply objects


@dataclass(frozen=True)
class IterationTimings:
    """Wall durations of one iteration's six contiguous phases, in seconds.

    wall_total_s is the sum of the six phases: the iteration's measured wall
    time, from before the first stop to after the final stop.
    """

    stop_s: float
    prepare_s: float
    start_s: float
    wait_done_wall_s: float
    retrieve_s: float
    final_stop_s: float
    wall_total_s: float
    schedule_nominal_s: float
    prepare_mode: str
    reset_mode: str


class ClusterConnection:
    """One framed TCP connection."""

    def __init__(self, host: str, port: int):
        try:
            self._sock = socket.create_connection((host, port), timeout=CONNECT_TIMEOUT_S)
        except OSError as exc:
            raise TransportError(f"cannot connect to {host}:{port}: {exc}") from exc
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock.settimeout(300.0)

    def request(self, obj: dict) -> dict:
        self.send(obj)
        return self.receive(obj.get("cmd"))

    def send(self, obj: dict) -> None:
        try:
            wire.send_frame(self._sock, obj)
        except (OSError, wire.FrameError) as exc:
            raise TransportError(f"transport failure during {obj.get('cmd')}: {exc}") from exc

    def receive(self, cmd: str) -> dict:
        """Read the reply to the cmd request sent last on this connection."""
        try:
            reply = wire.recv_frame(self._sock)
        except (OSError, wire.FrameError) as exc:
            raise TransportError(f"transport failure during {cmd}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise TransportError(f"undecodable reply to {cmd}") from exc
        if reply is None:
            raise TransportError(f"connection closed during {cmd}")
        if not reply.get("ok", False):
            raise ProtocolError(reply.get("error", "unknown"), reply.get("msg", ""))
        return reply

    def close(self):
        try:
            self._sock.close()
        except OSError:
            pass


def _done_in_s(reply: dict) -> float:
    """The start reply's done_in_s. Raises TransportError unless it is a
    finite non-negative number (JSON booleans are not numbers here)."""
    value = reply.get("done_in_s")
    if type(value) not in (int, float) or not 0 <= value < math.inf:
        raise TransportError(f"start reply needs a finite non-negative done_in_s, got {value!r}")
    return float(value)


def _prepare_request(f: ProgramFile, job: CompiledJob) -> dict:
    return {
        "cmd": "prepare",
        "module": f.module,
        "seq": f.sequencer,
        "program": f.text,
        "meta": {
            "qubit": f.qubit,
            "shots": job.shots,
            "schedule_s": job.schedule_seconds,
        },
    }


class ClusterClient:
    """Drives one cluster endpoint through benchmark iterations."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._main = ClusterConnection(host, port)
        self._streams: list[ClusterConnection] = []

    # -- single commands ----------------------------------------------------

    def stop(self) -> dict:
        return self._main.request({"cmd": "stop"})

    def start(self) -> dict:
        return self._main.request({"cmd": "start"})

    def status(self) -> dict:
        return self._main.request({"cmd": "status"})

    def retrieve(self, module: str) -> dict:
        return self._main.request({"cmd": "retrieve", "module": module})

    # -- prepare ------------------------------------------------------------

    def prepare(self, job: CompiledJob, mode: str) -> None:
        """Upload every program file, in turn over the main connection
        (sequential) or all at once over one reused stream per file (parallel).
        A parallel prepare sends every frame before it reads any reply, then
        reads the replies in file order. It stops sending at the first send
        that fails, and raises the first error it meets only once every
        stream it sent on has replied: no upload may arm a sequencer after a
        failure is raised. A stream that fails at the transport level is
        closed and dropped, so the next parallel prepare opens a fresh one;
        a stream whose reply is a protocol error stays open."""
        if mode == "sequential":
            for f in job.files:
                self._main.request(_prepare_request(f, job))
            return
        if mode != "parallel":
            raise ValueError(f"unknown prepare mode {mode!r}")
        while len(self._streams) < len(job.files):
            self._streams.append(ClusterConnection(self.host, self.port))
        sent: list[ClusterConnection] = []
        broken: list[ClusterConnection] = []
        error = None
        for conn, f in zip(self._streams, job.files):
            try:
                conn.send(_prepare_request(f, job))
            except TransportError as exc:
                error = exc
                broken.append(conn)
                break
            sent.append(conn)
        for conn in sent:
            try:
                conn.receive("prepare")
            except ProtocolError as exc:
                error = error or exc
            except TransportError as exc:
                error = error or exc
                broken.append(conn)
        for conn in broken:
            conn.close()
            self._streams.remove(conn)
        if error:
            raise error

    # -- full iteration -----------------------------------------------------

    def wait_done(self, done_in_s: float) -> None:
        """Sleep for done_in_s, the time the start reply said the schedule had
        left, then poll status every POLL_INTERVAL_S until the cluster reports
        done. The first status normally finds it done. Gives up WAIT_TIMEOUT_S
        after the announced done time."""
        deadline = time.perf_counter() + done_in_s + WAIT_TIMEOUT_S
        time.sleep(done_in_s)
        while True:
            state = self.status()["state"]
            if state == "done":
                return
            if state in ("idle", "armed"):
                raise ProtocolError("bad_state", f"cluster went {state} while waiting")
            if time.perf_counter() > deadline:
                raise TransportError("timed out waiting for schedule completion")
            time.sleep(POLL_INTERVAL_S)

    def retrieve_all(self, job: CompiledJob) -> AcquisitionData:
        bits: dict[int, tuple[int, ...]] = {}
        raw: dict[int, tuple[float, ...]] = {}
        replies = []
        shots = 0
        for module in job.readout_modules():
            reply = self.retrieve(module)
            replies.append(reply)
            shots = max(shots, int(reply.get("shots", 0)))
            for q_text, values in reply.get("bits", {}).items():
                bits[int(q_text)] = tuple(values)
            for q_text, values in reply.get("raw", {}).items():
                raw[int(q_text)] = tuple(float(v) for v in values)
        return AcquisitionData(shots=shots, bits=bits, raw=raw, replies=tuple(replies))

    def run_iteration(self, job: CompiledJob, prepare_mode: str = "sequential"):
        """One full cycle. Returns (AcquisitionData, IterationTimings).

        Each phase runs from one clock stamp to the next, so a parallel
        prepare includes opening any upload streams it adds.
        """
        try:
            stamps = [time.perf_counter()]
            self.stop()
            stamps.append(time.perf_counter())
            self.prepare(job, prepare_mode)
            stamps.append(time.perf_counter())
            done_in_s = _done_in_s(self.start())
            stamps.append(time.perf_counter())
            self.wait_done(done_in_s)
            stamps.append(time.perf_counter())
            acquisition = self.retrieve_all(job)
            stamps.append(time.perf_counter())
            self.stop()
            stamps.append(time.perf_counter())
        except (TransportError, ProtocolError):
            self._best_effort_stop()
            raise
        phases_s = [b - a for a, b in zip(stamps, stamps[1:])]
        timings = IterationTimings(
            *phases_s, sum(phases_s), job.schedule_seconds, prepare_mode, job.reset
        )
        return acquisition, timings

    # -- lifecycle ----------------------------------------------------------

    def _best_effort_stop(self):
        try:
            self._main.request({"cmd": "stop"})
        except (TransportError, ProtocolError):
            pass

    def close(self):
        for conn in [self._main, *self._streams]:
            conn.close()
        self._streams = []

    def __enter__(self) -> "ClusterClient":
        return self

    def __exit__(self, *exc):
        self.close()
        return False
