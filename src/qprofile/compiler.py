"""Compilation of circuits into per-sequencer assembly program files.

Each qubit gets one control program and, if measured, one readout program.
A program file is UTF-8 text with two sections:

    # waveforms
    {"h_i": [40 floats], "h_q": [...], ...}
    # schedule
    move R0,<shots>
    shot:
    wait <ns>
    ...
    loop shot,R0
    stop

Instruction set (one per line, every timed op advances the cursor):

    move R<k>,<imm>       load an immediate into a register
    <label>:              branch target
    wait <ns>             idle for <ns> nanoseconds
    play <wf_i>,<wf_q>,<ns>   drive a pulse from two named envelopes
    acquire <bin>,<ns>    integrate the readout signal into a bin
    set_phase <deg>       rotate the carrier frame (zero duration)
    loop <label>,R<k>     decrement register, branch back while nonzero
    stop                  halt the sequencer

Rotations are realized as a frame set followed by a fixed calibrated pulse
(RX) or by the frame set alone (RZ). Two-qubit gates are timed on both
participants but have no dedicated pulse program. Reset is a fixed wait at
the top of every shot. Identical inputs compile to byte-identical files.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .circuit import Circuit, schedule_moments
from .timing import DEFAULT_TIMING, TimingModel

ENVELOPE_SAMPLES = 40
# Qubit q runs on sequencer q % 6 of control module cm{q // 6} and, if
# measured, of readout module rm{q // 6}.
SEQUENCERS_PER_MODULE = 6
_MODULE_PREFIX = {"control": "cm", "readout": "rm"}

_WAVEFORM_HEADER = "# waveforms"
_SCHEDULE_HEADER = "# schedule"


class CompileError(ValueError):
    """Raised for inputs the compiler cannot lower."""


def _gaussian(samples: int, amplitude: float) -> list[float]:
    sigma = samples / 6.0
    mid = (samples - 1) / 2.0
    return [
        round(amplitude * math.exp(-0.5 * ((i - mid) / sigma) ** 2), 6)
        for i in range(samples)
    ]


def _gaussian_derivative(samples: int, amplitude: float) -> list[float]:
    sigma = samples / 6.0
    mid = (samples - 1) / 2.0
    return [
        round(
            amplitude * (-(i - mid) / sigma) * math.exp(-0.5 * ((i - mid) / sigma) ** 2),
            6,
        )
        for i in range(samples)
    ]


# Calibrated envelope pairs per pulse kind.
_ENVELOPES: dict[str, list[float]] = {
    "h_i": _gaussian(ENVELOPE_SAMPLES, 0.5),
    "h_q": _gaussian_derivative(ENVELOPE_SAMPLES, 0.1),
    "rx_i": _gaussian(ENVELOPE_SAMPLES, 1.0),
    "rx_q": _gaussian_derivative(ENVELOPE_SAMPLES, 0.2),
    "ro_i": _gaussian(ENVELOPE_SAMPLES, 0.8),
    "ro_q": _gaussian(ENVELOPE_SAMPLES, 0.8),
}


@dataclass(frozen=True)
class ProgramFile:
    qubit: int
    role: str  # "control" or "readout"
    module: str
    sequencer: int
    text: str

    def size_bytes(self) -> int:
        return len(self.text.encode("utf-8"))


@dataclass(frozen=True)
class CompiledJob:
    n: int
    shots: int
    reset: str
    circuit_seconds: float
    schedule_seconds: float
    files: tuple[ProgramFile, ...]

    @property
    def control_programs(self) -> dict[int, str]:
        return {f.qubit: f.text for f in self.files if f.role == "control"}

    @property
    def readout_programs(self) -> dict[int, str]:
        return {f.qubit: f.text for f in self.files if f.role == "readout"}

    def readout_modules(self) -> tuple[str, ...]:
        return tuple(sorted({f.module for f in self.files if f.role == "readout"}))


@dataclass(frozen=True)
class JobSizeReport:
    total_bytes: int
    waveform_bytes: int
    schedule_bytes: int


def _ns(seconds: float) -> int:
    return int(round(seconds * 1e9))


def _fmt_deg(theta: float) -> str:
    return f"{math.degrees(theta):.4f}"


class _OpWriter:
    """Accumulates schedule lines, merging consecutive waits."""

    def __init__(self):
        self.lines: list[str] = []
        self._pending_wait = 0

    def wait(self, ns: int):
        if ns > 0:
            self._pending_wait += ns

    def _flush(self):
        if self._pending_wait > 0:
            self.lines.append(f"wait {self._pending_wait}")
            self._pending_wait = 0

    def emit(self, line: str):
        self._flush()
        self.lines.append(line)

    def done(self) -> list[str]:
        self._flush()
        return self.lines


def _qubit_timeline(
    writer: _OpWriter,
    q: int,
    role: str,
    moments,
    t: TimingModel,
    used: set[str],
):
    for dur, gates in moments:
        dur_ns = _ns(dur)
        mine = next((g for g in gates if q in g.qubits), None)
        if mine is None or role == "control" and mine.kind == "MEASURE":
            writer.wait(dur_ns)
            continue
        if role == "readout":
            if mine.kind == "MEASURE":
                used.update(("ro_i", "ro_q"))
                writer.emit(f"acquire 0,{_ns(t.measurement)}")
                writer.wait(dur_ns - _ns(t.measurement))
            else:
                writer.wait(dur_ns)
            continue
        if mine.kind == "H":
            used.update(("h_i", "h_q"))
            writer.emit(f"play h_i,h_q,{_ns(t.gate_1q)}")
            writer.wait(dur_ns - _ns(t.gate_1q))
        elif mine.kind == "RX":
            used.update(("rx_i", "rx_q"))
            writer.emit(f"set_phase {_fmt_deg(mine.theta)}")
            writer.emit(f"play rx_i,rx_q,{_ns(t.gate_1q)}")
            writer.wait(dur_ns - _ns(t.gate_1q))
        elif mine.kind == "RZ":
            writer.emit(f"set_phase {_fmt_deg(mine.theta)}")
            writer.wait(dur_ns)
        else:  # CNOT participation: timed, no pulse on this sequencer
            writer.wait(dur_ns)


def _render_program(
    q: int, role: str, moments, shots: int, reset_ns: int, t: TimingModel
) -> str:
    used: set[str] = set()
    writer = _OpWriter()
    writer.wait(reset_ns)
    _qubit_timeline(writer, q, role, moments, t, used)
    body = writer.done()
    table = {name: _ENVELOPES[name] for name in sorted(used)}
    lines = [
        _WAVEFORM_HEADER,
        json.dumps(table, sort_keys=True, separators=(",", ":")),
        _SCHEDULE_HEADER,
        f"move R0,{shots}",
        "shot:",
        *body,
        "loop shot,R0",
        "stop",
    ]
    return "\n".join(lines) + "\n"


def compile(c: Circuit, shots: int, reset: str) -> CompiledJob:
    """Lower a circuit to one control program per qubit and one readout
    program per measured qubit, placed as SEQUENCERS_PER_MODULE describes.
    Raises CompileError on zero shots, ValueError on unknown reset modes."""
    t = DEFAULT_TIMING
    if shots <= 0:
        raise CompileError(f"shots must be positive, got {shots}")
    reset_s = t.reset_duration(reset)  # raises on unknown mode

    moments = schedule_moments(c, t)
    circuit_s = sum(d for d, _ in moments)
    reset_ns = _ns(reset_s)
    measured = set(c.measured_qubits())

    files: list[ProgramFile] = []
    for q in range(c.n):
        module_index, seq = divmod(q, SEQUENCERS_PER_MODULE)
        roles = ["control"] + (["readout"] if q in measured else [])
        for role in roles:
            text = _render_program(q, role, moments, shots, reset_ns, t)
            module = f"{_MODULE_PREFIX[role]}{module_index}"
            files.append(
                ProgramFile(qubit=q, role=role, module=module, sequencer=seq, text=text)
            )

    return CompiledJob(
        n=c.n,
        shots=shots,
        reset=reset,
        circuit_seconds=circuit_s,
        schedule_seconds=shots * (reset_s + circuit_s),
        files=tuple(files),
    )


def measure_job_size(job: CompiledJob) -> JobSizeReport:
    """Split the job's program bytes into waveform bytes vs schedule bytes."""
    total = wf = 0
    for f in job.files:
        total += f.size_bytes()
        wf += len(f.text[: f.text.index(_SCHEDULE_HEADER)].encode("utf-8"))
    return JobSizeReport(total_bytes=total, waveform_bytes=wf, schedule_bytes=total - wf)
