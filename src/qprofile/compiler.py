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

Compilation walks the ASAP schedule (circuit.schedule_moments) once and
gives each gate, with its start time in whole nanoseconds, to every qubit it
touches. Each program is then written from its own qubit's list alone: a
single wait covers each idle stretch, and consecutive idle moments merge.

Rotations are realized as a frame set followed by a fixed calibrated pulse
(RX) or by the frame set alone (RZ). Two-qubit gates are timed on both
participants but have no dedicated pulse program. Reset is a fixed wait at
the top of every shot. Identical inputs compile to byte-identical files.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

from .circuit import Circuit, Gate, schedule_moments
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


@functools.cache
def _waveform_json(names: frozenset[str]) -> str:
    """The waveform table of the named envelopes as one JSON line. A pure
    function of the constant _ENVELOPES, and only a few name sets occur, so
    each table is rendered once per process."""
    table = {name: _ENVELOPES[name] for name in names}
    return json.dumps(table, sort_keys=True, separators=(",", ":"))


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


def _render_program(
    role: str,
    ops: list[tuple[int, Gate]],
    end_ns: int,
    shots: int,
    reset_ns: int,
    t: TimingModel,
) -> str:
    """Write one program from its qubit's (start_ns, gate) list, in time order:
    a wait for each idle stretch, acquire on a readout sequencer, play and
    set_phase on a control sequencer. end_ns is the circuit's length."""
    pulse_ns = _ns(t.gate_1q)
    acquire_ns = _ns(t.measurement)
    envelopes: set[str] = set()
    body: list[str] = []
    cursor = -reset_ns  # the reset wait opens every shot
    for start_ns, g in ops:
        if role == "readout" and g.kind == "MEASURE":
            steps, names, busy_ns = [f"acquire 0,{acquire_ns}"], ("ro_i", "ro_q"), acquire_ns
        elif role == "readout" or g.kind in ("CNOT", "MEASURE"):
            continue  # timed, but no pulse on this sequencer
        elif g.kind == "H":
            steps, names, busy_ns = [f"play h_i,h_q,{pulse_ns}"], ("h_i", "h_q"), pulse_ns
        elif g.kind == "RX":
            steps = [f"set_phase {_fmt_deg(g.theta)}", f"play rx_i,rx_q,{pulse_ns}"]
            names, busy_ns = ("rx_i", "rx_q"), pulse_ns
        else:  # RZ: a frame change of zero duration
            steps, names, busy_ns = [f"set_phase {_fmt_deg(g.theta)}"], (), 0
        if start_ns > cursor:
            body.append(f"wait {start_ns - cursor}")
        body.extend(steps)
        envelopes.update(names)
        cursor = start_ns + busy_ns
    if end_ns > cursor:
        body.append(f"wait {end_ns - cursor}")
    lines = [
        _WAVEFORM_HEADER,
        _waveform_json(frozenset(envelopes)),
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
    timelines: list[list[tuple[int, Gate]]] = [[] for _ in range(c.n)]
    start_ns = 0  # after the walk, the circuit's length
    for dur, gates in moments:
        for g in gates:
            for q in g.qubits:
                timelines[q].append((start_ns, g))
        start_ns += _ns(dur)
    reset_ns = _ns(reset_s)
    measured = set(c.measured_qubits())

    files: list[ProgramFile] = []
    for q, ops in enumerate(timelines):
        module_index, seq = divmod(q, SEQUENCERS_PER_MODULE)
        roles = ["control"] + (["readout"] if q in measured else [])
        for role in roles:
            text = _render_program(role, ops, start_ns, shots, reset_ns, t)
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
