from __future__ import annotations

import hashlib
import json

import pytest

from qprofile.circuit import (
    Circuit,
    QaoaParams,
    build_qaoa,
    circuit_duration,
    cnot,
    h,
    measure,
    rx,
    rz,
    simplify,
)
from qprofile.cluster import Topology
from qprofile.compiler import SEQUENCERS_PER_MODULE, CompileError, compile, measure_job_size
from qprofile.problem import generate_instance
from qprofile.timing import DEFAULT_TIMING

PARAMS = QaoaParams(p=2, gammas=(0.7, 0.7), betas=(0.4, 0.4))


def _k4_circuit():
    return build_qaoa(generate_instance(4, 0), PARAMS)


def test_one_control_and_one_readout_file_per_measured_qubit(k4_job):
    assert [(f.qubit, f.role) for f in k4_job.files] == [
        (q, role) for q in range(4) for role in ("control", "readout")
    ]
    assert k4_job.readout_modules() == ("rm0",)


def test_compilation_is_byte_deterministic():
    a = compile(_k4_circuit(), 1000, "passive")
    b = compile(_k4_circuit(), 1000, "passive")
    assert [f.text for f in a.files] == [f.text for f in b.files]


RANDOM_PARAMS = QaoaParams(p=3, gammas=(0.31, 1.97, 5.13), betas=(0.23, 2.81, 0.94))
ZERO_PARAMS = QaoaParams(p=1, gammas=(0.0,), betas=(0.0,))

# SHA-256 over each job's circuit and schedule seconds, then every file's
# placement and text, recorded from the reference compiler. A change to the
# program format or to any file's bytes changes its digest.
PINNED_DIGESTS = {
    "k4": "f7cec276e1609e153e67c28962db8d16c2a0379ef4f67c331c593d6c65cc2cdb",
    "k4-active": "9d4278ed93258dc6edafd2a207f3f04f5fa3a75246e22ccc13c2cb214ae25da1",
    "n8-p3-simplified": "e6f3491677184b6d5e83d6d786505cc46b93a7ece96e489285c29eabf1647c66",
    "n13-p3": "10b59bbc92264d3185c5188f37f4aad1f30d69825ebef578bca6fca425506a43",
    "n6-zero-angles": "8c6b31d149b3ea8099be329f6d42a88640eab104faeea08058cd8efa7b784123",
    "hand-built": "dc10c554642ff686d3f18fe32c026cbffc978572a89e53e50d9ed51a22f7b3cb",
}


def _pinned_corpus():
    # hand-built: qubit 1 is driven but unmeasured, 3 is idle, 4 is only measured
    hand_built = Circuit(
        5, (h(0), cnot(0, 1), rx(1.0, 2), rz(0.5, 1), cnot(1, 2), measure(0), measure(2), measure(4))
    )
    return {
        "k4": (_k4_circuit(), 1000, "passive"),
        "k4-active": (_k4_circuit(), 1000, "active"),
        "n8-p3-simplified": (
            simplify(build_qaoa(generate_instance(8, 1), RANDOM_PARAMS)), 500, "passive"
        ),
        "n13-p3": (build_qaoa(generate_instance(13, 2), RANDOM_PARAMS), 200, "active"),
        "n6-zero-angles": (build_qaoa(generate_instance(6, 0), ZERO_PARAMS), 100, "passive"),
        "hand-built": (hand_built, 10, "active"),
    }


def _job_digest(job) -> str:
    digest = hashlib.sha256(f"{job.circuit_seconds!r} {job.schedule_seconds!r}\n".encode())
    for f in job.files:
        digest.update(f"{f.qubit} {f.role} {f.module} {f.sequencer} {len(f.text)}\n".encode())
        digest.update(f.text.encode())
    return digest.hexdigest()


def test_program_bytes_match_the_pinned_digests():
    digests = {
        name: _job_digest(compile(c, shots, reset))
        for name, (c, shots, reset) in _pinned_corpus().items()
    }
    assert digests == PINNED_DIGESTS


def test_program_file_structure(k4_job):
    text = k4_job.files[0].text
    lines = text.splitlines()
    assert lines[0] == "# waveforms"
    json.loads(lines[1])  # waveform table is one JSON object
    assert lines[2] == "# schedule"
    assert lines[3] == "move R0,1000"
    assert lines[4] == "shot:"
    assert lines[-2] == "loop shot,R0"
    assert lines[-1] == "stop"
    assert text.endswith("stop\n")


def test_readout_programs_acquire_and_control_programs_play(k4_job):
    texts = {f.role: f.text for f in k4_job.files if f.qubit == 0}
    readout, control = texts["readout"], texts["control"]
    assert "acquire 0," in readout
    assert "acquire" not in control
    assert "play h_i,h_q," in control


def test_reset_mode_changes_the_schedule_length():
    c = _k4_circuit()
    t = DEFAULT_TIMING
    passive = compile(c, 1000, "passive")
    active = compile(c, 1000, "active")
    assert passive.schedule_seconds == pytest.approx(1000 * (t.passive_reset + passive.circuit_seconds))
    assert active.schedule_seconds == pytest.approx(1000 * (t.active_reset + active.circuit_seconds))
    assert passive.schedule_seconds > active.schedule_seconds
    assert passive.circuit_seconds == pytest.approx(circuit_duration(c, t))


def test_reference_schedule_length(k4_job):
    assert k4_job.schedule_seconds == pytest.approx(0.20382, rel=1e-9)


def test_compile_error_cases():
    c = _k4_circuit()
    with pytest.raises(CompileError):
        compile(c, 0, "passive")
    with pytest.raises(ValueError):
        compile(c, 1000, "warm")


def test_every_program_file_lands_on_a_sequencer_of_the_topology():
    for n in range(2, 25):
        topology = Topology.for_qubits(n)
        sequencers = {(m, s) for m in topology.module_ids() for s in range(SEQUENCERS_PER_MODULE)}
        job = compile(build_qaoa(generate_instance(n, 0), PARAMS), 10, "active")
        placed = [(f.module, f.sequencer) for f in job.files]
        assert len(set(placed)) == len(placed) == 2 * n
        assert set(placed) <= sequencers, n
    files = compile(build_qaoa(generate_instance(8, 0), PARAMS), 10, "active").files
    qubit_6 = {f.role: (f.module, f.sequencer) for f in files if f.qubit == 6}
    assert qubit_6 == {"control": ("cm1", 0), "readout": ("rm1", 0)}


def test_job_size_report_accounts_every_byte(k4_job):
    report = measure_job_size(k4_job)
    assert report.total_bytes == sum(f.size_bytes() for f in k4_job.files)
    assert report.total_bytes == report.waveform_bytes + report.schedule_bytes
    waveform_tables = [f.text.split("# schedule")[0] for f in k4_job.files]
    assert report.waveform_bytes == sum(len(w.encode("utf-8")) for w in waveform_tables)


def test_job_size_grows_with_qubit_count():
    sizes = []
    for n in (4, 8, 12):
        job = compile(build_qaoa(generate_instance(n, 0), PARAMS), 1000, "passive")
        sizes.append(measure_job_size(job).total_bytes)
    assert sizes[0] < sizes[1] < sizes[2]
