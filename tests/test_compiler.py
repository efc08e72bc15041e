from __future__ import annotations

import json

import pytest

from qprofile.circuit import QaoaParams, build_qaoa, circuit_duration
from qprofile.cluster import Topology
from qprofile.compiler import CompileError, compile, measure_job_size
from qprofile.problem import generate_instance
from qprofile.timing import DEFAULT_TIMING

PARAMS = QaoaParams(p=2, gammas=(0.7, 0.7), betas=(0.4, 0.4))


def _k4_circuit():
    return build_qaoa(generate_instance(4, 0), PARAMS)


def test_one_control_and_one_readout_file_per_measured_qubit(k4_job):
    assert len(k4_job.files) == 8
    assert sorted(k4_job.control_programs) == [0, 1, 2, 3]
    assert sorted(k4_job.readout_programs) == [0, 1, 2, 3]
    assert k4_job.readout_modules() == ("rm0",)


def test_compilation_is_byte_deterministic():
    a = compile(_k4_circuit(), 1000, "passive")
    b = compile(_k4_circuit(), 1000, "passive")
    assert [f.text for f in a.files] == [f.text for f in b.files]


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
    readout = k4_job.readout_programs[0]
    control = k4_job.control_programs[0]
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
        sequencers = {
            (m, s) for m in topology.module_ids() for s in range(topology.sequencers_per_module)
        }
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
