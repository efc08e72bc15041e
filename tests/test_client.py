from __future__ import annotations

import socket
import struct
import threading

import pytest

from qprofile import wire
from qprofile.circuit import QaoaParams, build_qaoa
from qprofile.client import ClusterClient, ProtocolError, TransportError
from qprofile.cluster import ClusterService, LatencyProfile, Topology
from qprofile.compiler import compile as compile_job
from qprofile.problem import generate_instance

PARAMS = QaoaParams(p=2, gammas=(0.7, 0.7), betas=(0.4, 0.4))


def _job(n: int, shots: int = 1000):
    return compile_job(build_qaoa(generate_instance(n, 0), PARAMS), shots, "passive")


def test_full_iteration_round_trip(zeroed_service, k4_job):
    _, host, port = zeroed_service
    with ClusterClient(host, port) as client:
        acquisition, timings = client.run_iteration(k4_job)
    assert acquisition.shots == 1000
    assert sorted(acquisition.bits) == [0, 1, 2, 3]
    assert all(len(bits) == 1000 for bits in acquisition.bits.values())
    assert all(len(iq) == 2 for iq in acquisition.raw.values())
    assert timings.schedule_nominal_s == pytest.approx(k4_job.schedule_seconds)
    assert timings.prepare_mode == "sequential"
    assert timings.reset_mode == "passive"
    # a latency-free iteration is dominated by round trips alone
    assert timings.wall_total_s < 0.05


@pytest.mark.parametrize("prepare_mode", ["sequential", "parallel"])
def test_phase_timings_cover_the_wall_clock(zeroed_service, k4_job, prepare_mode):
    _, host, port = zeroed_service
    # a fresh client: the parallel iteration also opens its upload streams
    with ClusterClient(host, port) as client:
        _, t = client.run_iteration(k4_job, prepare_mode=prepare_mode)
    phase_sum = (
        t.stop_s + t.prepare_s + t.start_s + t.wait_done_wall_s + t.retrieve_s + t.final_stop_s
    )
    assert phase_sum == t.wall_total_s  # no hidden gaps between phases


def test_parallel_prepare_round_trip(zeroed_service, k4_job):
    _, host, port = zeroed_service
    with ClusterClient(host, port) as client:
        acquisition, timings = client.run_iteration(k4_job, prepare_mode="parallel")
        assert timings.prepare_mode == "parallel"
        assert sorted(acquisition.bits) == [0, 1, 2, 3]
        # streams are reused across iterations
        acquisition2, _ = client.run_iteration(k4_job, prepare_mode="parallel")
        assert sorted(acquisition2.bits) == [0, 1, 2, 3]


def test_parallel_prepare_arms_every_sequencer_of_a_large_job():
    job = _job(20, shots=10)
    assert len(job.files) == 40
    with ClusterService(LatencyProfile.zeroed(), Topology.for_qubits(20), noise_seed=3) as svc:
        with ClusterClient(*svc.address) as client:
            client.prepare(job, "parallel")
        armed = {key for key, seq in svc.state.seqs.items() if seq.status == "armed"}
    assert armed == {(f.module, f.sequencer) for f in job.files}


def test_multi_module_retrieve(zeroed_service):
    _, host, port = zeroed_service
    job = _job(8, shots=50)
    assert job.readout_modules() == ("rm0", "rm1")
    with ClusterClient(host, port) as client:
        acquisition, _ = client.run_iteration(job)
    assert sorted(acquisition.bits) == list(range(8))
    assert len(acquisition.replies) == 2


def test_unknown_prepare_mode_is_rejected(zeroed_service, k4_job):
    _, host, port = zeroed_service
    with ClusterClient(host, port) as client:
        with pytest.raises(ValueError):
            client.prepare(k4_job, "burst")


def test_protocol_error_on_start_without_arming(zeroed_service):
    _, host, port = zeroed_service
    with ClusterClient(host, port) as client:
        client.stop()
        with pytest.raises(ProtocolError) as err:
            client.start()
        assert err.value.code == "bad_state"


def test_transport_error_on_refused_connection():
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    _, free_port = probe.getsockname()
    probe.close()
    with pytest.raises(TransportError):
        ClusterClient("127.0.0.1", free_port)


def test_undecodable_reply_is_a_transport_error():
    listener = socket.create_server(("127.0.0.1", 0))

    def reply_with_non_utf8():
        conn, _ = listener.accept()
        with conn:
            wire.recv_frame(conn)
            conn.sendall(struct.pack("!I", 3) + b"\xff\xfe\x00")

    server = threading.Thread(target=reply_with_non_utf8, daemon=True)
    server.start()
    try:
        with ClusterClient(*listener.getsockname()) as client:
            with pytest.raises(TransportError):
                client.status()
    finally:
        server.join(timeout=5)
        listener.close()
    assert not server.is_alive()
