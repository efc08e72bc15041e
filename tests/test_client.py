from __future__ import annotations

import dataclasses
import json
import socket
import struct
import threading

import pytest

from qprofile import client as qclient
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


def test_wait_done_sleeps_to_the_announced_done_time():
    profile = dataclasses.replace(
        LatencyProfile.zeroed(dilation=1.0), stop_ms=1.0, start_ms=5.0, retrieve_ms=2.0,
        done_finalize_ms=60.0,
    )
    job = _job(4, shots=50)
    commands = []
    with ClusterService(profile, Topology.for_qubits(4), noise_seed=5) as svc:
        dispatch = svc.dispatch

        def counted(request):
            commands.append(request.get("cmd"))
            return dispatch(request)

        svc.dispatch = counted
        with ClusterClient(*svc.address) as client:
            acquisition, t = client.run_iteration(job)
    assert commands.count("status") <= 2
    assert commands.count("retrieve") == 1
    assert sorted(acquisition.bits) == [0, 1, 2, 3]
    assert all(len(bits) == 50 for bits in acquisition.bits.values())
    # the server starts the done clock before its start reply, so start and
    # wait_done together cover the start latency and the announced wait
    wanted_s = (
        profile.start_ms / 1e3 + job.schedule_seconds * profile.dilation
        + profile.done_finalize_ms / 1e3
    )
    assert t.start_s + t.wait_done_wall_s >= wanted_s


def test_wait_done_timeout_counts_from_the_announced_done_time(monkeypatch):
    # 150 ms of finalize, which dilation 0 leaves out of the schedule share,
    # outlasts a 50 ms timeout counted from the start reply
    monkeypatch.setattr(qclient, "WAIT_TIMEOUT_S", 0.05)
    profile = dataclasses.replace(LatencyProfile.zeroed(), done_finalize_ms=150.0)
    job = _job(4, shots=10)
    with ClusterService(profile, Topology.for_qubits(4), noise_seed=5) as svc:
        with ClusterClient(*svc.address) as client:
            acquisition, t = client.run_iteration(job)
    assert sorted(acquisition.bits) == [0, 1, 2, 3]
    assert t.start_s + t.wait_done_wall_s >= 0.15


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


def _serve_one_connection(reply):
    """A fake cluster on an ephemeral port that serves one connection,
    answering each request with the raw payload reply(request) returns."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        conn, _ = listener.accept()
        with conn:
            while (request := wire.recv_frame(conn)) is not None:
                payload = reply(request)
                conn.sendall(struct.pack("!I", len(payload)) + payload)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    return listener, server


def test_undecodable_reply_is_a_transport_error():
    # not UTF-8, then nested too deeply for the decoder
    payloads = iter([b"\xff\xfe\x00", b"[" * 100_000])
    listener, server = _serve_one_connection(lambda request: next(payloads))
    try:
        with ClusterClient(*listener.getsockname()) as client:
            for _ in range(2):
                with pytest.raises(TransportError):
                    client.status()
    finally:
        server.join(timeout=5)
        listener.close()
    assert not server.is_alive()


@pytest.mark.parametrize(
    "announced",
    [{}, {"done_in_s": True}, {"done_in_s": "0.1"}, {"done_in_s": None}, {"done_in_s": -0.5},
     {"done_in_s": float("nan")}, {"done_in_s": float("inf")}],
    ids=["missing", "bool", "text", "null", "negative", "nan", "inf"],
)
def test_start_reply_without_a_valid_done_in_s_is_a_transport_error(k4_job, announced):
    commands = []

    def reply(request):
        commands.append(request["cmd"])
        if request["cmd"] == "start":
            return json.dumps({"ok": True, "state": "running", **announced}).encode()
        return b'{"ok": true, "state": "idle"}'

    listener, server = _serve_one_connection(reply)
    try:
        with ClusterClient(*listener.getsockname()) as client:
            with pytest.raises(TransportError, match="done_in_s"):
                client.run_iteration(k4_job)
    finally:
        server.join(timeout=5)
        listener.close()
    assert not server.is_alive()
    # the client neither waited nor polled; it stopped the cluster instead
    assert commands[-2:] == ["start", "stop"]
    assert "status" not in commands
