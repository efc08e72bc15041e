from __future__ import annotations

import dataclasses
import itertools
import json
import socket
import struct
import threading
import time

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


def _record_commands(svc) -> list[str]:
    """A list that collects the cmd of every request svc handles, in order."""
    commands = []
    dispatch = svc.dispatch

    def counted(request):
        commands.append(request.get("cmd"))
        return dispatch(request)

    svc.dispatch = counted
    return commands


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
    with ClusterService(profile, Topology.for_qubits(4), noise_seed=5) as svc:
        commands = _record_commands(svc)
        with ClusterClient(*svc.address) as client:
            acquisition, t = client.run_iteration(job)
    assert commands.count("status") <= 2
    assert commands.count("retrieve") == 1
    assert sorted(acquisition.bits) == [0, 1, 2, 3]
    assert all(len(bits) == 50 for bits in acquisition.bits.values())
    # wait_done sleeps the whole done_in_s the start reply announces, from
    # the moment that reply arrives, so it alone covers the announced wait
    announced_s = job.schedule_seconds * profile.dilation + profile.done_finalize_ms / 1e3
    assert t.wait_done_wall_s >= announced_s


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


def _script_status(svc, states) -> None:
    """Answer svc's status requests with the given states, in order, and
    then with the cluster's own state."""
    states = iter(states)
    real = svc.handle_status

    def status():
        state = next(states, None)
        return real() if state is None else {"ok": True, "state": state}

    svc.handle_status = status


def test_wait_done_polls_until_the_cluster_reports_done(k4_job):
    with ClusterService(LatencyProfile.zeroed(), Topology.for_qubits(4), noise_seed=5) as svc:
        commands = _record_commands(svc)
        _script_status(svc, ["running", "running"])
        with ClusterClient(*svc.address) as client:
            acquisition, _ = client.run_iteration(k4_job)
    assert commands.count("status") == 3
    assert commands[-2:] == ["retrieve", "stop"]
    assert sorted(acquisition.bits) == [0, 1, 2, 3]


@pytest.mark.parametrize("state", ["idle", "armed"])
def test_wait_done_on_a_cluster_that_left_running_raises_and_stops_it(k4_job, state):
    with ClusterService(LatencyProfile.zeroed(), Topology.for_qubits(4), noise_seed=5) as svc:
        commands = _record_commands(svc)
        _script_status(svc, [state])
        with ClusterClient(*svc.address) as client:
            with pytest.raises(ProtocolError, match=f"went {state}"):
                client.run_iteration(k4_job)
        assert commands[-2:] == ["status", "stop"]
        with svc.state.lock:
            assert svc.state.phase_locked() == "idle"


def test_wait_done_gives_up_on_a_schedule_that_never_finishes(monkeypatch, k4_job):
    monkeypatch.setattr(qclient, "WAIT_TIMEOUT_S", 0.05)
    with ClusterService(LatencyProfile.zeroed(), Topology.for_qubits(4), noise_seed=5) as svc:
        commands = _record_commands(svc)
        _script_status(svc, itertools.repeat("running"))
        with ClusterClient(*svc.address) as client:
            started = time.perf_counter()
            with pytest.raises(TransportError, match="timed out"):
                client.run_iteration(k4_job)
            assert time.perf_counter() - started >= 0.05
        assert commands.count("status") >= 2
        assert commands[-1] == "stop"
        with svc.state.lock:
            assert svc.state.phase_locked() == "idle"


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


def test_failed_parallel_prepare_waits_for_every_upload_and_leaves_the_cluster_idle():
    # the first file targets a module the cluster lacks and fails at once;
    # the other seven uploads each take 80 ms and arm their sequencer
    profile = dataclasses.replace(LatencyProfile.zeroed(), prepare_concurrent_ms=80.0)
    job = _job(4, shots=10)
    job = dataclasses.replace(
        job, files=(dataclasses.replace(job.files[0], module="cm9"), *job.files[1:])
    )
    with ClusterService(profile, Topology.for_qubits(4), noise_seed=5) as svc:
        commands = _record_commands(svc)
        with ClusterClient(*svc.address) as client:
            with pytest.raises(ProtocolError) as err:
                client.run_iteration(job, "parallel")
            assert err.value.code == "unknown_target"
            time.sleep(0.3)  # any upload still in flight would arm by now
            assert client.status()["state"] == "idle"
    assert commands.count("prepare") == 8
    assert commands.count("stop") == 2  # the iteration's first stop, then one on failure


def test_parallel_prepare_sends_from_the_calling_thread_and_starts_no_thread(monkeypatch):
    job = _job(4, shots=10)
    senders = []
    send = qclient.ClusterConnection.send

    def recorded(conn, obj):
        senders.append(threading.current_thread())
        send(conn, obj)

    with ClusterService(LatencyProfile.zeroed(), Topology.for_qubits(4), noise_seed=5) as svc:
        with ClusterClient(*svc.address) as client:
            client.run_iteration(job, "parallel")  # opens the upload streams
            monkeypatch.setattr(qclient.ClusterConnection, "send", recorded)
            client.stop()
            before = threading.active_count()
            client.prepare(job, "parallel")
            assert threading.active_count() == before
    assert len(senders) == 1 + len(job.files)  # the stop, then one frame per file
    assert set(senders) == {threading.current_thread()}


def test_parallel_uploads_still_overlap():
    # eight 80 ms uploads: about 640 ms one after another, about 80 ms at once
    profile = dataclasses.replace(LatencyProfile.zeroed(), prepare_concurrent_ms=80.0)
    job = _job(4, shots=10)
    assert len(job.files) == 8
    with ClusterService(profile, Topology.for_qubits(4), noise_seed=5) as svc:
        with ClusterClient(*svc.address) as client:
            client.prepare(job, "parallel")  # opens the upload streams
            client.stop()
            t0 = time.perf_counter()
            client.prepare(job, "parallel")
            elapsed_s = time.perf_counter() - t0
    assert 0.08 <= elapsed_s < 0.32


def test_parallel_prepare_whose_send_fails_reads_the_sent_replies_before_raising():
    # after a warm-up iteration the fourth upload stream is closed, so the
    # fourth send fails once the first three 80 ms uploads are on their way
    profile = dataclasses.replace(LatencyProfile.zeroed(), prepare_concurrent_ms=80.0)
    job = _job(4, shots=10)
    with ClusterService(profile, Topology.for_qubits(4), noise_seed=5) as svc:
        finished = []
        dispatch = svc.dispatch

        def recorded(request):
            reply = dispatch(request)
            finished.append(request.get("cmd"))
            return reply

        svc.dispatch = recorded
        with ClusterClient(*svc.address) as client:
            client.run_iteration(job, "parallel")
            client._streams[3].close()
            finished.clear()
            with pytest.raises(TransportError, match="during prepare"):
                client.run_iteration(job, "parallel")
            # the three sent uploads finished before the best-effort stop
            assert finished == ["stop", "prepare", "prepare", "prepare", "stop"]
            time.sleep(0.3)  # any upload still in flight would arm by now
            assert client.status()["state"] == "idle"


def test_parallel_prepare_replaces_a_stream_that_failed():
    # the fourth upload stream is closed: the iteration that meets it fails,
    # and the next parallel prepare opens a fresh stream in its place
    job = _job(4, shots=10)
    with ClusterService(LatencyProfile.zeroed(), Topology.for_qubits(4), noise_seed=5) as svc:
        with ClusterClient(*svc.address) as client:
            client.run_iteration(job, "parallel")
            client._streams[3].close()
            with pytest.raises(TransportError, match="during prepare"):
                client.run_iteration(job, "parallel")
            assert client.status()["state"] == "idle"
            acquisition, _ = client.run_iteration(job, "parallel")
            assert len(client._streams) == len(job.files)
    assert sorted(acquisition.bits) == [0, 1, 2, 3]


def test_parallel_prepare_keeps_a_stream_whose_reply_is_a_protocol_error():
    job = _job(4, shots=10)
    bad = dataclasses.replace(
        job, files=(dataclasses.replace(job.files[0], module="cm9"), *job.files[1:])
    )
    with ClusterService(LatencyProfile.zeroed(), Topology.for_qubits(4), noise_seed=5) as svc:
        with ClusterClient(*svc.address) as client:
            client.run_iteration(job, "parallel")
            streams = list(client._streams)
            with pytest.raises(ProtocolError):
                client.run_iteration(bad, "parallel")
            assert client._streams == streams
            acquisition, _ = client.run_iteration(job, "parallel")
    assert sorted(acquisition.bits) == [0, 1, 2, 3]


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
