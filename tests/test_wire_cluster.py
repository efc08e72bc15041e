from __future__ import annotations

import dataclasses
import json
import math
import socket
import struct
import time

import pytest

from qprofile import wire
from qprofile.cluster import (
    SEQUENCER_STATES,
    ClusterService,
    LatencyProfile,
    Topology,
    load_cluster_config,
)


def _pair():
    return socket.socketpair()


def test_frame_round_trip():
    a, b = _pair()
    try:
        payload = {"cmd": "prepare", "text": "προφίλ", "n": [1, 2, 3]}
        wire.send_frame(a, payload)
        assert wire.recv_frame(b) == payload
    finally:
        a.close()
        b.close()


def test_clean_close_reads_as_none():
    a, b = _pair()
    a.close()
    try:
        assert wire.recv_frame(b) is None
    finally:
        b.close()


def test_truncated_frame_raises():
    a, b = _pair()
    try:
        a.sendall(struct.pack("!I", 100) + b"short")
        a.close()
        with pytest.raises(wire.FrameError):
            wire.recv_frame(b)
    finally:
        b.close()


def test_oversize_length_prefix_raises():
    a, b = _pair()
    try:
        a.sendall(struct.pack("!I", wire.MAX_FRAME_BYTES + 1))
        with pytest.raises(wire.FrameError):
            wire.recv_frame(b)
    finally:
        a.close()
        b.close()


def test_oversize_payload_refused_on_send():
    a, b = _pair()
    try:
        with pytest.raises(wire.FrameError):
            wire.send_frame(a, "x" * (wire.MAX_FRAME_BYTES + 1))
    finally:
        a.close()
        b.close()


def test_malformed_json_in_a_valid_frame_raises_decode_error():
    a, b = _pair()
    try:
        # the second payload nests too deeply for the decoder
        for bad in (b"{not json", b"[" * 100_000):
            a.sendall(struct.pack("!I", len(bad)) + bad)
            with pytest.raises(json.JSONDecodeError):
                wire.recv_frame(b)
    finally:
        a.close()
        b.close()


# -- latency profile and topology --------------------------------------------


def test_latency_profile_defaults_and_prepare_formula():
    p = LatencyProfile()
    assert p.prepare_ms(0) == pytest.approx(25.9)
    assert p.prepare_ms(1_000_000) == pytest.approx(25.9 + 8.0)
    z = LatencyProfile.zeroed()
    assert z.prepare_ms(10_000) == 0.0
    assert z.dilation == 0.0
    with pytest.raises(ValueError):
        LatencyProfile(stop_ms=-1.0)
    # a NaN dilation would leave the cluster running forever
    for value in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="dilation"):
            LatencyProfile.zeroed(dilation=value)
        with pytest.raises(ValueError, match="start_ms"):
            LatencyProfile(start_ms=value)


def test_phase_nominals_follow_the_job_and_the_prepare_mode(k4_job):
    p = LatencyProfile()
    sizes = [f.size_bytes() for f in k4_job.files]
    sequential = p.phase_ms(k4_job, "sequential")
    parallel = p.phase_ms(k4_job, "parallel")
    assert sequential["prepare"] == pytest.approx(sum(p.prepare_ms(b) for b in sizes))
    assert parallel["prepare"] == pytest.approx(8 * 6.86 + 19.04 + max(sizes) * 8e-6)
    for nominals in (sequential, parallel):
        assert nominals["stop"] == nominals["final_stop"] == 19.5
        assert nominals["start"] == 57.11
        assert nominals["wait_done"] == 56.3
        assert nominals["retrieve"] == 58.9  # one readout module
    with pytest.raises(ValueError):
        p.phase_ms(k4_job, "burst")


def test_topology_module_ids_and_sizing():
    t = Topology()
    assert t.module_ids() == ("cm0", "cm1", "cm2", "rm0", "rm1", "rm2")
    small = Topology.for_qubits(4)
    assert small.control_modules == 1 and small.readout_modules == 1
    assert Topology.for_qubits(14).control_modules == 3
    with pytest.raises(ValueError):
        Topology(control_modules=0)


def test_cluster_config_file_round_trip(tmp_path):
    path = tmp_path / "cluster.json"
    path.write_text(
        json.dumps(
            {
                "latency": {"stop_ms": 1.5, "dilation": 0.0},
                "topology": {"control_modules": 2, "readout_modules": 2},
            }
        )
    )
    profile, topology = load_cluster_config(str(path))
    assert profile.stop_ms == 1.5
    assert profile.start_ms == LatencyProfile().start_ms  # unset keys keep defaults
    assert topology.control_modules == 2


# -- sequencer state machine (direct dispatch, no sockets) --------------------


def _service():
    return ClusterService(LatencyProfile.zeroed(), Topology(), noise_seed=1)


def _prepare_cmd(module="cm0", seq=0, schedule_s=0.0, qubit=0):
    return {
        "cmd": "prepare",
        "module": module,
        "seq": seq,
        "program": "move R0,1\nstop\n",
        "meta": {"qubit": qubit, "shots": 5, "schedule_s": schedule_s},
    }


def test_full_command_cycle():
    svc = _service()
    assert svc.dispatch({"cmd": "stop"})["ok"]
    assert svc.dispatch(_prepare_cmd("cm0", 0))["ok"]
    assert svc.dispatch(_prepare_cmd("rm0", 0))["ok"]
    started = svc.dispatch({"cmd": "start"})
    assert started["ok"] and started["state"] == "running"
    deadline = time.monotonic() + 2.0
    while svc.dispatch({"cmd": "status"})["state"] != "done":
        assert time.monotonic() < deadline
        time.sleep(0.001)
    got = svc.dispatch({"cmd": "retrieve", "module": "rm0"})
    assert got["ok"] and got["shots"] == 5
    assert set(got["bits"]) == {"0"}
    assert len(got["bits"]["0"]) == 5
    assert svc.dispatch({"cmd": "stop"})["state"] == "idle"


def test_start_requires_an_armed_sequencer():
    svc = _service()
    reply = svc.dispatch({"cmd": "start"})
    assert not reply["ok"] and reply["error"] == "bad_state"


def test_prepare_refuses_a_busy_sequencer():
    svc = _service()
    assert svc.dispatch(_prepare_cmd())["ok"]
    again = svc.dispatch(_prepare_cmd())
    assert not again["ok"] and again["error"] == "bad_state"


def test_retrieve_before_done_is_a_state_error():
    svc = _service()
    reply = svc.dispatch({"cmd": "retrieve", "module": "rm0"})
    assert not reply["ok"] and reply["error"] == "bad_state"


def test_unknown_targets_are_reported():
    svc = _service()
    assert svc.dispatch(_prepare_cmd(module="cm9"))["error"] == "unknown_target"
    assert svc.dispatch({"cmd": "retrieve", "module": "xx"})["error"] == "unknown_target"


def test_bad_frames_are_reported():
    svc = _service()
    assert svc.dispatch("status")["error"] == "bad_frame"
    assert svc.dispatch({"cmd": "warp"})["error"] == "bad_frame"
    assert svc.dispatch({"cmd": "prepare", "module": 3, "seq": "x"})["error"] == "bad_frame"
    as_bool = svc.dispatch(_prepare_cmd(seq=True))
    assert as_bool["error"] == "bad_frame" and "integer seq" in as_bool["msg"]
    for program in (42, None, ["stop"], "\ud800"):
        assert svc.dispatch(dict(_prepare_cmd(), program=program))["error"] == "bad_frame"
    assert {s.status for s in svc.state.seqs.values()} == {"idle"}


@pytest.mark.parametrize(
    "meta",
    [
        {"qubit": "0", "shots": 5, "schedule_s": 0.0},
        {"qubit": 0, "shots": "x", "schedule_s": 0.0},
        {"qubit": 0, "shots": 0, "schedule_s": 0.0},
        {"qubit": 0, "shots": 5, "schedule_s": "soon"},
        {"qubit": 0, "shots": 5, "schedule_s": float("nan")},
        {"qubit": 0, "shots": 5, "schedule_s": -1.0},
        {"qubit": 0, "shots": 5},
        None,
    ],
    ids=["qubit-text", "shots-text", "shots-zero", "schedule-text", "schedule-nan",
         "schedule-negative", "schedule-missing", "no-meta"],
)
def test_prepare_rejects_meta_that_start_or_retrieve_cannot_use(meta):
    svc = _service()
    reply = svc.dispatch(dict(_prepare_cmd(module="rm0"), meta=meta))
    assert reply["error"] == "bad_frame"
    assert {s.status for s in svc.state.seqs.values()} == {"idle"}
    assert svc.dispatch({"cmd": "start"})["error"] == "bad_state"
    assert svc.dispatch({"cmd": "retrieve", "module": "rm0"})["error"] == "bad_state"


def test_retrieve_returns_only_the_sequencers_that_ran():
    svc = _service()
    for cycle_qubits in ((0, 1), (0,)):
        svc.dispatch({"cmd": "stop"})
        for q in cycle_qubits:
            assert svc.dispatch(_prepare_cmd("rm0", q, qubit=q))["ok"]
        assert svc.dispatch({"cmd": "start"})["ok"]
        deadline = time.monotonic() + 2.0
        while svc.dispatch({"cmd": "status"})["state"] != "done":
            assert time.monotonic() < deadline
            time.sleep(0.001)
        reply = svc.dispatch({"cmd": "retrieve", "module": "rm0"})
        assert sorted(reply["bits"]) == [str(q) for q in cycle_qubits]


@pytest.mark.parametrize(
    "profile",
    [
        LatencyProfile.zeroed(),
        dataclasses.replace(LatencyProfile.zeroed(dilation=1.0), start_ms=2.0, done_finalize_ms=5.0),
        dataclasses.replace(LatencyProfile.zeroed(dilation=3.0), done_finalize_ms=1.0),
    ],
    ids=["zeroed", "dilation-1", "dilation-3"],
)
def test_start_reply_announces_the_time_left_until_done(profile):
    svc = ClusterService(profile, Topology(), noise_seed=1)
    for schedule_s in (0.0, 0.002, 0.004):
        svc.dispatch({"cmd": "stop"})
        assert svc.dispatch(_prepare_cmd("cm0", 0, schedule_s=schedule_s))["ok"]
        assert svc.dispatch(_prepare_cmd("rm0", 0, schedule_s=schedule_s / 2))["ok"]
        started = svc.dispatch({"cmd": "start"})
        assert started["ok"]
        done_in_s = started["done_in_s"]
        # the longest armed schedule sets the done time
        upper = schedule_s * profile.dilation + profile.done_finalize_ms / 1e3
        assert type(done_in_s) is float and math.isfinite(done_in_s)
        assert 0.0 <= done_in_s <= upper


def test_stop_resets_everything():
    svc = _service()
    svc.dispatch(_prepare_cmd())
    svc.dispatch({"cmd": "stop"})
    statuses = {s.status for s in svc.state.seqs.values()}
    assert statuses == {"idle"}
    assert all(s in SEQUENCER_STATES for s in statuses)


# -- socket-level behavior ----------------------------------------------------


def test_malformed_json_gets_a_reply_and_the_connection_survives(zeroed_service):
    _, host, port = zeroed_service
    with socket.create_connection((host, port), timeout=5) as sock:
        # the second payload nests too deeply for the decoder
        for bad in (b'{"cmd": ', b"[" * 100_000):
            sock.sendall(struct.pack("!I", len(bad)) + bad)
            reply = wire.recv_frame(sock)
            assert reply == {"ok": False, "error": "bad_frame", "msg": "payload is not valid JSON"}
            wire.send_frame(sock, {"cmd": "status"})
            assert wire.recv_frame(sock)["ok"]


def test_non_utf8_payload_gets_a_reply_and_the_connection_survives(zeroed_service):
    _, host, port = zeroed_service
    with socket.create_connection((host, port), timeout=5) as sock:
        bad = b"\xff\xfe\x00{}"
        sock.sendall(struct.pack("!I", len(bad)) + bad)
        assert wire.recv_frame(sock)["error"] == "bad_frame"
        wire.send_frame(sock, {"cmd": "status"})
        assert wire.recv_frame(sock)["ok"]


def test_status_over_tcp(zeroed_service):
    _, host, port = zeroed_service
    with socket.create_connection((host, port), timeout=5) as sock:
        wire.send_frame(sock, {"cmd": "status"})
        reply = wire.recv_frame(sock)
        assert reply["ok"] and reply["state"] in SEQUENCER_STATES
