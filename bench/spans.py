"""In-memory spans around calls into qprofile, written as a Chrome trace.

The benchmark wraps public functions from its own files (it does not edit
the program). A span is (id, name, start, end, parent, thread, label).
Spans nest per thread; a span opened on a thread with nothing open (an
upload worker, a server handler) takes as parent whatever the client's
main thread has open at that moment. Self time is a span's duration
minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict


class Patcher:
    """Replaces module or class attributes and puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._bytes_lock = threading.Lock()
        self.bytes = {"sent": 0, "received": 0}

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, label=None):
        """fn with a span around every call; label(args) names the call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            main = tracer._main_stack
            parent = stack[-1] if stack else (main[-1] if main else None)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    (sid, name, t0, t1, parent, threading.get_ident(),
                     label(args) if label else None)
                )

        return traced

    # -- bytes on the client's sockets ---------------------------------------

    def in_request(self) -> bool:
        return getattr(self._local, "request", False)

    def wrap_request(self, fn):
        """ClusterConnection.request: a span, and a flag so that the frame
        codec counts the bytes of client requests only."""
        traced = self.wrap("client.request", fn, label=lambda a: a[1].get("cmd"))

        @functools.wraps(fn)
        def flagged(*args, **kwargs):
            self._local.request = True
            try:
                return traced(*args, **kwargs)
            finally:
                self._local.request = False

        return flagged

    def count_bytes(self, key: str, n: int) -> None:
        with self._bytes_lock:
            self.bytes[key] += n

    # -- analysis -------------------------------------------------------------

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for sid, _, t0, t1, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((t0, t1))
        out = {}
        for sid, _, t0, t1, _, _, _ in self.spans:
            covered = 0.0
            end = t0
            for c0, c1 in sorted(children.get(sid, ())):
                c0, c1 = max(c0, end), min(c1, t1)
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            out[sid] = (t1 - t0) - covered
        return out

    def write_chrome(self, path: str, self_times: dict[int, float]) -> None:
        """Chrome trace-event JSON (complete events), as Perfetto opens it."""
        tids: dict[int, int] = {self._main: 1}
        for s in self.spans:
            tids.setdefault(s[5], len(tids) + 1)
        events = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 1,
             "args": {"name": "qprofile benchmark"}},
        ]
        for ident, tid in tids.items():
            events.append({"ph": "M", "name": "thread_name", "pid": 1, "tid": tid,
                           "args": {"name": "client main" if tid == 1 else f"thread {tid}"}})
        for sid, name, t0, t1, parent, ident, label in sorted(self.spans, key=lambda s: s[2]):
            events.append({
                "name": f"{name} {label}" if label else name,
                "cat": name.split(".")[0],
                "ph": "X",
                "ts": round((t0 - self.origin) * 1e6, 3),
                "dur": round((t1 - t0) * 1e6, 3),
                "pid": 1,
                "tid": tids[ident],
                "args": {"id": sid, "parent": parent, "self_ms": self_times[sid] * 1e3},
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


class CountingSocket:
    """Socket stand-in that counts the bytes the frame codec moves."""

    def __init__(self, sock, tracer: Tracer):
        self._sock = sock
        self._tracer = tracer

    def sendall(self, data):
        self._tracer.count_bytes("sent", len(data))
        return self._sock.sendall(data)

    def recv(self, count):
        data = self._sock.recv(count)
        self._tracer.count_bytes("received", len(data))
        return data

    def __getattr__(self, name):
        return getattr(self._sock, name)
