"""Socket traffic generator for the KV daemon, owned by the benchmark.

One :class:`Conn` per connection speaks the daemon's wire format
(4-byte big-endian length + one JSON object) on its own socket and
keeps one :class:`Record` per request it sends. A single thread drives
every connection, so no interpreter-lock hand-off delays a scheduled
send. The generator runs the open-loop phase (requests sent on a seeded
schedule, latency taken from the scheduled send time), the closed-loop
phase (a fixed number of requests outstanding per connection) and the
final read-back, and :func:`check_connection` replays each
connection's records to find any answer that disagrees with that
connection's acknowledged writes.
"""

from __future__ import annotations

import json
import selectors
import socket
import struct
import time
from dataclasses import dataclass

from plan import GET, OP_NAMES, PUT, ConnPlan

HEADER = struct.Struct(">I")

#: How long a phase waits for its last answers before it counts the
#: rest as unanswered.
DRAIN_TIMEOUT_S = 20.0

PENDING, OK, SHED, ERROR = 0, 1, 2, 3


@dataclass
class Record:
    """One request as the client saw it."""

    phase: str
    op: int
    key: int
    value: int
    t_sched: float
    t_sent: float = 0.0
    t_ack: float = 0.0
    status: int = PENDING
    #: The value a GET returned (``None`` for a miss).
    got: int | None = None


class Conn:
    """One client connection with pipelined, id-matched requests."""

    def __init__(self, address: tuple[str, int], plan: ConnPlan | None):
        self.plan = plan
        self.sock = socket.create_connection(address, timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.records: list[Record] = []
        #: Index into the plan of the next request to send.
        self.next_op = 0
        self._outstanding: dict[int, Record] = {}
        self._next_id = 1
        self._buf = bytearray()
        #: Last answer that matched no request (an inline ``stats``).
        self._extra: dict | None = None

    def close(self) -> None:
        self.sock.close()

    # -- wire -----------------------------------------------------------

    def _send_doc(self, doc: dict) -> None:
        payload = json.dumps(doc, separators=(",", ":")).encode()
        data = HEADER.pack(len(payload)) + payload
        self.sock.setblocking(True)
        try:
            self.sock.sendall(data)
        finally:
            self.sock.setblocking(False)

    def send(self, rec: Record) -> None:
        req_id = self._next_id
        self._next_id += 1
        doc = {"id": req_id, "op": OP_NAMES[rec.op], "key": rec.key}
        if rec.op == PUT:
            doc["value"] = rec.value
        rec.t_sent = time.perf_counter()
        self._send_doc(doc)
        self._outstanding[req_id] = rec
        if rec.phase != "readback":
            self.records.append(rec)

    def send_next(self, phase: str, t_sched: float | None = None) -> None:
        op, key, value = self.plan.request(self.next_op)
        self.next_op += 1
        rec = Record(phase, op, key, value,
                     t_sched if t_sched is not None else time.perf_counter())
        self.send(rec)

    def receive(self) -> int:
        """Read what the socket holds; returns how many requests that
        answered."""
        now = time.perf_counter()
        try:
            chunk = self.sock.recv(1 << 16)
        except BlockingIOError:
            return 0
        if not chunk:
            raise ConnectionError("daemon closed the connection")
        self._buf += chunk
        answered = 0
        while len(self._buf) >= HEADER.size:
            (length,) = HEADER.unpack_from(self._buf)
            if len(self._buf) < HEADER.size + length:
                break
            doc = json.loads(bytes(self._buf[HEADER.size:HEADER.size + length]))
            del self._buf[:HEADER.size + length]
            rec = self._outstanding.pop(doc.get("id"), None)
            if rec is None:
                self._extra = doc
                continue
            rec.t_ack = now
            if doc.get("ok"):
                rec.status = OK
                if rec.op == GET:
                    rec.got = doc.get("value")
            elif doc.get("shed"):
                rec.status = SHED
            else:
                rec.status = ERROR
            answered += 1
        return answered

    @property
    def outstanding(self) -> int:
        return len(self._outstanding)

    def call(self, op: str) -> dict:
        """One inline request (``stats``, ``shutdown``) and its answer."""
        self._extra = None
        self._send_doc({"id": 0, "op": op})
        with Poller([self]) as poller:
            deadline = time.perf_counter() + DRAIN_TIMEOUT_S
            while self._extra is None:
                left = deadline - time.perf_counter()
                if left <= 0:
                    raise TimeoutError(f"no answer to {op!r}")
                poller.poll(left)
        return self._extra


class Poller:
    """Waits on several connections at once, from one thread."""

    def __init__(self, conns: list[Conn]) -> None:
        self.conns = conns
        self.selector = selectors.DefaultSelector()
        for conn in conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)

    def __enter__(self) -> "Poller":
        return self

    def __exit__(self, *exc) -> None:
        self.selector.close()

    def poll(self, timeout: float) -> list[tuple[Conn, int]]:
        """``(conn, answered)`` for each connection that had data."""
        events = self.selector.select(max(timeout, 0.0))
        return [(key.data, key.data.receive()) for key, _ in events]

    def drain(self, timeout: float = DRAIN_TIMEOUT_S) -> None:
        """Wait for every outstanding answer, at most ``timeout``."""
        deadline = time.perf_counter() + timeout
        while any(c.outstanding for c in self.conns):
            left = deadline - time.perf_counter()
            if left <= 0:
                return
            self.poll(left)


# ----------------------------------------------------------------------
# Phases (one thread drives every connection)
# ----------------------------------------------------------------------

def open_loop(conns: list[Conn], t0: float,
              schedule: list[tuple[float, int]]) -> None:
    """Send on connection ``c`` at ``t0 + offset`` for each
    ``(offset, c)`` of the schedule, reading answers as they come.
    Latency is later taken from each request's scheduled time."""
    with Poller(conns) as poller:
        for offset, c in schedule:
            due = t0 + offset
            while True:
                now = time.perf_counter()
                if due <= now:
                    break
                poller.poll(due - now)
            conns[c].send_next("open", due)
        poller.drain()


def closed_loop(conns: list[Conn], t_end: float, depth: int,
                phase: str = "closed") -> None:
    """Keep ``depth`` requests outstanding per connection until ``t_end``."""
    with Poller(conns) as poller:
        for conn in conns:
            while conn.outstanding < depth:
                conn.send_next(phase)
        while True:
            now = time.perf_counter()
            if now >= t_end:
                break
            for conn, answered in poller.poll(t_end - now):
                if time.perf_counter() < t_end:
                    for _ in range(answered):
                        conn.send_next(phase)
        poller.drain()


def read_back(conn: Conn, keys, depth: int = 64) -> dict[int, Record]:
    """GET every key of a partition; returns key -> record.

    Read-back requests are not added to ``conn.records``.
    """
    out: dict[int, Record] = {}
    pending = [int(k) for k in keys]
    pos = 0
    with Poller([conn]) as poller:
        while pos < len(pending):
            while pos < len(pending) and conn.outstanding < depth:
                rec = Record("readback", GET, pending[pos], 0,
                             time.perf_counter())
                conn.send(rec)
                out[rec.key] = rec
                pos += 1
            poller.poll(DRAIN_TIMEOUT_S)
        poller.drain()
    return out


def check_connection(records: list[Record], keys,
                     readback: dict[int, Record]) -> list[str]:
    """Every disagreement between answers and acknowledged writes.

    The daemon applies one connection's requests in the order it sent
    them, so a GET must see the last acked write sent before it. Shed
    writes were never applied. A write that failed otherwise or got no
    answer may or may not have landed, so its key cannot be checked
    until the next acked write. Each read-back GET must then see the
    final acknowledged state.
    """
    problems: list[str] = []
    state: dict[int, int | None] = {}
    ambiguous: set[int] = set()
    for rec in records:
        if rec.op == GET:
            if rec.status == OK and rec.key not in ambiguous \
                    and rec.got != state.get(rec.key):
                problems.append(
                    f"{rec.phase} get({rec.key}) returned {rec.got}, "
                    f"expected {state.get(rec.key)}")
            continue
        if rec.status == SHED:
            continue
        if rec.status == OK:
            state[rec.key] = rec.value if rec.op == PUT else None
            ambiguous.discard(rec.key)
        else:
            ambiguous.add(rec.key)
    for key in (int(k) for k in keys):
        if key in ambiguous:
            continue
        rec = readback.get(key)
        if rec is None or rec.status != OK:
            problems.append(f"read-back get({key}) got no answer")
        elif rec.got != state.get(key):
            problems.append(
                f"read-back get({key}) returned {rec.got}, "
                f"expected {state.get(key)}")
    return problems


__all__ = ["Conn", "Poller", "Record", "check_connection", "closed_loop",
           "open_loop", "read_back", "OK", "SHED", "ERROR", "PENDING"]
