"""The ``kv-`` workloads: socket traffic to a ``repro serve`` daemon.

The daemon runs in its own process at its shipped defaults; the load
comes from this process, one thread driving every connection. A run:

1. starts the daemon on a fresh heap :data:`SETUP_SPAWNS` times and
   keeps the last one (``setup_s`` is the median start-to-ready time,
   see :class:`Daemon`);
2. runs a short unmeasured warm-up, the open-loop phase, then the
   closed-loop phase;
3. stops the daemon cleanly, which records the heap's lines written;
4. restarts it on the same heap :data:`RESTARTS` times (``recover_s``
   is the median start-to-ready time) and reads every key back
   through the last restart.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from traffic import (
    GET,
    OK,
    PUT,
    SHED,
    Conn,
    check_connection,
    closed_loop,
    open_loop,
    read_back,
)
from plan import ConnPlan, TrafficSpec, arrivals
from tracing import layer_metrics

HERE = Path(__file__).resolve().parent

#: Connections, all driven by this process's one load thread (the
#: reference host has 2 CPUs: one for the daemon, one for the load).
CONNS = 2
#: Requests each connection keeps outstanding in the closed loop.
CLOSED_DEPTH = 16
#: Share of ``--seconds`` spent in the open-loop phase.
OPEN_SHARE = 0.8
#: Closed-loop traffic before the measured phases, so that the first
#: windows' one-off costs and an empty store do not reach the metrics.
WARMUP_S = 1.0
SETUP_SPAWNS = 9
RESTARTS = 9
READY_TIMEOUT_S = 60.0
READY_POLL_S = 0.0005
#: Bytes a user asked to store: a PUT's key and value, a DELETE's key.
PUT_BYTES, DELETE_BYTES = 16, 8
LINE_BYTES = 128
#: ``repro serve --cache-lines`` default: the daemon's 32 KiB cache.
CACHE_LINES = 256


@dataclass(frozen=True)
class KVWorkload:
    traffic: TrafficSpec
    #: ``repro serve --shards``; 0 = one mapped heap.
    shards: int


WORKLOADS = {
    "kv-mixed": KVWorkload(
        TrafficSpec(mix=(0.5, 0.4, 0.1), keys_per_conn=1024, theta=0.9,
                    open_rate=500.0),
        shards=0),
    "kv-writes-sharded": KVWorkload(
        TrafficSpec(mix=(0.1, 0.8, 0.1), keys_per_conn=2048, theta=0.0,
                    open_rate=120.0),
        shards=4),
}


class Daemon:
    """One ``repro serve`` process started through :mod:`daemon_entry`.

    The process imports the program and then waits; :meth:`start_timed`
    releases it and times the daemon's own start-up until its
    ready-file names the bound address.
    """

    def __init__(self, work: Path, tag: str, heap: Path, shards: int,
                 trace: bool) -> None:
        self.ready = work / f"{tag}.ready"
        self.loaded = work / f"{tag}.loaded"
        self.out = work / f"{tag}.out.json"
        self.log = work / f"{tag}.log"
        for path in (self.ready, self.loaded, self.out):
            path.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "daemon_entry.py"),
               "--out", str(self.out), "--loaded", str(self.loaded)]
        if trace:
            cmd.append("--trace")
        cmd += ["--", "--heap", str(heap), "--host", "127.0.0.1",
                "--port", "0", "--ready-file", str(self.ready)]
        if shards:
            cmd += ["--shards", str(shards)]
        env = dict(os.environ, TMPDIR=str(work))
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                         stdout=log, stderr=subprocess.STDOUT,
                                         env=env)
        self.address: tuple[str, int] | None = None

    def _wait_for(self, path: Path, deadline: float, poll_s: float) -> None:
        while not path.exists():
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.proc.returncode} before "
                    f"it was ready:\n{self.log.read_text()[-2000:]}")
            if time.perf_counter() > deadline:
                raise RuntimeError(f"daemon did not create {path.name} in time")
            time.sleep(poll_s)

    def wait_loaded(self) -> None:
        """Wait until the process has imported the program."""
        self._wait_for(self.loaded, time.perf_counter() + READY_TIMEOUT_S,
                       0.005)

    def start_timed(self) -> float:
        """Release the loaded process; returns seconds until ready."""
        self.wait_loaded()
        deadline = time.perf_counter() + READY_TIMEOUT_S
        t0 = time.perf_counter()
        self.proc.stdin.write(b"go\n")
        self.proc.stdin.close()
        while True:
            self._wait_for(self.ready, deadline, READY_POLL_S)
            text = self.ready.read_text()
            if text.endswith("\n"):
                elapsed = time.perf_counter() - t0
                host, _, port = text.strip().rpartition(":")
                self.address = (host, int(port))
                return elapsed
            time.sleep(READY_POLL_S)

    def stop(self) -> dict:
        """Ask for a clean shutdown, wait for it, return the out file.

        Uses the protocol's ``shutdown`` op rather than SIGTERM: the
        daemon's main thread blocks in a join, and a signal delivered
        to one of its other threads can go unhandled until it wakes.
        """
        if self.proc.poll() is None:
            conn = Conn(self.address, None)
            try:
                conn.call("shutdown")
            finally:
                conn.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError("daemon did not shut down") from None
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"daemon exited with {self.proc.returncode}:\n"
                f"{self.log.read_text()[-2000:]}")
        return json.loads(self.out.read_text())

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()


def _fresh_heap(work: Path, i: int) -> Path:
    heap_dir = work / f"heap{i}"
    shutil.rmtree(heap_dir, ignore_errors=True)
    heap_dir.mkdir(parents=True)
    return heap_dir / "kv.heap"


def run_pass(name: str, seed: int, seconds: float, work: Path,
             trace: bool) -> dict:
    """One full run of a ``kv-`` workload; returns its results.

    With ``trace`` the traffic daemon and the restarts carry the layer
    wrappers and the result holds their spans.
    """
    wl = WORKLOADS[name]
    spec = wl.traffic
    daemons: list[Daemon] = []

    def spawn(tags: list[str], paths: list[Path], traced: list[bool]):
        # Every process imports at once; only when all have finished
        # is each released and timed alone while the others wait idle.
        batch = [Daemon(work, tag, path, wl.shards, t)
                 for tag, path, t in zip(tags, paths, traced)]
        daemons.extend(batch)
        for daemon in batch:
            daemon.wait_loaded()
        return batch

    n = SETUP_SPAWNS
    heaps = [_fresh_heap(work, i) for i in range(n)]
    try:
        batch = spawn([f"setup{i}" for i in range(n)], heaps,
                      [trace and i == n - 1 for i in range(n)])
        setup = []
        for i, daemon in enumerate(batch):
            setup.append(daemon.start_timed())
            if i < n - 1:
                daemon.stop()
        traffic_daemon, heap = batch[-1], heaps[-1]

        plans = [ConnPlan(seed, c, spec) for c in range(CONNS)]
        conns = [Conn(traffic_daemon.address, plan) for plan in plans]
        try:
            closed_loop(conns, time.perf_counter() + WARMUP_S, CLOSED_DEPTH,
                        "warmup")
            open_s = seconds * OPEN_SHARE
            schedule = arrivals(seed, spec.open_rate,
                                max(1, int(open_s * spec.open_rate)), CONNS)
            open_loop(conns, time.perf_counter() + 0.05, schedule)
            before = conns[0].call("stats")["stats"]["counters"]
            closed_s = seconds - open_s
            t1 = time.perf_counter()
            t_end = t1 + closed_s
            closed_loop(conns, t_end, CLOSED_DEPTH)
            t_done = time.perf_counter()
            after = conns[0].call("stats")["stats"]["counters"]
        finally:
            for conn in conns:
                conn.close()
        traffic_out = traffic_daemon.stop()

        batch = spawn([f"restart{i}" for i in range(RESTARTS)],
                      [heap] * RESTARTS, [trace] * RESTARTS)
        recover = []
        restart_spans = []
        for i, daemon in enumerate(batch):
            recover.append(daemon.start_timed())
            if i < RESTARTS - 1:
                restart_spans.extend(_rebase(daemon.stop()["spans"],
                                             len(restart_spans)))
        problems = []
        readback_conns = [Conn(daemon.address, None) for _ in range(CONNS)]
        try:
            for conn, reader, plan in zip(conns, readback_conns, plans):
                got = read_back(reader, plan.keys)
                problems += check_connection(conn.records, plan.keys, got)
        finally:
            for reader in readback_conns:
                reader.close()
        restart_spans.extend(_rebase(daemon.stop()["spans"],
                                     len(restart_spans)))
    finally:
        for daemon in daemons:
            daemon.kill()
        for path in heaps:
            shutil.rmtree(path.parent, ignore_errors=True)

    records = [r for conn in conns for r in conn.records]
    open_recs = [r for r in records if r.phase == "open"]
    open_recs.sort(key=lambda r: r.t_sched)
    lat_ms = [(r.t_ack - r.t_sched) * 1e3 for r in open_recs if r.status == OK]
    late_ms = [(r.t_sent - r.t_sched) * 1e3 for r in open_recs]
    closed_acks = sum(1 for r in records
                      if r.phase == "closed" and r.status == OK
                      and r.t_ack <= t_end)
    failed = sum(1 for r in records if r.status != OK)
    user_bytes = sum(PUT_BYTES if r.op == PUT else DELETE_BYTES
                     for r in records if r.status == OK and r.op != GET)
    windows = after["windows"] - before["windows"]
    lines = traffic_out["lines_written"]
    result = {
        "attempted": len(records),
        "failed": failed,
        "shed": sum(1 for r in records if r.status == SHED),
        "problems": problems,
        "metrics": {
            "setup_s": float(np.median(setup)),
            "p50_ms": float(np.median(lat_ms)),
            "p99_ms": float(np.quantile(lat_ms, 0.99)),
            "peak_rps": closed_acks / closed_s,
            "write_amp": lines * LINE_BYTES / max(user_bytes, 1),
            "launch_s": (t_done - t1) / max(windows, 1),
            "recover_s": float(np.median(recover)),
        },
        #: The samples behind each metric (a count where there are none).
        "samples": {
            "setup_s": setup, "p50_ms": lat_ms, "p99_ms": lat_ms,
            "recover_s": recover, "peak_rps": closed_acks,
            "launch_s": windows, "write_amp": lines,
        },
        "client_late_ms_p99": (float(np.quantile(late_ms, 0.99))
                               if late_ms else 0.0),
        "working_set": {
            "keys": CONNS * spec.keys_per_conn,
            # A key lives in one bucket of the key array and one of the
            # value array: at most two heap lines.
            "heap_bytes_max": CONNS * spec.keys_per_conn * 2 * LINE_BYTES,
            "cache_bytes": CACHE_LINES * LINE_BYTES,
        },
    }
    if trace:
        spans = traffic_out["spans"]
        layers = layer_metrics(
            spans, units=sum(1 for s in spans if s[0] == "service.window"),
            open_spans=restart_spans, windows_only=True)
        layers["client.late_ms_p99"] = result["client_late_ms_p99"]
        result["layers"] = layers
        result["spans"] = spans
    return result


def _rebase(spans, offset: int) -> list:
    """Shift parent indices so span lists of several processes concatenate."""
    return [[s[0], s[1], s[2], s[3] + offset if s[3] >= 0 else -1,
             s[4], s[5]] for s in spans]


__all__ = ["WORKLOADS", "run_pass"]
