"""Seeded request plans for the KV workloads.

The benchmark makes all of its traffic here, from the ``--seed`` on
its command line, and never through the program's own generators, so a
change to the program cannot change what the program is asked to do.

Each connection owns a disjoint partition of the key space and draws
an endless, deterministic stream of operations over it: the same
``(seed, connection)`` always yields the same stream, however much of
it a run consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

GET, PUT, DELETE = 0, 1, 2
OP_NAMES = ("get", "put", "delete")

#: Operations drawn per generator step; fixed so that the stream does
#: not depend on how far a run reads into it.
CHUNK = 4096

#: Values stay below 2**63 so they survive any JSON encoder as plain ints.
VALUE_LIMIT = 1 << 63


@dataclass(frozen=True)
class TrafficSpec:
    """Shape of one KV workload's traffic."""

    #: Shares of GET, PUT and DELETE; they sum to 1.
    mix: tuple[float, float, float]
    #: Keys in each connection's partition.
    keys_per_conn: int
    #: Zipfian skew over key ranks; 0 means uniform.
    theta: float
    #: Requests per second offered by all connections together.
    open_rate: float


def arrivals(seed: int, rate: float, n: int, conns: int) -> list[tuple[float, int]]:
    """Open-loop schedule: ``n`` Poisson arrivals at ``rate`` per second
    as ``(offset_s, connection)``, dealt to the connections in turn.

    Independent users arrive at random, not on a grid; a grid would
    lock into one phase against the daemon's batching window and make
    latency depend on that phase.
    """
    rng = np.random.default_rng([seed, 0xA77])
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=n))
    return [(float(t), i % conns) for i, t in enumerate(offsets)]


def partition_keys(seed: int, conn: int, n_keys: int) -> np.ndarray:
    """The keys of connection ``conn``, indexed by popularity rank.

    Connection ``c`` owns ``[1 + c*n_keys, (c+1)*n_keys]``, so the
    partitions are disjoint and key 0 (the store's empty sentinel) is
    never used. The rank-to-key order is a seeded shuffle, so the hot
    keys are not the lowest ones.
    """
    rng = np.random.default_rng([seed, conn, 0x5EED])
    base = np.uint64(1 + conn * n_keys)
    return base + rng.permutation(n_keys).astype(np.uint64)


def _rank_cdf(n_keys: int, theta: float) -> np.ndarray:
    weights = 1.0 / np.arange(1, n_keys + 1, dtype=np.float64) ** theta
    cdf = np.cumsum(weights)
    return cdf / cdf[-1]


class ConnPlan:
    """The endless operation stream of one connection.

    ``op(i)``, ``key(i)`` and ``value(i)`` give request ``i``; chunks
    are generated on first use.
    """

    def __init__(self, seed: int, conn: int, spec: TrafficSpec) -> None:
        self.conn = conn
        self.spec = spec
        self.keys = partition_keys(seed, conn, spec.keys_per_conn)
        self._rng = np.random.default_rng([seed, conn, 0x0B5])
        self._cdf = _rank_cdf(spec.keys_per_conn, spec.theta)
        self._op_cdf = np.cumsum(spec.mix)
        self._ops: list[np.ndarray] = []
        self._key_ids: list[np.ndarray] = []
        self._values: list[np.ndarray] = []

    def _ensure(self, i: int) -> None:
        while len(self._ops) * CHUNK <= i:
            rng = self._rng
            ranks = np.searchsorted(self._cdf, rng.random(CHUNK), side="right")
            ops = np.searchsorted(self._op_cdf, rng.random(CHUNK), side="right")
            values = rng.integers(1, VALUE_LIMIT, size=CHUNK, dtype=np.uint64)
            self._key_ids.append(
                np.minimum(ranks, self.spec.keys_per_conn - 1))
            self._ops.append(np.minimum(ops, DELETE).astype(np.uint8))
            self._values.append(values)

    def request(self, i: int) -> tuple[int, int, int]:
        """``(op, key, value)`` of request ``i``."""
        self._ensure(i)
        chunk, pos = divmod(i, CHUNK)
        key = int(self.keys[self._key_ids[chunk][pos]])
        return int(self._ops[chunk][pos]), key, int(self._values[chunk][pos])
