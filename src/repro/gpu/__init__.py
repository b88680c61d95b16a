"""Simulated SIMT GPU substrate: memory, cache, warps, kernels, device.

Block execution is pluggable: :mod:`repro.gpu.engine` provides the
serial and batched (vectorized-group) launch engines, bit-identical
in results.
"""

from repro.gpu.engine import (
    BatchedEngine,
    LaunchEngine,
    LaunchPlan,
    SerialEngine,
    make_engine,
)

__all__ = [
    "BatchedEngine",
    "LaunchEngine",
    "LaunchPlan",
    "SerialEngine",
    "make_engine",
]
