"""Unit tests for the container-aware CPU budget."""

import os

import pytest

from repro.gpu import shm


def test_cpu_budget_is_positive():
    assert shm.cpu_budget() >= 1


def test_cpu_budget_respects_affinity():
    if not hasattr(os, "sched_getaffinity"):
        pytest.skip("no scheduling affinity on this platform")
    assert shm.cpu_budget() <= max(1, len(os.sched_getaffinity(0)))
