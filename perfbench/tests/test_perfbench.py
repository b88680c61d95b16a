"""Tests of the benchmark itself (not of the program it measures).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

import kvbench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import traffic  # noqa: E402
from plan import DELETE, GET, PUT, ConnPlan, arrivals, partition_keys  # noqa: E402
from traffic import ERROR, OK, SHED, Record, check_connection  # noqa: E402

SPEC = kvbench.WORKLOADS["kv-mixed"].traffic


def prefix(plan: ConnPlan, n: int) -> list[tuple[int, int, int]]:
    return [plan.request(i) for i in range(n)]


# ----------------------------------------------------------------------
# Plans
# ----------------------------------------------------------------------

def test_same_seed_same_plan_other_seed_other_plan():
    a = prefix(ConnPlan(7, 0, SPEC), 5000)
    b = prefix(ConnPlan(7, 0, SPEC), 5000)
    c = prefix(ConnPlan(8, 0, SPEC), 5000)
    assert a == b
    assert a != c
    assert arrivals(7, 1000.0, 500, 2) == arrivals(7, 1000.0, 500, 2)
    assert arrivals(7, 1000.0, 500, 2) != arrivals(8, 1000.0, 500, 2)


def test_plan_does_not_depend_on_read_order():
    plan = ConnPlan(3, 1, SPEC)
    late = plan.request(9000)
    assert prefix(ConnPlan(3, 1, SPEC), 9001)[-1] == late


def test_partitions_are_disjoint_and_nonzero():
    for spec in (w.traffic for w in kvbench.WORKLOADS.values()):
        parts = [set(partition_keys(11, c, spec.keys_per_conn).tolist())
                 for c in range(kvbench.CONNS)]
        for i, part in enumerate(parts):
            assert len(part) == spec.keys_per_conn
            assert 0 not in part
            for other in parts[i + 1:]:
                assert not part & other
        for c in range(kvbench.CONNS):
            used = {key for _, key, _ in prefix(ConnPlan(11, c, spec), 3000)}
            assert used <= parts[c]


def test_op_mix_follows_the_spec():
    ops = np.array([op for op, _, _ in prefix(ConnPlan(5, 0, SPEC), 20000)])
    shares = np.bincount(ops, minlength=3) / ops.size
    assert np.allclose(shares, SPEC.mix, atol=0.02)


# ----------------------------------------------------------------------
# Correctness checks of the traffic generator
# ----------------------------------------------------------------------

def _rec(op, key, value=0, status=OK, got=None):
    return Record("open", op, key, value, 0.0, status=status, got=got)


def _answered(key, got):
    return _rec(GET, key, status=OK, got=got)


def test_check_accepts_a_consistent_history():
    records = [_rec(PUT, 1, 10), _rec(GET, 1, got=10), _rec(DELETE, 1),
               _rec(GET, 1, got=None), _rec(PUT, 2, 20),
               _rec(PUT, 2, 30, status=SHED), _rec(GET, 2, got=20)]
    readback = {1: _answered(1, None), 2: _answered(2, 20),
                3: _answered(3, None)}
    assert check_connection(records, [1, 2, 3], readback) == []


def test_check_reports_a_planted_mismatch():
    records = [_rec(PUT, 1, 10), _rec(PUT, 2, 20)]
    readback = {1: _answered(1, 10), 2: _answered(2, 21)}
    problems = check_connection(records, [1, 2], readback)
    assert len(problems) == 1 and "get(2)" in problems[0]


def test_check_reports_a_stale_traffic_get_and_a_missing_answer():
    records = [_rec(PUT, 1, 10), _rec(GET, 1, got=None)]
    problems = check_connection(records, [1], {})
    assert len(problems) == 2


def test_check_skips_keys_whose_write_outcome_is_unknown():
    records = [_rec(PUT, 1, 10), _rec(PUT, 1, 11, status=ERROR),
               _rec(GET, 1, got=11)]
    assert check_connection(records, [1], {1: _answered(1, 10)}) == []
    # The next acked write makes the key checkable again.
    records.append(_rec(PUT, 1, 12))
    assert check_connection(records, [1], {1: _answered(1, 10)})


def test_planted_readback_mismatch_fails_the_run(monkeypatch, tmp_path,
                                                 capsys):
    real = traffic.read_back

    def corrupt(conn, keys, depth=64):
        out = real(conn, keys, depth)
        victim = out[int(keys[0])]
        victim.got = (victim.got or 0) + 1
        return out

    monkeypatch.setattr(kvbench, "read_back", corrupt)
    code = run.main(["--workload", "kv-mixed", "--seed", "1",
                     "--seconds", "1", "--work", str(tmp_path)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert code == 1
    assert json.loads(last)["correct"] is False


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------

def _span(name, start, end, parent=-1, window=-1, data=None):
    return [name, start, end, parent, window, data]


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span("gpu.launch", 0.0, 10.0),                 # 0
        _span("nvm.arm", 1.0, 2.0, parent=0),           # 1
        _span("nvm.commit", 3.0, 7.0, parent=0),        # 2
        _span("nvm.commit", 4.0, 6.0, parent=2),        # 3 (shard)
        _span("gpu.drain", 11.0, 12.0),                 # 4
    ]
    assert tracing.self_times(spans).tolist() == [5.0, 1.0, 2.0, 2.0, 1.0]
    assert tracing.outermost(spans, 2) and not tracing.outermost(spans, 3)


def test_layer_metrics_on_a_synthetic_window():
    window = {"size": 4, "waits_ms": [1.0, 2.0, 3.0, 4.0], "sub_batches": 2,
              "launches": 3, "failed": 0}
    spans = [
        _span("service.window", 0.000, 0.010, window=0, data=window),   # 0
        _span("megakv.insert", 0.001, 0.004, parent=0, window=0),       # 1
        _span("gpu.launch", 0.002, 0.003, parent=1, window=0),          # 2
        _span("nvm.attach_detach", 0.005, 0.009, parent=0, window=0),   # 3
        _span("nvm.attach_detach", 0.006, 0.007, parent=3, window=0),   # 4
        _span("nvm.commit", 0.0095, 0.0097, parent=0, window=0, data=8),
    ]
    m = tracing.layer_metrics(spans, units=1, windows_only=True)
    assert m["service.window.count"] == 1
    assert m["service.window.size_mean"] == 4
    assert m["service.window.self_ms"] == pytest.approx(10 - 3 - 4 - 0.2)
    assert m["service.window.uncovered_frac"] == pytest.approx(0.28)
    assert m["megakv.insert.self_ms"] == pytest.approx(2.0)
    assert m["gpu.launch.self_ms"] == pytest.approx(1.0)
    # The sharded attach and its inner shard attach: one call. The outer
    # span net of the inner one is the manifest rewrite, the inner span
    # the shard's directory rewrite.
    assert m["nvm.attach_detach.count"] == 1
    assert m["nvm.attach_detach.self_ms"] == pytest.approx(3.0)
    assert m["nvm.attach_detach.shard_self_ms"] == pytest.approx(1.0)
    assert m["nvm.attach_detach.window_share"] == pytest.approx(0.3)
    assert m["nvm.writeback.lines"] == 8
    assert m["nvm.lines_per_request"] == 2
    assert m["megakv.launches_per_window"] == 3
    assert m["service.queue_wait_ms_p50"] == pytest.approx(2.5)


def _public_calls():
    from repro.gpu.device import Device
    from repro.nvm.mapped import MappedShadow
    import repro.service.core as service_core

    return (Device.__dict__["launch"], MappedShadow.__dict__["open"],
            service_core.partition_window,
            service_core.ServiceCore.__dict__["execute_window"])


def test_wrappers_are_removed_after_a_traced_run(tmp_path, capsys):
    before = _public_calls()
    code = run.main(["--workload", "lp-recover", "--seed", "2",
                     "--seconds", "0.1", "--trace", "1",
                     "--work", str(tmp_path)])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and out["correct"] is True
    assert set(out["metrics"]) == set(run.PER_LAYER)
    assert out["metrics"]["core.failed_blocks"]["value"] > 0
    assert out["metrics"]["service.window.count"]["value"] == 0
    after = _public_calls()
    assert all(a is b for a, b in zip(before, after))


def test_install_then_remove_restores_every_function():
    before = _public_calls()
    tracer = tracing.install(tracing.Tracer())
    assert not any(a is b for a, b in zip(before, _public_calls()))
    tracer.remove()
    assert all(a is b for a, b in zip(before, _public_calls()))


# ----------------------------------------------------------------------
# Metric names
# ----------------------------------------------------------------------

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END
    assert layers == run.PER_LAYER
    for name in [*e2e, *layers, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name
    assert {w["name"] for w in spec["workloads"]} == set(run.WORKLOADS)
