"""Tests of the benchmark itself (run: python3 -m pytest perfbench/tests -q).

Minimal-size runs of every workload, untraced and traced, checked for
clean outcomes and for emitting every metric BENCHMARK.json names; plus
the failure accounting on a deliberately corrupted digest.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _small_run(name, trace, expected=None):
    return run.run(name, workloads.DEFAULT_SEED, 0, trace, ROOT, small=True,
                   setup_samples=1, expected=expected)


def _check_metrics(result, kind):
    metrics = run.report_metrics(result, SPEC[kind])
    assert set(metrics) == {m["name"] for m in SPEC[kind]}
    assert set(result["metrics"]) == set(metrics)
    for m in SPEC[kind]:
        value = metrics[m["name"]]["value"]
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert isinstance(value, (int, float)) and value == value
        if kind == "end_to_end":
            assert value > 0, m["name"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_small_run_is_clean_and_complete(name):
    result = _small_run(name, trace=False)
    assert result["failed"] == 0, result["messages"]
    assert result["correct"] and result["attempted"] >= 1
    _check_metrics(result, "end_to_end")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_run_emits_every_layer_metric(name):
    result = _small_run(name, trace=True)
    assert result["failed"] == 0, result["messages"]
    _check_metrics(result, "per_layer")
    m = result["metrics"]
    assert 0 < m["trace.self_share"] <= 1.0
    assert m["trace.overhead_ratio"] > 0
    assert m["trace.spans"] > 0


def test_tracer_restores_every_binding():
    import repro.core
    import repro.core.plan
    import repro.simulator.fastcycle
    from tracing import Tracer

    before = (repro.core.get_plan, repro.core.plan.polarfly_graph,
              vars(repro.simulator.fastcycle.FastCycleSimulator)["run"])
    with Tracer():
        assert repro.core.get_plan is not before[0]
        assert repro.core.plan.polarfly_graph is not before[1]
        repro.core.plan.polarfly_graph.cache_clear()  # lru API forwarded
    after = (repro.core.get_plan, repro.core.plan.polarfly_graph,
             vars(repro.simulator.fastcycle.FastCycleSimulator)["run"])
    assert after == before


def test_corrupted_digest_counts_as_failure():
    clean = _small_run("ensemble", trace=False, expected={})
    w = workloads.SETUP["ensemble"](workloads.DEFAULT_SEED, small=True)
    key = workloads.request_key(w.requests[0])
    corrupted = {key: "0" * 64}
    result = _small_run("ensemble", trace=False, expected=corrupted)
    assert clean["failed"] == 0
    assert result["failed"] == 1 and not result["correct"]
    assert any("digest" in msg for msg in result["messages"])


def test_recorded_digests_cover_the_default_seed():
    for name in ("collective", "ensemble"):
        w = workloads.SETUP[name](workloads.DEFAULT_SEED)
        recorded = workloads.load_digests(name)
        assert {workloads.request_key(r) for r in w.requests} <= set(recorded)


def test_seeds_make_the_inputs():
    a = workloads.SETUP["collective"](3, small=True).requests
    b = workloads.SETUP["collective"](3, small=True).requests
    c = workloads.SETUP["collective"](4, small=True).requests
    assert a == b and a != c


def test_exits_nonzero_without_the_program(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", "collective", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
