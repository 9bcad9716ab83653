"""Tests of the benchmark itself, on tiny versions of its workloads.

They check that every metric ``BENCHMARK.json`` names is produced with its
unit, that the correctness gate passes on a healthy run and fails when
storage loses data, that runs repeat exactly at one seed, and that the
traced run leaves no wrapper behind.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from layerbench.measure import gate, run_rep
from layerbench.run import measured_run, traced_run
from layerbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(name: str):
    size = {"num_records": 200} if name.startswith("ycsb") else {"num_accounts": 200}
    return WORKLOADS[name].scaled(transactions=48, **size)


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metrics_and_gate(name):
    rep, problems, metrics, record = measured_run(tiny(name), seed=3, seconds=0)
    assert problems == []
    assert {n: u for n, (_, u) in metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value, _ in metrics.values())
    assert record["repetitions"] == 1 and rep.offered == 48


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_is_deterministic_and_restores_methods(name):
    from repro.oram.ring_oram import RingOram

    first = traced_run(tiny(name), seed=5)
    second = traced_run(tiny(name), seed=5)
    for rep, problems, metrics, _ in (first, second):
        assert problems == []
        assert {n: u for n, (_, u) in metrics.items()} == {
            m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [{n: v for n, (v, u) in run[2].items() if u in ("count", "bytes")}
              for run in (first, second)]
    assert counts[0] == counts[1]
    assert first[0].digest == second[0].digest
    assert not hasattr(RingOram.plan_path_read, "__wrapped__")


def test_read_back_fails_when_storage_drops_keys():
    workload = tiny("smallbank-oram")
    rep = run_rep(workload, seed=7)
    storage = rep.engine.storage
    storage.delete_batch(storage.keys())
    problems = gate(rep, workload)
    assert any(p.startswith("read-back") for p in problems), problems


def test_untraced_run_imports_no_tracing_code():
    code = ("import sys; sys.path[:0] = ['src', '.']\n"
            "from layerbench.run import measured_run\n"
            "from layerbench.workloads import WORKLOADS\n"
            "measured_run(WORKLOADS['smallbank-nopriv'].scaled(48, num_accounts=200), 1, 0)\n"
            "assert 'layerbench.tracing' not in sys.modules\n")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True, timeout=120)


def test_refuses_to_run_without_the_program(tmp_path):
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__", "results"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(SPEC["command"] + ["--workload", "smallbank-nopriv", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
