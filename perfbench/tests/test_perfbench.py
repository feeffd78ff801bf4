"""The benchmark's own tests, at the ``tiny`` unit size.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q

Traced runs happen in subprocesses, so the class-level wrappers never
touch the test process.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import units  # noqa: E402


@pytest.fixture(scope="module", autouse=True)
def simulator():
    run.import_simulator()


def _run_cli(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")]
                          + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=300)


@pytest.mark.parametrize("workload", units.WORKLOADS)
def test_tiny_workload_passes_its_checks(workload):
    rounds = run.run_rounds(workload, 7, "tiny", 0, {})
    results = rounds[0]["units"]
    assert results
    assert [r.name for r in results if r.failures] == []
    assert all(r.digest and r.work > 0 for r in results)


def test_wrong_expected_digest_is_a_failed_unit():
    first = units.build_units("x86_kernel", 7, "tiny")[0].name
    rounds = run.run_rounds("x86_kernel", 7, "tiny", 0, {first: "0" * 16})
    failed = [r for r in rounds[0]["units"] if r.failures]
    assert [r.name for r in failed] == [first]
    assert "differs from expected" in failed[0].failures[0]


def test_same_seed_same_digests_other_seed_differs():
    one = [r.digest for r in run.run_rounds("campaigns", 3, "tiny", 0, {})[0]["units"]]
    again = [r.digest for r in run.run_rounds("campaigns", 3, "tiny", 0, {})[0]["units"]]
    other = [r.digest for r in run.run_rounds("campaigns", 4, "tiny", 0, {})[0]["units"]]
    assert one == again
    assert one != other


@pytest.mark.parametrize("workload", ["x86_kernel", "campaigns"])
def test_traced_run_reproduces_untraced(workload):
    done = _run_cli("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", "1", "--size", "tiny")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    with open(run.report_path(workload, 7, "tiny", 1)) as handle:
        traced = json.load(handle)
    with open(run.report_path(workload, 7, "tiny", 0)) as handle:
        reference = json.load(handle)
    assert traced["digests"] == reference["digests"]
    assert (traced["simulated"]["block_inst_share"]
            == reference["simulated"]["block_inst_share"])
    if workload == "x86_kernel":
        assert traced["simulated"]["block_inst_share"] > 0.5
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(last["metrics"]) == {m["name"] for m in spec["per_layer"]}


def test_untraced_output_names_every_end_to_end_metric():
    done = _run_cli("--workload", "riscv_kernel", "--seed", "7", "--seconds", "1",
                    "--size", "tiny")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert set(last["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    for metric in spec["end_to_end"]:
        assert last["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert last["metrics"][metric["name"]]["value"] > 0


def test_without_simulator_source_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, str(tmp_path / "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), str(tmp_path))
    done = _run_cli("--workload", "campaigns", "--seed", "1", "--seconds", "1",
                    cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""
