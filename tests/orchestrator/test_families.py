"""The campaign-family registry: one pipeline, identical on every path.

Every registered family runs a mini campaign twice — in-process
(``--jobs 1``) and through the supervised pool (``jobs=2``, checkpointed
run directory) — and must produce the same report bytes and the same
summary lines.  The shard layouts are pinned to the literals the
hand-rolled planners produced before the registry existed, so the
checkpoints of in-flight run directories stay resumable.
"""

import json

import pytest

from repro.analysis.report import distill_contract_counters
from repro.contracts import CONTRACT_NAMES
from repro.orchestrator import FAMILIES, orchestrate

#: One mini campaign per registered family.
MINI_PARAMS = {
    "conformance": {
        "backends": ["riscv", "x86"], "configs": ["stress"], "seed": 0,
        "n_events": 300, "layer": "pcu", "scrub_interval": 0,
        "oracle_only": False, "contracts": True, "dump_dir": None,
    },
    "faults": {
        "backends": ["riscv", "x86"], "configs": ["draco"], "seed": 0,
        "n_events": 120, "n_campaigns": 4, "scrub_interval": 64,
        "faults_per_campaign": 1, "contracts": True,
    },
    "machine_faults": {
        "backends": ["riscv", "x86"], "seed": 7, "n_campaigns": 4,
        "iterations": 2, "faults_per_campaign": 1, "scrub_interval": None,
        "pulse_interval": None, "contracts": True,
    },
    "churn": {
        "backends": ["riscv"], "seed": 0, "n_ops": 250, "n_campaigns": 4,
        "max_slots": 12, "config": "stress", "scrub_interval": 64,
        "contracts": True,
    },
    "attacks": {
        "seeds": [0, 1], "n_streams": 3, "stream_len": 24,
        "contracts": True,
    },
    "bench": {"rigs": ["churn_stress"], "fast_path": True,
              "block_cache": True},
}

#: Host measurements: the one part of a bench payload that may differ.
HOST_TIMING = ("wall_s", "ips")


def report_bytes(family, report, path) -> bytes:
    if family.write is not None:
        family.write(report, str(path))
        return path.read_bytes()
    records = [{key: value for key, value in record.items()
                if key not in HOST_TIMING} for record in report]
    return json.dumps(records, sort_keys=True).encode()


def test_every_family_has_a_mini_campaign():
    assert set(MINI_PARAMS) == set(FAMILIES)


@pytest.mark.parametrize("kind", sorted(MINI_PARAMS))
def test_in_process_and_supervised_runs_are_identical(kind, tmp_path,
                                                      monkeypatch):
    family = FAMILIES[kind]
    monkeypatch.chdir(tmp_path)
    serial, run, run_dir = orchestrate(kind, MINI_PARAMS[kind])
    assert run is None and run_dir is None
    assert list(tmp_path.iterdir()) == []    # no run directory written
    sharded, run, run_dir = orchestrate(kind, MINI_PARAMS[kind], jobs=2,
                                        run_dir=str(tmp_path / "run"))
    assert run.complete
    assert report_bytes(family, serial, tmp_path / "serial.json") \
        == report_bytes(family, sharded, tmp_path / "sharded.json")
    assert family.summary(serial) == family.summary(sharded)
    assert family.gate(serial) == family.gate(sharded) == []


@pytest.mark.parametrize("kind", ["faults", "machine_faults", "churn",
                                  "attacks"])
def test_summary_and_distillation_share_the_contract_counters(kind, tmp_path):
    # The nightly soak distills each written report's counters into one
    # artifact; the family's summary prints the same counters.
    family = FAMILIES[kind]
    report = orchestrate(kind, MINI_PARAMS[kind]).report
    path = tmp_path / ("%s_campaigns_nightly.json" % kind)
    family.write(report, str(path))
    written = json.loads(path.read_text())
    counters = distill_contract_counters(
        [str(path)], str(tmp_path / "contract_counters_nightly.json"))
    assert counters == {path.name: {
        "contract_counts": written["contract_counts"],
        "unwaived_contract_violations":
            written["unwaived_contract_violations"],
    }}
    counts = written["contract_counts"]
    assert family.summary(report)[-1] == (
        "contract counters: %s  unwaived=%d" % (
            " ".join("%s=%d" % (name, counts[name])
                     for name in CONTRACT_NAMES),
            written["unwaived_contract_violations"]))


class TestSabotagedAttackShard:
    VICTIM = "attacks-s1"

    @pytest.fixture(scope="class")
    def serial(self):
        return orchestrate("attacks", MINI_PARAMS["attacks"]).report

    def test_crashed_shard_is_retried(self, tmp_path, serial):
        report, run, _ = orchestrate(
            "attacks", MINI_PARAMS["attacks"], jobs=2,
            run_dir=str(tmp_path / "run"),
            sabotage={self.VICTIM: {"kind": "sigkill", "attempts": 1}})
        assert run.complete
        assert run.metrics.crashes == 1 and run.metrics.retries == 1
        assert run.by_id()[self.VICTIM].attempt == 1
        family = FAMILIES["attacks"]
        assert report_bytes(family, report, tmp_path / "a.json") \
            == report_bytes(family, serial, tmp_path / "b.json")

    def test_shard_failing_every_attempt_is_quarantined(self, tmp_path):
        report, run, _ = orchestrate(
            "attacks", MINI_PARAMS["attacks"], jobs=2,
            run_dir=str(tmp_path / "run"), max_retries=1,
            sabotage={self.VICTIM: {"kind": "exception", "attempts": 99}})
        assert [spec.shard_id for spec in run.quarantined] == [self.VICTIM]
        assert run.metrics.quarantined == 1
        assert [result.seed for result in report] == [0]


#: (kind, params, fingerprint, shard ids, weights) as planned before the
#: registry existed.
PINNED_LAYOUTS = [
    ("faults",
     {"backends": ["riscv", "x86"], "configs": ["draco"], "seed": 0,
      "n_events": 200, "n_campaigns": 10, "scrub_interval": 64,
      "faults_per_campaign": 1, "contracts": True},
     "6b1e2b55ec278544",
     ["faults-%s-draco-c%04d-c%04d" % (backend, lo, lo + 2)
      for backend in ("riscv", "x86") for lo in range(0, 10, 2)],
     [400] * 10),
    ("faults",
     {"backends": ["riscv"], "configs": ["stress"], "seed": 0,
      "n_events": 120, "n_campaigns": 6, "scrub_interval": 64,
      "faults_per_campaign": 1, "contracts": True, "profile": True},
     "dc975ee7d435a576",
     ["faults-riscv-stress-c%04d-c%04d" % (lo, lo + 1) for lo in range(6)],
     [120] * 6),
    ("machine_faults",
     {"backends": ["riscv"], "seed": 7, "n_campaigns": 4, "iterations": 2,
      "faults_per_campaign": 1, "scrub_interval": None,
      "pulse_interval": None, "contracts": True},
     "8584b96a952f1626",
     ["mfaults-riscv-c0000-c0001", "mfaults-riscv-c0001-c0002",
      "mfaults-riscv-c0002-c0003", "mfaults-riscv-c0003-c0004"],
     [6417] * 4),
    ("churn",
     {"backends": ["riscv", "x86"], "seed": 0, "n_ops": 300,
      "n_campaigns": 9, "max_slots": 16, "config": "stress",
      "scrub_interval": 64, "contracts": True},
     "947cbcdaf46b5d8b",
     ["churn-%s-c%04d-c%04d" % (backend, lo, min(lo + 2, 9))
      for backend in ("riscv", "x86") for lo in range(0, 9, 2)],
     [600, 600, 600, 600, 300] * 2),
    ("conformance",
     {"backends": ["riscv", "x86"], "configs": ["stress", "draco"],
      "seed": 3, "n_events": 500, "layer": "pcu", "scrub_interval": 0,
      "oracle_only": False, "contracts": True, "dump_dir": "."},
     "601f435d07c4d395",
     ["conformance-riscv-stress-s3", "conformance-riscv-draco-s3",
      "conformance-x86-stress-s3", "conformance-x86-draco-s3"],
     [500] * 4),
    ("bench",
     {"rigs": ["smoke", "churn_stress"], "fast_path": True,
      "block_cache": False},
     "1d046eaaec16075f",
     ["bench-smoke-fast-noblocks", "bench-churn_stress-fast-noblocks"],
     [200000, 10000]),
]


@pytest.mark.parametrize("kind,params,fingerprint,shard_ids,weights",
                         PINNED_LAYOUTS)
def test_shard_layout_matches_pre_registry_planners(kind, params, fingerprint,
                                                    shard_ids, weights):
    plan = FAMILIES[kind].plan(params)
    assert [shard.shard_id for shard in plan.shards] == shard_ids
    assert [shard.weight for shard in plan.shards] == weights
    assert plan.fingerprint() == fingerprint


def test_shard_params_replace_the_axes_with_the_unit():
    plan = FAMILIES["faults"].plan(PINNED_LAYOUTS[0][1])
    assert plan.shards[-1].params == {
        "backend": "x86", "config": "draco", "seed": 0, "n_events": 200,
        "n_campaigns": 10, "campaign_lo": 8, "campaign_hi": 10,
        "scrub_interval": 64, "faults_per_campaign": 1, "contracts": True}
    bench = FAMILIES["bench"].plan(PINNED_LAYOUTS[-1][1])
    assert bench.params == {"rigs": ["smoke", "churn_stress"],
                            "fast_path": True}
    assert bench.shards[0].params == {"rig": "smoke", "fast_path": True,
                                      "block_cache": False}
