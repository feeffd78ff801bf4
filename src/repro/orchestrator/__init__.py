"""Parallel campaign orchestration (the scalability substrate).

Every heavy harness in this reproduction — the differential conformance
fuzzer, the fault-injection, machine-fault and churn campaigns, the
attack campaign and the bench rigs — boils down to "replay a seeded
matrix of event streams and merge the verdicts".  This package makes
that one scalable operation:

* :mod:`~repro.orchestrator.families` — the campaign-family registry:
  each family's plan axes, shard runner, merge, report writer, gate and
  summary, as one :class:`CampaignFamily` entry;
* :mod:`~repro.orchestrator.shards` — deterministic partitioning of a
  campaign's seed space into JSON-plain :class:`ShardSpec` units, with
  a layout that depends only on the campaign parameters (never on
  ``--jobs``), so parallelism can never change which streams run;
* :mod:`~repro.orchestrator.worker` — the dumb per-shard process that
  publishes its :class:`ShardResult` with an atomic rename;
* :mod:`~repro.orchestrator.supervisor` — the policy loop: per-shard
  timeouts, SIGKILL recovery with bounded retries on fresh workers, and
  poison-shard quarantine that records the offending seeds and moves on;
* :mod:`~repro.orchestrator.checkpoint` — journaled run directories
  whose shard files double as resume checkpoints (``--resume``);
* :mod:`~repro.orchestrator.metrics` — events/sec per worker, shard
  latency histogram, retry/quarantine counters and peak worker RSS,
  persisted per run and printable via
  ``python -m repro orchestrate --status``;
* :mod:`~repro.orchestrator.api` — :func:`orchestrate`, the one entry
  point: plan, run the shards in-process or supervised, merge
  (``--jobs N`` is bit-compatible with ``--jobs 1``).

CLI: ``python -m repro faults --jobs 4`` /
``python -m repro conformance --jobs 4 --resume`` /
``python -m repro orchestrate --status``.
"""

from .api import CampaignRun, orchestrate
from .checkpoint import (
    RunJournal,
    default_run_dir,
    latest_run_dir,
)
from .families import FAMILIES, CampaignFamily
from .metrics import RunMetrics, render_metrics
from .shards import (
    SHARDS_PER_UNIT,
    ShardPlan,
    ShardResult,
    ShardSpec,
)
from .supervisor import (
    DEFAULT_MAX_RETRIES,
    SupervisedRun,
    Supervisor,
)
from .worker import execute_shard, worker_entry

__all__ = [
    "CampaignFamily",
    "CampaignRun",
    "DEFAULT_MAX_RETRIES",
    "FAMILIES",
    "RunJournal",
    "RunMetrics",
    "SHARDS_PER_UNIT",
    "ShardPlan",
    "ShardResult",
    "ShardSpec",
    "SupervisedRun",
    "Supervisor",
    "default_run_dir",
    "execute_shard",
    "latest_run_dir",
    "orchestrate",
    "render_metrics",
    "worker_entry",
]
