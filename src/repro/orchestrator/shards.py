"""Shard planning: deterministic partitioning of a campaign's seed space.

A *shard* is the orchestrator's unit of distribution: one self-contained
slice of a campaign matrix that a worker process can execute without
talking to anyone else, described entirely by JSON-serializable
parameters.  Two invariants make parallel runs trustworthy:

* **Seed-space determinism** — the shard layout is a pure function of
  the campaign parameters (backends, configs, seed, event and campaign
  counts), never of ``--jobs``, worker scheduling, or a previous run's
  state.  ``--jobs 4`` therefore generates exactly the streams that
  ``--jobs 1`` generates, and a resumed run slots its completed shards
  back into the same layout.
* **Order-independent merging** — every shard result carries enough
  indexing (backend, config, campaign range) for the merge step to
  reassemble results in canonical matrix order no matter which worker
  finished first.

Shard granularity: the conformance fuzzer replays one stateful stream
per (backend, config) pair, so that pair is the smallest splittable
unit.  Fault campaigns are independent per campaign index, so each
(backend, config) unit is further chunked into contiguous campaign
ranges; the chunk size is derived from the campaign count alone (see
:data:`SHARDS_PER_UNIT`) so the layout survives re-planning with a
different worker count.  :func:`plan_shards` is the one chunker; each
:class:`~repro.orchestrator.families.CampaignFamily` only names its
axes, shard ids and weights.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

#: How many shards one unit of a chunked campaign family (e.g. one
#: (backend, config) fault pair) is split into, at most.  A policy
#: constant, not a tunable: changing it changes shard ids and orphans
#: the checkpoints of in-flight runs.
SHARDS_PER_UNIT = 8


@dataclass(frozen=True)
class ShardSpec:
    """One self-contained slice of a campaign, ready to hand a worker.

    ``params`` must stay JSON-plain: it crosses the process boundary as
    the worker's whole world view.  ``sabotage`` is a test-only hook the
    failure-path tests use to make a worker crash, hang or raise on a
    chosen attempt; production planners never set it.
    """

    shard_id: str
    kind: str                      # a registered campaign family
    params: Dict[str, object] = field(default_factory=dict, hash=False)
    weight: int = 0                # events this shard replays (metrics)
    sabotage: Optional[Dict[str, object]] = field(default=None, hash=False)

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "kind": self.kind,
            "params": dict(self.params),
            "weight": self.weight,
            "sabotage": dict(self.sabotage) if self.sabotage else None,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardSpec":
        return cls(
            shard_id=data["shard_id"],
            kind=data["kind"],
            params=dict(data.get("params") or {}),
            weight=int(data.get("weight") or 0),
            sabotage=dict(data["sabotage"]) if data.get("sabotage") else None,
        )


@dataclass
class ShardResult:
    """What came back from one shard: payload plus run accounting."""

    shard_id: str
    status: str                    # "ok" | "quarantined"
    payload: Dict[str, object] = field(default_factory=dict)
    elapsed_s: float = 0.0
    events_run: int = 0
    worker_pid: int = 0
    max_rss_kb: int = 0
    attempt: int = 0
    failures: List[str] = field(default_factory=list)
    cached: bool = False           # satisfied from the resume journal

    def to_dict(self) -> Dict[str, object]:
        return {
            "shard_id": self.shard_id,
            "status": self.status,
            "payload": self.payload,
            "elapsed_s": self.elapsed_s,
            "events_run": self.events_run,
            "worker_pid": self.worker_pid,
            "max_rss_kb": self.max_rss_kb,
            "attempt": self.attempt,
            "failures": list(self.failures),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ShardResult":
        return cls(
            shard_id=data["shard_id"],
            status=data.get("status", "ok"),
            payload=data.get("payload") or {},
            elapsed_s=float(data.get("elapsed_s") or 0.0),
            events_run=int(data.get("events_run") or 0),
            worker_pid=int(data.get("worker_pid") or 0),
            max_rss_kb=int(data.get("max_rss_kb") or 0),
            attempt=int(data.get("attempt") or 0),
            failures=list(data.get("failures") or []),
        )


@dataclass
class ShardPlan:
    """The full deterministic shard layout of one orchestrated run."""

    kind: str
    params: Dict[str, object]      # the campaign-level parameters
    shards: List[ShardSpec]

    @property
    def total_weight(self) -> int:
        return sum(shard.weight for shard in self.shards)

    def fingerprint(self) -> str:
        """Content hash of the layout: the resume-compatibility key.

        Two plans with the same fingerprint generate identical streams
        shard for shard, so their checkpoints are interchangeable.
        """
        digest = hashlib.sha256()
        digest.update(json.dumps(self.params, sort_keys=True).encode())
        for shard in self.shards:
            digest.update(shard.shard_id.encode())
        return digest.hexdigest()[:16]


def chunk_size(n_campaigns: int) -> int:
    """Campaigns per shard — a function of the matrix size only."""
    return max(1, -(-n_campaigns // SHARDS_PER_UNIT))


def plan_shards(family, params: Dict[str, object]) -> ShardPlan:
    """The one shard chunker behind every campaign family's plan.

    One *unit* per combination of the family's axes (``backends`` x
    ``configs``, ``rigs``, ``seeds``, ...), outermost axis first.  A
    chunked family further splits each unit into contiguous campaign
    ranges ``[campaign_lo, campaign_hi)`` of :func:`chunk_size`.  Shard
    params are the campaign params with each axis list replaced by the
    unit's value; keys the family marks ``local`` reach the shards but
    stay out of the plan params, and therefore out of the fingerprint.
    """
    axis_keys = dict(family.axes)
    shared = {key: value for key, value in params.items()
              if key not in axis_keys}
    if family.chunked:
        chunk = chunk_size(params["n_campaigns"])
        ranges = [{"campaign_lo": lo,
                   "campaign_hi": min(lo + chunk, params["n_campaigns"])}
                  for lo in range(0, params["n_campaigns"], chunk)]
    else:
        ranges = [{}]
    shards: List[ShardSpec] = []
    for unit in itertools.product(*(params[key] for key in axis_keys)):
        for span in ranges:
            shard = dict(zip(axis_keys.values(), unit), **shared, **span)
            shards.append(ShardSpec(family.shard_id(shard), family.kind,
                                    shard, family.weight(shard)))
    plan_params = {key: value for key, value in params.items()
                   if key not in family.local}
    return ShardPlan(kind=family.kind, params=plan_params, shards=shards)
