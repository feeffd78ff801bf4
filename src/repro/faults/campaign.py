"""Seeded fault-injection campaigns over the conformance generator.

One *campaign* = one fault spec + one event stream, replayed through the
lockstep (cached PCU, oracle) pair with a periodic integrity-scrub
watchdog.  Each campaign classifies as exactly one of:

* ``detected_recovered`` — something fired (scrub repair, transactional
  rollback, degraded-mode entry) and the run finished lockstep-clean
  with a clean final audit;
* ``detected_halted`` — corruption was detected but could not be
  repaired (live stack frame) or was detected only after the
  implementations had already diverged: the core halts;
* ``benign`` — the fault landed somewhere architecture never looked (a
  dead stack word, an already-set bit, an evicted cache line): no
  divergence, nothing to detect, clean final audit;
* ``silent_divergence`` — the PCU and the oracle disagreed and *no*
  detection mechanism fired, then or at the post-divergence audit.  For
  privilege-widening faults this count must be zero: it would mean a
  fault can grant privilege invisibly.

Classification notes: faults in the *shared* trusted-memory words can
never show up as lockstep divergence (the oracle reads the same words),
so they must be caught by the scrub watchdog — that is precisely what
the memory-vs-mirror checksums are for.  Cache/bypass/Draco faults are
invisible to the scrubber's memory pass but diverge in lockstep, and the
post-divergence audit must then pin the blame on the cache layer.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.conformance.events import generate_events
from repro.conformance.generator import make_backend
from repro.conformance.runner import CONFORMANCE_CONFIGS, ConformanceWorld
from repro.core.errors import InjectedFault

from .harness import RecoveryHarness
from .plan import FaultPlan, FaultSpec

CLASSIFICATIONS = (
    "detected_recovered", "detected_halted", "benign", "silent_divergence",
)

#: Default watchdog period (events between scrubs).  Small enough that a
#: shared-memory fault is caught within one cache generation, large
#: enough that scrubbing stays a fraction of replay cost.
DEFAULT_SCRUB_INTERVAL = 64


@dataclass
class CampaignResult:
    """Outcome of one fault campaign."""

    campaign: int
    stream_seed: int
    spec: FaultSpec
    classification: str
    events_run: int
    fired: bool
    detail: str
    divergence_index: Optional[int] = None
    detections: List[str] = field(default_factory=list)
    rollbacks: int = 0
    #: Injected store faults that fired with no transaction open (e.g.
    #: on a gate-event trusted-stack push).  Nothing rolled back, so
    #: these are *not* detections — the classifier judges the damage on
    #: its own merits.
    escaped_faults: int = 0
    scrub_repairs: int = 0
    degraded_entries: int = 0
    degraded_checks: int = 0
    extra_specs: List[FaultSpec] = field(default_factory=list)
    #: Universal-contract accounting (DESIGN §3.16).  Violations the
    #: monitor attributed to a fired injected fault are *waived*; an
    #: unwaived violation is a genuine guarantee breach and fails the
    #: campaign report.
    contract_violations: int = 0
    unwaived_contract_violations: int = 0
    contract_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def widening(self) -> bool:
        """Could *any* fault in this campaign grant withheld privilege?"""
        return self.spec.widening or any(s.widening for s in self.extra_specs)

    def to_dict(self) -> Dict[str, object]:
        return {
            "campaign": self.campaign,
            "stream_seed": self.stream_seed,
            "spec": self.spec.to_dict(),
            "extra_specs": [s.to_dict() for s in self.extra_specs],
            "classification": self.classification,
            "events_run": self.events_run,
            "fired": self.fired,
            "detail": self.detail,
            "divergence_index": self.divergence_index,
            "detections": list(self.detections),
            "rollbacks": self.rollbacks,
            "escaped_faults": self.escaped_faults,
            "scrub_repairs": self.scrub_repairs,
            "degraded_entries": self.degraded_entries,
            "degraded_checks": self.degraded_checks,
            "contract_violations": self.contract_violations,
            "unwaived_contract_violations": self.unwaived_contract_violations,
            "contract_counts": dict(self.contract_counts),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "CampaignResult":
        data = dict(data)
        data["spec"] = FaultSpec.from_dict(data["spec"])
        data["extra_specs"] = [FaultSpec.from_dict(s)
                               for s in data.get("extra_specs", [])]
        return cls(**data)


def run_campaign(
    backend_name: str,
    spec: FaultSpec,
    stream_seed: int,
    n_events: int,
    config: str = "stress",
    scrub_interval: int = DEFAULT_SCRUB_INTERVAL,
    campaign: int = 0,
    extra_specs: Sequence[FaultSpec] = (),
    contracts: bool = True,
) -> CampaignResult:
    """Replay one faulted stream in lockstep and classify the outcome.

    ``extra_specs`` schedules additional concurrent faults over the same
    stream (each with its own trigger), modelling multi-event upsets;
    the classification then answers for the *combined* damage.

    With ``contracts`` (the default) the world runs under a
    :class:`~repro.contracts.monitor.ContractMonitor` whose waiver
    probe attributes violations to fired injected faults (see
    :class:`~repro.faults.harness.RecoveryHarness`).  Unwaived
    violations are reported in the result and fail the campaign report.
    """
    world = ConformanceWorld(make_backend(backend_name),
                             CONFORMANCE_CONFIGS[config])
    harness = RecoveryHarness(world, (spec, *extra_specs),
                              contracts=contracts, seed=stream_seed,
                              campaign=campaign)
    divergence_index: Optional[int] = None
    halted = False
    events_run = 0
    for index, event in enumerate(generate_events(stream_seed, n_events)):
        harness.on_event(index)
        events_run = index + 1
        try:
            cached, oracle = world.apply(event)
        except InjectedFault:
            harness.settle()
            continue
        if cached != oracle:
            divergence_index = index
            break
        if (scrub_interval and (index + 1) % scrub_interval == 0
                and harness.scrub().unrepairable):
            halted = True
            break

    outcome = harness.finish(divergence_index is not None, halted)
    stats = world.pcu.stats
    return CampaignResult(
        campaign=campaign,
        stream_seed=stream_seed,
        spec=spec,
        events_run=events_run,
        divergence_index=divergence_index,
        degraded_entries=stats.degraded_entries,
        degraded_checks=stats.degraded_checks,
        extra_specs=list(extra_specs),
        **outcome,
    )


@dataclass
class CampaignMatrix:
    """All campaigns of one (backend, config) pair."""

    backend: str
    config: str
    seed: int
    n_events: int
    results: List[CampaignResult]

    @property
    def counts(self) -> Dict[str, int]:
        counter = Counter(r.classification for r in self.results)
        return {name: counter.get(name, 0) for name in CLASSIFICATIONS}

    @property
    def widening_silent(self) -> List[CampaignResult]:
        """The must-be-empty set: widening faults that diverged silently."""
        return [r for r in self.results
                if r.classification == "silent_divergence" and r.widening]

    @property
    def contract_violations(self) -> int:
        return sum(r.contract_violations for r in self.results)

    @property
    def unwaived_contract_violations(self) -> int:
        """The must-be-zero set: contract breaches no fault accounts for."""
        return sum(r.unwaived_contract_violations for r in self.results)

    def to_dict(self) -> Dict[str, object]:
        return {
            "backend": self.backend,
            "config": self.config,
            "seed": self.seed,
            "events": self.n_events,
            "campaigns": len(self.results),
            "classification_counts": self.counts,
            "widening_silent_divergences": len(self.widening_silent),
            "contract_violations": self.contract_violations,
            "unwaived_contract_violations": self.unwaived_contract_violations,
            "results": [r.to_dict() for r in self.results],
        }


def run_campaigns(
    backend_name: str,
    seed: int,
    n_events: int,
    n_campaigns: int,
    config: str = "stress",
    scrub_interval: int = DEFAULT_SCRUB_INTERVAL,
    faults_per_campaign: int = 1,
    contracts: bool = True,
    campaign_lo: int = 0,
    campaign_hi: Optional[int] = None,
) -> CampaignMatrix:
    """K campaigns, each with its own derived stream seed and fault(s).

    ``[campaign_lo, campaign_hi)`` runs a slice of the matrix.  Plan
    draws are sequential, so the campaigns below the slice are still
    drawn — only to advance the plan's RNG — and the slice's specs are
    the ones a full run hands those indices.
    """
    plan = FaultPlan(seed)
    hi = n_campaigns if campaign_hi is None else campaign_hi
    results = []
    for campaign in range(hi):
        specs = plan.draw_specs(campaign, n_events, faults_per_campaign)
        if campaign < campaign_lo:
            continue
        results.append(run_campaign(
            backend_name, specs[0],
            stream_seed=seed + campaign,
            n_events=n_events,
            config=config,
            scrub_interval=scrub_interval,
            campaign=campaign,
            extra_specs=specs[1:],
            contracts=contracts,
        ))
    return CampaignMatrix(backend_name, config, seed, n_events, results)


def fault_report(fmt: str, matrices: Sequence[object],
                 head: Optional[Dict[str, object]] = None,
                 tail: Optional[Dict[str, object]] = None) -> Dict[str, object]:
    """Report payload shared by every fault family's matrices."""
    from repro.analysis.report import campaign_report
    from repro.contracts import CONTRACT_NAMES

    totals: "Counter[str]" = Counter()
    for matrix in matrices:
        totals.update(matrix.counts)
    summary: Dict[str, object] = {
        "classification_counts": {name: totals.get(name, 0)
                                  for name in CLASSIFICATIONS},
        "widening_silent_divergences": sum(len(m.widening_silent)
                                           for m in matrices),
    }
    summary.update(head or {})
    return campaign_report(
        fmt, summary, [r for m in matrices for r in m.results], matrices,
        tail=tail, contract_names=CONTRACT_NAMES)


def write_report(matrices: List[CampaignMatrix], path: str) -> Dict[str, object]:
    """Aggregate matrices into one JSON report under ``results/``."""
    from repro.analysis.report import write_json

    return write_json(fault_report("isagrid-fault-campaign-v2", matrices),
                      path)
