"""The fault-recovery harness shared by every fault campaign family.

Abstract, machine-level and churn campaigns differ only in their
per-event loop.  Everything around that loop is this one object:
interposing the faulty backing under the world's trusted memory, the
injector list, the contract monitor and its waiver probe, settling an
injected store fault as a rollback or an escape, the scrub watchdog
(whose own repair stores can trip a still-armed fault), the final
audit, and the four-way classification ladder.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.core.errors import InjectedFault

from .injector import FaultInjector, FaultyWordBacking
from .plan import FaultSpec
from .scrub import IntegrityScrubber, ScrubReport

#: Spec kinds that fail a store.  When a store fault fires with no
#: recorded owner (a test arming the backing directly), the first
#: injector of one of these kinds takes the blame.
STORE_FAULT_KINDS = ("store_fault", "commit_store_fault",
                     "commit_flip_journalled", "recycle_store_fault")


class RecoveryHarness:
    """Injectors, scrubber and contract monitor around one faulted world.

    ``world`` is anything exposing ``pcu``, ``manager`` and
    ``trusted_memory`` (plus what :class:`FaultInjector` needs).  The
    faulty backing is interposed *under* the already-initialised
    trusted memory, so existing words carry over untouched.
    """

    def __init__(self, world, specs: Sequence[FaultSpec], *,
                 contracts: bool = True, seed: int = 0, campaign: int = 0):
        memory = world.trusted_memory
        self.backing = FaultyWordBacking(memory._backing,
                                         trusted_memory=memory)
        memory._backing = self.backing
        self.injectors = [FaultInjector(world, self.backing, spec)
                          for spec in specs]
        self.scrubber = IntegrityScrubber(world.pcu, world.manager)
        self.stats = world.pcu.stats
        self.monitor = None
        if contracts:
            from repro.contracts import ContractMonitor

            # An injected HPT flip legitimately makes verdicts disagree
            # with the contract shadow — that *is* the fault model
            # working — so violations after a fire are waived.
            self.monitor = ContractMonitor(seed=seed, campaign=campaign)
            self.monitor.attach(world.pcu, world.manager)
            self.monitor.waiver_probe = self._waiver
        self.detections: List[str] = []
        self.escaped_faults = 0
        self.mark()

    def _waiver(self):
        injectors, backing = self.injectors, self.backing
        if any(i.fired for i in injectors) or backing.store_faults_fired:
            return ("; ".join(i.detail for i in injectors if i.fired)
                    or backing.last_fired_detail or "injected fault")
        return None

    def mark(self) -> None:
        """Snapshot the rollback count before a step that may fault."""
        self._rollbacks_before = self.stats.reconfig_rollbacks

    def on_event(self, index: int) -> None:
        """Let event-triggered injectors fire, then mark."""
        for injector in self.injectors:
            injector.on_event(index)
        self.mark()

    def settle(self) -> None:
        """Account an :class:`InjectedFault` that escaped the last step.

        A rollback is only credited when the DomainManager actually
        rolled a transaction back since :meth:`mark` — a store can just
        as well fail outside any commit window (a gate-event
        trusted-stack push, a scrub repair), and crediting a phantom
        recovery there would upgrade genuine half-written corruption to
        ``detected_recovered``.
        """
        owner = self.backing.last_fired_owner or next(
            (i for i in self.injectors if i.spec.kind in STORE_FAULT_KINDS),
            self.injectors[0])
        if self.stats.reconfig_rollbacks > self._rollbacks_before:
            owner.note_rollback()
        else:
            owner.note_escaped()
            self.escaped_faults += 1

    def scrub(self) -> ScrubReport:
        """One watchdog pass, with its findings recorded as detections.

        A still-armed store fault can fire on a scrub *repair* store;
        that interrupted pass is itself an escaped, non-transactional
        fault.  The fault is one-shot, so the retry completes.
        """
        self.mark()
        try:
            report = self.scrubber.scrub()
        except InjectedFault:
            self.settle()
            report = self.scrubber.scrub()
        if report.memory_repairs:
            self.detections.append("scrub repaired %d word(s)"
                                   % report.memory_repairs)
        self.detections.extend(report.cache_detections)
        self.detections.extend("UNREPAIRABLE: " + u
                               for u in report.unrepairable)
        return report

    def finish(self, diverged: bool, halted: bool) -> Dict[str, object]:
        """Final audit + classification; the result fields all share.

        The audit always runs: after a divergence it is the "why did we
        diverge" post-mortem, on a clean run it catches anything the
        watchdog cadence missed.  Escaped (non-transactional) store
        faults are deliberately not detections — nothing detected or
        recovered anything, so they only shape the outcome through what
        the lockstep diff and the audit saw.
        """
        audit = self.scrub()
        halted = halted or bool(audit.unrepairable)
        rollbacks = sum(i.rollbacks_seen for i in self.injectors)
        detected = bool(self.detections) or rollbacks > 0
        if diverged:
            classification = ("detected_halted" if detected
                              else "silent_divergence")
        elif halted:
            classification = "detected_halted"
        elif detected:
            # Recovery claim: the audit found nothing (the watchdog
            # already repaired everything) or its own repairs verify in
            # place.
            classification = ("detected_recovered"
                              if audit.clean
                              or self.scrubber.verify_repaired(audit)
                              else "detected_halted")
        else:
            classification = "benign"
        monitor = self.monitor
        return {
            "classification": classification,
            "fired": any(i.fired for i in self.injectors),
            "detail": "; ".join(i.detail for i in self.injectors),
            "detections": self.detections,
            "rollbacks": rollbacks,
            "escaped_faults": self.escaped_faults,
            "scrub_repairs": self.stats.scrub_repairs,
            "contract_violations": (0 if monitor is None
                                    else monitor.total_violations),
            "unwaived_contract_violations": (
                0 if monitor is None else monitor.unwaived_violations),
            "contract_counts": ({} if monitor is None
                                else monitor.nonzero_counts()),
        }
