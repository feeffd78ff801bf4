"""Stateful cross-check: the contract monitor vs a brute-force reference.

Hypothesis drives random event streams — valid runs, deliberately
violating runs, transactions that commit or abort, injected-fault
arming, and compressed block records — and after every rule the full
stream is replayed through :func:`repro.contracts.replay_trace` and
through the independent reference in :mod:`tests.contracts.reference`.
A live monitor hears the same rules as they happen, block records
through :meth:`~repro.contracts.ContractMonitor.on_block` (and so its
verdict memo), while the replay and the reference see every block
expanded into plain checks.  Per-contract counts, the unwaived total
and the ``(contract, index)`` list must agree exactly; hypothesis
shrinks any mismatch to a minimal rule sequence.
"""

from dataclasses import replace

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.contracts import (
    CONTRACT_NAMES,
    ContractMonitor,
    TraceEvent,
    replay_trace,
)
from repro.sim.blocks import BlockSummary

from .reference import reference_findings, reference_verdict

GEOMETRY = {"n_inst_classes": 6, "n_csrs": 4, "masked_csrs": (3,)}

DOMAIN = st.integers(min_value=0, max_value=3)
INST = st.integers(min_value=-1, max_value=5)
CSR = st.integers(min_value=-1, max_value=3)
GATE = st.integers(min_value=0, max_value=2)
VALUE = st.integers(min_value=0, max_value=255)
ADDRESS = st.sampled_from([0x10, 0x18, 0x20, 0x28])
STATUS = st.sampled_from(["ok", "ok", "ok", "InstructionPrivilegeFault",
                          "RegisterWriteFault"])
ORIGIN = st.sampled_from(["sw", "sw", "hw", "d0", "scrub"])
GATE_OP = st.sampled_from(["hccall", "hccalls", "hcrets"])


class CrossChecked(RuleBasedStateMachine):
    """Rules append raw trace events; the invariant cross-checks them."""

    def __init__(self):
        super().__init__()
        self.events = []
        self.live = ContractMonitor()
        self.live.configure(GEOMETRY)

    def emit(self, kind, **fields):
        self.events.append(TraceEvent(kind=kind, **fields))
        self.live.feed(TraceEvent(kind=kind, **fields))

    def emit_block(self, domain, classes, retired):
        """A warm block's (possibly faulting-prefix) compressed record:
        ``on_block`` for the live monitor, plain checks for the rest."""
        retired = min(retired, len(classes))
        self.live.on_block(domain, BlockSummary(classes), retired)
        for inst in classes[:retired]:
            self.events.append(TraceEvent(kind="check", domain=domain,
                                          inst=inst))

    # -- the cross-check -------------------------------------------------
    @invariant()
    def monitor_matches_reference(self):
        monitor = replay_trace([replace(event) for event in self.events],
                               geometry=GEOMETRY)
        counts, unwaived = reference_verdict(self.events, GEOMETRY)
        assert monitor.counts() == counts, (
            "per-contract counts diverged: monitor=%r reference=%r"
            % (monitor.counts(), counts))
        assert monitor.unwaived_violations == unwaived, (
            "unwaived totals diverged: monitor=%d reference=%d"
            % (monitor.unwaived_violations, unwaived))
        assert set(monitor.counts()) == set(CONTRACT_NAMES)
        expected = reference_findings(self.events, GEOMETRY)
        assert findings(monitor) == expected
        assert findings(self.live) == expected
        assert self.live.counts() == counts
        assert self.live.unwaived_violations == unwaived
        assert self.live.events_seen == monitor.events_seen == len(
            self.events)


class ContractStream(CrossChecked):
    """The whole vocabulary, valid and violating events alike."""

    # -- reconfiguration -----------------------------------------------
    @rule(domain=DOMAIN)
    def create_domain(self, domain):
        self.emit("reconfig", op="create_domain", domain=domain)

    @rule(domain=DOMAIN)
    def clear_domain(self, domain):
        self.emit("reconfig", op="clear_domain", domain=domain)

    @rule(domain=DOMAIN, inst=st.integers(min_value=0, max_value=5))
    def allow_inst(self, domain, inst):
        self.emit("reconfig", op="allow_inst", domain=domain, inst=inst)

    @rule(domain=DOMAIN, inst=st.integers(min_value=0, max_value=5))
    def deny_inst(self, domain, inst):
        self.emit("reconfig", op="deny_inst", domain=domain, inst=inst)

    @rule(domain=DOMAIN, csr=st.integers(min_value=0, max_value=3),
          read=st.booleans(), write=st.booleans())
    def grant_csr(self, domain, csr, read, write):
        self.emit("reconfig", op="grant_csr", domain=domain, csr=csr,
                  read=read, write=write)

    @rule(domain=DOMAIN, csr=st.integers(min_value=0, max_value=3),
          read=st.booleans(), write=st.booleans())
    def revoke_csr(self, domain, csr, read, write):
        self.emit("reconfig", op="revoke_csr", domain=domain, csr=csr,
                  read=read, write=write)

    @rule(domain=DOMAIN, csr=st.integers(min_value=0, max_value=3),
          bits=VALUE)
    def set_mask(self, domain, csr, bits):
        self.emit("reconfig", op="set_mask", domain=domain, csr=csr,
                  bits=bits)

    @rule(gate=GATE, dest=DOMAIN)
    def register_gate(self, gate, dest):
        self.emit("reconfig", op="register_gate", gate=gate, dest=dest)

    @rule(gate=GATE)
    def unregister_gate(self, gate):
        self.emit("reconfig", op="unregister_gate", gate=gate)

    @rule(domain=DOMAIN)
    def sync_domain(self, domain):
        self.emit("reconfig", op="sync_domain", domain=domain)

    @rule(domain=DOMAIN, bits=st.integers(min_value=0, max_value=3),
          dest=st.integers(min_value=100, max_value=103))
    def bind_slot(self, domain, bits, dest):
        self.emit("reconfig", op="bind_slot", domain=domain, bits=bits,
                  dest=dest)

    @rule(domain=DOMAIN, bits=st.integers(min_value=0, max_value=3),
          dest=st.integers(min_value=100, max_value=103))
    def recycle_slot(self, domain, bits, dest):
        self.emit("reconfig", op="recycle_slot", domain=domain, bits=bits,
                  dest=dest)

    @rule(domain=DOMAIN, inst=INST, csr=CSR,
          read=st.booleans(), write=st.booleans())
    def seal(self, domain, inst, csr, read, write):
        self.emit("reconfig", op="seal", domain=domain, inst=inst,
                  csr=csr, read=read, write=write)

    # -- observable events (valid and violating alike) -------------------
    @rule(domain=DOMAIN, status=STATUS, inst=INST, csr=CSR,
          read=st.booleans(), write=st.booleans(), value=VALUE, old=VALUE)
    def check(self, domain, status, inst, csr, read, write, value, old):
        self.emit("check", domain=domain, status=status, inst=inst,
                  csr=csr, read=read, write=write, value=value, old=old)

    @rule(domain=DOMAIN,
          classes=st.lists(st.integers(min_value=0, max_value=5),
                           min_size=1, max_size=6),
          retired=st.integers(min_value=1, max_value=6))
    def block(self, domain, classes, retired):
        self.emit_block(domain, classes, retired)

    @rule(op=GATE_OP, gate=GATE, pre_domain=DOMAIN, domain=DOMAIN,
          status=st.sampled_from(["ok", "ok", "GateFault"]))
    def gate(self, op, gate, pre_domain, domain, status):
        self.emit("gate", op=op, gate=gate, pre_domain=pre_domain,
                  domain=domain, status=status)

    @rule(origin=ORIGIN, domain=st.integers(min_value=-1, max_value=3),
          address=ADDRESS, value=VALUE, old=VALUE)
    def mem_write(self, origin, domain, address, value, old):
        self.emit("mem_write", op=origin, domain=domain, address=address,
                  value=value, old=old)

    @rule()
    def txn_begin(self):
        self.emit("txn", op="begin")

    @rule()
    def txn_commit(self):
        self.emit("txn", op="commit")

    @rule(values=st.dictionaries(ADDRESS, VALUE, max_size=3))
    def txn_abort(self, values):
        self.emit("txn", op="abort", values=values)

    @rule()
    def inject_fault(self):
        self.emit("fault", op="injected", detail="stateful-test fault")


def findings(monitor):
    return [(violation.contract, violation.index)
            for violation in monitor.violations]


TestContractStream = ContractStream.TestCase
TestContractStream.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None)

FEW_DOMAINS = st.integers(min_value=0, max_value=2)
FEW_CLASSES = st.integers(min_value=0, max_value=2)


class BlockStream(CrossChecked):
    """A narrow vocabulary where blocks often repeat a memoized domain
    and class set across the reconfigurations, gates, plain checks and
    fault arming that must invalidate or bypass the verdict memo."""

    @initialize(domain=FEW_DOMAINS)
    def grant_everything(self, domain):
        # Start from a world where blocks in the current domain are
        # clean, so the memo fills and later events must invalidate it.
        for created in (1, 2):
            self.emit("reconfig", op="create_domain", domain=created)
            for inst in range(3):
                self.emit("reconfig", op="allow_inst", domain=created,
                          inst=inst)
        self.emit("reconfig", op="sync_domain", domain=domain)

    @rule(domain=FEW_DOMAINS,
          classes=st.lists(FEW_CLASSES, min_size=1, max_size=4),
          retired=st.integers(min_value=1, max_value=4),
          repeat=st.integers(min_value=1, max_value=3))
    def block(self, domain, classes, retired, repeat):
        for _ in range(repeat):
            self.emit_block(domain, classes, retired)

    @rule(domain=FEW_DOMAINS,
          classes=st.lists(FEW_CLASSES, min_size=1, max_size=4),
          change=st.sampled_from(["deny_inst", "seal", "sync_domain",
                                  "recycle_slot", "gate"]))
    def block_change_block(self, domain, classes, change):
        """The memo's hazard pattern: a block, one non-check event that
        can flip its verdict, and the same block again."""
        self.emit_block(domain, classes, len(classes))
        other = (domain + 1) % 3
        if change in ("deny_inst", "seal"):
            self.emit("reconfig", op=change, domain=domain, inst=classes[0])
        elif change == "sync_domain":
            self.emit("reconfig", op=change, domain=other)
        elif change == "recycle_slot":
            self.emit("reconfig", op=change, domain=domain, bits=1)
        else:
            self.emit("gate", op="hcrets", pre_domain=domain, domain=other)
        self.emit_block(domain, classes, len(classes))

    @rule(domain=FEW_DOMAINS, inst=FEW_CLASSES,
          status=st.sampled_from(["ok", "ok", "InstructionPrivilegeFault"]))
    def check(self, domain, inst, status):
        self.emit("check", domain=domain, inst=inst, status=status)

    @rule(domain=FEW_DOMAINS, inst=FEW_CLASSES)
    def allow_inst(self, domain, inst):
        self.emit("reconfig", op="allow_inst", domain=domain, inst=inst)

    @rule(domain=FEW_DOMAINS, inst=FEW_CLASSES)
    def deny_inst(self, domain, inst):
        self.emit("reconfig", op="deny_inst", domain=domain, inst=inst)

    @rule(domain=FEW_DOMAINS, inst=FEW_CLASSES)
    def seal(self, domain, inst):
        self.emit("reconfig", op="seal", domain=domain, inst=inst)

    @rule(domain=FEW_DOMAINS)
    def sync_domain(self, domain):
        self.emit("reconfig", op="sync_domain", domain=domain)

    @rule(domain=FEW_DOMAINS, bits=st.integers(min_value=0, max_value=1))
    def bind_slot(self, domain, bits):
        self.emit("reconfig", op="bind_slot", domain=domain, bits=bits,
                  dest=100 + domain)

    @rule(domain=FEW_DOMAINS, bits=st.integers(min_value=0, max_value=1))
    def recycle_slot(self, domain, bits):
        self.emit("reconfig", op="recycle_slot", domain=domain, bits=bits)

    @rule(pre_domain=FEW_DOMAINS, domain=FEW_DOMAINS)
    def gate(self, pre_domain, domain):
        self.emit("gate", op="hcrets", pre_domain=pre_domain,
                  domain=domain)

    @rule()
    def inject_fault(self):
        self.emit("fault", op="injected", detail="stateful-test fault")


TestBlockStream = BlockStream.TestCase
TestBlockStream.settings = settings(
    max_examples=20, stateful_step_count=30, deadline=None)


def test_nested_begin_starts_a_fresh_transaction():
    # The shrunk counterexample of a monitor/reference split: a begin
    # inside an open transaction must drop the unclosed transaction's
    # buffered reconfigs, so the sync_domain(1) never reaches the gate
    # contract and the hccall's pre-domain 0 is judged against domain 0.
    events = [
        TraceEvent(kind="txn", op="begin"),
        TraceEvent(kind="reconfig", op="sync_domain", domain=1),
        TraceEvent(kind="txn", op="begin"),
        TraceEvent(kind="txn", op="commit"),
        TraceEvent(kind="gate", op="hccall", gate=0, pre_domain=0,
                   domain=0, status="ok"),
    ]
    monitor = replay_trace([replace(event) for event in events],
                           geometry=GEOMETRY)
    counts, unwaived = reference_verdict(events, GEOMETRY)
    assert monitor.counts() == counts
    assert monitor.unwaived_violations == unwaived
    assert counts["gate_only_switches"] == 1


def test_block_after_a_resync_reports_the_switch():
    # The verdict memo must drop on any event that yields a problem:
    # check(1) clean -> check(2) makes gate_only_switches resync to
    # domain 2 -> a block in domain 1 must then report the switch back,
    # although its class was memoized clean in domain 1 earlier.
    setup = [
        TraceEvent(kind="reconfig", op="create_domain", domain=1),
        TraceEvent(kind="reconfig", op="create_domain", domain=2),
        TraceEvent(kind="reconfig", op="allow_inst", domain=1, inst=0),
        TraceEvent(kind="reconfig", op="allow_inst", domain=2, inst=0),
        TraceEvent(kind="reconfig", op="sync_domain", domain=1),
    ]
    live = ContractMonitor()
    live.configure(GEOMETRY)
    for event in setup:
        live.feed(replace(event))
    live.on_block(1, BlockSummary([0, 0]), 2)
    live.feed(TraceEvent(kind="check", domain=2, inst=0))
    live.on_block(1, BlockSummary([0]), 1)
    expanded = setup + [
        TraceEvent(kind="check", domain=1, inst=0),
        TraceEvent(kind="check", domain=1, inst=0),
        TraceEvent(kind="check", domain=2, inst=0),
        TraceEvent(kind="check", domain=1, inst=0),
    ]
    expected = reference_findings(expanded, GEOMETRY)
    assert expected == [("gate_only_switches", 7),
                        ("gate_only_switches", 8)]
    assert findings(live) == expected
    replayed = replay_trace([replace(event) for event in expanded],
                            geometry=GEOMETRY)
    assert findings(replayed) == expected
    assert live.events_seen == replayed.events_seen == len(expanded)
