"""Stateful cross-check: the contract monitor vs a brute-force reference.

Hypothesis drives random event streams — valid runs, deliberately
violating runs, transactions that commit or abort, injected-fault
arming — and after every rule the full stream is replayed through
:func:`repro.contracts.replay_trace` and through the independent
reference in :mod:`tests.contracts.reference`.  Per-contract counts and
the unwaived total must agree exactly; hypothesis shrinks any mismatch
to a minimal rule sequence.
"""

from dataclasses import replace

from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.contracts import CONTRACT_NAMES, TraceEvent, replay_trace

from .reference import reference_verdict

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


class ContractStream(RuleBasedStateMachine):
    """Rules append raw trace events; the invariant cross-checks them."""

    def __init__(self):
        super().__init__()
        self.events = []

    def emit(self, kind, **fields):
        self.events.append(TraceEvent(kind=kind, **fields))

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


TestContractStream = ContractStream.TestCase
TestContractStream.settings = settings(
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
