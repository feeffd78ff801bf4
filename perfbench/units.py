"""The benchmark's four workloads, each a fixed list of units.

A *unit* is one kernel run or one campaign: it builds a fresh kernel or
world, so simulated caches and the block cache start empty, exactly as
every user run pays.  A workload's units run back to back, one client in
a closed loop; one pass over the list is a *round*, and every round of a
run repeats the same inputs.

Every unit calls only public entry points of ``repro``: ``X86Kernel`` /
``RiscvKernel`` and their ``.run``, the ``repro.workloads`` generators
and the assemblers, ``ContractMonitor.attach``, ``fuzz_backend``,
``run_campaigns``, ``run_churn_campaigns`` and
``run_unintended_campaigns(jobs=1)``.  The workload seed given on the
command line is the only source of randomness: every profile seed and
campaign stream seed is derived from it by :func:`derive_seed`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

WORKLOADS = ("x86_kernel", "riscv_kernel", "x86_monitored", "campaigns")

#: Unit sizes.  ``full`` is what the benchmark measures; ``tiny`` runs
#: every unit in well under a second for the benchmark's own tests.
#: The application profiles keep their working sets (8 KiB Mbedtls to
#: 256 KiB gzip) and only their outer iteration counts are divided.
SIZES: Dict[str, Dict[str, int]] = {
    "full": {
        "gate_stress_iterations": 100,
        "app_divisor": 4,
        "table5_iterations": 60,
        "lmbench_divisor": 8,
        "monitored_gate_stress_iterations": 30,
        "monitored_app_divisor": 8,
        "fuzz_events": 5000,
        "fault_events": 1500,
        "fault_campaigns": 3,
        "churn_ops": 1200,
        "churn_campaigns": 3,
        "churn_slots": 8,
        "attack_campaigns": 2,
        "attack_streams": 24,
        "attack_stream_len": 48,
    },
    "tiny": {
        "gate_stress_iterations": 4,
        "app_divisor": 40,
        "table5_iterations": 4,
        "lmbench_divisor": 80,
        "monitored_gate_stress_iterations": 2,
        "monitored_app_divisor": 60,
        "fuzz_events": 60,
        "fault_events": 60,
        "fault_campaigns": 1,
        "churn_ops": 60,
        "churn_campaigns": 1,
        "churn_slots": 8,
        "attack_campaigns": 1,
        "attack_streams": 2,
        "attack_stream_len": 16,
    },
}

#: Instruction budget per kernel run; exceeding it fails the unit.
MAX_STEPS = 20_000_000

#: The paper's bounds on each overhead group, printed beside the
#: simulated ``isagrid_overhead_pct`` (from ``benchmarks/results/``).
PAPER_BOUNDS = {
    "fig5": "Fig 5: each LMbench op ~0-2%",
    "fig6": "Fig 6: every application < 1%",
    "fig7": "Fig 7: every application < 1%",
    "table5": "Table 5: +3.45-4.76% on Linux's ~2000-cycle ioctl path "
              "(MiniKernel's path is ~5x leaner, so the same gate cost "
              "is a larger share)",
}

#: Table 5's ioctl service loop: ``iterations`` calls of one service.
_TABLE5_LOOP = """
user_entry:
    mov rsp, 0x6f0000
    mov r12, %d
loop:
    mov rax, 12
    mov rdi, %d
    syscall
    sub r12, 1
    jne loop
    mov rax, 0
    mov rdi, 0
    syscall
"""


def derive_seed(seed: int, label: str) -> int:
    """A 32-bit seed for one input, fixed by the workload seed and label."""
    digest = hashlib.sha256(("%d:%s" % (seed, label)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def digest_of(record: Dict[str, object]) -> str:
    """Digest of a unit's simulated work (canonical JSON, sha256)."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Unit descriptions.
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class MachineUnit:
    """One kernel boot plus one ``.run`` of a generated user program."""

    name: str
    group: str            # overhead group: gate_stress/fig5/fig6/fig7/table5
    arch: str             # "x86" or "riscv"
    mode: str             # "native" or "decomposed"
    build_program: Callable[[], object]
    monitored: bool = False
    app: Optional[str] = None   # profile name when the run is an app run


@dataclass(frozen=True)
class CampaignUnit:
    """One contract-monitored campaign through a public campaign call."""

    name: str
    family: str           # conformance / faults / churn / attack
    call: Callable[[], object]
    summarize: Callable[[object], Tuple[int, Dict[str, object], List[str]]]


@dataclass
class UnitResult:
    """What the runner learned from one unit."""

    name: str
    setup_s: float = 0.0
    timed_s: float = 0.0
    work: int = 0                 # instructions retired, or campaign events
    record: Optional[Dict[str, object]] = None   # the digested part
    digest: Optional[str] = None
    sim: Dict[str, object] = dataclasses.field(default_factory=dict)
    failures: List[str] = dataclasses.field(default_factory=list)


# ----------------------------------------------------------------------
# Workload construction.
# ----------------------------------------------------------------------
def _x86_program(profile):
    from repro.workloads import x86_user_program

    return lambda: x86_user_program(profile)


def _riscv_program(profile):
    from repro.workloads import riscv_user_program

    return lambda: riscv_user_program(profile)


def _scaled(profile, seed: int, divisor: int):
    return dataclasses.replace(
        profile,
        seed=derive_seed(seed, profile.name),
        outer_iterations=max(1, profile.outer_iterations // divisor),
    )


def _gate_stress(seed: int, iterations: int):
    from repro.workloads import GATE_STRESS

    return dataclasses.replace(GATE_STRESS, seed=derive_seed(seed, "gate-stress"),
                               outer_iterations=iterations)


def _app_pairs(arch: str, group: str, seed: int, divisor: int) -> List[MachineUnit]:
    from repro.workloads import APPLICATIONS

    program = _x86_program if arch == "x86" else _riscv_program
    units = []
    for base in APPLICATIONS:
        profile = _scaled(base, seed, divisor)
        for mode in ("native", "decomposed"):
            units.append(MachineUnit("%s/%s/%s" % (group, base.name, mode), group,
                                     arch, mode, program(profile), app=base.name))
    return units


def _table5_units(iterations: int) -> List[MachineUnit]:
    from repro.kernel import (
        SERVICE_CPUID,
        SERVICE_MTRR,
        SERVICE_PMC_IRQ,
        SERVICE_PMC_MISS,
    )
    from repro.x86 import USER_BASE, assemble

    units = []
    for label, service in (("cpuid", SERVICE_CPUID), ("mtrr", SERVICE_MTRR),
                           ("pmc_irq", SERVICE_PMC_IRQ),
                           ("pmc_miss", SERVICE_PMC_MISS)):
        source = _TABLE5_LOOP % (iterations, service)
        for mode in ("native", "decomposed"):
            units.append(MachineUnit(
                "table5/%s/%s" % (label, mode), "table5", "x86", mode,
                lambda source=source: assemble(source, base=USER_BASE)))
    return units


def _lmbench_units(divisor: int) -> List[MachineUnit]:
    from repro.riscv import USER_BASE, assemble
    from repro.workloads import LMBENCH_SUITE, riscv_loop_source

    units = []
    for base in LMBENCH_SUITE:
        bench = dataclasses.replace(
            base, iterations=max(1, base.iterations // divisor))
        for mode in ("native", "decomposed"):
            units.append(MachineUnit(
                "fig5/%s/%s" % (bench.name, mode), "fig5", "riscv", mode,
                lambda bench=bench: assemble(riscv_loop_source(bench),
                                             base=USER_BASE)))
    return units


def _conformance_units(seed: int, size: Dict[str, int]) -> List[CampaignUnit]:
    from repro.conformance import fuzz_backend

    def summarize(result):
        failures = [] if result.clean else [
            "conformance run not clean: %s / %s unwaived contract violations"
            % (result.divergence and result.divergence.describe(),
               result.contract_unwaived)]
        return result.events, result.summary(), failures

    units = []
    for backend in ("riscv", "x86"):
        for layer in ("pcu", "kernel"):
            label = "conformance/%s/%s" % (backend, layer)
            stream = derive_seed(seed, label)
            units.append(CampaignUnit(
                label, "conformance",
                lambda backend=backend, stream=stream, layer=layer: fuzz_backend(
                    backend, stream, size["fuzz_events"], layer=layer),
                summarize))
    return units


def _matrix_failures(matrix) -> List[str]:
    failures = []
    if matrix.widening_silent:
        failures.append("%d widening silent divergence(s)"
                        % len(matrix.widening_silent))
    if matrix.unwaived_contract_violations:
        failures.append("%d unwaived contract violation(s)"
                        % matrix.unwaived_contract_violations)
    return failures


def _fault_units(seed: int, size: Dict[str, int]) -> List[CampaignUnit]:
    from repro.faults import run_campaigns, run_churn_campaigns

    def summarize_faults(matrix):
        events = sum(r.events_run for r in matrix.results)
        return events, matrix.to_dict(), _matrix_failures(matrix)

    def summarize_churn(matrix):
        events = sum(r.ops_run for r in matrix.results)
        return events, matrix.to_dict(), _matrix_failures(matrix)

    units = []
    for backend in ("riscv", "x86"):
        for index in range(size["fault_campaigns"]):
            label = "faults/%s/%d" % (backend, index)
            stream = derive_seed(seed, label)
            units.append(CampaignUnit(
                label, "faults",
                lambda backend=backend, stream=stream: run_campaigns(
                    backend, stream, size["fault_events"], 1),
                summarize_faults))
        for index in range(size["churn_campaigns"]):
            label = "churn/%s/%d" % (backend, index)
            stream = derive_seed(seed, label)
            units.append(CampaignUnit(
                label, "churn",
                lambda backend=backend, stream=stream: run_churn_campaigns(
                    backend, stream, size["churn_ops"], 1,
                    max_slots=size["churn_slots"]),
                summarize_churn))
    return units


def _attack_units(seed: int, size: Dict[str, int]) -> List[CampaignUnit]:
    from repro.attacks import run_unintended_campaigns

    def summarize(results):
        failures = []
        events = 0
        for result in results:
            events += result.legit_checks + len(result.gadgets)
            missed = sum(not gadget.pcu_blocked for gadget in result.gadgets)
            if missed:
                failures.append("%d gadget(s) not blocked by the PCU" % missed)
            if result.legit_faults:
                failures.append("%d fault(s) on the legitimate stream"
                                % result.legit_faults)
            if result.sealed_blocked != result.sealed_probes:
                failures.append("sealed class executed")
            if result.unwaived_contract_violations:
                failures.append("%d unwaived contract violation(s)"
                                % result.unwaived_contract_violations)
        return events, [result.to_dict() for result in results], failures

    units = []
    for index in range(size["attack_campaigns"]):
        label = "attack/x86/%d" % index
        stream = derive_seed(seed, label)
        units.append(CampaignUnit(
            label, "attack",
            lambda stream=stream: run_unintended_campaigns(
                [stream], size["attack_streams"], size["attack_stream_len"],
                jobs=1),
            summarize))
    return units


def build_units(workload: str, seed: int, size_name: str = "full") -> list:
    """The ordered unit list of one round of ``workload``."""
    size = SIZES[size_name]
    if workload == "x86_kernel":
        gate = _gate_stress(seed, size["gate_stress_iterations"])
        return ([MachineUnit("gate_stress/decomposed", "gate_stress", "x86",
                             "decomposed", _x86_program(gate))]
                + _app_pairs("x86", "fig7", seed, size["app_divisor"])
                + _table5_units(size["table5_iterations"]))
    if workload == "riscv_kernel":
        return (_lmbench_units(size["lmbench_divisor"])
                + _app_pairs("riscv", "fig6", seed, size["app_divisor"]))
    if workload == "x86_monitored":
        gate = _gate_stress(seed, size["monitored_gate_stress_iterations"])
        units = [MachineUnit("gate_stress/decomposed", "gate_stress", "x86",
                             "decomposed", _x86_program(gate), monitored=True)]
        for unit in _app_pairs("x86", "fig7", seed, size["monitored_app_divisor"]):
            if unit.mode == "decomposed":
                units.append(dataclasses.replace(unit, monitored=True))
        return units
    if workload == "campaigns":
        return (_conformance_units(seed, size) + _fault_units(seed, size)
                + _attack_units(seed, size))
    raise ValueError("unknown workload %r (choose from %s)"
                     % (workload, ", ".join(WORKLOADS)))


# ----------------------------------------------------------------------
# Running one unit.
# ----------------------------------------------------------------------
def no_span(name: str, layer: str):
    """The untraced run's span: does nothing."""
    return nullcontext()


def run_unit(unit, clock, span=no_span) -> UnitResult:
    """Run one unit, time it, and check its simulated work.

    ``span(name, layer)`` returns a context manager around each coarse
    boundary (generation, boot, run, campaign).  Any exception is caught
    and reported as a failure of this unit, so one bad unit never stops
    the benchmark.
    """
    result = UnitResult(unit.name)
    try:
        if isinstance(unit, MachineUnit):
            _run_machine(unit, clock, span, result)
        else:
            _run_campaign(unit, clock, span, result)
    except Exception as error:  # noqa: BLE001 - reported as a failed unit
        import traceback

        result.failures.append("%s: %s" % (type(error).__name__, error))
        result.failures.append(traceback.format_exc(limit=4))
    if result.record is not None:
        result.digest = digest_of(result.record)
    return result


def pcu_counts(pcu) -> Dict[str, object]:
    """The PcuStats counters the per-layer report aggregates."""
    stats = pcu.stats
    return {
        "stall_cycles": stats.stall_cycles,
        "gate_calls": stats.gate_calls + stats.gate_calls_extended,
        "scrubs": stats.scrubs,
        "caches": {name: [cache.hits, cache.misses] for name, cache in (
            ("inst", stats.inst_cache), ("reg", stats.reg_cache),
            ("mask", stats.mask_cache), ("sgt", stats.sgt_cache))},
    }


def add_collected_stats(result: UnitResult, collected: Dict[str, list]) -> None:
    """Fold in the stats of worlds a campaign call built internally
    (instances a traced run saw constructed during the unit)."""
    result.sim["pcus"] = [pcu_counts(pcu)
                          for pcu in collected.get("PrivilegeCheckUnit", ())]
    result.sim["contract_events"] = sum(
        monitor.events_seen for monitor in collected.get("ContractMonitor", ()))


def _run_machine(unit: MachineUnit, clock, span, result: UnitResult) -> None:
    from repro.contracts import ContractMonitor
    from repro.core import CONFIG_8E
    from repro.kernel import RiscvKernel, X86Kernel
    from repro.sim import SimulationLimitExceeded
    from repro.workloads import AppRunResult

    start = clock()
    with span("gen", "workloads"):
        program = unit.build_program()
    with span("boot", "kernel"):
        kernel = (X86Kernel if unit.arch == "x86" else RiscvKernel)(
            unit.mode, CONFIG_8E)
        monitor = None
        if unit.monitored:
            monitor = ContractMonitor(seed=0)
            monitor.attach(kernel.system.pcu, kernel.system.manager)
    timed = clock()
    result.setup_s = timed - start
    try:
        with span("run", "kernel"):
            stats = kernel.run(program, max_steps=MAX_STEPS)
    except SimulationLimitExceeded as error:
        result.timed_s = clock() - timed
        result.failures.append("did not halt: %s" % error)
        return
    result.timed_s = clock() - timed
    result.work = stats.instructions

    machine = kernel.system.machine
    pcu = kernel.system.pcu
    detail: Dict[str, object] = {
        "traps": stats.traps,
        "halted": stats.halted,
        "syscalls": kernel.syscall_count,
        "faults": kernel.fault_count,
    }
    if monitor is not None:
        detail["contract_counts"] = monitor.counts()
    result.record = {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "pcu": None if pcu is None else pcu.stats.as_dict(),
        "detail": detail,
    }
    hierarchy = machine.hierarchy
    branch = machine.pipeline.branch_stats
    result.sim = {
        "group": unit.group,
        "mode": unit.mode,
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "traps": stats.traps,
        "syscalls": kernel.syscall_count,
        "l1i": [hierarchy.l1i.stats.hits, hierarchy.l1i.stats.misses],
        "l1d": [hierarchy.l1d.stats.hits, hierarchy.l1d.stats.misses],
        "branch": [branch.predictions, branch.mispredictions],
        "pcus": [] if pcu is None else [pcu_counts(pcu)],
    }
    if pcu is not None:
        result.sim["block"] = pcu.block_stats.as_dict()
    if monitor is not None:
        result.sim["contract_events"] = monitor.events_seen

    if not stats.halted:
        result.failures.append("did not halt")
    if kernel.fault_count:
        result.failures.append("unexpected fault (vector %d, %d fault(s))"
                               % (kernel.last_fault_vector, kernel.fault_count))
    if unit.app is not None:
        app = AppRunResult(unit.app, unit.arch, unit.mode, "plain", stats.cycles,
                           stats.instructions, kernel.syscall_count,
                           kernel.fault_count)
        if not app.valid:
            result.failures.append("app result not valid")
    if monitor is not None and monitor.unwaived_violations:
        result.failures.append("unwaived contract violation: %s"
                               % monitor.first_unwaived().describe())


def _run_campaign(unit: CampaignUnit, clock, span, result: UnitResult) -> None:
    layer = {"conformance": "conformance", "attack": "attacks"}.get(
        unit.family, "faults")
    start = clock()
    with span("campaign", layer):
        outcome = unit.call()
    result.timed_s = clock() - start
    events, detail, failures = unit.summarize(outcome)
    result.work = events
    result.record = {"detail": detail}
    result.failures.extend(failures)
    result.sim = {"events": events}
    if unit.family == "churn":
        result.sim["virt"] = {
            key: sum(r.virtualizer.get(key, 0) for r in outcome.results)
            for key in ("evictions", "recycles")}
