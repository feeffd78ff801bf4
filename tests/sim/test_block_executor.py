"""The block-summary executor: machine-level bit-identity (§3.18).

The block executor must be a pure wall-clock optimization: for every
program, running with block summaries on, off (per-instruction fast
path) and with ``fast_path=False`` (reference slow path) must produce
bit-identical instructions, cycles, traps, architectural registers and
``PcuStats``.  This suite drives small assembled programs and the
gate-stress kernel workload through all three modes, exercises the
mid-block fault and escaping-exception paths, and pins the escape
hatches (``PcuConfig(block_summaries=False)``, the
``Machine.block_summaries`` flag, step hooks, an attached contract
monitor) that must keep the reference path in charge.  Every executor
case in :class:`BlockExecutorCases` runs on both backends; RISC-V's
fetch gate (no blocks under Sv39 translation) has its own case.
"""

import dataclasses

import pytest

from repro.contracts import ContractMonitor
from repro.core import CONFIG_8E
from repro.kernel import RiscvKernel, X86Kernel
from repro.riscv import (
    CSR_ADDRESS,
    CpuPanic as RiscvCpuPanic,
    KERNEL_BASE as RISCV_BASE,
    TRUSTED_BASE as RISCV_TRUSTED_BASE,
    assemble as riscv_assemble,
    build_riscv_system,
)
from repro.riscv.mmu import PTE_R, PTE_W, PTE_X, PageTableBuilder
from repro.sim import (
    InOrderPipelineModel,
    MemoryAccessError,
    OutOfOrderPipelineModel,
    SimulationLimitExceeded,
)
from repro.workloads import GATE_STRESS
from repro.workloads.generator import riscv_user_program, x86_user_program
from repro.x86 import (
    CpuPanic as X86CpuPanic,
    IDT_BASE,
    KERNEL_BASE as X86_BASE,
    VEC_UD,
    assemble as x86_assemble,
    build_x86_system,
)

BLOCK_OFF = dataclasses.replace(CONFIG_8E, block_summaries=False)
SLOW_PATH = dataclasses.replace(CONFIG_8E, fast_path=False)
ALL_MODES = (CONFIG_8E, BLOCK_OFF, SLOW_PATH)

X86_LOOP = """
entry:
    mov rcx, 40
loop:
    mov rax, 5
    add rax, 7
    sub rax, 2
    and rax, 0xFF
    sub rcx, 1
    cmp rcx, 0
    jne loop
    hlt
"""

RISCV_LOOP = """
entry:
    li t0, 40
loop:
    addi t1, t1, 3
    add t2, t1, t0
    sub t3, t2, t1
    addi t0, t0, -1
    bnez t0, loop
    halt
"""


X86_SPIN = """
entry:
    mov rax, 1
loop:
    add rax, 1
    add rax, 2
    add rax, 3
    and rax, 0xFFFF
    jmp loop
"""

RISCV_SPIN = """
entry:
    li t0, 1
loop:
    addi t0, t0, 1
    addi t0, t0, 2
    addi t0, t0, 3
    andi t0, t0, 0x7FF
    j loop
"""

# An out-of-range load: a simulator-level error that escapes the run.
X86_ESCAPING = """
entry:
    mov rbx, 0x40000000
    mov rax, 1
    add rax, 2
    mov rcx, [rbx]
    hlt
"""

RISCV_ESCAPING = """
entry:
    addi t0, x0, 1
    addi t1, x0, 2
    li t2, 0x40000000
    ld t3, 0(t2)
    halt
"""

# mov/mov/add/div is one straight-line block; the div faults at member
# 3 and vectors through the IDT.  The handler leaves 99 in rdi.
X86_TRAP = """
entry:
    mov rsp, 0x6e0000
    mov rax, %d
    mov rbx, handler
    mov [rax+%d], rbx
    mov rbx, %d
    mov rcx, 0x610000
    mov [rcx+0], rbx
    mov rbx, 4095
    mov [rcx+8], rbx
    lidt [rcx+0]
    mov rax, 8
    mov rbx, 0
    add rax, 4
    div rbx
    hlt
handler:
    mov rdi, 99
    hlt
""" % (IDT_BASE, 8 * VEC_UD, IDT_BASE)

# The gate enters domain "all", where the block's member load of a
# trusted-region word raises TrustedMemoryFault and vectors through
# stvec.  The handler leaves 99 in a0.
RISCV_TRAP = """
entry:
    la t0, handler
    csrw stvec, t0
    li t0, 0
gate:
    hccall t0
in_domain:
    addi t2, x0, 1
    addi t2, t2, 2
    addi t2, t2, 3
    li t1, %d
    ld a1, 0(t1)
    halt
handler:
    li a0, 99
    halt
""" % RISCV_TRUSTED_BASE


# The same faults with no trap handler installed: the CpuPanic escapes
# the run.
X86_PANIC = """
entry:
    mov rax, 8
    mov rbx, 0
    add rax, 4
    div rbx
    hlt
"""

RISCV_PANIC = """
entry:
    li t0, 0
gate:
    hccall t0
in_domain:
    addi t2, x0, 1
    addi t2, t2, 2
    addi t2, t2, 3
    li t1, %d
    ld a1, 0(t1)
    halt
""" % RISCV_TRUSTED_BASE


def enter_domain_at_gate(system, program, domain):
    system.manager.register_gate(program.symbol("gate"),
                                 program.symbol("in_domain"),
                                 domain.domain_id)


@dataclasses.dataclass(frozen=True)
class Backend:
    build: object
    assemble: object
    base: int
    loop: str
    spin: str
    escaping: str
    trap: str
    panic: str
    #: Register the trap handler leaves 99 in.
    trap_reg: int
    #: Extra wiring after loading the trap program, or None.
    trap_setup: object = None


X86 = Backend(build_x86_system, x86_assemble, X86_BASE, X86_LOOP,
              X86_SPIN, X86_ESCAPING, X86_TRAP, X86_PANIC, trap_reg=7)
RISCV = Backend(build_riscv_system, riscv_assemble, RISCV_BASE, RISCV_LOOP,
                RISCV_SPIN, RISCV_ESCAPING, RISCV_TRAP, RISCV_PANIC,
                trap_reg=10, trap_setup=enter_domain_at_gate)


def load(backend, config, source, setup=None):
    system = backend.build(config)
    domain = system.manager.create_domain("all")
    system.manager.allow_all_instructions(domain.domain_id)
    program = backend.assemble(source, base=backend.base)
    system.load(program)
    if setup is not None:
        setup(system, program, domain)
    return system, program


def run(backend, config, source=None, *, max_steps=100_000, setup=None):
    system, program = load(backend, config, source or backend.loop, setup)
    system.run(program.symbol("entry"), max_steps=max_steps)
    return system


def snapshot(system):
    stats = system.machine.stats
    return {
        "instructions": stats.instructions,
        "cycles": stats.cycles,
        "traps": stats.traps,
        "halted": stats.halted,
        "regs": tuple(system.cpu.regs),
        "pcu": system.pcu.stats.as_dict(),
    }


class BlockExecutorCases:
    """Every executor case; the subclasses bind it to one backend."""

    backend: Backend

    def test_three_way_bit_identity(self):
        blocky, off, slow = (run(self.backend, config) for config in ALL_MODES)
        reference = snapshot(off)
        assert snapshot(blocky) == reference
        assert snapshot(slow) == reference
        # The block run really took the block executor; the others
        # never probed.
        assert blocky.pcu.block_stats.insts > 0
        assert off.pcu.block_stats.probes == 0
        assert slow.pcu.block_stats.probes == 0

    def test_trap_inside_a_block_vectors_like_step(self):
        # A member faults mid-block; it must vector through the trap
        # handler exactly like the per-instruction path — same handler,
        # same counters.
        backend = self.backend
        blocky, off = (
            run(backend, config, backend.trap, setup=backend.trap_setup)
            for config in (CONFIG_8E, BLOCK_OFF))
        reg = backend.trap_reg
        assert blocky.cpu.regs[reg] == off.cpu.regs[reg] == 99
        assert snapshot(blocky) == snapshot(off)
        assert blocky.machine.stats.traps == 1
        assert blocky.pcu.block_stats.insts > 0

    def test_escaping_exception_inside_a_block(self):
        # An out-of-range load escapes the run on the reference path;
        # mid-block it must escape too, with the retired prefix
        # attributed identically.
        snaps = []
        for config in (CONFIG_8E, BLOCK_OFF):
            system, program = load(self.backend, config, self.backend.escaping)
            with pytest.raises(MemoryAccessError):
                system.run(program.symbol("entry"))
            snaps.append(snapshot(system))
        assert snaps[0] == snaps[1]

    def test_unhandled_trap_inside_a_block(self):
        # With no handler the vectoring raises CpuPanic out of the run;
        # the faulting member's check still counts, as on the
        # reference path.
        backend = self.backend
        snaps = []
        for config in (CONFIG_8E, BLOCK_OFF):
            system, program = load(backend, config, backend.panic,
                                   backend.trap_setup)
            with pytest.raises((X86CpuPanic, RiscvCpuPanic)):
                system.run(program.symbol("entry"))
            snaps.append((snapshot(system), system.pcu.block_stats.insts))
        assert snaps[0][0] == snaps[1][0]
        assert snaps[0][1] > 0

    def test_budget_cutoff_is_identical(self):
        # A non-halting program must stop after exactly max_steps in
        # both modes — a block never overshoots the budget.
        snaps = []
        for config in (CONFIG_8E, BLOCK_OFF):
            system, program = load(self.backend, config, self.backend.spin)
            with pytest.raises(SimulationLimitExceeded):
                system.run(program.symbol("entry"), max_steps=1001)
            snaps.append(snapshot(system))
        assert snaps[0] == snaps[1]
        assert snaps[0]["instructions"] == 1001

    def test_identity_on_the_other_pipeline_model(self):
        # The closures take their timing constants from whichever model
        # the machine runs, so blocks stay bit-identical when the
        # backend runs on the other ISA's pipeline.
        snaps = []
        for config in (CONFIG_8E, BLOCK_OFF):
            system, program = load(self.backend, config, self.backend.loop)
            machine = system.machine
            other = (OutOfOrderPipelineModel
                     if isinstance(machine.pipeline, InOrderPipelineModel)
                     else InOrderPipelineModel)
            machine.pipeline = other(machine.hierarchy)
            system.run(program.symbol("entry"))
            snaps.append((snapshot(system), system.pcu.block_stats.insts))
        assert snaps[0][0] == snaps[1][0]
        assert snaps[0][1] > 0

    def test_machine_flag_escape_hatch(self):
        system, program = load(self.backend, CONFIG_8E, self.backend.loop)
        system.machine.block_summaries = False
        system.run(program.symbol("entry"))
        assert system.pcu.block_stats.probes == 0
        assert snapshot(system) == snapshot(run(self.backend, BLOCK_OFF))

    def test_step_hook_keeps_the_reference_path(self):
        system, program = load(self.backend, CONFIG_8E, self.backend.loop)
        seen = []
        system.machine.step_hook = lambda info: seen.append(info.pc) or False
        system.run(program.symbol("entry"))
        assert system.pcu.block_stats.probes == 0
        # The hook saw every instruction (the halting one returns
        # before the hook call, as the reference loop always did).
        assert len(seen) == system.machine.stats.instructions - 1

    def test_reload_flushes_the_block_cache(self):
        system = run(self.backend, CONFIG_8E)
        assert system.cpu._block_cache
        invalidations = system.pcu.block_stats.invalidations
        program = self.backend.assemble(self.backend.loop, base=self.backend.base)
        system.load(program)  # icache coherence: flush_decode_cache
        assert not system.cpu._block_cache
        assert system.pcu.block_stats.invalidations == invalidations + 1


class TestX86Identity(BlockExecutorCases):
    backend = X86


class TestRiscvIdentity(BlockExecutorCases):
    backend = RISCV


class TestTranslatedFetch:
    """RISC-V's fetch gate: no block is formed or probed while satp
    enables Sv39 translation; blocks resume once satp returns to Bare."""

    SOURCE = """
    entry:
        li t0, 8
    bare_loop:
        addi t1, t1, 3
        add t2, t1, t0
        addi t0, t0, -1
        bnez t0, bare_loop
        li t0, %d
        csrw satp, t0
    paged:
        sfence.vma
        li t0, 8
    paged_loop:
        addi t1, t1, 3
        add t2, t1, t0
        addi t0, t0, -1
        bnez t0, paged_loop
    leave_paging:
        csrw satp, x0
        sfence.vma
        li t0, 8
    bare_again:
        addi t1, t1, 3
        add t2, t1, t0
        addi t0, t0, -1
        bnez t0, bare_again
        halt
    """

    def run(self, block_summaries):
        system = build_riscv_system(CONFIG_8E)
        system.machine.block_summaries = block_summaries
        pt = PageTableBuilder(system.machine.memory, 0x0200_0000)
        pt.identity_map(RISCV_BASE, 0x10000, PTE_R | PTE_X)
        pt.identity_map(0x0060_0000, 0x100000, PTE_R | PTE_W)
        program = riscv_assemble(self.SOURCE % pt.satp(), base=RISCV_BASE)
        system.load(program)
        cpu, pcu = system.cpu, system.pcu
        satp = CSR_ADDRESS["satp"]
        # Record satp at every formation step and every probe.
        seen = []
        member, probe = cpu._block_member, pcu.check_block_summary
        cpu._block_member = lambda pc: seen.append(cpu.csrs[satp]) or member(pc)
        pcu.check_block_summary = (
            lambda summary: seen.append(cpu.csrs[satp]) or probe(summary))
        system.run(program.symbol("entry"), max_steps=10_000)
        return system, program, seen

    def test_blocks_only_in_bare_mode(self):
        blocky, program, seen = self.run(True)
        off, _, off_seen = self.run(False)
        assert snapshot(blocky) == snapshot(off)
        assert blocky.machine.stats.halted
        assert off_seen == []
        # Formation and probes happened, all of them under Bare mode.
        assert seen and not any(seen)
        cache = blocky.cpu._block_cache
        assert cache[program.symbol("bare_loop")]
        assert cache[program.symbol("bare_again")]
        # Every pc from the first translated fetch through the satp
        # write that ends translation.
        paged = range(program.symbol("paged"), program.symbol("leave_paging") + 4)
        assert not any(pc in paged for pc in cache)
        assert blocky.pcu.block_stats.insts > 0


class TestKernelWorkloadIdentity:
    """The gate-stress kernel exercises BYPASS-mode blocks: domain
    entries through gates, privilege revocations, ISA-Grid faults and
    syscalls interleave with straight-line user code."""

    ITERATIONS = 8
    MAX_STEPS = 1_000_000

    def run_kernel(self, kernel_class, user_program, config):
        profile = dataclasses.replace(GATE_STRESS,
                                      outer_iterations=self.ITERATIONS)
        kernel = kernel_class("decomposed", config)
        stats = kernel.run(user_program(profile), max_steps=self.MAX_STEPS)
        observed = {
            "instructions": stats.instructions,
            "cycles": stats.cycles,
            "traps": stats.traps,
            "pcu": kernel.system.pcu.stats.as_dict(),
            "syscalls": kernel.syscall_count,
            "faults": kernel.fault_count,
        }
        return observed, kernel

    def test_x86_gate_stress_three_way(self):
        results = {}
        for config in ALL_MODES:
            results[config.fast_path, config.block_summaries] = (
                self.run_kernel(X86Kernel, x86_user_program, config))
        reference = results[True, False][0]
        for key, (observed, _) in results.items():
            assert observed == reference, "mode %r diverged" % (key,)
        blocky = results[True, True][1]
        assert blocky.system.pcu.block_stats.hits > 0
        assert results[True, False][1].system.pcu.block_stats.probes == 0

    def test_riscv_gate_stress_three_way(self):
        results = {}
        for config in ALL_MODES:
            results[config.fast_path, config.block_summaries] = (
                self.run_kernel(RiscvKernel, riscv_user_program, config))
        reference = results[True, False][0]
        for key, (observed, _) in results.items():
            assert observed == reference, "mode %r diverged" % (key,)
        assert results[True, True][1].system.pcu.block_stats.hits > 0

    def test_attached_monitor_forces_per_instruction_cadence(self):
        # An armed contract tap must see every check: probes refuse,
        # and the monitored event stream is identical with blocks
        # configured on or off.
        monitors = []
        for config in (CONFIG_8E, BLOCK_OFF):
            profile = dataclasses.replace(GATE_STRESS,
                                          outer_iterations=self.ITERATIONS)
            kernel = X86Kernel("decomposed", config)
            monitor = ContractMonitor(seed=0)
            monitor.attach(kernel.system.pcu, kernel.system.manager)
            kernel.run(x86_user_program(profile), max_steps=self.MAX_STEPS)
            assert kernel.system.pcu.block_stats.hits == 0
            assert monitor.total_violations == 0
            monitors.append(monitor)
        assert monitors[0].events_seen == monitors[1].events_seen > 0
