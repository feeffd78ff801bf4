"""The block engine: privilege summaries for basic blocks, both ISAs.

DESIGN §3.18.  The per-pc decode caches resolve one instruction at a
time; the block cache extends them with straight-line *superblocks* —
maximal runs of block-eligible decoded instructions ending at the first
control transfer — each carrying a :class:`BlockSummary` of every
privilege the run needs.  A warm block for the current domain and
generation then costs one
:meth:`~repro.core.pcu.PrivilegeCheckUnit.check_block_summary` probe
instead of N per-instruction checks, and its members execute through
pre-fused closures that fold the work and the pipeline-timing model of
each instruction into a single call.

Formation (:func:`form_block`), the fused member closures and the
executor loop (:func:`run_blocks`) are ISA- and pipeline-neutral.  The
closures take their timing constants from the machine's pipeline
model, and each CPU class supplies a four-part descriptor:

* **member roles** — ``_block_member(entry)`` maps a decode entry
  (from ``_decode_cache``, filled by ``_decode_entry(pc)``) to
  ``(handler, inst, extra, size, inst_class, role, ender)``, or
  ``None`` when the instruction may not join a block;
* **fetch gate** — ``_block_fetch_gate``: ``None``, or a
  ``(mapping, key)`` pair whose nonzero value suspends block entry and
  formation (RISC-V: ``satp`` under translation);
* **fault vectoring** — ``_dispatch_fault(error, pc, info)``, the same
  trap path ``step()`` takes;
* **pc convention** — ``BLOCK_HANDLERS_SET_PC``: whether every handler
  writes ``cpu.pc`` itself, or only block enders do (the executor then
  stores ``end_pc`` after a block that did not end on one).

Member handlers are called directly as ``handler(inst, pc, info,
extra)``.  The coherence contract — what may be in a block, when a
probe must refuse, and why the fallback path is always the reference
semantics — is documented in DESIGN §3.18 and enforced by the block
lockstep test suite.
"""

from __future__ import annotations

from typing import Dict, Iterable, Sequence, Tuple

from repro.core.errors import PrivilegeFault
from repro.core.pcu import BLOCK_REFUSED, BLOCK_SILENT

from .pipeline import StepInfo
from .trap import Trap

MASK64 = (1 << 64) - 1

#: Blocks shorter than this are not worth the probe + accounting
#: overhead; the per-instruction path serves them.
MIN_BLOCK_LEN = 3

#: Formation stops after this many members: caps compile time per block
#: and bounds how far a partial-block fault has to be attributed.
MAX_BLOCK_LEN = 64

#: Cache sentinel for a pc where formation was refused (head instruction
#: ineligible, block too short, undecodable tail...): the executor takes
#: one ordinary ``step()`` and re-probes at the next pc.
NO_BLOCK = False

#: Member roles a descriptor assigns: which timing components the fused
#: closure charges beyond the instruction fetch.
PURE = "pure"      # no data access, no branch predictor
LOAD = "load"
STORE = "store"
BRANCH = "branch"  # conditional: consults and trains the predictor


class BlockSummary:
    """Union of every privilege a block's members need.

    ``class_words`` holds the inst-bitmap union as sparse
    ``(word_index, bit_mask)`` pairs, matching the bypass register's
    word layout so the probe is one AND-compare per touched word.
    ``csrs`` is the tuple of CSR indices the block would access —
    always empty for blocks the CPUs form today (CSR instructions are
    never block members), but carried so the probe can refuse any
    future summary that does carry them instead of silently skipping
    the read/write/mask checks.  ``touches_memory`` records whether any
    member performs a load or store; those members keep their *live*
    ``check_data_access`` call (trusted-memory ranges and generations
    are enforced per access, not summarized — addresses are dynamic).
    """

    __slots__ = ("class_words", "csrs", "touches_memory")

    def __init__(
        self,
        class_words: Tuple[Tuple[int, int], ...],
        csrs: Tuple[int, ...] = (),
        touches_memory: bool = False,
    ):
        self.class_words = class_words
        self.csrs = csrs
        self.touches_memory = touches_memory

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "BlockSummary(words=%r, csrs=%r, mem=%r)" % (
            self.class_words, self.csrs, self.touches_memory
        )


def summarize_classes(inst_classes: Iterable[int]) -> Tuple[Tuple[int, int], ...]:
    """Fold instruction-class indices into sparse bypass-word masks."""
    words: Dict[int, int] = {}
    for inst_class in inst_classes:
        index = inst_class >> 6
        words[index] = words.get(index, 0) | 1 << (inst_class & 63)
    return tuple(sorted(words.items()))


class CompiledBlock:
    """One formed superblock: summary + fused member closures.

    ``ops[i]()`` performs member ``i``'s architectural work *and* its
    pipeline-timing accounting (instruction fetch, data access, branch
    prediction) in the exact operation order of the per-instruction
    path, returning the float cycle cost — so accumulating the returns
    sequentially is bit-identical to the reference loop's
    ``stats.cycles += instruction_cycles(info)`` adds.  ``pcs`` and
    ``sizes`` attribute a mid-block fault to its member; ``sets_pc``
    records that the members leave ``cpu.pc`` written — the final one
    is a control transfer, or every handler of the ISA writes it —
    otherwise the executor stores ``end_pc`` once.
    """

    __slots__ = ("summary", "ops", "pcs", "sizes", "n", "end_pc", "sets_pc")

    def __init__(
        self,
        summary: BlockSummary,
        ops: Sequence,
        pcs: Sequence[int],
        sizes: Sequence[int],
        end_pc: int,
        sets_pc: bool,
    ):
        self.summary = summary
        self.ops = list(ops)
        self.pcs = tuple(pcs)
        self.sizes = tuple(sizes)
        self.n = len(self.ops)
        self.end_pc = end_pc
        self.sets_pc = sets_pc

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "CompiledBlock(n=%d, pc=0x%x..0x%x, sets_pc=%r)" % (
            self.n, self.pcs[0], self.pcs[-1], self.sets_pc
        )


# ----------------------------------------------------------------------
# Fused member closures.  Each performs the member's architectural work
# (one direct handler call) and then its timing in the reference order
# of ``instruction_cycles``: fetch, then data access or branch
# prediction.  The pipeline supplies the constants — the base issue
# cost, the pipelined hit latency and the per-miss factors — so the
# same closures reproduce both timing models bit for bit (the in-order
# model's factors are exactly 1).
# ----------------------------------------------------------------------
def _pure_op(p, handler, inst, pc, size, extra):
    info = StepInfo(pc, size)

    def op(h=handler, inst=inst, pc=pc, info=info, extra=extra,
           ai=p._access_instruction, base=p._inv_width,
           hit=p.PIPELINED_HIT, icf=p.ICACHE_MISS_FACTOR):
        h(inst, pc, info, extra)
        f = ai(pc)
        if f > hit:
            return base + (f - hit) * icf
        return base

    return op


def _mem_op(p, handler, inst, pc, size, extra, is_store):
    info = StepInfo(pc, size)
    factor = p.STORE_MISS_FACTOR if is_store else p.LOAD_MISS_FACTOR

    def op(h=handler, inst=inst, pc=pc, info=info, extra=extra,
           ai=p._access_instruction, ad=p._access_data, base=p._inv_width,
           hit=p.PIPELINED_HIT, icf=p.ICACHE_MISS_FACTOR,
           is_store=is_store, factor=factor):
        h(inst, pc, info, extra)
        f = ai(pc)
        c = base + (f - hit) * icf if f > hit else base
        d = ad(info.mem_address, is_store)
        if d > hit:
            c += (d - hit) * factor
        return c

    return op


def _branch_op(p, handler, inst, pc, size, extra):
    info = StepInfo(pc, size)

    def op(h=handler, inst=inst, pc=pc, info=info, extra=extra,
           ai=p._access_instruction, base=p._inv_width,
           hit=p.PIPELINED_HIT, icf=p.ICACHE_MISS_FACTOR,
           stats=p.branch_stats, pu=p._predictor_update,
           mp=p._mispredict_penalty):
        h(inst, pc, info, extra)
        f = ai(pc)
        c = base + (f - hit) * icf if f > hit else base
        stats.predictions += 1
        if pu(pc, info.branch_taken):
            stats.mispredictions += 1
            c += mp
        return c

    return op


def form_block(cpu, start: int):
    """Compile a superblock at ``start``, or ``NO_BLOCK``.

    Members are consecutive instructions the descriptor's
    ``_block_member`` admits; the first ender (a control transfer) is
    the final member.  Anything it refuses — gates, CSR/MSR access,
    privileged or serializing instructions, anything undecodable — ends
    the block before it, so a block can never contain a domain switch,
    a privilege edit or a translation change.
    """
    p = cpu.machine.pipeline
    decode_cache = cpu._decode_cache
    decode = cpu._decode_entry
    member = cpu._block_member
    ops = []
    pcs = []
    sizes = []
    classes = []
    touches_memory = False
    ender = False
    pc = start
    while len(ops) < MAX_BLOCK_LEN:
        entry = decode_cache.get(pc)
        if entry is None:
            try:
                entry = decode(pc)
            except Trap:
                # Undecodable tail: executing it live must raise the
                # same trap via the reference path, so end the block
                # here and do not cache the decode failure.
                break
            decode_cache[pc] = entry
        found = member(entry)
        if found is None:
            break
        handler, inst, extra, size, inst_class, role, ender = found
        if role == PURE:
            op = _pure_op(p, handler, inst, pc, size, extra)
        elif role == BRANCH:
            op = _branch_op(p, handler, inst, pc, size, extra)
        else:
            op = _mem_op(p, handler, inst, pc, size, extra, role == STORE)
            touches_memory = True
        ops.append(op)
        pcs.append(pc)
        sizes.append(size)
        classes.append(inst_class)
        pc = (pc + size) & MASK64
        if ender:
            break
    if len(ops) < MIN_BLOCK_LEN:
        return NO_BLOCK
    summary = BlockSummary(summarize_classes(classes), (), touches_memory)
    return CompiledBlock(summary, ops, pcs, sizes, pc,
                         ender or cpu.BLOCK_HANDLERS_SET_PC)


def run_blocks(cpu, max_steps: int, mstats, instruction_cycles) -> None:
    """Hot loop: execute warm blocks under one PCU probe each.

    Bound as ``run_blocks`` on each CPU class and called by
    :meth:`Machine.run` instead of its per-instruction loop when block
    summaries are enabled.  Any cold/ineligible pc, refused probe or
    closed fetch gate falls back to the reference ``step()`` for
    exactly one instruction, so semantics, cycles and statistics are
    bit-identical to the per-instruction loop by construction.
    """
    blocks = cpu._block_cache
    pcu = cpu.pcu
    pipeline = cpu.machine.pipeline
    step = cpu.step
    gate = cpu._block_fetch_gate
    if gate is not None:
        gate_regs, gate_key = gate
    probe = None if pcu is None else pcu.check_block_summary
    account = None if pcu is None else pcu.account_block
    insts = mstats.instructions
    cyc = mstats.cycles
    traps = 0
    remaining = max_steps
    try:
        while remaining > 0:
            if gate is not None and gate_regs[gate_key]:
                block = NO_BLOCK
            else:
                pc = cpu.pc
                block = blocks.get(pc)
                if block is None:
                    block = blocks[pc] = form_block(cpu, pc)
            if block is not NO_BLOCK and block.n <= remaining:
                mode = BLOCK_SILENT if probe is None else probe(block.summary)
            else:
                mode = BLOCK_REFUSED
            if mode == BLOCK_REFUSED:
                # Reference path for one instruction.  Flush the stats
                # mirrors first: rdtsc, the cycle/instret CSRs and trap
                # handlers observe them live.
                mstats.instructions = insts
                mstats.cycles = cyc
                info = step()
                insts += 1
                cyc += instruction_cycles(info)
                remaining -= 1
                if info.trapped:
                    traps += 1
                if info.halted:
                    mstats.halted = True
                    return
                continue
            ops = block.ops
            n = block.n
            # The O3 store-queue window counts retired instructions;
            # members batch its update (no member is a gate).
            isp = pipeline._instructions_since_push
            i = 0
            try:
                while i < n:
                    cyc += ops[i]()
                    i += 1
            except BaseException as error:
                # Mid-block error: members [0, i) retired normally.  The
                # faulting member's check preceded its handler on the
                # reference path, so it is accounted too — also when the
                # error escapes the run (an unhandled trap's CpuPanic, a
                # MemoryAccessError).
                insts += i
                if isp is not None:
                    pipeline._instructions_since_push = isp + i
                if account is not None:
                    account(mode, i + 1)
                if not isinstance(error, (Trap, PrivilegeFault)):
                    raise
                # The faulting member vectors exactly like step().
                info = StepInfo(block.pcs[i], block.sizes[i])
                cpu._dispatch_fault(error, block.pcs[i], info)
                insts += 1
                cyc += instruction_cycles(info)
                traps += 1
                remaining -= i + 1
                continue
            if isp is not None:
                pipeline._instructions_since_push = isp + n
            insts += n
            remaining -= n
            if not block.sets_pc:
                cpu.pc = block.end_pc
            if account is not None:
                account(mode, n)
    finally:
        mstats.instructions = insts
        mstats.cycles = cyc
        mstats.traps += traps


def flush_decode_cache(cpu) -> None:
    """Call after writing instruction memory (icache coherence).

    Bound as ``flush_decode_cache`` on each CPU class: block closures
    bake in decoded bytes, so the block cache goes with the decode cache.
    """
    cpu._decode_cache.clear()
    if cpu._block_cache:
        cpu._block_cache.clear()
        if cpu.pcu is not None:
            cpu.pcu.block_stats.invalidations += 1
