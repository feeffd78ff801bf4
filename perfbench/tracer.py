"""Layer tracer for the traced benchmark run.

The tracer wraps methods on the *classes* of each layer, once, before
any kernel, world or monitor is built.  Hot paths bind methods when an
object is constructed (``PipelineModel.__init__`` binds
``hierarchy.access_instruction``, block member closures bind
``p._access_instruction``), so a class-level wrapper installed first is
what those bindings capture.  Nothing is ever set on an instance: an
instance-level ``step`` on ``Machine`` or ``check`` on the PCU would
move the run off the block executor and change the program measured.

Per-call boundaries are aggregated, never recorded one by one: a call
that crosses from one layer into another adds one count and its self
time (duration minus the time of the layer calls beneath it) to the
``(layer, parent layer)`` cell.  Calls within one layer pass straight
through.  Full span records (name, start, end, parent, unit id) are kept
only at the coarse boundaries the benchmark opens itself: unit,
generation, boot, run and campaign.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Sequence, Tuple

#: (layer, module, class, methods): ``None`` wraps every plain function
#: the class itself defines, ``__init__`` included.  Only entry points
#: are listed for the per-instruction layers, so code inside a layer
#: runs unwrapped and its time is that layer's self time.
CLASS_LAYERS: Sequence[Tuple[str, str, str, Optional[Tuple[str, ...]]]] = (
    ("sim.machine", "repro.sim.machine", "Machine", ("run", "step")),
    ("sim.pipeline", "repro.sim.pipeline", "InOrderPipelineModel",
     ("instruction_cycles",)),
    ("sim.pipeline", "repro.sim.pipeline", "OutOfOrderPipelineModel",
     ("instruction_cycles",)),
    ("sim.branch", "repro.sim.branch", "TournamentPredictor", ("update",)),
    ("sim.memhier", "repro.sim.memhier", "MemoryHierarchy",
     ("access_instruction", "access_data", "flush")),
    ("sim.memory", "repro.sim.memory", "PhysicalMemory", None),
    ("x86", "repro.x86.cpu", "X86Cpu", ("step", "run_blocks", "flush_decode_cache")),
    ("riscv", "repro.riscv.cpu", "RiscvCpu",
     ("step", "run_blocks", "flush_decode_cache")),
    ("core.pcu", "repro.core.pcu", "PrivilegeCheckUnit", None),
    ("core.hpt", "repro.core.hpt", "HybridPrivilegeTable", None),
    ("core.domain", "repro.core.domain", "DomainManager", None),
    ("core.virt", "repro.core.domain_virtualization", "DomainVirtualizer", None),
    ("core.trusted_memory", "repro.core.trusted_memory", "TrustedMemory", None),
    ("core.trusted_memory", "repro.core.trusted_memory", "TrustedStack", None),
    ("contracts", "repro.contracts.monitor", "ContractMonitor", None),
    ("conformance", "repro.conformance.runner", "ConformanceWorld", None),
    ("conformance", "repro.conformance.runner", "DifferentialRunner", None),
    ("conformance.oracle", "repro.conformance.oracle", "OraclePcu", None),
    ("faults", "repro.faults.churn", "ChurnWorld", None),
    ("faults", "repro.faults.injector", "FaultInjector", None),
    ("faults", "repro.faults.scrub", "IntegrityScrubber", None),
    ("kernel", "repro.kernel.x86_kernel", "X86Kernel", None),
    ("kernel", "repro.kernel.riscv_kernel", "RiscvKernel", None),
    ("kernel", "repro.kernel.conformance_layer", "MiniKernelSyscallLayer", None),
)

#: (layer, consumer module, functions): module-level functions wrapped
#: in the namespace of the module that calls them.
FUNCTION_LAYERS: Sequence[Tuple[str, str, Tuple[str, ...]]] = (
    ("baselines.scan", "repro.attacks.unintended",
     ("scan_program", "rewrite_hidden_bytes", "linear_disassemble")),
)

#: Classes whose instances the tracer remembers per unit, so the stats
#: objects of worlds built inside a campaign call can be read afterwards.
COLLECTED = ("PrivilegeCheckUnit", "ContractMonitor")

ROOT_LAYER = "bench"


def _wrappable(value) -> bool:
    return (inspect.isfunction(value)
            and not inspect.isgeneratorfunction(value)
            and not hasattr(value, "__wrapped__"))


class LayerTracer:
    """Class-level wrappers plus the aggregates they feed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: Open frames, innermost last: [layer, time of child layers].
        self._stack: List[list] = [[ROOT_LAYER, 0.0]]
        #: (layer, parent layer) -> [boundary crossings, self seconds].
        self.cells: Dict[Tuple[str, str], list] = {}
        #: "Class.method" -> outermost calls (re-entry not counted).
        self.calls: Dict[str, int] = {}
        self.spans: List[Dict[str, object]] = []
        self.collected: Dict[str, list] = {name: [] for name in COLLECTED}
        self._open_spans: List[str] = []
        self.unit_id: Optional[int] = None

    # -- installation ----------------------------------------------------
    def install(self) -> int:
        """Wrap every listed class method and function; returns the count."""
        wrapped = 0
        for layer, module_name, class_name, methods in CLASS_LAYERS:
            cls = getattr(importlib.import_module(module_name), class_name)
            names = methods if methods is not None else [
                name for name, value in vars(cls).items()
                if _wrappable(value)
                and (not name.startswith("__") or name == "__init__")]
            for name in names:
                function = vars(cls)[name]
                wrapper = self._wrap(function, layer, "%s.%s" % (class_name, name))
                if name == "__init__" and class_name in COLLECTED:
                    wrapper = self._collecting(wrapper, self.collected[class_name])
                setattr(cls, name, wrapper)
                wrapped += 1
        for layer, module_name, names in FUNCTION_LAYERS:
            module = importlib.import_module(module_name)
            for name in names:
                setattr(module, name, self._wrap(getattr(module, name), layer, name))
                wrapped += 1
        return wrapped

    def _wrap(self, function, layer: str, qualname: str):
        stack = self._stack
        cells = self.cells
        calls = self.calls
        calls[qualname] = 0
        clock = self.clock
        depth = [0]

        @functools.wraps(function)
        def traced(*args, **kwargs):
            if not depth[0]:
                calls[qualname] += 1
            depth[0] += 1
            try:
                parent = stack[-1]
                if parent[0] == layer:
                    return function(*args, **kwargs)
                frame = [layer, 0.0]
                stack.append(frame)
                start = clock()
                try:
                    return function(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    parent[1] += elapsed
                    cell = cells.get((layer, parent[0]))
                    if cell is None:
                        cell = cells[(layer, parent[0])] = [0, 0.0]
                    cell[0] += 1
                    cell[1] += elapsed - frame[1]
            finally:
                depth[0] -= 1

        return traced

    @staticmethod
    def _collecting(init, instances: list):
        @functools.wraps(init)
        def collecting(self, *args, **kwargs):
            init(self, *args, **kwargs)
            instances.append(self)

        return collecting

    # -- coarse spans ----------------------------------------------------
    @contextmanager
    def span(self, name: str, layer: str):
        """A recorded span that is also a layer frame for self time."""
        parent_frame = self._stack[-1]
        frame = [layer, 0.0]
        record = {
            "name": name,
            "parent": self._open_spans[-1] if self._open_spans else None,
            "unit": self.unit_id,
        }
        self._stack.append(frame)
        self._open_spans.append(name)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._open_spans.pop()
            self._stack.pop()
            elapsed = end - start
            parent_frame[1] += elapsed
            cell = self.cells.setdefault((layer, parent_frame[0]), [0, 0.0])
            cell[0] += 1
            cell[1] += elapsed - frame[1]
            record["start"] = start
            record["end"] = end
            self.spans.append(record)

    def take_collected(self) -> Dict[str, list]:
        """Instances constructed since the last call, then forget them."""
        taken = {name: list(items) for name, items in self.collected.items()}
        for items in self.collected.values():
            items.clear()
        return taken

    # -- results ---------------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for (layer, _parent), (_count, seconds) in self.cells.items():
            totals[layer] = totals.get(layer, 0.0) + seconds
        return totals

    def span_seconds(self, name: str) -> float:
        return sum(span["end"] - span["start"] for span in self.spans
                   if span["name"] == name)

    def cells_as_list(self) -> List[Dict[str, object]]:
        return [{"layer": layer, "parent": parent, "calls": count,
                 "self_s": seconds}
                for (layer, parent), (count, seconds) in sorted(self.cells.items())]
