"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload x86_kernel --seed 1 --seconds 20 --trace 0

The simulator is imported from the checkout's own ``src/`` tree; without
it the benchmark exits with status 2 and prints no result.  One process,
one thread: the workload's units (see ``units.py``) run back to back in
rounds until ``--seconds`` have passed (at least one round).

``--trace 0`` measures the end-to-end metrics with no tracing.
``--trace 1`` first runs the same workload untraced in a child process
(the reference), then installs the layer tracer and runs traced rounds.
It reports the per-layer metrics, requires the traced run to reproduce
the reference's digests and simulated counts exactly, and states the
tracing overhead as the difference between the two runs' round times.

Every run writes a full report (manifest, per-unit digests, rounds,
layer cells and spans) to ``perfbench/out/`` and prints, as its last
line, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import socket
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(HERE, "out")
DIGESTS_PATH = os.path.join(HERE, "digests.json")

if HERE not in sys.path:
    sys.path.insert(0, HERE)

import units as unit_defs  # noqa: E402  (the benchmark's own module)

clock = time.perf_counter

#: Modules imported, and timed as part of set-up, before any unit runs.
REPRO_MODULES = (
    "repro.core", "repro.sim", "repro.kernel", "repro.workloads",
    "repro.x86", "repro.riscv", "repro.contracts", "repro.conformance",
    "repro.faults", "repro.attacks",
)

#: Layers whose self time the traced run reports.
SELF_TIME_LAYERS = (
    "sim.machine", "sim.memhier", "sim.pipeline", "sim.branch", "sim.memory",
    "x86", "riscv", "core.pcu", "core.hpt", "core.domain", "core.virt",
    "core.trusted_memory", "contracts", "conformance", "conformance.oracle",
    "faults", "attacks", "baselines.scan",
)

#: Per-layer call counters: metric -> wrapped "Class.method" names.
CALL_COUNTERS = {
    "sim.memhier.fetch_calls": ("MemoryHierarchy.access_instruction",),
    "sim.memhier.data_calls": ("MemoryHierarchy.access_data",),
    "x86.ref_steps": ("X86Cpu.step",),
    "riscv.ref_steps": ("RiscvCpu.step",),
    "core.pcu.check_calls": ("PrivilegeCheckUnit.check",),
    "core.pcu.block_probes": ("PrivilegeCheckUnit.check_block_summary",),
    "core.pcu.mem_filter_calls": ("PrivilegeCheckUnit.check_memory_access",),
}

#: Simulated per-layer counts: metric -> (unit, key of simulated_summary).
SIM_COUNTS = {
    "sim.cpi": ("cycles/inst", "sim_cpi"),
    "sim.isagrid_overhead_pct": ("%", "isagrid_overhead_pct"),
    "sim.l1i_accesses": ("count", "l1i_accesses"),
    "sim.l1i_miss_rate": ("ratio", "l1i_miss_rate"),
    "sim.l1d_miss_rate": ("ratio", "l1d_miss_rate"),
    "sim.mispredict_rate": ("ratio", "mispredict_rate"),
    "sim.traps": ("count", "traps"),
    "core.pcu.block_inst_share": ("ratio", "block_inst_share"),
    "core.pcu.block_hit_rate": ("ratio", "block_hit_rate"),
    "core.pcu.block_refusals": ("count", "block_refusals"),
    "core.pcu.stall_cycles": ("cycles", "stall_cycles"),
    "core.pcu.gate_calls": ("count", "gate_calls"),
    "core.pcu.hit_rate.inst": ("ratio", "hit_rate.inst"),
    "core.pcu.hit_rate.reg": ("ratio", "hit_rate.reg"),
    "core.pcu.hit_rate.mask": ("ratio", "hit_rate.mask"),
    "core.pcu.hit_rate.sgt": ("ratio", "hit_rate.sgt"),
    "core.virt.evictions": ("count", "virt_evictions"),
    "core.virt.recycles": ("count", "virt_recycles"),
    "contracts.events": ("count", "contract_events"),
    "faults.scrub_passes": ("count", "scrub_passes"),
    "kernel.syscalls": ("count", "syscalls"),
}


class SetupError(Exception):
    """The checkout cannot run the benchmark (no simulator source)."""


# ----------------------------------------------------------------------
# Environment and manifest.
# ----------------------------------------------------------------------
#: Times the imports of ``REPRO_MODULES`` in a fresh interpreter.
_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "start = time.perf_counter()\n"
    "for name in sys.argv[2:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - start)\n"
)


def import_simulator() -> None:
    """Import ``repro`` from this checkout's ``src/``."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise SetupError("no simulator source at %s" % SRC)
    sys.path.insert(0, SRC)
    for name in REPRO_MODULES:
        importlib.import_module(name)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SetupError("repro imported from %s, not from %s"
                         % (repro.__file__, SRC))


def probe_import() -> float:
    """Seconds to import ``REPRO_MODULES`` in a fresh interpreter.

    Import is set-up a run pays once per process, so each untraced round
    times it again in a child interpreter (waited for) to give
    ``setup_s`` one sample per round, like every other set-up step.
    """
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, SRC] + list(REPRO_MODULES),
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def _git(*args: str) -> Optional[str]:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "-C", ROOT] + list(args),
                              capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def calibration_rate(loops: int = 200_000, repeats: int = 5) -> float:
    """Iterations/s of a fixed pure-Python loop (host-relative context)."""
    rates = []
    for _ in range(repeats):
        start = clock()
        total = 0
        for i in range(loops):
            total = (total + i * i) % 1_000_003
        rates.append(loops / (clock() - start))
    return statistics.median(rates)


def manifest(args) -> Dict[str, object]:
    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "host": socket.gethostname(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "workload_params": unit_defs.SIZES[args.size],
        "calibration_loops_per_s": calibration_rate(),
    }


# ----------------------------------------------------------------------
# Rounds.
# ----------------------------------------------------------------------
def load_expected(seed: int, workload: str, size: str) -> Dict[str, str]:
    """Recorded digests for this (size, workload, seed), if any."""
    try:
        with open(DIGESTS_PATH) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return {}
    return table.get(size, {}).get(workload, {}).get(str(seed), {})


def run_rounds(workload: str, seed: int, size: str, seconds: float,
               expected: Dict[str, str], tracer=None) -> List[dict]:
    """Closed loop: whole rounds until ``seconds`` have passed.

    Each round repeats the same units on the same inputs; an untraced
    round also times one import in a fresh interpreter.  The heap is
    collected before every unit, outside its timing, so no unit pays for
    collecting an earlier unit's garbage.  A unit fails its check when
    its digest differs from the expected one (recorded, or injected by a
    caller) or from the same unit's first-round digest.
    """
    rounds: List[dict] = []
    first: Dict[str, Optional[str]] = {}
    span = tracer.span if tracer is not None else unit_defs.no_span
    began = clock()
    unit_id = 0
    while not rounds or clock() - began < seconds:
        import_s = probe_import() if tracer is None else 0.0
        round_start = clock()
        results = []
        for unit in unit_defs.build_units(workload, seed, size):
            gc.collect()
            if tracer is None:
                result = unit_defs.run_unit(unit, clock)
            else:
                tracer.unit_id = unit_id
                with tracer.span("unit", "bench"):
                    result = unit_defs.run_unit(unit, clock, span)
                collected = tracer.take_collected()
                if isinstance(unit, unit_defs.CampaignUnit):
                    unit_defs.add_collected_stats(result, collected)
            unit_id += 1
            want = expected.get(unit.name) or first.get(unit.name)
            if result.digest is not None and want and result.digest != want:
                result.failures.append("digest %s differs from expected %s"
                                       % (result.digest, want))
            first.setdefault(unit.name, result.digest)
            results.append(result)
        rounds.append({
            "wall_s": clock() - round_start,
            "import_s": import_s,
            "setup_s": sum(r.setup_s for r in results),
            "timed_s": sum(r.timed_s for r in results),
            "work": sum(r.work for r in results),
            "units": results,
        })
    return rounds


# ----------------------------------------------------------------------
# Simulated metrics: exact, identical on every run of a seed.
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def simulated_summary(results) -> Dict[str, object]:
    """The simulated metrics of one round, from the program's own stats."""
    machine = [(r.name, r.sim) for r in results if "instructions" in r.sim]
    sims = [sim for _, sim in machine]
    decomposed = [sim for sim in sims if sim["mode"] == "decomposed"]
    blocks = [sim["block"] for sim in decomposed if "block" in sim]
    pcus = [pcu for r in results for pcu in r.sim.get("pcus", ())]

    def total(items, key, index=None):
        return sum(item[key] if index is None else item[key][index]
                   for item in items)

    # Native/decomposed pairs share a name up to the final "/mode".
    pairs: Dict[str, Dict[str, dict]] = {}
    for name, sim in machine:
        pairs.setdefault(name.rsplit("/", 1)[0], {})[sim["mode"]] = sim
    groups: Dict[str, List[float]] = {}
    for modes in pairs.values():
        if "native" in modes and "decomposed" in modes:
            cell = groups.setdefault(modes["native"]["group"], [0.0, 0.0])
            cell[0] += modes["native"]["cycles"]
            cell[1] += modes["decomposed"]["cycles"]
    native = sum(cell[0] for cell in groups.values())
    protected = sum(cell[1] for cell in groups.values())

    summary: Dict[str, object] = {
        "instructions": total(sims, "instructions"),
        "cycles": total(sims, "cycles"),
        "sim_cpi": _ratio(total(decomposed, "cycles"),
                          total(decomposed, "instructions")),
        "isagrid_overhead_pct": 100.0 * (protected / native - 1.0) if native else 0.0,
        "overhead_pct_by_group": {group: 100.0 * (cell[1] / cell[0] - 1.0)
                                  for group, cell in sorted(groups.items())},
        "l1i_accesses": total(sims, "l1i", 0) + total(sims, "l1i", 1),
        "l1i_miss_rate": _ratio(total(sims, "l1i", 1),
                                total(sims, "l1i", 0) + total(sims, "l1i", 1)),
        "l1d_miss_rate": _ratio(total(sims, "l1d", 1),
                                total(sims, "l1d", 0) + total(sims, "l1d", 1)),
        "mispredict_rate": _ratio(total(sims, "branch", 1), total(sims, "branch", 0)),
        "traps": total(sims, "traps"),
        "syscalls": total(sims, "syscalls"),
        "block_inst_share": _ratio(total(blocks, "insts"),
                                   total(decomposed, "instructions")),
        "block_hit_rate": _ratio(total(blocks, "hits"), total(blocks, "probes")),
        "block_refusals": total(blocks, "refusals"),
        "stall_cycles": total(pcus, "stall_cycles"),
        "gate_calls": total(pcus, "gate_calls"),
        "scrub_passes": total(pcus, "scrubs"),
        "contract_events": sum(r.sim.get("contract_events", 0) for r in results),
        "virt_evictions": sum(r.sim.get("virt", {}).get("evictions", 0)
                              for r in results),
        "virt_recycles": sum(r.sim.get("virt", {}).get("recycles", 0)
                             for r in results),
        "campaign_events": sum(r.sim.get("events", 0) for r in results),
    }
    for cache in ("inst", "reg", "mask", "sgt"):
        hits = sum(pcu["caches"][cache][0] for pcu in pcus)
        misses = sum(pcu["caches"][cache][1] for pcu in pcus)
        # PcuStats' convention: a cache never accessed has hit rate 1.
        summary["hit_rate." + cache] = hits / (hits + misses) if hits + misses else 1.0
    return summary


# ----------------------------------------------------------------------
# Reports.
# ----------------------------------------------------------------------
def _metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def _unit_json(result) -> Dict[str, object]:
    return {"name": result.name, "digest": result.digest,
            "setup_s": result.setup_s, "timed_s": result.timed_s,
            "work": result.work, "sim": result.sim,
            "failures": result.failures}


def _rounds_json(rounds: List[dict]) -> List[dict]:
    return [{"wall_s": r["wall_s"], "import_s": r["import_s"], "setup_s": r["setup_s"],
             "timed_s": r["timed_s"], "work": r["work"],
             "units": [_unit_json(u) for u in r["units"]]} for r in rounds]


def _failed_units(rounds: List[dict]) -> List[object]:
    return [u for r in rounds for u in r["units"] if u.failures]


def per_unit_median(rounds: List[dict], field: str) -> float:
    """Sum over the round's units of each unit's median ``field`` time.

    Every round repeats the same units on the same inputs, so each unit
    has one time per round, and the median drops the rounds that a
    passing slowdown of the host happened to hit.
    """
    return sum(statistics.median(getattr(r["units"][index], field) for r in rounds)
               for index in range(len(rounds[0]["units"])))


def end_to_end(rounds: List[dict]) -> Dict[str, dict]:
    """Untraced metrics: per-unit median times, set-up and memory."""
    return {
        "work_per_s": _metric(
            rounds[0]["work"] / per_unit_median(rounds, "timed_s"), "1/s"),
        "setup_s": _metric(statistics.median(r["import_s"] for r in rounds)
                           + per_unit_median(rounds, "setup_s"), "s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def per_layer(rounds: List[dict], tracer, reference_wall_s: float) -> Dict[str, dict]:
    """Traced metrics, per round: self time, boundary calls, sim counts."""
    n = len(rounds)
    metrics: Dict[str, dict] = {}
    self_s = tracer.self_seconds()
    for layer in SELF_TIME_LAYERS:
        metrics[layer + ".self_s"] = _metric(self_s.get(layer, 0.0) / n, "s")
    for name, methods in CALL_COUNTERS.items():
        calls = sum(tracer.calls.get(method, 0) for method in methods)
        metrics[name] = _metric(calls // n, "count")
    domain_calls = sum(count for (layer, _parent), (count, _s) in tracer.cells.items()
                       if layer == "core.domain")
    metrics["core.domain.calls"] = _metric(domain_calls // n, "count")
    summary = simulated_summary(rounds[0]["units"])
    for name, (unit, key) in SIM_COUNTS.items():
        metrics[name] = _metric(summary[key], unit)
    events = summary["contract_events"]
    metrics["contracts.ns_per_event"] = _metric(
        1e9 * self_s.get("contracts", 0.0) / n / events if events else 0.0, "ns")
    metrics["kernel.boot_s"] = _metric(tracer.span_seconds("boot") / n, "s")
    metrics["workloads.gen_s"] = _metric(tracer.span_seconds("gen") / n, "s")
    traced_wall = statistics.median(r["wall_s"] for r in rounds)
    metrics["trace.overhead_pct"] = _metric(
        100.0 * (traced_wall / reference_wall_s - 1.0), "%")
    return metrics


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def compare_to_reference(rounds: List[dict], reference: Dict[str, object]) -> None:
    """Fail every traced unit whose digest or simulated counts differ
    from the untraced reference run's first round."""
    ref_units = {u["name"]: u for u in reference["rounds"][0]["units"]}
    for r in rounds:
        for result in r["units"]:
            ref = ref_units.get(result.name)
            if ref is None:
                result.failures.append("unit missing from the untraced reference")
                continue
            if result.digest != ref["digest"]:
                result.failures.append("traced digest %s != untraced %s"
                                       % (result.digest, ref["digest"]))
            # Campaign stats read from constructed instances exist only
            # when traced; everything the untraced run saw must match.
            traced_sim = {k: v for k, v in json.loads(_canonical(result.sim)).items()
                          if k in ref["sim"]}
            if _canonical(traced_sim) != _canonical(ref["sim"]):
                result.failures.append("traced simulated counts differ from untraced")


def report_path(workload: str, seed: int, size: str, trace: int) -> str:
    return os.path.join(OUT_DIR, "%s-seed%d-%s-trace%d.json"
                        % (workload, seed, size, trace))


def run_reference(args, seconds: int) -> Dict[str, object]:
    """The untraced reference run, in a child process that is waited for."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", "0", "--size", args.size]
    subprocess.run(command, cwd=ROOT, check=True, timeout=150,
                   stdout=subprocess.DEVNULL)
    with open(report_path(args.workload, args.seed, args.size, 0)) as handle:
        return json.load(handle)


def _report_lines(workload: str, rounds: List[dict], metrics: Dict[str, dict],
                  summary: Dict[str, object]) -> List[str]:
    machine = summary["instructions"] > 0
    rate = metrics["work_per_s"]["value"]
    lines = ["perfbench %s: %d round(s), %d unit(s) per round"
             % (workload, len(rounds), len(rounds[0]["units"]))]
    if machine:
        lines.append("  sim_ips               %14.1f inst/s   host time, per-unit median"
                     % rate)
    else:
        lines.append("  campaign_events_per_s %14.1f events/s host time, per-unit median"
                     % rate)
    lines.append("  setup_s               %14.4f s        host time (median import + "
                 "per-unit median set-up)" % metrics["setup_s"]["value"])
    lines.append("  peak_rss_mb           %14.1f MiB" % metrics["peak_rss_mb"]["value"])
    if machine:
        lines.append("  sim_cpi               %14.6f cycles/inst  simulated, decomposed runs"
                     % summary["sim_cpi"])
    for group, pct in summary["overhead_pct_by_group"].items():
        lines.append("  isagrid_overhead_pct  %14.4f %%  simulated, %s  [paper %s]"
                     % (pct, group, unit_defs.PAPER_BOUNDS.get(group, "-")))
    if summary["overhead_pct_by_group"]:
        lines.append("  isagrid_overhead_pct  %14.4f %%  simulated, all pairs"
                     % summary["isagrid_overhead_pct"])
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=unit_defs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(unit_defs.SIZES), default="full")
    args = parser.parse_args(argv)

    try:
        import_simulator()
    except (SetupError, ImportError) as error:
        print("perfbench: cannot run: %s" % error, file=sys.stderr)
        return 2
    report: Dict[str, object] = {"manifest": manifest(args)}
    expected = load_expected(args.seed, args.workload, args.size)
    report["expected_digests_recorded"] = bool(expected)
    lines: List[str] = []
    correct = True

    if args.trace == 0:
        rounds = run_rounds(args.workload, args.seed, args.size, args.seconds,
                            expected)
        metrics = end_to_end(rounds)
        summary = simulated_summary(rounds[0]["units"])
        lines.extend(_report_lines(args.workload, rounds, metrics, summary))
        report["simulated"] = summary
    else:
        from tracer import LayerTracer

        reference_seconds = max(1, args.seconds // 3)
        reference = run_reference(args, reference_seconds)
        correct = reference["correct"]
        tracer = LayerTracer(clock)
        report["wrapped"] = tracer.install()
        rounds = run_rounds(args.workload, args.seed, args.size, args.seconds,
                            expected, tracer)
        compare_to_reference(rounds, reference)
        reference_wall = statistics.median(r["wall_s"] for r in reference["rounds"])
        metrics = per_layer(rounds, tracer, reference_wall)
        report["cells"] = tracer.cells_as_list()
        report["calls"] = dict(tracer.calls)
        report["spans"] = tracer.spans
        report["simulated"] = simulated_summary(rounds[0]["units"])
        lines.append("perfbench %s traced: %d round(s); untraced reference %s"
                     % (args.workload, len(rounds), reference["report_path"]))
        lines.append("  trace.overhead_pct %.1f %%"
                     % metrics["trace.overhead_pct"]["value"])

    failed = _failed_units(rounds)
    attempted = sum(len(r["units"]) for r in rounds)
    correct = correct and not failed
    digests = {u.name: u.digest for u in rounds[0]["units"]}
    report.update({
        "correct": correct, "attempted": attempted, "failed": len(failed),
        "metrics": metrics, "digests": digests, "rounds": _rounds_json(rounds),
    })
    path = report_path(args.workload, args.seed, args.size, args.trace)
    report["report_path"] = os.path.relpath(path, ROOT)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)

    for line in lines:
        print(line)
    if not expected:
        print("  no recorded digests for seed %d; this run's digests:" % args.seed)
        for name, digest in digests.items():
            print("    %-32s %s" % (name, digest))
    for result in failed[:10]:
        print("  FAILED %s: %s" % (result.name, "; ".join(result.failures)[:500]))
    print("  report: %s" % report["report_path"])
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
