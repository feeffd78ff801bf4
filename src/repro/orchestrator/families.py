"""The campaign-family registry: one pipeline for every campaign.

Differential conformance, abstract faults, machine-level faults, tenant
churn, the unintended-instruction attack campaign and the bench rigs
all run the same five steps, so each is one :class:`CampaignFamily`
entry in :data:`FAMILIES` and :func:`~repro.orchestrator.api.orchestrate`
drives every one of them:

* **plan** — campaign params → :class:`~repro.orchestrator.shards.ShardPlan`,
  built by the shared chunker from the family's axes, shard-id format
  and weight;
* **run_shard** — one shard's params → a JSON-plain payload (what a
  worker checkpoints);
* **merge** — (campaign params, payloads in plan order) → the report
  object the serial code paths have always produced;
* **write** / **gate** / **summary** — the JSON report, the failure
  lines that fail the run, and the stdout lines the CLI prints.

Adding a family is adding one entry here.  Entries import their family
modules inside the functions, so importing the registry (or ``repro``)
never pulls in the campaign code.
"""

from __future__ import annotations

import dataclasses
import importlib
import itertools
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .shards import ShardPlan, plan_shards

Params = Dict[str, object]

#: Campaign-param axes shared by several families: (list key, shard key).
_BACKENDS = (("backends", "backend"),)
_BACKEND_CONFIGS = (("backends", "backend"), ("configs", "config"))


def _no_lines(_report) -> List[str]:
    return []


def _lazy(module: str, name: str) -> Callable:
    """``module.name``, imported when first called."""
    def call(*args):
        return getattr(importlib.import_module(module), name)(*args)
    return call


@dataclass(frozen=True)
class CampaignFamily:
    """One campaign family's pipeline (see the module docstring)."""

    kind: str
    axes: Tuple[Tuple[str, str], ...]
    shard_id: Callable[[Params], str]
    weight: Callable[[Params], int]
    run_shard: Callable[[Params], Params]
    merge: Callable[[Params, List[Params]], object]
    #: Split each unit into contiguous ``n_campaigns`` ranges.
    chunked: bool = False
    #: Shard-only params kept out of the plan fingerprint.
    local: Tuple[str, ...] = ()
    write: Optional[Callable[[object, str], Params]] = None
    gate: Callable[[object], List[str]] = _no_lines
    summary: Callable[[object], List[str]] = _no_lines

    def plan(self, params: Params) -> ShardPlan:
        return plan_shards(self, params)


# ---------------------------------------------------------------------------
# Shared pieces of the three fault families.
# ---------------------------------------------------------------------------
def _range_payload(params: Params, axes, results: Sequence[object],
                   events: Callable[[object], int]) -> Params:
    """A chunked shard's payload: its unit, its range, its results."""
    payload: Params = {key: params[key] for _, key in axes}
    payload.update(campaign_lo=params["campaign_lo"],
                   campaign_hi=params["campaign_hi"],
                   results=[result.to_dict() for result in results],
                   events_run=sum(events(result) for result in results))
    return payload


def _unit_results(params: Params, payloads: List[Params], axes,
                  from_dict) -> List[Tuple[tuple, list]]:
    """Concatenated results per unit, in canonical unit order.

    Payloads arrive in plan order, so each unit's ranges are already
    sorted; a quarantined range is simply missing from its unit.
    """
    units = itertools.product(*(params[key] for key, _ in axes))
    return [(unit, [from_dict(entry) for payload in payloads
                    if tuple(payload[key] for _, key in axes) == unit
                    for entry in payload["results"]])
            for unit in units]


def _counts(matrix) -> str:
    from repro.faults.campaign import CLASSIFICATIONS

    return " ".join("%s=%d" % (name, matrix.counts[name])
                    for name in CLASSIFICATIONS)


def _widening_lines(matrix) -> List[str]:
    return ["    WIDENING SILENT DIVERGENCE: campaign %d %s (%s)"
            % (result.campaign, result.spec.to_dict(), result.detail)
            for result in matrix.widening_silent]


def _contract_line(results) -> str:
    """The summary line of a campaign's contract counters."""
    from repro.analysis.report import contract_counters
    from repro.contracts import CONTRACT_NAMES

    counters = contract_counters(results, CONTRACT_NAMES)
    return "contract counters: %s  unwaived=%d" % (
        " ".join("%s=%d" % item
                 for item in counters["contract_counts"].items()),
        counters["unwaived_contract_violations"])


def _matrix_contract_line(matrices) -> str:
    return _contract_line([result for matrix in matrices
                           for result in matrix.results])


def _fault_gate(matrices) -> List[str]:
    failures = []
    widening = sum(len(matrix.widening_silent) for matrix in matrices)
    if widening:
        failures.append("FAIL: %d widening fault(s) diverged with no "
                        "detection" % widening)
    unwaived = sum(matrix.unwaived_contract_violations for matrix in matrices)
    if unwaived:
        failures.append("FAIL: %d unwaived contract violation(s) — not "
                        "attributable to any armed fault" % unwaived)
    return failures


# ---------------------------------------------------------------------------
# faults: abstract fault campaigns over the conformance generator.
# ---------------------------------------------------------------------------
def _faults_run(p: Params) -> Params:
    from repro.faults.campaign import run_campaigns

    matrix = run_campaigns(
        p["backend"], p["seed"], p["n_events"], p["n_campaigns"],
        config=p["config"], scrub_interval=p["scrub_interval"],
        faults_per_campaign=p["faults_per_campaign"],
        contracts=p["contracts"],
        campaign_lo=p["campaign_lo"], campaign_hi=p["campaign_hi"])
    return _range_payload(p, _BACKEND_CONFIGS, matrix.results,
                          lambda result: result.events_run)


def _faults_merge(params: Params, payloads: List[Params]):
    from repro.faults.campaign import CampaignMatrix, CampaignResult

    return [CampaignMatrix(backend, config, params["seed"],
                           params["n_events"], results)
            for (backend, config), results in _unit_results(
                params, payloads, _BACKEND_CONFIGS, CampaignResult.from_dict)]


def _faults_summary(matrices) -> List[str]:
    lines = []
    for matrix in matrices:
        lines.append("%-6s %-10s %d campaigns x %d events  %s  "
                     "contracts=%d unwaived=%d"
                     % (matrix.backend, matrix.config, len(matrix.results),
                        matrix.n_events, _counts(matrix),
                        matrix.contract_violations,
                        matrix.unwaived_contract_violations))
        lines += _widening_lines(matrix)
    lines.append(_matrix_contract_line(matrices))
    return lines


# ---------------------------------------------------------------------------
# machine_faults: faults under the fetch-execute loop of a booted kernel.
# ---------------------------------------------------------------------------
def _machine_weight(p: Params) -> int:
    from repro.faults.machine import machine_geometry

    geometry = machine_geometry(p["backend"], p["iterations"],
                                p["scrub_interval"], p["pulse_interval"])
    return (p["campaign_hi"] - p["campaign_lo"]) * geometry.n_steps


def _machine_run(p: Params) -> Params:
    from repro.faults.machine import run_machine_campaigns

    matrix = run_machine_campaigns(
        p["backend"], p["seed"], p["n_campaigns"],
        iterations=p["iterations"],
        faults_per_campaign=p["faults_per_campaign"],
        scrub_interval=p["scrub_interval"],
        pulse_interval=p["pulse_interval"],
        contracts=p["contracts"],
        state_changing_pulses=p.get("state_changing_pulses", False),
        campaign_lo=p["campaign_lo"], campaign_hi=p["campaign_hi"])
    # Simulated instructions are the machine analogue of replayed events.
    return _range_payload(p, _BACKENDS, matrix.results,
                          lambda result: result.instructions)


def _machine_merge(params: Params, payloads: List[Params]):
    from repro.faults.machine import (
        MachineCampaignMatrix,
        MachineCampaignResult,
    )

    return [MachineCampaignMatrix(backend, params["seed"],
                                  params["iterations"], results)
            for (backend,), results in _unit_results(
                params, payloads, _BACKENDS, MachineCampaignResult.from_dict)]


def _machine_summary(matrices) -> List[str]:
    lines = []
    for matrix in matrices:
        lines.append("%-6s machine  %d campaigns x %d iterations  %s  "
                     "rollbacks=%d contracts=%d unwaived=%d"
                     % (matrix.backend, len(matrix.results),
                        matrix.iterations, _counts(matrix), matrix.rollbacks,
                        matrix.contract_violations,
                        matrix.unwaived_contract_violations))
        lines += _widening_lines(matrix)
    lines.append(_matrix_contract_line(matrices))
    return lines


# ---------------------------------------------------------------------------
# churn: tenant churn over a virtualized slot pool.
# ---------------------------------------------------------------------------
def _churn_run(p: Params) -> Params:
    from repro.faults.churn import run_churn_campaigns

    matrix = run_churn_campaigns(
        p["backend"], p["seed"], p["n_ops"], p["n_campaigns"],
        max_slots=p["max_slots"], config=p["config"],
        scrub_interval=p["scrub_interval"], contracts=p["contracts"],
        campaign_lo=p["campaign_lo"], campaign_hi=p["campaign_hi"])
    return _range_payload(p, _BACKENDS, matrix.results,
                          lambda result: result.ops_run)


def _churn_merge(params: Params, payloads: List[Params]):
    from repro.faults.churn import ChurnCampaignResult, ChurnMatrix

    return [ChurnMatrix(backend, params["seed"], params["n_ops"],
                        params["max_slots"], results)
            for (backend,), results in _unit_results(
                params, payloads, _BACKENDS, ChurnCampaignResult.from_dict)]


def _churn_summary(matrices) -> List[str]:
    from repro.faults.churn import latency_percentiles

    lines = []
    for matrix in matrices:
        percentiles = latency_percentiles(matrix.latency)
        lines.append("%-6s churn  %d campaigns x %d ops  %s  contracts "
                     "unwaived=%d" % (matrix.backend, len(matrix.results),
                                      matrix.n_ops, _counts(matrix),
                                      matrix.unwaived_contract_violations))
        lines.append("    %d logical domains over %d slots  "
                     "slot_exhausted=%d  check stall p50=%d p99=%d"
                     % (matrix.logical_domains, matrix.max_slots,
                        matrix.slot_exhausted, percentiles["p50"],
                        percentiles["p99"]))
        lines += _widening_lines(matrix)
    lines.append(_matrix_contract_line(matrices))
    return lines


# ---------------------------------------------------------------------------
# conformance: differential fuzz of the cached PCU against the oracle.
# ---------------------------------------------------------------------------
def _conformance_run(p: Params) -> Params:
    from repro.conformance.runner import corrupt_inst_fills, fuzz_backend

    result = fuzz_backend(
        p["backend"], p["seed"], p["n_events"], config=p["config"],
        mutate=corrupt_inst_fills if p.get("inject_bug") else None,
        oracle_only=p["oracle_only"], dump_dir=p["dump_dir"],
        layer=p["layer"], scrub_interval=p["scrub_interval"],
        contracts=p["contracts"])
    return dict(result.summary(), events_run=result.events)


def _conformance_summary(payloads) -> List[str]:
    lines = []
    for payload in payloads:
        backend, config = payload["backend"], payload["config"]
        outcomes = " ".join("%s=%d" % (k, v)
                            for k, v in sorted(payload["outcomes"].items()))
        if payload["clean"]:
            contracts_note = ("" if payload["contracts"] is None else
                              "  contracts=%d unwaived=%d"
                              % (sum(payload["contracts"].values()),
                                 payload["contract_unwaived"]))
            lines.append("%-6s %-10s %6d events  %s  divergences=0%s"
                         % (backend, config, payload["events"], outcomes,
                            contracts_note))
            continue
        if payload["divergence"] is not None:
            lines.append("%-6s %-10s %6d events  DIVERGENCE: %s"
                         % (backend, config, payload["events"],
                            payload["divergence"]))
            if payload["reproducer_path"]:
                lines.append("    reproducer dumped to %s"
                             % payload["reproducer_path"])
        lines += ["%-6s %-10s  SCRUB DETECTION: %s" % (backend, config, d)
                  for d in payload["scrub_detections"]]
        if payload["contract_unwaived"]:
            lines.append("%-6s %-10s  CONTRACT VIOLATION: %s"
                         % (backend, config,
                            payload["contract_first"] or "unwaived violation"))
    return lines


def _conformance_gate(payloads) -> List[str]:
    unclean = sum(not payload["clean"] for payload in payloads)
    return (["FAIL: %d of %d conformance run(s) not clean"
             % (unclean, len(payloads))] if unclean else [])


# ---------------------------------------------------------------------------
# attacks: the unintended-instruction campaign, one shard per seed.
# ---------------------------------------------------------------------------
def _attacks_run(p: Params) -> Params:
    from repro.attacks.unintended import run_unintended_campaign

    result = run_unintended_campaign(p["seed"], p["n_streams"],
                                     p["stream_len"], contracts=p["contracts"])
    return {"result": dataclasses.asdict(result),
            "events_run": result.legit_checks + len(result.gadgets)}


def _attacks_merge(params: Params, payloads: List[Params]):
    from repro.attacks.unintended import AttackCampaignResult, PlantedGadget

    return [AttackCampaignResult(**dict(
        payload["result"],
        gadgets=[PlantedGadget(**g) for g in payload["result"]["gadgets"]]))
        for payload in payloads]


def _attacks_summary(results) -> List[str]:
    from repro.attacks.unintended import attack_report

    lines = []
    for result in results:
        gadgets = result.gadgets
        lines.append(
            "seed %-4d %3d streams  %4d gadgets  scanner=%d/%d  "
            "pcu=%d/%d  missed-but-blocked=%d  rewrite-corrupted=%d  "
            "unwaived=%d"
            % (result.seed, result.n_streams, len(gadgets),
               sum(g.scanner_detected for g in gadgets), len(gadgets),
               sum(g.pcu_blocked for g in gadgets), len(gadgets),
               sum(g.pcu_blocked and not g.scanner_detected for g in gadgets),
               result.rewrite_corrupted, result.unwaived_contract_violations))
    payload = attack_report(results)
    lines.append("scanner miss rate %.1f%%  pcu block rate %.1f%%  "
                 "baseline missed %d gadget(s) the PCU blocks"
                 % (payload["scanner_miss_rate"] * 100,
                    payload["pcu_block_rate"] * 100,
                    payload["baseline_missed_pcu_blocked"]))
    lines.append(_contract_line(results))
    return lines


def _attacks_gate(results) -> List[str]:
    """Fail unless the scanner misses gadgets the PCU blocks, every
    gadget is blocked, the legitimate stream stays fault-free, every
    sealed probe is denied and no contract violation is unwaived."""
    from repro.attacks.unintended import attack_report

    payload = attack_report(results)
    totals = payload["totals"]
    failures = []
    if not payload["baseline_missed_pcu_blocked"]:
        failures.append("FAIL: the scanner caught everything the PCU "
                        "caught — the campaign demonstrates nothing")
    if totals.get("pcu_blocked") != totals.get("generated"):
        failures.append("FAIL: %d gadget(s) escaped the PCU"
                        % (totals.get("generated", 0)
                           - totals.get("pcu_blocked", 0)))
    if totals.get("legit_faults"):
        failures.append("FAIL: %d false positive(s) on the legitimate stream"
                        % totals["legit_faults"])
    if totals.get("sealed_blocked") != totals.get("sealed_probes"):
        failures.append("FAIL: a sealed-class probe executed")
    if payload["unwaived_contract_violations"]:
        failures.append("FAIL: %d unwaived contract violation(s)"
                        % payload["unwaived_contract_violations"])
    return failures


# ---------------------------------------------------------------------------
# bench: the evaluation rigs (the CLI keeps the trajectory logic).
# ---------------------------------------------------------------------------
def _bench_weight(p: Params) -> int:
    from repro.bench.rigs import RIGS

    return RIGS[p["rig"]].approx_instructions


def _bench_run(p: Params) -> Params:
    from repro.bench.rigs import run_rig

    payload = run_rig(p["rig"], fast_path=p["fast_path"],
                      block_cache=p["block_cache"])
    payload["events_run"] = payload["instructions"]
    return payload


def _in_order(_params: Params, payloads: List[Params]) -> List[Params]:
    return list(payloads)


FAMILIES: Dict[str, CampaignFamily] = {family.kind: family for family in (
    CampaignFamily(
        kind="conformance", axes=_BACKEND_CONFIGS,
        shard_id=lambda p: "conformance-%(backend)s-%(config)s-s%(seed)d" % p,
        weight=lambda p: p["n_events"],
        run_shard=_conformance_run, merge=_in_order, local=("dump_dir",),
        gate=_conformance_gate, summary=_conformance_summary),
    CampaignFamily(
        kind="faults", axes=_BACKEND_CONFIGS, chunked=True,
        shard_id=lambda p: ("faults-%(backend)s-%(config)s-"
                            "c%(campaign_lo)04d-c%(campaign_hi)04d" % p),
        weight=lambda p: (p["campaign_hi"] - p["campaign_lo"]) * p["n_events"],
        run_shard=_faults_run, merge=_faults_merge,
        write=_lazy("repro.faults.campaign", "write_report"),
        gate=_fault_gate, summary=_faults_summary),
    CampaignFamily(
        kind="machine_faults", axes=_BACKENDS, chunked=True,
        shard_id=lambda p: ("mfaults-%(backend)s-"
                            "c%(campaign_lo)04d-c%(campaign_hi)04d" % p),
        weight=_machine_weight,
        run_shard=_machine_run, merge=_machine_merge,
        write=_lazy("repro.faults.machine", "write_machine_report"),
        gate=_fault_gate, summary=_machine_summary),
    CampaignFamily(
        kind="churn", axes=_BACKENDS, chunked=True,
        shard_id=lambda p: ("churn-%(backend)s-"
                            "c%(campaign_lo)04d-c%(campaign_hi)04d" % p),
        weight=lambda p: (p["campaign_hi"] - p["campaign_lo"]) * p["n_ops"],
        run_shard=_churn_run, merge=_churn_merge,
        write=_lazy("repro.faults.churn", "write_churn_report"),
        gate=_fault_gate, summary=_churn_summary),
    CampaignFamily(
        kind="attacks", axes=(("seeds", "seed"),),
        shard_id=lambda p: "attacks-s%(seed)d" % p,
        weight=lambda p: p["n_streams"] * p["stream_len"],
        run_shard=_attacks_run, merge=_attacks_merge,
        write=_lazy("repro.attacks.unintended", "write_attack_report"),
        gate=_attacks_gate, summary=_attacks_summary),
    # fast_path is part of the layout (a --slow-path run checkpoints
    # separately); block_cache reaches the fingerprint via the shard ids.
    CampaignFamily(
        kind="bench", axes=(("rigs", "rig"),),
        shard_id=lambda p: "bench-%s-%s%s" % (
            p["rig"], "fast" if p["fast_path"] else "slow",
            "" if p["block_cache"] else "-noblocks"),
        weight=_bench_weight,
        run_shard=_bench_run, merge=_in_order, local=("block_cache",)),
)}
