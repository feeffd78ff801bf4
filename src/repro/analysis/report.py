"""Experiment report records and the campaign-report skeleton.

The benchmark harness prints one :class:`Experiment` per paper table or
figure; EXPERIMENTS.md is the curated collection of these reports.
Every campaign family (faults, machine faults, churn, attacks) writes
its JSON report through :func:`campaign_report` and :func:`write_json`,
and reports its contract counters through :func:`contract_counters`.
"""

from __future__ import annotations

import json
import os
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence

from .tables import render_table


@dataclass
class ExperimentRow:
    """One compared quantity within an experiment."""

    label: str
    paper: object            # what the paper reports
    measured: object         # what this reproduction measures
    unit: str = ""
    note: str = ""


@dataclass
class Experiment:
    """One paper artifact (table or figure) reproduction."""

    artifact: str            # e.g. "Table 4" or "Figure 5"
    title: str
    rows: List[ExperimentRow] = field(default_factory=list)
    shape_criteria: List[str] = field(default_factory=list)

    def add(self, label: str, paper: object, measured: object, unit: str = "", note: str = "") -> None:
        self.rows.append(ExperimentRow(label, paper, measured, unit, note))

    def render(self) -> str:
        header = "%s — %s" % (self.artifact, self.title)
        table = render_table(
            ("metric", "paper", "measured", "unit", "note"),
            [(r.label, r.paper, r.measured, r.unit, r.note) for r in self.rows],
        )
        parts = [header, "=" * len(header), table]
        if self.shape_criteria:
            parts.append("shape criteria:")
            parts.extend("  * %s" % c for c in self.shape_criteria)
        return "\n".join(parts)


def print_experiment(experiment: Experiment) -> None:
    print()
    print(experiment.render())
    print()


def campaign_report(
    fmt: str,
    head: Dict[str, object],
    results: Sequence[object],
    units: Sequence[object],
    units_key: str = "matrices",
    tail: Optional[Dict[str, object]] = None,
    contract_names: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """The shared campaign-report layout.

    ``format``, the family's ``head`` totals, the contract counts summed
    over every campaign ``result``, the unwaived-violation total, the
    family's ``tail`` totals, then one dict per report ``unit`` under
    ``units_key``.  With ``contract_names`` every contract is listed in
    that order (zero when it never fired); without, the summed counts
    are listed sorted by name.
    """
    payload: Dict[str, object] = {"format": fmt}
    payload.update(head)
    payload.update(contract_counters(results, contract_names))
    payload.update(tail or {})
    payload[units_key] = [unit.to_dict() for unit in units]
    return payload


def contract_counters(
    results: Iterable[object],
    contract_names: Optional[Sequence[str]] = None,
) -> Dict[str, object]:
    """A campaign's contract counters, as its report carries them.

    ``contract_counts`` sums every result's per-contract violations;
    with ``contract_names`` every contract is listed in that order
    (zero when it never fired), without, the fired ones sorted by name.
    ``unwaived_contract_violations`` is the unwaived total.
    """
    contracts: "Counter[str]" = Counter()
    unwaived = 0
    for result in results:
        contracts.update(result.contract_counts)
        unwaived += result.unwaived_contract_violations
    return {
        "contract_counts": (
            dict(sorted(contracts.items())) if contract_names is None
            else {name: contracts.get(name, 0) for name in contract_names}),
        "unwaived_contract_violations": unwaived,
    }


def distill_contract_counters(paths: Iterable[str],
                              out: str) -> Dict[str, object]:
    """Collect the contract counters of written campaign reports.

    Keyed by report file name; a missing report is skipped.  Writes the
    result to ``out`` as sorted, indented JSON and returns it, so
    contract-level trends across many runs stay greppable without the
    full reports.
    """
    counters: Dict[str, object] = {}
    for path in paths:
        if not os.path.exists(path):
            continue
        with open(path) as handle:
            report = json.load(handle)
        counters[os.path.basename(path)] = {
            "contract_counts": report.get("contract_counts", {}),
            "unwaived_contract_violations":
                report.get("unwaived_contract_violations"),
        }
    os.makedirs(os.path.dirname(out) or ".", exist_ok=True)
    with open(out, "w") as handle:
        json.dump(counters, handle, indent=2, sort_keys=True)
    return counters


def write_json(payload: Dict[str, object], path: str) -> Dict[str, object]:
    """Write a report as indented JSON, creating its directory."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    return payload
