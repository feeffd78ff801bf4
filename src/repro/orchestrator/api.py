"""The one campaign entry point: plan, run the shards, merge.

:func:`orchestrate` is what every CLI campaign subcommand calls.  The
plan and the merge are the same on every run; only *where* the shards
execute differs.  ``jobs=1`` without ``resume``, ``run_dir`` or
``profile`` runs them one after another in this process (no run
directory is written); anything else binds (or resumes) a checkpointed
run directory and drives the plan through the
:class:`~repro.orchestrator.supervisor.Supervisor`.

Payloads take the same JSON round trip on both paths, and the merge
sees them in plan order either way, so ``--jobs N`` reports are
byte-identical with ``--jobs 1`` by construction — worker scheduling
leaves no trace.  Quarantined shards are the one exception: their
campaigns are missing from the merged report (recorded in the run
directory instead), which is precisely the "record the offending seed
instead of killing the run" trade the orchestrator makes.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, NamedTuple, Optional

from .checkpoint import RunJournal, default_run_dir
from .families import FAMILIES
from .metrics import RunMetrics
from .shards import ShardResult, ShardSpec
from .supervisor import DEFAULT_MAX_RETRIES, SupervisedRun, Supervisor


class CampaignRun(NamedTuple):
    """A merged campaign report plus how it was produced."""

    report: object
    run: Optional[SupervisedRun]   # None when the shards ran in-process
    run_dir: Optional[str]


def orchestrate(
    kind: str,
    params: Dict[str, object],
    *,
    jobs: int = 1,
    run_dir: Optional[str] = None,
    resume: bool = False,
    shard_timeout: Optional[float] = None,
    max_retries: int = DEFAULT_MAX_RETRIES,
    profile: bool = False,
    on_shard_done: Optional[Callable[[ShardResult], None]] = None,
    sabotage: Optional[Dict[str, Dict[str, object]]] = None,
) -> CampaignRun:
    """Run campaign family ``kind`` over JSON-plain campaign ``params``.

    ``profile`` adds a per-shard cProfile dump to the run directory.
    ``on_shard_done`` fires after each fresh supervised completion;
    ``sabotage`` maps shard ids to the worker's test-only failure hooks
    (see :mod:`~repro.orchestrator.worker`).
    """
    family = FAMILIES[kind]
    params = dict(params)
    if profile:
        # Only present when set, so profiled and plain runs share shard
        # ids but not run directories (plan params feed the fingerprint).
        params["profile"] = True
    plan = family.plan(params)
    if jobs <= 1 and not (resume or run_dir or profile):
        payloads = [json.loads(json.dumps(family.run_shard(spec.params)))
                    for spec in plan.shards]
        return CampaignRun(family.merge(params, payloads), None, None)
    specs = [ShardSpec(spec.shard_id, spec.kind, spec.params, spec.weight,
                       (sabotage or {}).get(spec.shard_id))
             for spec in plan.shards]
    run_dir = run_dir or default_run_dir(plan)
    journal = RunJournal(run_dir)
    journal.bind(plan, resume=resume)
    supervisor = Supervisor(jobs=jobs, shard_timeout=shard_timeout,
                            max_retries=max_retries)
    run = supervisor.run(specs, journal, RunMetrics(jobs=jobs),
                         on_shard_done=on_shard_done)
    return CampaignRun(
        family.merge(params, [result.payload for result in run.results]),
        run, run_dir)
