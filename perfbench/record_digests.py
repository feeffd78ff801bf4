"""Record the expected per-unit digests of every workload for some seeds.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py 1 2 3

Runs one untraced round of each workload at the ``full`` size per seed
and writes the digests into ``perfbench/digests.json``, keeping the
entries of other seeds.  A round with a failed unit is not recorded.
Re-record only when a change is meant to alter the simulated work.
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402  (the benchmark's own module)
import units  # noqa: E402


def main(argv) -> int:
    seeds = [int(seed) for seed in argv] or [1, 2, 3]
    run.import_simulator()
    try:
        with open(run.DIGESTS_PATH) as handle:
            table = json.load(handle)
    except FileNotFoundError:
        table = {}
    status = 0
    for workload in units.WORKLOADS:
        for seed in seeds:
            results = run.run_rounds(workload, seed, "full", 0, {})[0]["units"]
            failed = [r for r in results if r.failures]
            if failed:
                print("%s seed %d: not recorded, %s failed: %s"
                      % (workload, seed, failed[0].name, failed[0].failures[0]))
                status = 1
                continue
            table.setdefault("full", {}).setdefault(workload, {})[str(seed)] = {
                r.name: r.digest for r in results}
            print("%s seed %d: %d digests" % (workload, seed, len(results)))
    with open(run.DIGESTS_PATH, "w") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
