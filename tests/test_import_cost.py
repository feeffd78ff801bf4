"""``import repro`` must stay cheap: campaign machinery loads lazily.

The campaign-family registry names every family, but its entries import
their modules only when a campaign actually runs.  Importing them
eagerly would add about half again to a bare ``import repro``.
"""

import os
import subprocess
import sys

LAZY_PACKAGES = ("repro.orchestrator", "repro.faults", "repro.conformance",
                 "repro.contracts")


def test_import_repro_leaves_campaign_packages_unloaded():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, repro; print(' '.join(m for m in %r if m in sys.modules))"
         % (LAZY_PACKAGES,)],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == []
