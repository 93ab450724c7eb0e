import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
DEMOS = sorted((REPO / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs_cleanly(demo, tmp_path):
    # -X dev shows the warnings (ResourceWarning, DeprecationWarning) that a
    # plain run hides; a scratch cwd keeps any stray file out of the checkout
    proc = subprocess.run([sys.executable, "-X", "dev", str(demo)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(REPO / "src")),
                          capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout
