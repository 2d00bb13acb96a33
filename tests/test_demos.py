"""Every demo runs to the end as the plain script the README shows.

Each demos/0*.py runs in its own interpreter, with the package on
PYTHONPATH and an empty working directory, so a demo that reads a path
relative to the checkout fails here. Demo 04 writes its CSVs to the
gitignored demos/output/.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    child = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                           capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stdout[-2000:] + child.stderr[-2000:]
