"""Each demo's stdout stays byte-identical to its golden file in tests/data."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_output_is_golden(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True, timeout=60)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (ROOT / "tests" / "data" / f"demo_{demo.stem}.txt").read_bytes()
