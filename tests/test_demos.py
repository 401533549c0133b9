"""Byte-for-byte replay of the demos.

Each script under ``demos/`` runs in a fresh interpreter with this
checkout's ``src`` first on PYTHONPATH; what it prints must equal
``demos/<name>.stdout`` next to this file.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_output_unchanged(demo):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=dict(os.environ, PYTHONPATH=path), cwd=ROOT)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (Path(__file__).parent / "demos" / f"{demo.stem}.stdout").read_bytes()
