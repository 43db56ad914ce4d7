"""Smoke test of ``scripts/``: each script runs at its smallest setting.

Every script is started as its own process with the package on
``PYTHONPATH`` and must exit 0 and print its header line. Together they take
a few seconds.
"""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name, args, header", [
    ("selfmatch_demo.py", (), "mesh: 642 vertices; samples:"),
    ("pairmatch_demo.py", (), "pair: 642 vertices, 8 matched landmarks"),
    ("timing_comparison.py", ("3",), "vertices   ours (s)  baseline (s)  speedup"),
], ids=["selfmatch_demo", "pairmatch_demo", "timing_comparison"])
def test_script_runs(name, args, header):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].strip().startswith(header)


def test_make_meshes(tmp_path):
    proc = run_script("make_meshes.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"wrote {tmp_path / 'icosphere_642.off'} (642 vertices")
    assert len(list(tmp_path.glob("*.off"))) == 6
