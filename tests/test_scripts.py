"""Smoke test of ``scripts/`` and ``configs/``.

Every script is started as its own process with the package on
``PYTHONPATH`` and must exit 0 and print its header line. The shipped configs
run on the meshes ``make_meshes.py`` writes and must print the figures
README's *Scripts* section gives. Together they take a few seconds.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from meshwavelets.cli import main

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name, args, header", [
    ("timing_comparison.py", ("3",), "vertices   ours (s)  baseline (s)  speedup"),
], ids=["timing_comparison"])
def test_script_runs(name, args, header):
    proc = run_script(name, *args)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0].strip().startswith(header)


def test_make_meshes(tmp_path):
    proc = run_script("make_meshes.py", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"wrote {tmp_path / 'icosphere_642.off'} (642 vertices")
    assert len(list(tmp_path.glob("*.off"))) == 6


def test_configs_run_on_make_meshes_output(tmp_path, monkeypatch, capsys):
    # the configs name their meshes and outputs relative to the working directory
    assert run_script("make_meshes.py", str(tmp_path / "meshes")).returncode == 0
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    capsys.readouterr()
    assert main(["experiment", "run", "--config", "configs/selfmatch.txt"]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[:5] == [
        "mean_error=0.01974877719516696", "auc_025=1.0", "samples=606,330,155,428,220,310",
        "baseline_mean_error=0.0692600686956026", "baseline_auc_025=1.0"]
    assert (tmp_path / "out" / "selfmatch" / "map.txt").exists()
    # wavelet against heat-kernel transfer, one sweep row per dictionary kind
    assert main(["experiment", "run", "--config", "configs/pairmatch.txt"]) == 0
    assert capsys.readouterr().out.startswith("rows=2\n")
    lines = (tmp_path / "out" / "pairmatch" / "sweep.csv").read_text().splitlines()
    assert lines[1:] == [
        "samples,strategy,scales,tmax,dictionary,displaced,noise_radius,moved,mean_error,"
        "auc_025",
        "8,fps-euclidean,25,0.1,wavelet,0,0.0,0,0.043183716658842006,1.0",
        "8,fps-euclidean,25,0.1,heat,0,0.0,0,0.06389845121086964,1.0",
    ]
