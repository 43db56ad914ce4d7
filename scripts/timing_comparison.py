#!/usr/bin/env python3
"""Dictionary construction time vs the truncated-spectral baseline.

Runs the ``timing`` experiment on icospheres of growing size: the diffusion
dictionary (10 samples, 25 scales) against the 300-eigenpair spectral route
(sparse shift-invert eigensolve) evaluated at the same diffusion times. Level
6 (40962 vertices) takes about a minute on 2 cores.

Usage: python scripts/timing_comparison.py [max_subdivisions]
"""
import sys
import tempfile
from pathlib import Path

from meshwavelets import run_experiment, write_off
from meshwavelets.experiments import resolve_config
from meshwavelets.synthetic import icosphere

max_level = int(sys.argv[1]) if len(sys.argv) > 1 else 5

print(f"{'vertices':>10} {'ours (s)':>10} {'baseline (s)':>13} {'speedup':>8}")
with tempfile.TemporaryDirectory() as tmp:
    for level in range(3, max_level + 1):
        mesh_path = Path(tmp) / f"icosphere_{level}.off"
        write_off(icosphere(level), mesh_path)
        summary = run_experiment(resolve_config(
            {"experiment": "timing", "out_dir": tmp, "mesh": str(mesh_path)}))
        print(f"{summary['n_vertices']:>10} {summary['seconds_ours']:>10.2f} "
              f"{summary['seconds_baseline']:>13.2f} {summary['speedup']:>7.1f}x")
