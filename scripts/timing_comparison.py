#!/usr/bin/env python3
"""Dictionary construction time vs the truncated-spectral baseline.

Times the two routes to the same wavelets on icospheres of growing size (unit
area, 10 farthest-point samples with seed 0): the diffusion dictionary
(25 scales, t_max = 1) against the 300-eigenpair spectral route (sparse
shift-invert eigensolve plus the spectral Mexican hats at the same diffusion
times). Level 6 (40962 vertices) takes about a minute on 2 cores.

Usage: python scripts/timing_comparison.py [max_subdivisions]
"""
import sys
import time

from meshwavelets import (build_dictionary, build_laplacian, generalized_eigs,
                          ground_truth_wavelets, normalize_unit_area, sample)
from meshwavelets.synthetic import icosphere

max_level = int(sys.argv[1]) if len(sys.argv) > 1 else 5

print(f"{'vertices':>10} {'ours (s)':>10} {'baseline (s)':>13} {'speedup':>8}")
for level in range(3, max_level + 1):
    mesh, _ = normalize_unit_area(icosphere(level))
    lap = build_laplacian(mesh)
    samples = sample(mesh, 10, seed=0)

    t0 = time.perf_counter()
    ours = build_dictionary(lap, samples, n_scales=25, t_max=1.0)
    seconds_ours = time.perf_counter() - t0

    t0 = time.perf_counter()
    spectrum = generalized_eigs(lap.mass, lap.stiffness, k=min(300, lap.n))
    ground_truth_wavelets(spectrum, lap, ours)
    seconds_baseline = time.perf_counter() - t0

    print(f"{mesh.n_vertices:>10} {seconds_ours:>10.2f} {seconds_baseline:>13.2f} "
          f"{seconds_baseline / seconds_ours:>7.1f}x")
