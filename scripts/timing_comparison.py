#!/usr/bin/env python3
"""Dictionary construction time vs the truncated-spectral baseline.

Times the two routes to the same wavelets on icospheres of growing size (unit
area, 10 farthest-point samples with seed 0): the diffusion dictionary
(25 scales, t_max = 1) against the spectral route of ``spectral.TRUNCATION``
(300) eigenpairs (the dense eigensolve at 642 vertices and sparse shift-invert
above, as ``generalized_eigs`` picks them, plus the spectral Mexican hats at the
same diffusion times). Level 6 (40962 vertices) takes about a minute on 2 cores.

Usage: python scripts/timing_comparison.py [max_subdivisions]
"""
import sys
import time

from meshwavelets import (Shape, build_dictionary, generalized_eigs, ground_truth_wavelets,
                          sample)
from meshwavelets.spectral import TRUNCATION
from meshwavelets.synthetic import icosphere

max_level = int(sys.argv[1]) if len(sys.argv) > 1 else 5

print(f"{'vertices':>10} {'ours (s)':>10} {'baseline (s)':>13} {'speedup':>8}")
for level in range(3, max_level + 1):
    shape = Shape(icosphere(level))
    lap = shape.lap
    samples = sample(shape, 10, seed=0)

    t0 = time.perf_counter()
    ours = build_dictionary(lap, samples, n_scales=25, t_max=1.0)
    seconds_ours = time.perf_counter() - t0

    t0 = time.perf_counter()
    spectrum = generalized_eigs(lap.mass, lap.stiffness, k=TRUNCATION)
    ground_truth_wavelets(spectrum, lap, ours)
    seconds_baseline = time.perf_counter() - t0

    print(f"{lap.n:>10} {seconds_ours:>10.2f} {seconds_baseline:>13.2f} "
          f"{seconds_baseline / seconds_ours:>7.1f}x")
