#!/usr/bin/env python3
"""Self-matching demo: delta reconstruction against the eigenbasis baseline.

Builds a jittered icosphere, reconstructs every vertex indicator from a small
wavelet dictionary, and compares the mean geodesic error with the truncated
eigenbasis baseline at the same budget (|S| + 1 basis functions).

Usage: python scripts/selfmatch_demo.py [n_samples] [n_scales]
"""
import sys

from meshwavelets import (Shape, build_dictionary, curve, eigenbasis_selfmatch_map,
                          generalized_eigs, geodesic_errors, identity_map,
                          reconstruct_delta_map, sample)
from meshwavelets.synthetic import jittered_icosphere

n_samples = int(sys.argv[1]) if len(sys.argv) > 1 else 6
n_scales = int(sys.argv[2]) if len(sys.argv) > 2 else 25

shape = Shape(jittered_icosphere(3, seed=42))
lap = shape.lap
samples = sample(shape, n_samples, seed=7)
gt = identity_map(shape.mesh.n_vertices)
print(f"mesh: {shape.mesh.n_vertices} vertices; samples: {samples.indices.tolist()}")

dictionary = build_dictionary(lap, samples, n_scales=n_scales, t_max=1.0)
pm = reconstruct_delta_map(dictionary)
ours = curve(geodesic_errors(pm, gt, shape))
print(f"wavelet dictionary ({dictionary.n_columns} columns): "
      f"mean geodesic error {ours.mean_error:.4f}, AUC@0.25 {ours.auc_025:.3f}")

spectrum = generalized_eigs(lap.mass, lap.stiffness, k=n_samples + 1)
pm_basis = eigenbasis_selfmatch_map(spectrum)
basis = curve(geodesic_errors(pm_basis, gt, shape))
print(f"eigenbasis baseline ({n_samples + 1} functions):     "
      f"mean geodesic error {basis.mean_error:.4f}, AUC@0.25 {basis.auc_025:.3f}")
