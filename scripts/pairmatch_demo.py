#!/usr/bin/env python3
"""Cross-shape matching demo: wavelet vs heat-kernel dictionary transfer.

Matches a jittered icosphere to a smoothly stretched copy through matched
landmark samples, once with the wavelet dictionary and once with diffused
heat kernels, and reports AUC@0.25 and mean geodesic error for both.

Usage: python scripts/pairmatch_demo.py [n_landmarks] [t_max]
"""
import sys

from meshwavelets import (Shape, build_dictionary, curve, geodesic_errors,
                          identity_map, sample, transfer_pointmap)
from meshwavelets.synthetic import jittered_icosphere, stretched_icosphere

n_landmarks = int(sys.argv[1]) if len(sys.argv) > 1 else 8
t_max = float(sys.argv[2]) if len(sys.argv) > 2 else 0.1

src, dst = Shape(jittered_icosphere(3, seed=3)), Shape(stretched_icosphere(3, seed=3))
samples = sample(src, n_landmarks, seed=11)
gt = identity_map(src.mesh.n_vertices)
print(f"pair: {src.mesh.n_vertices} vertices, {n_landmarks} matched landmarks, "
      f"t_max={t_max}")

for kind in ("wavelet", "heat"):
    d_src = build_dictionary(src.lap, samples, n_scales=25, t_max=t_max, kind=kind)
    d_dst = build_dictionary(dst.lap, samples, n_scales=25, t_max=t_max, kind=kind)
    pm = transfer_pointmap(d_src, d_dst)
    ec = curve(geodesic_errors(pm, gt, dst))
    print(f"{kind:7}: AUC@0.25 {ec.auc_025:.3f}, mean geodesic error "
          f"{ec.mean_error:.4f}")
