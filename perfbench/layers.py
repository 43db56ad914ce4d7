"""Layer probes and per-layer metrics of the traced run.

A layer is a module of the ``meshwavelets`` package. Each probed public
function gets a span named ``<module>.<function>``; its self time is the
metric ``<module>.<function>_s``. Counters are taken from the arguments and
results of the probed calls. Work counts labelled ``-computed`` are derived
from array shapes, not measured.
"""
from __future__ import annotations

import os
from functools import partial

import numpy as np

from benchstats import Ratio
from spans import BOOKKEEPING, Probe, Tracer

PACKAGE = "meshwavelets"

PROBED = (
    "mesh.load_mesh", "mesh.normalize_unit_area",
    "laplacian.build_laplacian",
    "sampling.sample",
    "solve.factorize", "solve.SpdSystem.solve", "solve.generalized_eigs",
    "wavelets.build_dictionary", "wavelets.save_dictionary", "wavelets.load_dictionary",
    "matching.reconstruct_delta_map", "matching.transfer_pointmap", "matching.nearest_rows",
    "spectral.gt_functional_map", "spectral.fmap_to_pointmap",
    "geodesics.geodesic_distances_multi", "geodesics.edge_graph",
    "evaluation.geodesic_errors", "evaluation.curve",
    "experiments.run_experiment",
    "cli.main",
)

# (name, unit, better) of every metric the traced run reports, besides the
# per-function self times.
COUNTED = (
    ("geodesics.sources", "count", "lower"),
    ("geodesics.dist_bytes", "B-computed", "lower"),
    ("evaluation.pairs", "count", "higher"),
    ("evaluation.exact_hit_frac", "fraction", "higher"),
    ("evaluation.useful_source_frac", "fraction", "higher"),
    ("matching.reconstruct_flops", "flop-computed", "lower"),
    ("matching.nearest_rows_flops", "flop-computed", "lower"),
    ("solve.solve_calls", "count", "lower"),
    ("solve.rhs_columns", "count", "lower"),
    ("solve.max_rel_residual", "ratio", "lower"),
    ("solve.eig_pairs", "count", "lower"),
    ("wavelets.bytes_written", "B", "lower"),
    ("wavelets.peak_rss_growth_mb", "MiB", "lower"),
    ("trace.samples", "count", "higher"),
    ("trace.e2e_traced_s", "s", "lower"),
    ("trace.e2e_untraced_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.bookkeeping_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
)


def span_metric(target: str) -> str:
    return Probe(target).span_name + "_s"


PER_LAYER = tuple((span_metric(t), "s", "lower") for t in PROBED) + COUNTED


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _count_dijkstra(counters, ran, args, kwargs, result):
    sources = np.ravel(_arg(args, kwargs, 1, "sources"))
    counters["geodesics.sources"] += sources.size
    counters["geodesics.dist_bytes"] += result.nbytes
    ran.append(sources)


def _count_evaluation(counters, ran, args, kwargs, result):
    a = _arg(args, kwargs, 0, "pm").targets
    b = _arg(args, kwargs, 1, "gt").targets
    missed = a != b
    counters["evaluation.pairs"] += a.size
    counters["evaluation.exact_hits"] += a.size - int(np.count_nonzero(missed))
    # a Dijkstra source is useful when it is an end of a pair that is not an
    # exact hit; exact hits have error 0 without any distance computed
    ends = np.union1d(a[missed], b[missed])
    for sources in ran:
        counters["evaluation.useful_sources"] += int(np.isin(sources, ends).sum())
    ran.clear()


def _count_reconstruction(counters, args, kwargs, result):
    n, m = _arg(args, kwargs, 0, "dictionary").columns.shape
    # Gram matrix, Cholesky, two triangular solves per vertex, reconstruction
    counters["matching.reconstruct_flops"] += 4 * n * m * m + m ** 3 / 3 + 2 * n * n * m


def _count_nearest(counters, args, kwargs, result):
    q, d = np.shape(_arg(args, kwargs, 0, "queries"))
    p = np.shape(_arg(args, kwargs, 1, "points"))[0]
    # cross products, squared norms, distance assembly
    counters["matching.nearest_rows_flops"] += 2 * q * p * d + 2 * (q + p) * d + 3 * q * p


def _count_solve(counters, args, kwargs, result):
    system, rhs = args[0], _arg(args, kwargs, 1, "rhs")
    b = np.asarray(rhs, dtype=np.float64).reshape(system.n, -1)
    x = np.asarray(result).reshape(system.n, -1)
    residual = np.linalg.norm(system.matrix @ x - b, axis=0)
    scale = np.maximum(np.linalg.norm(b, axis=0), np.finfo(float).tiny)
    counters["solve.solve_calls"] += 1
    counters["solve.rhs_columns"] += b.shape[1]
    counters["solve.max_rel_residual"] = max(counters["solve.max_rel_residual"],
                                             float((residual / scale).max()))


def _count_eigs(counters, args, kwargs, result):
    counters["solve.eig_pairs"] += result.count


def _count_saved(counters, args, kwargs, result):
    path = os.fspath(_arg(args, kwargs, 1, "path"))
    meta = os.path.splitext(path)[0] + ".meta"
    counters["wavelets.bytes_written"] += os.path.getsize(path) + os.path.getsize(meta)


_COUNTERS = {
    "matching.reconstruct_delta_map": _count_reconstruction,
    "matching.nearest_rows": _count_nearest,
    "solve.SpdSystem.solve": _count_solve,
    "solve.generalized_eigs": _count_eigs,
    "wavelets.save_dictionary": _count_saved,
}


def probes(counters, captures=None) -> list[Probe]:
    """Every layer probe, counting into ``counters``; ``captures`` maps a
    target to a hook the workload uses to collect outputs for its checks."""
    captures = captures or {}
    unknown = set(captures) - set(PROBED)
    if unknown:
        raise ValueError(f"captures on unprobed functions: {sorted(unknown)}")
    # sources of the Dijkstra calls inside the geodesic_errors call running now
    ran: list = []
    hooks = {t: partial(count, counters) for t, count in _COUNTERS.items()}
    hooks["geodesics.geodesic_distances_multi"] = partial(_count_dijkstra, counters, ran)
    hooks["evaluation.geodesic_errors"] = partial(_count_evaluation, counters, ran)
    return [Probe(t, hooks.get(t), captures.get(t)) for t in PROBED]


def ratios(tracer: Tracer) -> dict[str, Ratio]:
    c = tracer.counters
    return {
        "evaluation.exact_hit_frac": Ratio(c["evaluation.exact_hits"], c["evaluation.pairs"]),
        "evaluation.useful_source_frac": Ratio(c["evaluation.useful_sources"],
                                               c["geodesics.sources"]),
    }


def rep_metrics(tracer: Tracer, e2e_s: float) -> dict[str, float]:
    """Per-layer values of one traced pipeline run of ``e2e_s`` seconds."""
    selfs = tracer.self_times()
    out = {span_metric(t): selfs.get(Probe(t).span_name, 0.0) for t in PROBED}
    for name, _, _ in COUNTED:
        if not name.startswith("trace."):
            out[name] = float(tracer.counters[name])
    out.update({name: r.value for name, r in ratios(tracer).items()})
    # peak RSS is monotone, so only the outermost wavelets spans add growth
    spans = tracer.spans
    out["wavelets.peak_rss_growth_mb"] = sum(
        s.rss_end - s.rss_start for s in spans if s.name.startswith("wavelets.")
        and (s.parent is None or not spans[s.parent].name.startswith("wavelets.")))
    out["trace.e2e_traced_s"] = e2e_s
    out["trace.bookkeeping_s"] = selfs.get(BOOKKEEPING, 0.0)
    out["trace.unattributed_s"] = e2e_s - tracer.top_level_seconds()
    return out


def dominant_layer(metrics: dict[str, float]) -> tuple[str, float]:
    """Layer (module) with the largest summed self time."""
    by_layer: dict[str, float] = {}
    for t in PROBED:
        layer = t.split(".", 1)[0]
        by_layer[layer] = by_layer.get(layer, 0.0) + metrics[span_metric(t)]
    layer = max(by_layer, key=by_layer.get)
    return layer, by_layer[layer]
