"""Experiment drivers: seeded end-to-end runs writing CSV curves and summaries.

Configs are plain key=value files with a strict key set per experiment kind;
unknown keys are rejected. A list key is a comma-separated value whose items
all have the element type its schema declares. Every CSV starts with a
versioned schema tag line so golden-file comparisons stay stable. The
loaders, the self-match and transfer stages and the curve writer below are
also what the CLI's ``match`` and ``eval`` commands call.
"""
from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from .errors import DataError
from .evaluation import check_curve_args, curve, geodesic_errors
from .laplacian import build_laplacian
from .matching import (identity_map, load_indices, load_pointmap, reconstruct_delta_map,
                       save_pointmap, transfer_pointmap)
from .mesh import load_mesh, normalize_unit_area
from .sampling import explicit_samples, perturb_samples, sample
from .solve import generalized_eigs
from .spectral import (dictionary_error, eigenbasis_selfmatch_map,
                       fmap_to_pointmap, ground_truth_wavelets,
                       gt_functional_map)
from .wavelets import KINDS, build_dictionary, pair_rhos

_COMMON_KEYS = {"experiment", "out_dir", "seed"}


def _rho(value):
    """``auto`` or a number; its (0, 1] range is checked by ``build_dictionary``."""
    return value if value == "auto" else float(value)


_SCHEMAS = {
    "selfmatch": {"mesh": str, "samples": int, "scales": int, "tmax": float,
                  "strategy": str, "baseline": str, "n_thresholds": int,
                  "max_threshold": float},
    "pairmatch": {"mesh_source": str, "mesh_target": str, "landmarks_source": str,
                  "landmarks_target": str, "gt_map": str, "samples": int,
                  "scales": int, "tmax": float, "rho": _rho, "dictionary": str,
                  "baseline": str, "n_thresholds": int, "max_threshold": float},
    "wavelets": {"mesh": str, "samples": int, "scales": int, "tmax": float,
                 "truncation": int, "strategy": str},
    "sampling": {"mesh": str, "sample_counts": [int], "strategies": [str],
                 "scales": int, "tmax": float},
    "noise": {"mesh": str, "mesh_target": str, "samples": int,
              "displace_counts": [int], "noise_radii": [float], "scales_list": [int],
              "tmax": float},
    "tmax": {"mesh": str, "mesh_target": str, "tmax_values": [float],
             "samples": int, "scales": int, "strategy": str},
}

_DEFAULTS = {
    "seed": 0,
    "samples": 6,
    "scales": 25,
    "tmax": 1.0,
    "strategy": "fps-euclidean",
    "n_thresholds": 100,
    "max_threshold": 0.5,
    "landmarks_source": "",
    "landmarks_target": "",
    "gt_map": "",
    "rho": "auto",
    "dictionary": "wavelet",
    "baseline": "lbo",
    "truncation": 300,
    "sample_counts": [2, 4, 6],
    "strategies": ["fps-euclidean", "fps-geodesic", "random"],
    "mesh_target": "",
    "displace_counts": [1, 2, 3, 5],
    "noise_radii": [0.01, 0.0325, 0.055, 0.0775, 0.1],
    "scales_list": [1, 2, 3, 5, 25, 50],
    "tmax_values": [0.25, 0.5, 1.0, 2.0, 4.0],
}

# string keys with a closed set of values
_CHOICES = {"dictionary": KINDS, "baseline": ("lbo", "none")}

# kind-specific defaults that differ from the shared table
_KIND_DEFAULTS = {
    "noise": {"samples": 10, "displace_counts": [1, 2, 3, 5, 10]},
    "wavelets": {"samples": 10},
}


def parse_config(path) -> dict:
    """Parse a key=value config file, applying defaults and strict key checks."""
    raw = {}
    for num, line in enumerate(Path(path).read_text().splitlines(), start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if "=" not in text:
            raise DataError(f"{path}:{num}: expected key=value, got {text!r}")
        key, value = (part.strip() for part in text.split("=", 1))
        if key in raw:
            raise DataError(f"{path}:{num}: duplicate key {key!r}")
        raw[key] = value
    return resolve_config(raw, source=str(path))


def resolve_config(raw: dict, source: str = "<config>") -> dict:
    kind = raw.get("experiment")
    if kind not in _SCHEMAS:
        raise DataError(f"{source}: missing or unknown experiment kind "
                        f"{kind!r}; expected one of {sorted(_SCHEMAS)}")
    schema = _SCHEMAS[kind]
    unknown = set(raw) - set(schema) - _COMMON_KEYS
    if unknown:
        raise DataError(f"{source}: unknown config keys: {sorted(unknown)}")
    if "out_dir" not in raw:
        raise DataError(f"{source}: missing required key 'out_dir'")

    config = {"experiment": kind, "out_dir": str(raw["out_dir"]),
              "seed": _convert("seed", raw.get("seed", _DEFAULTS["seed"]), int, source)}
    defaults = {**_DEFAULTS, **_KIND_DEFAULTS.get(kind, {})}
    for key, typ in schema.items():
        if key not in raw and key not in defaults:
            raise DataError(f"{source}: missing required key {key!r}")
        # defaults are converted too, so that a config never shares the
        # default tables' lists
        config[key] = _convert(key, raw.get(key, defaults.get(key)), typ, source)
        if key in _CHOICES and config[key] not in _CHOICES[key]:
            raise DataError(f"{source}: bad value for {key!r}: {config[key]!r}; "
                            f"expected one of {list(_CHOICES[key])}")
    if "max_threshold" in schema:  # the curve's arguments fail before any work
        check_curve_args(config["n_thresholds"], config["max_threshold"])
    return config


def _convert(key, value, typ, source):
    """``typ`` applied to a scalar value; for a list key, ``[typ]``, ``typ``
    applied to each item of a comma-separated string or a sequence. An int
    key takes an integral float (2.0) but not a fractional one, which ``int``
    would truncate."""
    try:
        if not isinstance(typ, list):
            if typ is int and isinstance(value, float) and not value.is_integer():
                raise ValueError(value)
            return typ(value)
        items = value.split(",") if isinstance(value, str) else value
        converted = [typ[0](text) for text in (str(item).strip() for item in items) if text]
    except (TypeError, ValueError):
        raise DataError(f"{source}: bad value for {key!r}: {value!r}") from None
    if not converted:
        raise DataError(f"{source}: empty list for {key!r}")
    return converted


def run_experiment(config) -> dict:
    """Run the experiment described by a config path or pre-parsed dict.

    Writes CSV and summary files into ``out_dir`` and returns the summary
    values (plus output paths) as a dict.
    """
    config = resolve_config(config) if isinstance(config, dict) else parse_config(config)
    out_dir = Path(config["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    runner = {
        "selfmatch": _run_selfmatch,
        "pairmatch": _run_pairmatch,
        "wavelets": _run_wavelets,
        "sampling": _run_sampling,
        "noise": _run_noise,
        "tmax": _run_tmax,
    }[config["experiment"]]
    start = time.perf_counter()
    summary = runner(config, out_dir)
    summary["elapsed_seconds"] = round(time.perf_counter() - start, 3)
    _write_summary(out_dir / "summary.txt", config, summary)
    summary["out_dir"] = str(out_dir)
    return summary


def load_unit_mesh(path):
    """Load a mesh file and normalize it to unit area; returns (mesh, original area)."""
    if not Path(path).exists():
        raise DataError(f"mesh file not found: {path}")
    return normalize_unit_area(load_mesh(path))


def load_landmarks(path, mesh):
    """Landmark samples of ``mesh`` from a file of 0-based vertex indices, one per line."""
    if not Path(path).exists():
        raise DataError(f"landmark file not found: {path}")
    try:
        indices = load_indices(path)
        if not 0 <= indices.min() <= indices.max() < mesh.n_vertices:
            raise DataError(f"{path}: landmark index out of range [0, {mesh.n_vertices})")
        return explicit_samples(indices)
    except ValueError as exc:
        raise DataError(f"{path}: bad landmark file: {exc}") from exc


def selfmatch_map(lap, samples, scales, tmax):
    """Self-matching stage: the wavelet dictionary of ``samples``, then its
    delta reconstruction."""
    return reconstruct_delta_map(build_dictionary(lap, samples, n_scales=scales, t_max=tmax))


def transfer_map(lap_src, lap_dst, s_src, s_dst, scales, tmax, rhos, kind="wavelet"):
    """Transfer stage: a dictionary of ``kind`` (``wavelet`` or ``heat``) per
    shape over matched samples, then row-wise nearest-neighbor transfer.
    ``rhos`` is the (source, target) pair from ``pair_rhos``."""
    if len(s_src) != len(s_dst):
        raise DataError(f"landmark counts differ: {len(s_src)} vs {len(s_dst)}")
    d_src = build_dictionary(lap_src, s_src, n_scales=scales, t_max=tmax, rho=rhos[0],
                             kind=kind)
    d_dst = build_dictionary(lap_dst, s_dst, n_scales=scales, t_max=tmax, rho=rhos[1],
                             kind=kind)
    return transfer_pointmap(d_src, d_dst)


def _write_csv(path, schema, header, rows):
    with open(path, "w") as fh:
        fh.write(f"# schema={schema}/1\n")
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(x) for x in row) + "\n")


def _fmt(x):
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _write_summary(path, config, summary):
    with open(path, "w") as fh:
        for key, value in config.items():
            fh.write(f"config.{key}={value}\n")
        for key, value in summary.items():
            fh.write(f"{key}={value}\n")


def write_curve_csv(path, evalcurve):
    """Write an error curve as a ``curve/1`` CSV of (threshold, fraction) rows."""
    _write_csv(path, "curve", ["threshold", "fraction"],
               zip(evalcurve.thresholds.tolist(), evalcurve.fractions.tolist()))


def _run_selfmatch(config, out_dir):
    mesh, _ = load_unit_mesh(config["mesh"])
    lap = build_laplacian(mesh)
    samples = sample(mesh, config["samples"], strategy=config["strategy"],
                     seed=config["seed"])
    pm = selfmatch_map(lap, samples, config["scales"], config["tmax"])
    gt = identity_map(mesh.n_vertices)
    errors = geodesic_errors(pm, gt, mesh)
    ec = curve(errors, n_thresholds=config["n_thresholds"],
               max_threshold=config["max_threshold"])
    write_curve_csv(out_dir / "curve.csv", ec)
    save_pointmap(pm, out_dir / "map.txt")
    summary = {"mean_error": ec.mean_error, "auc_025": ec.auc_025,
               "samples": ",".join(map(str, samples.indices))}
    # eigenbasis baseline at the same budget: |S| + 1 basis functions
    if config["baseline"] == "lbo":
        spectrum = generalized_eigs(lap.mass, lap.stiffness, k=len(samples) + 1)
        base_errors = geodesic_errors(eigenbasis_selfmatch_map(spectrum), gt, mesh)
        base = curve(base_errors, n_thresholds=config["n_thresholds"],
                     max_threshold=config["max_threshold"])
        summary["baseline_mean_error"] = base.mean_error
        summary["baseline_auc_025"] = base.auc_025
    return summary


def _identity_correspondence(mesh_src, mesh_dst, message):
    """The ground truth of a pair given no landmarks or map: meshes with equal
    vertex counts are taken to be in vertex-to-vertex correspondence (e.g.
    synthetic pairs), so the identity; any other pair is a ``DataError(message)``."""
    if mesh_dst.n_vertices != mesh_src.n_vertices:
        raise DataError(message)
    return identity_map(mesh_src.n_vertices)


def _resolve_pair_samples(config, mesh_src, mesh_dst):
    lm_src, lm_dst = config["landmarks_source"], config["landmarks_target"]
    if lm_src or lm_dst:
        if not (lm_src and lm_dst):
            raise DataError("landmarks_source and landmarks_target must be given together")
        return load_landmarks(lm_src, mesh_src), load_landmarks(lm_dst, mesh_dst)
    # FPS on the source; identical indices on the target
    _identity_correspondence(mesh_src, mesh_dst, "landmark files are required when the "
                             "meshes are not in vertex-to-vertex correspondence")
    src = sample(mesh_src, config["samples"], seed=config["seed"])
    return src, src


def _run_pairmatch(config, out_dir):
    if not config["mesh_source"] or not config["mesh_target"]:
        raise DataError("pairmatch requires both mesh_source and mesh_target")
    mesh_src, area_src = load_unit_mesh(config["mesh_source"])
    mesh_dst, area_dst = load_unit_mesh(config["mesh_target"])
    lap_src, lap_dst = build_laplacian(mesh_src), build_laplacian(mesh_dst)
    samples_src, samples_dst = _resolve_pair_samples(config, mesh_src, mesh_dst)
    rho_src, rho_dst = pair_rhos(area_src, area_dst, config["rho"])
    pm = transfer_map(lap_src, lap_dst, samples_src, samples_dst, config["scales"],
                      config["tmax"], (rho_src, rho_dst), kind=config["dictionary"])
    if config["gt_map"]:
        gt = load_pointmap(config["gt_map"], mesh_dst.n_vertices)
        if gt.source_size != mesh_src.n_vertices:
            raise DataError("gt_map length does not match the source mesh")
    else:
        gt = _identity_correspondence(mesh_src, mesh_dst,
                                      "gt_map is required when the meshes differ in size")
    errors = geodesic_errors(pm, gt, mesh_dst)
    ec = curve(errors, n_thresholds=config["n_thresholds"],
               max_threshold=config["max_threshold"])
    write_curve_csv(out_dir / "curve.csv", ec)
    save_pointmap(pm, out_dir / "map.txt")
    summary = {"mean_error": ec.mean_error, "auc_025": ec.auc_025,
               "rho_source": rho_src, "rho_target": rho_dst}
    # eigenbasis baseline: ground-truth functional map over |S| + 1 basis
    # functions, converted to a point map by nearest neighbors
    if config["baseline"] == "lbo":
        k = len(samples_src) + 1
        spec_src = generalized_eigs(lap_src.mass, lap_src.stiffness, k)
        spec_dst = generalized_eigs(lap_dst.mass, lap_dst.stiffness, k)
        fmap = gt_functional_map(spec_src, spec_dst, lap_dst.mass, gt)
        pm_base = fmap_to_pointmap(fmap, spec_src, spec_dst)
        base = curve(geodesic_errors(pm_base, gt, mesh_dst),
                     n_thresholds=config["n_thresholds"],
                     max_threshold=config["max_threshold"])
        summary["baseline_mean_error"] = base.mean_error
        summary["baseline_auc_025"] = base.auc_025
    return summary


def _run_wavelets(config, out_dir):
    mesh, _ = load_unit_mesh(config["mesh"])
    lap = build_laplacian(mesh)
    samples = sample(mesh, config["samples"], strategy=config["strategy"],
                     seed=config["seed"])
    # the two timed routes to the wavelets of the samples: the diffusion
    # dictionary, and the truncated-spectral baseline (a restricted
    # eigensolve plus the spectral Mexican hats at the same times)
    t0 = time.perf_counter()
    ours = build_dictionary(lap, samples, n_scales=config["scales"], t_max=config["tmax"])
    t_ours = time.perf_counter() - t0

    t0 = time.perf_counter()
    spectrum = generalized_eigs(lap.mass, lap.stiffness, k=min(config["truncation"], lap.n))
    truncated = ground_truth_wavelets(spectrum, lap, ours)
    t_truncated = time.perf_counter() - t0

    t0 = time.perf_counter()
    heat = build_dictionary(lap, samples, n_scales=config["scales"], t_max=config["tmax"],
                            kind="heat")
    t_heat = time.perf_counter() - t0

    spectrum = generalized_eigs(lap.mass, lap.stiffness, k="all")
    reference = ground_truth_wavelets(spectrum, lap, ours)

    err_ours = dictionary_error(ours, reference, lap.mass)
    err_trunc = dictionary_error(truncated, reference, lap.mass)
    err_heat = dictionary_error(heat, reference, lap.mass)

    rows = []
    for i in range(ours.n_scales):
        scale = i + 1
        rows.append([scale, scale * ours.t_step,
                     err_ours.l2_per_scale[i], err_ours.linf_per_scale[i],
                     err_trunc.l2_per_scale[i], err_trunc.linf_per_scale[i],
                     err_heat.l2_per_scale[i], err_heat.linf_per_scale[i]])
    _write_csv(out_dir / "wavelet_errors.csv", "wavelet-errors",
               ["scale", "time", "l2_ours", "linf_ours", "l2_truncated",
                "linf_truncated", "l2_heat", "linf_heat"], rows)
    return {"l2_ours": err_ours.l2_average, "linf_ours": err_ours.linf_average,
            "l2_truncated": err_trunc.l2_average, "linf_truncated": err_trunc.linf_average,
            "l2_heat": err_heat.l2_average, "linf_heat": err_heat.linf_average,
            "seconds_ours": round(t_ours, 4), "seconds_heat": round(t_heat, 4),
            "seconds_truncated": round(t_truncated, 4)}


def _run_sampling(config, out_dir):
    mesh, _ = load_unit_mesh(config["mesh"])
    lap = build_laplacian(mesh)
    rows = []
    gt = identity_map(mesh.n_vertices)
    for strategy in config["strategies"]:
        for n_samp in config["sample_counts"]:
            samples = sample(mesh, n_samp, strategy=strategy, seed=config["seed"])
            pm = selfmatch_map(lap, samples, config["scales"], config["tmax"])
            errors = geodesic_errors(pm, gt, mesh)
            ec = curve(errors)
            rows.append([strategy, n_samp, ec.mean_error, ec.auc_025])
    _write_csv(out_dir / "sampling.csv", "sampling",
               ["strategy", "n_samples", "mean_error", "auc_025"], rows)
    return {"rows": len(rows)}


def _corresponding_target(config, mesh_src, area_src, lap_src):
    """The optional ``mesh_target`` (else the source itself) with its
    Laplacian, the pair's rhos from ``pair_rhos`` and the identity ground truth.

    The sweeps score their maps against the identity, so a target must be in
    vertex correspondence with the source.
    """
    if not config["mesh_target"]:
        return mesh_src, lap_src, pair_rhos(area_src, area_src), identity_map(mesh_src.n_vertices)
    mesh_dst, area_dst = load_unit_mesh(config["mesh_target"])
    gt = _identity_correspondence(mesh_src, mesh_dst, f"{config['experiment']} experiment "
                                  "needs meshes in vertex correspondence")
    return mesh_dst, build_laplacian(mesh_dst), pair_rhos(area_src, area_dst), gt


def _run_noise(config, out_dir):
    mesh_src, area_src = load_unit_mesh(config["mesh"])
    lap_src = build_laplacian(mesh_src)
    mesh_dst, lap_dst, rhos, gt = _corresponding_target(config, mesh_src, area_src, lap_src)
    base = sample(mesh_src, config["samples"], seed=config["seed"])
    rows = []
    for n_scales in config["scales_list"]:
        for n_disp in config["displace_counts"]:
            for radius in config["noise_radii"]:
                noisy = perturb_samples(mesh_src, base, radius, n_disp, seed=config["seed"])
                pm = transfer_map(lap_src, lap_dst, noisy, base, n_scales, config["tmax"], rhos)
                ec = curve(geodesic_errors(pm, gt, mesh_dst))
                rows.append([n_scales, n_disp, radius, ec.mean_error, ec.auc_025])
    _write_csv(out_dir / "noise.csv", "noise",
               ["n_scales", "n_displaced", "noise_radius", "mean_error", "auc_025"],
               rows)
    # radii are relative to the largest geodesic distance from each displaced
    # sample (per-sample maxima, not an all-pairs diameter)
    return {"rows": len(rows), "radius_reference": "per-sample geodesic maximum"}


def _run_tmax(config, out_dir):
    mesh_src, area_src = load_unit_mesh(config["mesh"])
    lap_src = build_laplacian(mesh_src)
    mesh_dst, lap_dst, rhos, gt = _corresponding_target(config, mesh_src, area_src, lap_src)
    samples = sample(mesh_src, config["samples"], strategy=config["strategy"],
                     seed=config["seed"])
    rows = []
    for tmax in config["tmax_values"]:
        if mesh_dst is mesh_src:
            pm = selfmatch_map(lap_src, samples, config["scales"], tmax)
        else:
            pm = transfer_map(lap_src, lap_dst, samples, samples, config["scales"], tmax, rhos)
        ec = curve(geodesic_errors(pm, gt, mesh_dst))
        rows.append([tmax, ec.mean_error, ec.auc_025])
    _write_csv(out_dir / "tmax.csv", "tmax",
               ["tmax", "mean_error", "auc_025"], rows)
    best_tmax, best_error, _ = min(rows, key=lambda row: row[1])
    return {"best_tmax": best_tmax, "best_mean_error": best_error}
