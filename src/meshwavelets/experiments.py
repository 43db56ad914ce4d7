"""Experiment drivers: seeded end-to-end runs writing CSV curves and summaries.

Configs are plain key=value files with a strict key set per experiment kind;
unknown keys are rejected. A list key takes a comma-separated list of values
of its declared type, and a matching run covers every combination of the
listed values. Every CSV starts with a versioned schema tag line. The
loaders and the curve writer below are also what the CLI's ``match`` and
``eval`` commands call.
"""
from __future__ import annotations

import contextlib
import functools
import itertools
import time
from pathlib import Path

import numpy as np

from .errors import DataError
from .evaluation import THRESHOLDS, curve, geodesic_errors
from .laplacian import Shape
from .matching import (identity_map, load_indices, load_pointmap, reconstruct_delta_map,
                       save_pointmap, transfer_pointmap)
from .mesh import load_mesh
from .sampling import STRATEGIES, SampleSet, explicit_samples, perturb_samples, sample
from .solve import generalized_eigs
from .spectral import (TRUNCATION, dictionary_error, eigenbasis_selfmatch_map,
                       fmap_to_pointmap, ground_truth_wavelets, gt_functional_map)
from .wavelets import KINDS, build_dictionary, pair_rhos

_COMMON_KEYS = {"experiment", "out_dir", "seed"}


def _rho(value):
    """``auto`` or a number; its (0, 1] range is checked by ``build_dictionary``."""
    return value if value == "auto" else float(value)


_SCHEMAS = {
    "selfmatch": {"mesh": str, "samples": [int], "scales": [int], "tmax": [float],
                  "strategy": [str], "baseline": str},
    "pairmatch": {"mesh_source": str, "mesh_target": str, "landmarks_source": str,
                  "landmarks_target": str, "gt_map": str, "samples": [int],
                  "strategy": [str], "scales": [int], "tmax": [float], "dictionary": [str],
                  "displaced": [int], "noise_radius": [float], "rho": _rho, "baseline": str},
    "wavelets": {"mesh": str, "samples": int, "scales": int, "tmax": float, "strategy": str},
}

_DEFAULTS = {
    "seed": 0,
    "samples": 6,
    "scales": 25,
    "tmax": 1.0,
    "strategy": "fps-euclidean",
    "landmarks_source": "",
    "landmarks_target": "",
    "gt_map": "",
    "displaced": 0,
    "noise_radius": 0.0,
    "rho": "auto",
    "dictionary": "wavelet",
    "baseline": "lbo",
}

# string keys with a closed set of values
_CHOICES = {"dictionary": KINDS, "baseline": ("lbo", "none"), "strategy": STRATEGIES}

# kind-specific defaults that differ from the shared table
_KIND_DEFAULTS = {"wavelets": {"samples": 10}}


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
    if config["seed"] < 0:  # numpy's generators take no negative seed
        raise DataError(f"{source}: bad value for 'seed': {raw['seed']!r}; "
                        f"expected a non-negative integer")
    out_dir = Path(config["out_dir"])  # refused now if the run could never make it
    if any(path.exists() and not path.is_dir() for path in (out_dir, *out_dir.parents)):
        raise DataError(f"{source}: out_dir {config['out_dir']!r} is or lies under a non-directory")
    defaults = {**_DEFAULTS, **_KIND_DEFAULTS.get(kind, {})}
    for key, typ in schema.items():
        if key not in raw and key not in defaults:
            raise DataError(f"{source}: missing required key {key!r}")
        # defaults are converted too, so that a config never shares the
        # default tables' lists
        config[key] = _convert(key, raw.get(key, defaults.get(key)), typ, source)
        for value in config[key] if isinstance(typ, list) else [config[key]]:
            if key in _CHOICES and value not in _CHOICES[key]:
                raise DataError(f"{source}: bad value for {key!r}: {value!r}; "
                                f"expected one of {list(_CHOICES[key])}")
    return config


def _convert(key, value, typ, source):
    """``typ`` applied to a scalar value; for a list key, ``[typ]``, the same
    applied to each item of a comma-separated string or a sequence, and a
    scalar is a one-item list. An int takes an integral float (2.0) but not a
    fractional one, which ``int`` would truncate."""
    if isinstance(typ, list):
        items = (value.split(",") if isinstance(value, str)
                 else value if isinstance(value, (list, tuple)) else [value])
        items = [item.strip() if isinstance(item, str) else item for item in items]
        converted = [_convert(key, item, typ[0], source) for item in items if item != ""]
        if not converted:
            raise DataError(f"{source}: empty list for {key!r}")
        return converted
    try:
        if typ is int and isinstance(value, float) and not value.is_integer():
            raise ValueError(value)
        return typ(value)
    except (TypeError, ValueError):
        raise DataError(f"{source}: bad value for {key!r}: {value!r}") from None


def run_experiment(config) -> dict:
    """Run the experiment described by a config path or pre-parsed dict.

    Writes CSV and summary files into ``out_dir``, made once the inputs are
    loaded and checked, and returns the summary values (plus output paths).
    """
    config = resolve_config(config) if isinstance(config, dict) else parse_config(config)
    out_dir = Path(config["out_dir"])
    runner = {
        "selfmatch": _run_selfmatch,
        "pairmatch": _run_pairmatch,
        "wavelets": _run_wavelets,
    }[config["experiment"]]
    start = time.perf_counter()
    summary = runner(config, out_dir)
    summary["elapsed_seconds"] = round(time.perf_counter() - start, 3)
    _write_summary(out_dir / "summary.txt", config, summary)
    summary["out_dir"] = str(out_dir)
    return summary


def load_shape(path) -> Shape:
    """The ``Shape`` of a mesh file: its unit-area mesh and original area."""
    if not Path(path).exists():
        raise DataError(f"mesh file not found: {path}")
    return Shape(load_mesh(path))


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


def load_landmark_pair(path_src, path_dst, src: Shape, dst: Shape):
    """Matched landmark samples of two shapes: line i of one file pairs with line i of the other."""
    landmarks = load_landmarks(path_src, src.mesh), load_landmarks(path_dst, dst.mesh)
    if len(landmarks[0]) != len(landmarks[1]):
        raise DataError(f"landmark counts differ: {len(landmarks[0])} vs {len(landmarks[1])}")
    return landmarks


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
            value = ",".join(map(str, value)) if isinstance(value, list) else value
            fh.write(f"config.{key}={value}\n")
        for key, value in summary.items():
            fh.write(f"{key}={value}\n")


def write_curve_csv(path, evalcurve):
    """Write an error curve as a ``curve/1`` CSV of (threshold, fraction) rows."""
    _write_csv(path, "curve", ["threshold", "fraction"],
               zip(THRESHOLDS.tolist(), evalcurve.fractions.tolist()))


def _sweep(config, out_dir, run, facts=()):
    """Call ``run(setting) -> (map, curve, summary)`` on every combination of
    the config's list values; a setting maps each list key of the kind to one
    value. One combination writes ``curve.csv`` and ``map.txt`` and returns the
    run's summary; several write a ``sweep/1`` CSV with one row per setting
    (its values in schema order, then the summary's ``facts`` and scores). A
    setting that raises ends the sweep: the rows finished before it are
    written, then its error propagates. ``out_dir`` is made just before the
    first file is written."""
    keys = [key for key, typ in _SCHEMAS[config["experiment"]].items() if isinstance(typ, list)]
    settings = [dict(zip(keys, values))
                for values in itertools.product(*(config[key] for key in keys))]
    if len(settings) == 1:
        pm, ec, summary = run(settings[0])
        out_dir.mkdir(parents=True, exist_ok=True)
        write_curve_csv(out_dir / "curve.csv", ec)
        save_pointmap(pm, out_dir / "map.txt")
        return summary
    reported = [*facts, "mean_error", "auc_025"]
    if config["baseline"] == "lbo":
        reported += ["baseline_mean_error", "baseline_auc_025"]
    rows = []

    def write():
        out_dir.mkdir(parents=True, exist_ok=True)
        _write_csv(out_dir / "sweep.csv", "sweep", keys + reported, rows)

    try:
        for setting in settings:
            summary = run(setting)[2]
            rows.append([*setting.values(), *(summary[key] for key in reported)])
    except BaseException:
        # the setting's error is the one reported, even if the write fails
        with contextlib.suppress(Exception):
            if rows:
                write()
        raise
    write()
    return {"rows": len(rows)}


def _scores(ec, prefix=""):
    return {f"{prefix}mean_error": ec.mean_error, f"{prefix}auc_025": ec.auc_025}


def _run_selfmatch(config, out_dir):
    shape = load_shape(config["mesh"])
    gt = identity_map(shape.mesh.n_vertices)
    # a sweep draws once per (count, strategy) and runs one baseline per count
    draw = functools.cache(lambda n, strategy: sample(shape, n, strategy=strategy,
                                                      seed=config["seed"]))

    @functools.cache
    def baseline(k):  # the eigenbasis at the same budget: |S| + 1 basis functions
        spectrum = generalized_eigs(shape.lap.mass, shape.lap.stiffness, k=k)
        return _scores(curve(geodesic_errors(eigenbasis_selfmatch_map(spectrum), gt, shape)),
                       "baseline_")

    def run(setting):
        samples = draw(setting["samples"], setting["strategy"])
        pm = reconstruct_delta_map(build_dictionary(shape.lap, samples,
                                                    n_scales=setting["scales"],
                                                    t_max=setting["tmax"]))
        ec = curve(geodesic_errors(pm, gt, shape))
        summary = {**_scores(ec), "samples": ",".join(map(str, samples.indices))}
        if config["baseline"] == "lbo":
            summary.update(baseline(len(samples) + 1))
        return pm, ec, summary

    return _sweep(config, out_dir, run)


def _pair_landmarks(config, src, dst):
    """The config's landmark pair, which fixes the samples, or None when the
    target takes the ground truth's images of the source's samples."""
    lm_src, lm_dst = config["landmarks_source"], config["landmarks_target"]
    if lm_src or lm_dst:
        if not (lm_src and lm_dst):
            raise DataError("landmarks_source and landmarks_target must be given together")
        if len(config["samples"]) > 1 or len(config["strategy"]) > 1:
            raise DataError("with landmark files, samples and strategy take one value")
        return load_landmark_pair(lm_src, lm_dst, src, dst)
    return None


def _run_pairmatch(config, out_dir):
    src, dst = load_shape(config["mesh_source"]), load_shape(config["mesh_target"])
    landmarks = _pair_landmarks(config, src, dst)
    rho_src, rho_dst = pair_rhos(src.area, dst.area, config["rho"])
    if config["gt_map"]:
        gt = load_pointmap(config["gt_map"], dst.mesh.n_vertices)
        if gt.source_size != src.mesh.n_vertices:
            raise DataError("gt_map length does not match the source mesh")
    elif dst.mesh.n_vertices != src.mesh.n_vertices:
        raise DataError("gt_map is required when the meshes differ in size")
    else:
        # meshes of equal size given no map are taken to be in vertex-to-vertex
        # correspondence (e.g. synthetic pairs)
        gt = identity_map(src.mesh.n_vertices)

    @functools.cache
    def draw(n, strategy):  # FPS on the source; their ground-truth images on the target
        if landmarks:
            return landmarks
        drawn = sample(src, n, strategy=strategy, seed=config["seed"])
        images = gt.targets[drawn.indices]
        if np.unique(images).size < images.size:
            raise DataError("gt_map takes two source samples to the same target vertex")
        return drawn, SampleSet(images, drawn.strategy, drawn.seed)

    @functools.cache
    def source_samples(n, strategy, count, radius):
        # source samples moved within a geodesic disc; the target's stay
        return perturb_samples(src, draw(n, strategy)[0], radius, count,
                               seed=config["seed"])

    # one entry is enough: displaced and noise_radius, on which the target
    # does not depend, are the innermost sweep keys
    @functools.lru_cache(maxsize=1)
    def target(n, strategy, scales, tmax, kind):
        return build_dictionary(dst.lap, draw(n, strategy)[1], n_scales=scales, t_max=tmax,
                                rho=rho_dst, kind=kind)

    @functools.cache
    def baseline(k):
        # ground-truth functional map over |S| + 1 basis functions, converted
        # to a point map by nearest neighbors
        spec_src = generalized_eigs(src.lap.mass, src.lap.stiffness, k)
        spec_dst = generalized_eigs(dst.lap.mass, dst.lap.stiffness, k)
        pm_base = fmap_to_pointmap(gt_functional_map(spec_src, spec_dst, dst.lap.mass, gt),
                                   spec_src, spec_dst)
        return _scores(curve(geodesic_errors(pm_base, gt, dst)), "baseline_")

    def run(setting):
        n, strategy, scales, tmax, kind = (setting[key] for key in (
            "samples", "strategy", "scales", "tmax", "dictionary"))
        samples_src = source_samples(n, strategy, setting["displaced"],
                                     setting["noise_radius"])
        # a disc shorter than an edge moves nothing: count what did move
        moved = int(np.count_nonzero(samples_src.indices != draw(n, strategy)[0].indices))
        source = build_dictionary(src.lap, samples_src, n_scales=scales, t_max=tmax,
                                  rho=rho_src, kind=kind)
        pm = transfer_pointmap(source, target(n, strategy, scales, tmax, kind))
        ec = curve(geodesic_errors(pm, gt, dst))
        summary = {**_scores(ec), "rho_source": rho_src, "rho_target": rho_dst,
                   "moved": moved}
        if config["baseline"] == "lbo":
            summary.update(baseline(len(samples_src) + 1))
        return pm, ec, summary

    return _sweep(config, out_dir, run, ("moved",))


def _run_wavelets(config, out_dir):
    shape = load_shape(config["mesh"])
    lap = shape.lap
    if lap.n <= TRUNCATION:
        raise DataError(f"{config['mesh']}: the truncated baseline uses {TRUNCATION} "
                        f"eigenpairs, so the mesh needs more than {TRUNCATION} vertices, "
                        f"not {lap.n}")
    samples = sample(shape, config["samples"], strategy=config["strategy"],
                     seed=config["seed"])
    scales, tmax = config["scales"], config["tmax"]
    # the untimed full spectrum first: a mesh above the dense cap is refused
    # before any timing; the ground truth takes ours' time grid once it exists
    full = generalized_eigs(lap.mass, lap.stiffness, lap.n)
    # the three timed routes to the wavelets of the samples: the diffusion
    # dictionary, the truncated-spectral baseline (TRUNCATION eigenpairs plus
    # the spectral Mexican hats at the same times) and the heat-kernel family
    t0 = time.perf_counter()
    ours = build_dictionary(lap, samples, n_scales=scales, t_max=tmax)
    t_ours = time.perf_counter() - t0

    t0 = time.perf_counter()
    spectrum = generalized_eigs(lap.mass, lap.stiffness, TRUNCATION)
    truncated = ground_truth_wavelets(spectrum, lap, ours)
    t_truncated = time.perf_counter() - t0

    t0 = time.perf_counter()
    heat = build_dictionary(lap, samples, n_scales=scales, t_max=tmax, kind="heat")
    t_heat = time.perf_counter() - t0

    reference = ground_truth_wavelets(full, lap, ours)
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
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(out_dir / "wavelet_errors.csv", "wavelet-errors",
               ["scale", "time", "l2_ours", "linf_ours", "l2_truncated",
                "linf_truncated", "l2_heat", "linf_heat"], rows)
    return {"l2_ours": err_ours.l2_average, "linf_ours": err_ours.linf_average,
            "l2_truncated": err_trunc.l2_average, "linf_truncated": err_trunc.linf_average,
            "l2_heat": err_heat.l2_average, "linf_heat": err_heat.linf_average,
            "seconds_ours": round(t_ours, 4), "seconds_heat": round(t_heat, 4),
            "seconds_truncated": round(t_truncated, 4)}
