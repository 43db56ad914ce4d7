"""The benchmark workloads: seeded inputs, the timed pipeline, output checks.

Each workload writes its inputs (OFF meshes, ground-truth map, config) from
the seed, then runs the pipeline through the entry points users call:
``run_experiment(config)`` (what ``meshwavelets experiment run`` does), or
``cli.main(["dict", "build", ...])`` followed by ``load_dictionary``.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
from pathlib import Path

import numpy as np

from meshwavelets import cli, experiments, wavelets
from meshwavelets.matching import identity_map, save_pointmap
from meshwavelets.mesh import write_off
from meshwavelets.synthetic import jittered_icosphere, stretched_icosphere

# A normalized column has max - min == 1; allow a few ulps of roundoff.
RANGE_TOL = 1e-12


def digest(array: np.ndarray) -> str:
    """Short sha256 of an array's shape, dtype and values in memory order."""
    array = np.asarray(array)
    if not array.flags.c_contiguous:
        array = array.T if array.flags.f_contiguous else np.ascontiguousarray(array)
    h = hashlib.sha256(f"{array.shape}{array.dtype}".encode())
    h.update(array)
    return h.hexdigest()[:16]


def _write_config(path: Path, entries: dict) -> Path:
    path.write_text("".join(f"{k}={v}\n" for k, v in entries.items()))
    return path


def check_map(targets: np.ndarray, n_source: int, n_target: int, what: str) -> list[str]:
    if targets.shape != (n_source,):
        return [f"{what}: {targets.shape[0]} entries, expected {n_source}"]
    if targets.min() < 0 or targets.max() >= n_target:
        return [f"{what}: index out of range [0, {n_target})"]
    return []


def check_dictionary(d, n_vertices: int, n_columns: int, what: str) -> list[str]:
    cols = d.columns
    if cols.shape != (n_vertices, n_columns):
        return [f"{what}: shape {cols.shape}, expected {(n_vertices, n_columns)}"]
    if not np.isfinite(cols).all():
        return [f"{what}: non-finite values"]
    spread = cols.max(axis=0) - cols.min(axis=0)
    worst = float(np.abs(spread - 1.0).max())
    if worst > RANGE_TOL:
        return [f"{what}: column range off 1 by {worst:.3g}"]
    return []


def _check_quality(summary: dict, keys) -> tuple[list[str], dict]:
    problems, quality = [], {}
    for name, key in keys:
        value = summary.get(key)
        if not isinstance(value, float) or not math.isfinite(value) or value < 0:
            problems.append(f"summary {key}={value!r} is not a finite non-negative number")
        else:
            quality[name] = value
    return problems, quality


@dataclasses.dataclass
class Outputs:
    """What the checks see of one pipeline run: the returned summary and the
    objects captured from calls inside it."""

    summary: dict = dataclasses.field(default_factory=dict)
    dictionaries: list = dataclasses.field(default_factory=list)
    maps: list = dataclasses.field(default_factory=list)

    def keep_result(self, field):
        return lambda args, kwargs, result: getattr(self, field).append(result)


@dataclasses.dataclass(frozen=True)
class Check:
    problems: list
    digests: dict   # must be identical across the runs of one benchmark run
    quality: dict   # answer quality as the user sees it


@dataclasses.dataclass(frozen=True)
class _Workload:
    """Sizes of a workload on a jittered icosphere with ``subdivisions`` levels."""

    name: str = ""
    why: str = ""
    subdivisions: int = 0
    samples: int = 10
    scales: int = 25
    tmax: float = 1.0
    min_runs: int = 1  # runs per benchmark run, at least, whatever --seconds says

    @property
    def n_vertices(self) -> int:
        return 10 * 4 ** self.subdivisions + 2


@dataclasses.dataclass(frozen=True)
class SelfMatch(_Workload):
    name: str = "selfmatch-10k"
    why: str = ("ROADMAP headline path: geodesic_errors and reconstruct_delta_map dominate; "
                "baseline=none pins the work when the eigensolver cap moves")
    subdivisions: int = 5
    # one run takes about 20 s; the spread between benchmark runs comes from
    # the machine's speed drifting over minutes, which a third run in the
    # same process did not reduce
    min_runs: int = 2

    def facts(self) -> dict:
        return {"vertices": self.n_vertices, "samples": self.samples,
                "scales": self.scales, "tmax": self.tmax, "baseline": "none"}

    def setup(self, work: Path, seed: int) -> dict:
        write_off(jittered_icosphere(self.subdivisions, seed=seed), work / "mesh.off")
        config = _write_config(work / "config.txt", {
            "experiment": "selfmatch", "out_dir": work / "out", "mesh": work / "mesh.off",
            "samples": self.samples, "scales": self.scales, "tmax": self.tmax,
            "baseline": "none", "seed": seed})
        return {"config": config, "out": work / "out"}

    def captures(self, outputs: Outputs) -> dict:
        return {"wavelets.build_dictionary": outputs.keep_result("dictionaries")}

    def run(self, inputs: dict, outputs: Outputs) -> None:
        outputs.summary = experiments.run_experiment(str(inputs["config"]))

    def check(self, inputs: dict, outputs: Outputs) -> Check:
        n = self.n_vertices
        pm = np.loadtxt(inputs["out"] / "map.txt", dtype=np.int64, ndmin=1)
        problems = check_map(pm, n, n, "self map")
        if len(outputs.dictionaries) != 1:
            problems.append(f"{len(outputs.dictionaries)} dictionaries built, expected 1")
        digests = {"map": digest(pm)}
        for i, d in enumerate(outputs.dictionaries):
            problems += check_dictionary(d, n, self.samples * self.scales, f"dictionary {i}")
            digests[f"dictionary{i}"] = digest(d.columns)
        bad, quality = _check_quality(outputs.summary, (
            ("auc_025", "auc_025"), ("mean_geodesic_error", "mean_error")))
        return Check(problems + bad, digests, quality)


@dataclasses.dataclass(frozen=True)
class PairMatch(_Workload):
    name: str = "pairmatch-2.5k"
    why: str = ("Only workload running spectral and solve.generalized_eigs (LBO baseline) and "
                "row-NN transfer; the dense 300-eigenpair baseline (~90 s/run) is left to "
                "acceptance criterion 08")
    subdivisions: int = 4
    # runs are short (about 4.5 s) and vary by about 10%: four per median
    min_runs: int = 4

    def facts(self) -> dict:
        return {"vertices": f"{self.n_vertices}+{self.n_vertices}", "samples": self.samples,
                "scales": self.scales, "tmax": self.tmax, "baseline": "lbo"}

    def setup(self, work: Path, seed: int) -> dict:
        write_off(jittered_icosphere(self.subdivisions, seed=seed), work / "source.off")
        write_off(stretched_icosphere(self.subdivisions, seed=seed), work / "target.off")
        save_pointmap(identity_map(self.n_vertices), work / "gt.txt")
        config = _write_config(work / "config.txt", {
            "experiment": "pairmatch", "out_dir": work / "out",
            "mesh_source": work / "source.off", "mesh_target": work / "target.off",
            "gt_map": work / "gt.txt", "samples": self.samples, "scales": self.scales,
            "tmax": self.tmax, "baseline": "lbo", "seed": seed})
        return {"config": config, "out": work / "out"}

    def captures(self, outputs: Outputs) -> dict:
        return {"wavelets.build_dictionary": outputs.keep_result("dictionaries"),
                "spectral.fmap_to_pointmap": outputs.keep_result("maps")}

    def run(self, inputs: dict, outputs: Outputs) -> None:
        outputs.summary = experiments.run_experiment(str(inputs["config"]))

    def check(self, inputs: dict, outputs: Outputs) -> Check:
        n = self.n_vertices
        pm = np.loadtxt(inputs["out"] / "map.txt", dtype=np.int64, ndmin=1)
        problems = check_map(pm, n, n, "transfer map")
        digests = {"map": digest(pm)}
        if len(outputs.maps) != 1:
            problems.append(f"{len(outputs.maps)} LBO baseline maps, expected 1")
        for i, lbo in enumerate(outputs.maps):
            problems += check_map(lbo.targets, n, n, "LBO baseline map")
            digests[f"lbo_map{i}"] = digest(lbo.targets)
        if len(outputs.dictionaries) != 2:
            problems.append(f"{len(outputs.dictionaries)} dictionaries built, expected 2")
        for i, d in enumerate(outputs.dictionaries):
            problems += check_dictionary(d, n, self.samples * self.scales, f"dictionary {i}")
            digests[f"dictionary{i}"] = digest(d.columns)
        bad, quality = _check_quality(outputs.summary, (
            ("auc_025", "auc_025"), ("mean_geodesic_error", "mean_error"),
            ("lbo_auc_025", "baseline_auc_025")))
        return Check(problems + bad, digests, quality)


@dataclasses.dataclass(frozen=True)
class DictBuild(_Workload):
    name: str = "dictbuild-40k"
    why: str = ("Top of the mesh ladder: 25 solves on one factorization dominate; writes DWDICT01 "
                "and reads it back; runs no evaluation or spectral, so gains there must not move it")
    subdivisions: int = 6
    samples: int = 20
    # the first run of a process is slower, so every benchmark run has the
    # same count: two runs of 11-15 s
    min_runs: int = 2

    def facts(self) -> dict:
        return {"vertices": self.n_vertices, "samples": self.samples,
                "scales": self.scales, "tmax": self.tmax}

    def setup(self, work: Path, seed: int) -> dict:
        write_off(jittered_icosphere(self.subdivisions, seed=seed), work / "mesh.off")
        (work / "out").mkdir()
        argv = ["dict", "build", "--mesh", str(work / "mesh.off"),
                "--samples", str(self.samples), "--scales", str(self.scales),
                "--tmax", str(self.tmax), "--seed", str(seed),
                "--out", str(work / "out" / "dict.dwd")]
        return {"argv": argv, "dictionary": work / "out" / "dict.dwd"}

    def captures(self, outputs: Outputs) -> dict:
        return {"wavelets.save_dictionary":
                lambda args, kwargs, result: outputs.dictionaries.append(args[0])}

    def run(self, inputs: dict, outputs: Outputs) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(inputs["argv"])
        if code != 0:
            raise RuntimeError(f"meshwavelets dict build exited with code {code}")
        outputs.summary = {"loaded": wavelets.load_dictionary(inputs["dictionary"])}

    def check(self, inputs: dict, outputs: Outputs) -> Check:
        n, m = self.n_vertices, self.samples * self.scales
        loaded = outputs.summary["loaded"]
        problems = check_dictionary(loaded, n, m, "read-back dictionary")
        if len(outputs.dictionaries) != 1:
            return Check(problems + [f"{len(outputs.dictionaries)} dictionaries saved, "
                                     "expected 1"], {}, {})
        built = outputs.dictionaries[0]
        same = (built.columns.shape == loaded.columns.shape
                and np.array_equal(built.columns.view(np.uint64), loaded.columns.view(np.uint64))
                and np.array_equal(built.samples.indices, loaded.samples.indices)
                and (built.n_scales, built.t_max, built.rho, built.t_step)
                == (loaded.n_scales, loaded.t_max, loaded.rho, loaded.t_step))
        if not same:
            problems.append("DWDICT01 read-back differs from the built dictionary")
        return Check(problems, {"dictionary": digest(loaded.columns),
                                "samples": digest(loaded.samples.indices)}, {})


WORKLOADS = {w.name: w for w in (SelfMatch(), PairMatch(), DictBuild())}

# Quality metrics a workload may report, with their units.
QUALITY_UNITS = {"auc_025": "fraction", "mean_geodesic_error": "unit-area",
                 "lbo_auc_025": "fraction"}
