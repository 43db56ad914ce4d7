"""Benchmark of the meshwavelets pipeline: seeded workloads, checked outputs,
end-to-end metrics and, with ``--trace 1``, per-layer metrics.

Run from the root of a source checkout (the package is imported from
``src/``, never from an installed copy):

    python3 perfbench/run.py --workload selfmatch-10k --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py                  # every workload, one process each

Each workload is a closed loop with one client: one pipeline run at a time,
in this process, repeated until ``--seconds`` have passed and the workload's
minimum run count (``min_runs``) is reached. With ``--trace 1``
traced and untraced runs alternate; the traced ones give the per-layer
metrics and the difference of the two medians is the tracing overhead. The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import ctypes
import dataclasses
import importlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

from benchstats import median, tail_percentile
from spans import Tracer, instrument, maxrss_mb

# layers, workloads and the package load numpy, so functions import them
# only after limit_blas_threads() has run.

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPEATS = 9  # one set-up takes 0.1-1.5 s; single ones vary by up to 30%
WARM_SUBDIVISIONS = 2  # warm-up runs the same pipeline on a 162-vertex mesh
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("selfmatch-10k", "pairmatch-2.5k", "dictbuild-40k")
CHILD_TIMEOUT_S = 180


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def limit_blas_threads() -> None:
    """Cap BLAS threads at the usable cores; must run before numpy loads."""
    for var in BLAS_ENV:
        current = os.environ.get(var, "")
        limit = nproc()
        if current.isdigit() and 0 < int(current) < limit:
            limit = int(current)
        os.environ[var] = str(limit)


def blas_report() -> str:
    """OpenBLAS version and live thread count of numpy's and scipy's copies."""
    parts = []
    for pkg in ("numpy", "scipy"):
        mod = importlib.import_module(pkg)
        try:
            version = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
        except (KeyError, TypeError):
            version = "unknown"
        threads = "unknown"
        libdir = Path(mod.__file__).resolve().parent.parent / f"{pkg}.libs"
        for lib in sorted(libdir.glob("lib*openblas*.so*")):
            cdll = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                func = getattr(cdll, symbol, None)
                if func is not None:
                    func.argtypes, func.restype = [], ctypes.c_int
                    threads = func()
                    break
        parts.append(f"{pkg}={mod.__version__} (OpenBLAS {version}, {threads} threads)")
    return " ".join(parts)


@dataclasses.dataclass
class RunRecord:
    traced: bool
    e2e_s: float = float("nan")
    problems: list = dataclasses.field(default_factory=list)
    digests: dict = dataclasses.field(default_factory=dict)
    quality: dict = dataclasses.field(default_factory=dict)
    layers: dict = dataclasses.field(default_factory=dict)
    ratios: dict = dataclasses.field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.problems


def one_run(workload, inputs, traced: bool) -> RunRecord:
    """One pipeline run, timed around the public entry points, then checked."""
    import layers
    from workloads import Outputs

    record = RunRecord(traced)
    tracer = Tracer() if traced else None
    outputs = Outputs()
    probes = layers.probes(tracer.counters if traced else {}, workload.captures(outputs))
    try:
        with instrument(layers.PACKAGE, probes, tracer):
            start = time.perf_counter()
            workload.run(inputs, outputs)
            record.e2e_s = time.perf_counter() - start
        check = workload.check(inputs, outputs)
    except Exception:  # a failed run is counted and reported, the loop goes on
        traceback.print_exc()
        record.problems.append("exception (traceback on stderr)")
        return record
    record.problems += check.problems
    record.digests, record.quality = check.digests, check.quality
    if traced:
        from meshwavelets.solve import SOLVE_RTOL
        record.layers = layers.rep_metrics(tracer, record.e2e_s)
        record.ratios = layers.ratios(tracer)
        if record.layers["solve.max_rel_residual"] > SOLVE_RTOL:
            record.problems.append(f"solve residual {record.layers['solve.max_rel_residual']:.3g}"
                                   f" above {SOLVE_RTOL:g}")
    return record


def set_up(workload, work: Path, seed: int):
    """Write the seeded inputs and warm up on a small mesh, ``SETUP_REPEATS``
    times; returns the first inputs and every set-up time."""
    from workloads import Outputs

    times, first = [], None
    for i in range(SETUP_REPEATS):
        directory = work / f"setup{i}"
        warm_dir = directory / "warm"
        warm_dir.mkdir(parents=True)
        start = time.perf_counter()
        inputs = workload.setup(directory, seed)
        warm = dataclasses.replace(workload, subdivisions=WARM_SUBDIVISIONS)
        warm.run(warm.setup(warm_dir, seed), Outputs())
        times.append(time.perf_counter() - start)
        shutil.rmtree(warm_dir)
        if first is None:
            first = inputs
        else:
            shutil.rmtree(directory)
    return first, times


def measure(workload, inputs, seconds: float, trace: bool) -> list[RunRecord]:
    records: list[RunRecord] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(records) % 2 == 0
        record = one_run(workload, inputs, traced)
        reference = next((r for r in records if r.ok), None)
        if record.ok and reference is not None and (record.digests, record.quality) != (
                reference.digests, reference.quality):
            record.problems.append("outputs differ from the first run")
        records.append(record)
        status = "ok" if record.ok else "FAILED: " + "; ".join(record.problems)
        digests = " ".join(f"{k}={v}" for k, v in record.digests.items())
        print(f"run {len(records)} {'traced' if traced else 'untraced'}: "
              f"{record.e2e_s:.4f} s {status} {digests}")
        enough = len(records) >= max(workload.min_runs, 2 if trace else 1)
        if time.perf_counter() - start >= seconds and enough:
            return records


def _median_or_none(values):
    return median(values) if values else None


def end_to_end(records, setup_times, peak_rss_mb) -> dict:
    failed = sum(not r.ok for r in records)
    return {
        "e2e_s": (_median_or_none([r.e2e_s for r in records if r.ok and not r.traced]), "s"),
        "setup_s": (median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
        "ok_frac": ((len(records) - failed) / len(records), "fraction"),
    }


def per_layer(records) -> dict:
    import layers
    traced = [r for r in records if r.ok and r.traced]
    untraced = [r.e2e_s for r in records if r.ok and not r.traced]
    units = {name: unit for name, unit, _ in layers.PER_LAYER}
    out = {}
    for name in units:
        values = [r.layers[name] for r in traced if name in r.layers]
        # peak RSS only grows in the first run of a process
        out[name] = max(values) if name == "wavelets.peak_rss_growth_mb" and values \
            else _median_or_none(values)
    out["trace.samples"] = float(len(traced))
    out["trace.e2e_untraced_s"] = _median_or_none(untraced)
    if out["trace.e2e_traced_s"] is not None and out["trace.e2e_untraced_s"] is not None:
        out["trace.overhead_s"] = out["trace.e2e_traced_s"] - out["trace.e2e_untraced_s"]
    return {name: (value, units[name]) for name, value in out.items()}


def print_report(records, metrics, trace: bool) -> None:
    import layers
    from workloads import QUALITY_UNITS

    ok = [r for r in records if r.ok]
    failed = len(records) - len(ok)
    if not trace:
        times = [r.e2e_s for r in ok]
        tail = tail_percentile(times)
        tail_text = (f"p{tail[0]:g} {tail[1]:.4f} s" if tail else
                     "no tail percentile (needs >= 20 runs for p50 with 10 beyond it)")
        notes = {"e2e_s": f"median of {len(times)} runs, closed loop with 1 client; {tail_text}",
                 "setup_s": f"median of {SETUP_REPEATS} set-ups (inputs + warm-up)",
                 "peak_rss_mb": "peak resident memory of this process (ru_maxrss)",
                 "ok_frac": "1 - failed_frac"}
    else:
        notes = {name: "derived from array shapes" for name, unit, _ in layers.PER_LAYER
                 if unit.endswith("-computed")}
        traced = [r for r in ok if r.traced]
        if traced:
            for name, ratio in traced[0].ratios.items():
                notes[name] = f"{ratio} in one run"
            notes["evaluation.useful_source_frac"] += " (base: Dijkstra sources run)"
        notes["trace.samples"] = f"traced runs; {sum(not r.traced for r in ok)} untraced"
        notes["trace.overhead_s"] = "median traced e2e minus median untraced e2e"
        notes["trace.unattributed_s"] = "e2e time outside every probed call"
    for name, (value, unit) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"metric {name:38s} {shown:>12s} {unit:13s} {notes.get(name, '')}")
    print(f"metric {'failed_frac':38s} {failed / len(records):12.6g} {'fraction':13s} "
          f"{failed} failed of {len(records)} attempted (exceptions plus failed checks)")
    if ok:
        for name, value in ok[0].quality.items():
            print(f"quality {name:37s} {value:12.6g} {QUALITY_UNITS[name]:13s} "
                  "identical in every run")
    if trace and ok:
        values = {name: value for name, (value, _) in metrics.items()}
        layer, seconds = layers.dominant_layer(values)
        span = max((layers.span_metric(t) for t in layers.PROBED), key=values.get)
        print(f"dominant layer: {layer} ({seconds:.4g} s self time of "
              f"{values['trace.e2e_traced_s']:.4g} s traced); dominant call: {span} "
              f"({values[span]:.4g} s)")


def run_workload(args) -> int:
    if not (SRC / "meshwavelets" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'meshwavelets'}; run from the root of "
              "a meshwavelets checkout", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import meshwavelets
    if Path(meshwavelets.__file__).resolve().parent != (SRC / "meshwavelets").resolve():
        print(f"error: imported {meshwavelets.__file__}, not the checkout's source",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    facts = " ".join(f"{k}={v}" for k, v in workload.facts().items())
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print(f"env: nproc={nproc()} cpu_count={os.cpu_count()} "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']} {blas_report()} "
          f"python={platform.python_version()} platform={platform.platform()}")
    print(f"inputs: {facts} seed={args.seed}")
    work = WORK / f"{workload.name}-seed{args.seed}-pid{os.getpid()}"
    try:
        inputs, setup_times = set_up(workload, work, args.seed)
        print("setup: " + " ".join(f"{t:.4f}" for t in setup_times) + " s")
        records = measure(workload, inputs, args.seconds, bool(args.trace))
        peak = maxrss_mb()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    metrics = per_layer(records) if args.trace else end_to_end(records, setup_times, peak)
    print_report(records, metrics, bool(args.trace))
    failed = sum(not r.ok for r in records)
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so each peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                               timeout=CHILD_TIMEOUT_S, check=False)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"{name}: exited with code {child.returncode}", file=sys.stderr)
            code = child.returncode or 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    if code == 0:
        print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
