"""Tests of the benchmark's own metric code.

Run from the root of a checkout: ``python3 -m pytest perfbench``.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from benchstats import Ratio, median, tail_percentile  # noqa: E402
from meshwavelets.matching import PointMap  # noqa: E402
from meshwavelets.solve import SpdSystem  # noqa: E402
from spans import BOOKKEEPING, Probe, Tracer, _wrap, instrument  # noqa: E402


def test_median_of_odd_and_even_counts():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5
    with pytest.raises(ValueError):
        median([])


@pytest.mark.parametrize("n, percentile", [(19, None), (20, 50.0), (40, 75.0),
                                           (100, 90.0), (200, 95.0), (1000, 99.0),
                                           (10000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond(n, percentile):
    values = list(range(n, 0, -1))  # unsorted input
    result = tail_percentile(values)
    if percentile is None:
        assert result is None
        return
    p, value = result
    assert p == percentile
    assert sum(v > value for v in values) >= 10
    assert value == sorted(values)[round(p * n / 100) - 1]  # exact ranks in these cases


def test_ratio_keeps_its_base():
    r = Ratio(3, 12)
    assert r.value == 0.25
    assert str(r) == "0.25 (3 of 12)"
    assert Ratio(0, 0).value == 0.0


def _fake_clock(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_subtracts_direct_children_only():
    # outer [0, 10] > child [1, 4] > grandchild [2, 3]; second child [5, 6]
    tracer = Tracer(clock=_fake_clock([0, 1, 2, 3, 4, 5, 6, 10]))
    with tracer.span("outer"):
        with tracer.span("child"):
            with tracer.span("grandchild"):
                pass
        with tracer.span("child"):
            pass
    assert tracer.self_times() == {"outer": 6, "child": 3, "grandchild": 1}
    assert tracer.top_level_seconds() == 10
    assert [s.parent for s in tracer.spans] == [None, 0, 1, 0]


def test_bookkeeping_is_not_the_callers_self_time():
    # caller [0, 9] > probed call [1, 2], then the probe's hook [5, 7]
    tracer = Tracer(clock=_fake_clock([0, 1, 2, 5, 7, 9]))
    hooked = []
    probe = Probe("mesh.total_area", count=lambda a, k, r: hooked.append(r))
    wrapped = _wrap(lambda: 42, probe, tracer)
    with tracer.span("caller"):
        assert wrapped() == 42
    assert hooked == [42]
    assert tracer.self_times() == {"caller": 6, "mesh.total_area": 1, BOOKKEEPING: 2}


def _package_callables():
    state = {(name, attr): value for name, module in sys.modules.items()
             if name == "meshwavelets" or name.startswith("meshwavelets.")
             for attr, value in vars(module).items() if callable(value)}
    state[("SpdSystem", "solve")] = SpdSystem.__dict__["solve"]
    return state


def test_traced_run_records_layers_and_restores_functions(tmp_path):
    workload = workloads.SelfMatch(subdivisions=2)
    inputs = workload.setup(tmp_path, seed=0)
    before = _package_callables()
    record = run.one_run(workload, inputs, traced=True)
    after = _package_callables()
    assert record.ok, record.problems
    assert all(after[key] is value for key, value in before.items())
    m = record.layers
    assert m["experiments.run_experiment_s"] > 0
    assert m["solve.solve_calls"] == workload.scales
    assert m["solve.rhs_columns"] == workload.scales * workload.samples
    assert 0 < m["geodesics.sources"] <= workload.n_vertices
    assert m["geodesics.dist_bytes"] == m["geodesics.sources"] * workload.n_vertices * 8
    assert 0 <= m["evaluation.useful_source_frac"] <= 1
    assert 0 <= m["trace.unattributed_s"] < m["trace.e2e_traced_s"]
    assert m["cli.main_s"] == 0


def test_functions_restored_after_an_exception():
    before = _package_callables()

    def boom(args, kwargs, result):
        raise RuntimeError("hook failed")

    from meshwavelets import mesh, synthetic
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with instrument(layers.PACKAGE, layers.probes(tracer.counters,
                                                      {"mesh.normalize_unit_area": boom}),
                        tracer):
            mesh.normalize_unit_area(synthetic.icosphere(1))
    after = _package_callables()
    assert all(after[key] is value for key, value in before.items())


def test_useful_sources_are_counted_over_the_sources_dijkstra_ran():
    pm = PointMap(targets=np.array([0, 0, 2, 3]), target_size=4)
    gt = PointMap(targets=np.array([0, 1, 2, 1]), target_size=4)
    tracer = Tracer()
    hooks = {p.target: p.count for p in layers.probes(tracer.counters)}
    sources = np.array([0, 2, 3])
    hooks["geodesics.geodesic_distances_multi"]((None, sources), {}, np.zeros((3, 4)))
    hooks["evaluation.geodesic_errors"]((pm, gt, None), {}, None)
    r = layers.ratios(tracer)
    assert (r["evaluation.exact_hit_frac"].part, r["evaluation.exact_hit_frac"].base) == (2, 4)
    # source 2 is an end of the exact hit (2, 2) only; 0 and 3 end pairs that miss
    assert (r["evaluation.useful_source_frac"].part,
            r["evaluation.useful_source_frac"].base) == (2, 3)
    assert tracer.counters["geodesics.dist_bytes"] == 3 * 4 * 8


def test_benchmark_json_matches_what_the_runs_print():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in bench["workloads"]] == [
        (w.name, w.why) for w in workloads.WORKLOADS.values()]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] == list(
        layers.PER_LAYER)
    e2e = run.end_to_end([run.RunRecord(traced=False, e2e_s=1.0)], [0.5], 100.0)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == [
        (name, unit) for name, (_, unit) in e2e.items()]


def test_refuses_to_run_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "pairmatch-2.5k",
                            "--seed", "0", "--seconds", "1", "--trace", "0"],
                           cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
