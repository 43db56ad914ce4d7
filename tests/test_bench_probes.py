"""The benchmark's layer probes name functions that exist.

``perfbench/layers.py`` probes package functions by dotted name, and the
untraced benchmark wraps only the few it captures, so a renamed or deleted
probe would show only in a traced run. ``PROBED`` is read with ``ast``;
nothing under ``perfbench/`` is imported.
"""
import ast
import importlib
import inspect
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def probed():
    for node in ast.parse(LAYERS.read_text()).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PROBED"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no PROBED tuple in {LAYERS}")


def resolve(target):
    module, *attrs = target.split(".")
    obj = importlib.import_module(f"meshwavelets.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_probed_names_are_listed():
    assert len(probed()) >= 20


@pytest.mark.parametrize("target", probed())
def test_probed_name_resolves(target):
    assert callable(resolve(target)), target


# positional arguments the probes' counters read
@pytest.mark.parametrize("target, position, name", [
    ("geodesics.geodesic_distances_multi", 1, "sources"),
    ("evaluation.geodesic_errors", 0, "pm"),
    ("evaluation.geodesic_errors", 1, "gt"),
    ("solve.SpdSystem.solve", 1, "rhs"),
    ("wavelets.save_dictionary", 1, "path"),
    ("matching.reconstruct_delta_map", 0, "dictionary"),
    ("matching.nearest_rows", 0, "queries"),
    ("matching.nearest_rows", 1, "points"),
])
def test_counted_arguments_keep_their_positions(target, position, name):
    assert target in probed()
    assert list(inspect.signature(resolve(target)).parameters)[position] == name
