"""Maps are portable across OpenBLAS kernels; dictionaries agree within a tolerance.

Two child processes run the same selfmatch and pairmatch pipelines under
different ``OPENBLAS_CORETYPE`` values. Different kernels sum in different
orders, so dictionary entries may differ in their last bits; the maps are
argmaxes and argmins whose margins are far wider than that, so they must be
equal.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from meshwavelets import matching

SRC = Path(__file__).resolve().parents[1] / "src"
CORES = ("Haswell", "Prescott")
# largest entry difference allowed between the two kernels' dictionaries, whose
# columns are range-normalized (entries within [-1, 1]); one host read 3e-14
DICTIONARY_TOL = 1e-12
N_SAMPLES, N_SCALES = 6, 25

CHILD = f"""
import ctypes, glob, json, os, sys
import numpy as np
import scipy, scipy.linalg
from meshwavelets import (Shape, build_dictionary, reconstruct_delta_map, sample,
                          transfer_pointmap)
from meshwavelets.synthetic import jittered_icosphere, stretched_icosphere

out = sys.argv[1]
libs = glob.glob(os.path.join(os.path.dirname(scipy.__file__) + ".libs", "libscipy_openblas*"))
core = None
if libs:
    lib = ctypes.CDLL(libs[0])
    get = getattr(lib, "scipy_openblas_get_corename", None)
    if get is not None:
        get.restype, get.argtypes = ctypes.c_char_p, []
        core = get().decode()
source = Shape(jittered_icosphere(4, seed=301))
target = Shape(stretched_icosphere(4, seed=301))
samples = sample(source, {N_SAMPLES}, seed=0)
d_source = build_dictionary(source.lap, samples, n_scales={N_SCALES}, t_max=1.0)
d_target = build_dictionary(target.lap, samples, n_scales={N_SCALES}, t_max=1.0)
np.savez(os.path.join(out, "run.npz"), source=d_source.columns, target=d_target.columns,
         selfmatch=reconstruct_delta_map(d_source).targets,
         pairmatch=transfer_pointmap(d_source, d_target).targets)
print(json.dumps({{"core": core}}))
"""


def _run(core: str, out: Path) -> dict:
    out.mkdir()
    env = {**os.environ, "OPENBLAS_CORETYPE": core,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    child = subprocess.run([sys.executable, "-c", CHILD, str(out)], env=env,
                           capture_output=True, text=True, timeout=300)
    assert child.returncode == 0, child.stderr
    return {**json.loads(child.stdout.splitlines()[-1]), **np.load(out / "run.npz")}


def test_maps_equal_and_dictionaries_close_across_blas_kernels(tmp_path):
    # 2562 vertices and 150 columns: the selfmatch reconstruction takes the rank route
    assert 2562 >= matching._TALL * N_SAMPLES * N_SCALES
    runs = [_run(core, tmp_path / core) for core in CORES]
    cores = [run["core"] for run in runs]
    if None in cores:
        pytest.skip("scipy's OpenBLAS does not report its core name")
    if cores[0] == cores[1]:
        pytest.skip(f"OPENBLAS_CORETYPE={CORES[0]} and {CORES[1]} both ran the "
                    f"{cores[0]} kernel: this BLAS ignores the variable or lacks the core")
    for name in ("selfmatch", "pairmatch"):
        np.testing.assert_array_equal(runs[0][name], runs[1][name], err_msg=name)
    for name in ("source", "target"):
        assert np.abs(runs[0][name] - runs[1][name]).max() <= DICTIONARY_TOL, name
