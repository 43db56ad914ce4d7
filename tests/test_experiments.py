import collections
import re
import sys

import numpy as np
import pytest

from meshwavelets import (DataError, NumericalError, TriangleMesh, experiments, geodesics, mesh,
                          parse_config, run_experiment, solve, write_off)
from meshwavelets.cli import main
from meshwavelets.experiments import _CHOICES, _DEFAULTS, _SCHEMAS, resolve_config
from meshwavelets.synthetic import jittered_icosphere, stretched_icosphere


@pytest.fixture(scope="module")
def mesh_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("meshes") / "jitter162.off"
    write_off(jittered_icosphere(2, seed=4), path)
    return path


@pytest.fixture(scope="module")
def pair_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("pair")
    src = root / "src.off"
    dst = root / "dst.off"
    write_off(jittered_icosphere(2, seed=4), src)
    write_off(stretched_icosphere(2, seed=4), dst)
    return src, dst


def write_config(tmp_path, text):
    path = tmp_path / "config.txt"
    path.write_text(text)
    return path


class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "experiment=selfmatch\nout_dir=o\nbogus=1\n")
        with pytest.raises(DataError, match="bogus"):
            parse_config(path)

    def test_unknown_experiment_rejected(self, tmp_path):
        path = write_config(tmp_path, "experiment=nope\nout_dir=o\n")
        with pytest.raises(DataError, match="unknown experiment"):
            parse_config(path)

    def test_duplicate_key_rejected(self, tmp_path):
        path = write_config(tmp_path, "experiment=selfmatch\nout_dir=o\nout_dir=p\n")
        with pytest.raises(DataError, match="duplicate"):
            parse_config(path)

    def test_missing_required_rejected(self, tmp_path):
        path = write_config(tmp_path, "experiment=selfmatch\nout_dir=o\n")
        with pytest.raises(DataError, match="mesh"):
            parse_config(path)
        # refused while the config resolves, before out_dir exists
        path = write_config(tmp_path, f"experiment=pairmatch\nout_dir={tmp_path}/o\n"
                                      "mesh_source=a.off\n")
        with pytest.raises(DataError, match="missing required key 'mesh_target'"):
            run_experiment(path)
        assert not (tmp_path / "o").exists()

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path,
                            "experiment=selfmatch\nout_dir=o\nmesh=m\nsamples=four\n")
        with pytest.raises(DataError, match="samples"):
            parse_config(path)

    @pytest.mark.parametrize("kind, line, allowed", [
        ("selfmatch", "baseline=LBO", "['lbo', 'none']"),
        ("pairmatch", "baseline=eigen", "['lbo', 'none']"),
        ("pairmatch", "dictionary=wavelets", "['wavelet', 'heat']"),
        ("pairmatch", "dictionary=wavelet,heet", "['wavelet', 'heat']"),
        ("selfmatch", "strategy=fps-euclidean,fps-geodezic",
         "['fps-euclidean', 'fps-geodesic', 'random']"),
        ("wavelets", "strategy=fps", "['fps-euclidean', 'fps-geodesic', 'random']"),
    ])
    def test_unknown_choice_rejected(self, tmp_path, kind, line, allowed):
        meshes = "mesh_source=a\nmesh_target=b\n" if kind == "pairmatch" else "mesh=m\n"
        path = write_config(tmp_path, f"experiment={kind}\nout_dir={tmp_path}/o\n"
                                      f"{meshes}{line}\n")
        key = line.split("=")[0]
        with pytest.raises(DataError, match=re.escape(f"{key!r}") + ".*" + re.escape(allowed)):
            run_experiment(path)
        assert not (tmp_path / "o").exists()

    def test_every_string_key_is_a_path_or_a_closed_set(self):
        paths = {"mesh", "mesh_source", "mesh_target", "landmarks_source", "landmarks_target",
                 "gt_map"}
        for kind, schema in _SCHEMAS.items():
            for key, typ in schema.items():
                if typ in (str, [str]):
                    assert key in paths or key in _CHOICES, (kind, key)

    @pytest.mark.parametrize("kind, line, key", [
        ("selfmatch", "samples=2,2.5", "samples"),
        ("pairmatch", "displaced=1.5", "displaced"),
        ("pairmatch", "scales=2.5", "scales"),
        ("pairmatch", "noise_radius=abc", "noise_radius"),
        ("pairmatch", "rho=abc", "rho"),
        ("selfmatch", "samples=", "samples"),
        ("selfmatch", "strategy= , ", "strategy"),
        ("pairmatch", "displaced=", "displaced"),
        ("pairmatch", "noise_radius=", "noise_radius"),
        ("pairmatch", "scales=", "scales"),
        ("selfmatch", "tmax=", "tmax"),
    ])
    def test_bad_typed_value_rejected(self, tmp_path, kind, line, key):
        meshes = "mesh_source=a\nmesh_target=b\n" if kind == "pairmatch" else "mesh=m\n"
        path = write_config(tmp_path, f"experiment={kind}\nout_dir={tmp_path}/o\n"
                                      f"{meshes}{line}\n")
        with pytest.raises(DataError, match=repr(key)):
            run_experiment(path)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("samples", 2.5), ("scales", 6.9),
                                            ("seed", 1.5), ("samples", float("nan")),
                                            ("samples", [4, 2.5])])
    def test_fractional_number_for_int_key_rejected(self, key, value):
        with pytest.raises(DataError, match=repr(key)):
            resolve_config({"experiment": "selfmatch", "out_dir": "o", "mesh": "m",
                            key: value})

    def test_integral_float_for_int_key_accepted(self):
        config = resolve_config({"experiment": "selfmatch", "out_dir": "o", "mesh": "m",
                                 "samples": 2.0, "scales": [3.0, 4], "seed": 3.0})
        assert (config["samples"], config["scales"], config["seed"]) == ([2], [3, 4], 3)
        assert type(config["seed"]) is int
        assert all(type(item) is int for item in config["samples"] + config["scales"])

    @pytest.mark.parametrize("kind, key", [("selfmatch", "samples"),
                                           ("pairmatch", "displaced")])
    def test_resolved_default_lists_are_not_shared(self, kind, key):
        meshes = ({"mesh": "m"} if kind == "selfmatch"
                  else {"mesh_source": "m", "mesh_target": "m"})
        first = resolve_config({"experiment": kind, "out_dir": "o", **meshes})
        default = list(first[key])
        first[key].append(99)
        second = resolve_config({"experiment": kind, "out_dir": "o", **meshes})
        assert second[key] == default == [_DEFAULTS[key]]

    @pytest.mark.parametrize("kind", sorted(_SCHEMAS))
    def test_every_kind_resolves_typed(self, kind):
        schema = _SCHEMAS[kind]
        required = {key: "m" for key in schema if key not in _DEFAULTS}
        config = resolve_config({"experiment": kind, "out_dir": "o", **required})
        assert set(config) == set(schema) | {"experiment", "out_dir", "seed"}
        assert resolve_config(config) == config
        for key, typ in schema.items():
            if isinstance(typ, list):
                assert all(type(item) is typ[0] for item in config[key]), key
                text = ",".join(str(item) for item in config[key])
                parsed = resolve_config({**config, key: text})[key]
                assert parsed == config[key]
                assert all(type(item) is typ[0] for item in parsed), key

    def test_malformed_line_rejected(self, tmp_path):
        path = write_config(tmp_path, "experiment selfmatch\n")
        with pytest.raises(DataError, match="key=value"):
            parse_config(path)

    def test_defaults_and_lists(self, tmp_path):
        path = write_config(tmp_path, (
            "experiment=pairmatch\nout_dir=o\nmesh_source=m\nmesh_target=m\n"
            "noise_radius=0.01, 0.05\ndisplaced=1,2\nscales=3\n"))
        config = parse_config(path)
        assert config["noise_radius"] == [0.01, 0.05]
        assert config["displaced"] == [1, 2]
        assert config["scales"] == [3]
        assert config["tmax"] == [1.0]
        assert config["seed"] == 0

    def test_comments_and_blank_lines(self, tmp_path):
        path = write_config(tmp_path, (
            "# a comment\n\nexperiment=selfmatch\nout_dir=o\nmesh=m\n"))
        assert parse_config(path)["experiment"] == "selfmatch"

    def test_dict_config_is_validated(self, tmp_path, pair_files):
        src, dst = pair_files
        with pytest.raises(DataError, match=re.escape("['wavelet', 'heat']")):
            run_experiment({"experiment": "pairmatch", "out_dir": str(tmp_path / "o"),
                            "mesh_source": str(src), "mesh_target": str(dst),
                            "dictionary": "bogus"})
        assert not (tmp_path / "o").exists()

    def test_resolve_config_is_idempotent(self, tmp_path):
        config = resolve_config({"experiment": "pairmatch", "out_dir": str(tmp_path),
                                 "mesh_source": "m", "mesh_target": "m",
                                 "noise_radius": "0.01,0.05",
                                 "tmax": "2"})
        assert resolve_config(config) == config

    def test_missing_mesh_file_reported(self, tmp_path):
        config = resolve_config({"experiment": "selfmatch", "out_dir": str(tmp_path / "o"),
                                 "mesh": str(tmp_path / "nope.off")})
        with pytest.raises(DataError, match="not found"):
            run_experiment(config)
        assert not (tmp_path / "o").exists()

    def test_missing_landmark_file_reported(self, tmp_path, pair_files):
        src, dst = pair_files
        missing = str(tmp_path / "nope.txt")
        config = resolve_config({"experiment": "pairmatch", "out_dir": str(tmp_path / "o"),
                                 "mesh_source": str(src), "mesh_target": str(dst),
                                 "landmarks_source": missing, "landmarks_target": missing})
        with pytest.raises(DataError, match="landmark file not found"):
            run_experiment(config)
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("kind", sorted(_SCHEMAS))
@pytest.mark.parametrize("under", [False, True])
def test_unusable_out_dir_refused_before_any_mesh_is_read(tmp_path, mesh_file, pair_files,
                                                         monkeypatch, capsys, kind, under):
    # an out_dir that names a file, or lies under one, can never be made: the
    # config is refused before any mesh is read, and nothing is created
    taken = tmp_path / "taken"
    taken.write_text("")
    out_dir = taken / "o" if under else taken
    meshes = {"mesh": mesh_file, "mesh_source": pair_files[0], "mesh_target": pair_files[1]}
    config = write_config(tmp_path, f"experiment={kind}\nout_dir={out_dir}\n" + "".join(
        f"{key}={path}\n" for key, path in meshes.items() if key in _SCHEMAS[kind]))
    loads = []
    monkeypatch.setattr(experiments, "load_mesh", lambda *args: loads.append(args))
    before = sorted(tmp_path.rglob("*"))
    assert main(["experiment", "run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (f"data error: {config}: out_dir '{out_dir}' is or "
                                       "lies under a non-directory\n")
    assert loads == [] and sorted(tmp_path.rglob("*")) == before


class TestSelfmatchExperiment:
    def test_outputs_and_determinism(self, tmp_path, mesh_file):
        text = (f"experiment=selfmatch\nout_dir={tmp_path}/out\nmesh={mesh_file}\n"
                "samples=4\nscales=8\ntmax=0.5\nseed=3\n")
        path = write_config(tmp_path, text)
        summary = run_experiment(path)
        out = tmp_path / "out"
        assert (out / "curve.csv").exists()
        assert (out / "map.txt").exists()
        # a one-item list echoes as the scalar it was given
        assert {"config.samples=4", "config.tmax=0.5"} <= set(
            (out / "summary.txt").read_text().splitlines())
        assert 0 <= summary["auc_025"] <= 1
        assert summary["mean_error"] >= 0
        assert summary["baseline_mean_error"] >= 0  # eigenbasis comparison
        first_curve = (out / "curve.csv").read_bytes()
        first_map = (out / "map.txt").read_bytes()
        run_experiment(path)
        assert (out / "curve.csv").read_bytes() == first_curve
        assert (out / "map.txt").read_bytes() == first_map

    def test_curve_schema_tag(self, tmp_path, mesh_file):
        config = resolve_config({"experiment": "selfmatch", "out_dir": str(tmp_path / "o"),
                                 "mesh": str(mesh_file), "samples": "4",
                                 "scales": "6", "tmax": "0.5"})
        run_experiment(config)
        lines = (tmp_path / "o" / "curve.csv").read_text().splitlines()
        assert lines[0] == "# schema=curve/1"
        assert lines[1] == "threshold,fraction"

    def test_lbo_baseline_above_the_dense_cap(self, tmp_path):
        # 10242 vertices: the truncated eigensolve is sparse, so nothing is skipped
        path = tmp_path / "jitter10k.off"
        write_off(jittered_icosphere(5, seed=2), path)
        summary = run_experiment(resolve_config({
            "experiment": "selfmatch", "out_dir": str(tmp_path / "o"), "mesh": str(path),
            "samples": "6", "scales": "6", "tmax": "0.5"}))
        assert 0 <= summary["baseline_auc_025"] <= 1
        assert "baseline" not in summary


class TestPairmatchExperiment:
    def test_identity_gt_pair(self, tmp_path, pair_files):
        src, dst = pair_files
        config = resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "o"),
            "mesh_source": str(src), "mesh_target": str(dst),
            "samples": "5", "scales": "10", "tmax": "0.1",
        })
        summary = run_experiment(config)
        assert 0 <= summary["auc_025"] <= 1
        assert summary["rho_source"] == 1.0  # source is the smaller shape
        assert 0 < summary["rho_target"] <= 1.0
        assert "baseline_mean_error" in summary

    def test_baseline_none(self, tmp_path, pair_files):
        src, dst = pair_files
        config = resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "ob"),
            "mesh_source": str(src), "mesh_target": str(dst),
            "samples": "4", "scales": "6", "tmax": "0.1", "baseline": "none",
        })
        summary = run_experiment(config)
        assert "baseline_mean_error" not in summary

    def test_landmark_files(self, tmp_path, pair_files):
        src, dst = pair_files
        lm = tmp_path / "lm.txt"
        lm.write_text("3\n77\n130\n9\n")
        config = resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "o2"),
            "mesh_source": str(src), "mesh_target": str(dst),
            "landmarks_source": str(lm), "landmarks_target": str(lm),
            "scales": "8", "tmax": "0.1",
        })
        summary = run_experiment(config)
        assert (tmp_path / "o2" / "map.txt").exists()
        assert summary["mean_error"] >= 0

    def test_half_specified_landmarks_rejected(self, tmp_path, pair_files):
        src, dst = pair_files
        lm = tmp_path / "lm.txt"
        lm.write_text("3\n77\n")
        config = resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "o3"),
            "mesh_source": str(src), "mesh_target": str(dst),
            "landmarks_source": str(lm), "scales": "4", "tmax": "0.1",
        })
        with pytest.raises(DataError, match="landmarks_source and landmarks_target"):
            run_experiment(config)

    def test_landmark_counts_must_match(self, tmp_path, pair_files):
        src, dst = pair_files
        (tmp_path / "a.txt").write_text("3\n77\n130\n")
        (tmp_path / "b.txt").write_text("3\n77\n")
        config = resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "o4"),
            "mesh_source": str(src), "mesh_target": str(dst),
            "landmarks_source": str(tmp_path / "a.txt"),
            "landmarks_target": str(tmp_path / "b.txt"), "scales": "4", "tmax": "0.1",
        })
        with pytest.raises(DataError, match="landmark counts differ: 3 vs 2"):
            run_experiment(config)

    def test_relabelled_target_takes_the_ground_truth_images(self, tmp_path):
        # without landmark files the target's samples are the ground truth's
        # images of the source's, so relabelling the target's vertices (and
        # the ground truth with them) leaves the score where it was
        source, target = jittered_icosphere(3, seed=4), stretched_icosphere(3, seed=4)
        order = np.random.default_rng(0).permutation(target.n_vertices)
        new_index = np.argsort(order)  # old vertex i is new vertex new_index[i]
        relabelled = TriangleMesh(target.vertices[order], new_index[target.faces])
        write_off(source, tmp_path / "src.off")
        aucs = []
        for name, mesh, gt in (("plain", target, np.arange(target.n_vertices)),
                               ("relabelled", relabelled, new_index)):
            write_off(mesh, tmp_path / f"{name}.off")
            (tmp_path / f"{name}.txt").write_text("".join(f"{i}\n" for i in gt))
            aucs.append(run_experiment(resolve_config({
                "experiment": "pairmatch", "out_dir": str(tmp_path / name),
                "mesh_source": str(tmp_path / "src.off"),
                "mesh_target": str(tmp_path / f"{name}.off"),
                "gt_map": str(tmp_path / f"{name}.txt"), "samples": "10", "tmax": "0.1",
                "baseline": "none", "seed": "1"}))["auc_025"])
        assert aucs[0] > 0.9
        assert aucs[1] == pytest.approx(aucs[0], abs=0.01)

    def test_colliding_ground_truth_images_rejected(self, tmp_path, pair_files):
        src, dst = pair_files
        gt = tmp_path / "gt.txt"
        gt.write_text("0\n" * 162)
        config = resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "o"),
            "mesh_source": str(src), "mesh_target": str(dst), "gt_map": str(gt),
            "samples": "4", "scales": "4", "tmax": "0.1", "baseline": "none",
        })
        with pytest.raises(DataError, match="^gt_map takes two source samples to the same "
                                            "target vertex$"):
            run_experiment(config)
        assert not (tmp_path / "o").exists()


    @pytest.mark.parametrize("key, values", [("samples", "2,4,8"),
                                             ("strategy", "fps-euclidean,random")])
    def test_landmark_files_take_one_samples_and_strategy(self, tmp_path, pair_files,
                                                          monkeypatch, key, values):
        # landmark files fix the samples, so a sweep over samples or strategy
        # would write identical rows under different labels
        def no_work(*args, **kwargs):
            raise AssertionError("a dictionary was built")
        monkeypatch.setattr(experiments, "build_dictionary", no_work)
        src, dst = pair_files
        lm = tmp_path / "lm.txt"
        lm.write_text("3\n77\n130\n9\n")
        config = resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "o5"),
            "mesh_source": str(src), "mesh_target": str(dst),
            "landmarks_source": str(lm), "landmarks_target": str(lm),
            "scales": "4", "tmax": "0.1", "baseline": "none", key: values,
        })
        with pytest.raises(DataError, match="with landmark files, samples and strategy take "
                                            "one value"):
            run_experiment(config)
        assert not (tmp_path / "o5" / "sweep.csv").exists()


class TestWaveletComparisonExperiment:
    def test_csv_and_ordering(self, tmp_path, mesh_file, monkeypatch):
        # 5 * 32 < 162 vertices, so the truncated route is the sparse one
        monkeypatch.setattr(experiments, "TRUNCATION", 32)
        config = resolve_config({
            "experiment": "wavelets", "out_dir": str(tmp_path / "o"),
            "mesh": str(mesh_file), "samples": "3", "scales": "6", "tmax": "0.2",
        })
        summary = run_experiment(config)
        lines = (tmp_path / "o" / "wavelet_errors.csv").read_text().splitlines()
        assert lines[0] == "# schema=wavelet-errors/1"
        assert lines[1].split(",") == ["scale", "time", "l2_ours", "linf_ours",
                                       "l2_truncated", "linf_truncated",
                                       "l2_heat", "linf_heat"]
        assert len(lines) == 2 + 6
        values = lines[2].split(",")
        assert int(values[0]) == 1
        assert all(float(v) >= 0 for v in values[1:])
        # the diffusion construction tracks the ground truth far better than
        # the heat-kernel family, which is not a Mexican hat at all
        assert summary["l2_ours"] < summary["l2_heat"]

    def test_mesh_above_the_dense_cap_refused_before_any_timed_route(
            self, tmp_path, mesh_file, monkeypatch):
        # the ground truth's full eigensolve refuses the 162-vertex mesh under a
        # cap of 100 before any dictionary is built or eigenpair truncated
        monkeypatch.setattr(experiments, "TRUNCATION", 40)
        monkeypatch.setattr(solve, "DENSE_EIG_CAP", 100)
        built = []
        monkeypatch.setattr(experiments, "build_dictionary",
                            lambda *args, **kwargs: built.append(args))
        config = resolve_config({"experiment": "wavelets", "out_dir": str(tmp_path / "o"),
                                 "mesh": str(mesh_file), "samples": "3", "scales": "6"})
        with pytest.raises(ValueError, match="above the dense-eigensolver cap 100"):
            run_experiment(config)
        assert built == []
        assert not (tmp_path / "o").exists()

    def test_mesh_without_more_vertices_than_the_truncation_refused(
            self, tmp_path, mesh_file, monkeypatch):
        # 162 <= 300 vertices: the 300-eigenpair baseline would be the dense
        # oracle again, so the mesh is refused before sampling or any eigensolve
        calls = []
        for name in ("generalized_eigs", "sample"):
            monkeypatch.setattr(experiments, name,
                                lambda *args, name=name, **kwargs: calls.append(name))
        config = resolve_config({"experiment": "wavelets", "out_dir": str(tmp_path / "o"),
                                 "mesh": str(mesh_file)})
        with pytest.raises(DataError, match="truncated baseline uses 300 eigenpairs"):
            run_experiment(config)
        assert calls == []
        assert not (tmp_path / "o").exists()


def sweep_rows(out_dir):
    lines = (out_dir / "sweep.csv").read_text().splitlines()
    assert lines[0] == "# schema=sweep/1"
    return [line.split(",") for line in lines[1:]]


class TestSweepExperiments:
    """The robustness sweeps are list values on the matching kinds' keys."""

    def test_sampling_sweep(self, tmp_path, mesh_file):
        # rows of the former `sampling` kind (sample_counts=2,4,
        # strategies=fps-euclidean,random) on the same mesh and settings
        summary = run_experiment(resolve_config({
            "experiment": "selfmatch", "out_dir": str(tmp_path / "o"),
            "mesh": str(mesh_file), "samples": "2,4",
            "strategy": "fps-euclidean,random", "scales": "8", "tmax": "0.5",
            "baseline": "none",
        }))
        assert summary["rows"] == 4
        assert not (tmp_path / "o" / "map.txt").exists()
        assert sweep_rows(tmp_path / "o") == [
            ["samples", "scales", "tmax", "strategy", "mean_error", "auc_025"],
            ["2", "8", "0.5", "fps-euclidean", "0.15193186667418773", "0.7839506172839507"],
            ["2", "8", "0.5", "random", "0.1756593654566576", "0.8024691358024691"],
            ["4", "8", "0.5", "fps-euclidean", "0.011977386631358621", "1.0"],
            ["4", "8", "0.5", "random", "0.01827074420775443", "1.0"],
        ]
        assert "rows=4" in (tmp_path / "o" / "summary.txt").read_text().splitlines()

    def test_noise_sweep(self, tmp_path, pair_files):
        # rows of the former `noise` kind (displace_counts=1,2,
        # noise_radii=0.05,0.2, scales_list=4) on the same pair and settings
        src, dst = pair_files
        summary = run_experiment(resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "o"),
            "mesh_source": str(src), "mesh_target": str(dst), "samples": "5",
            "displaced": "1,2", "noise_radius": "0.05,0.2", "scales": "4",
            "tmax": "0.2", "baseline": "none",
        }))
        assert summary == {"rows": 4, "elapsed_seconds": summary["elapsed_seconds"],
                           "out_dir": str(tmp_path / "o")}
        assert [row[4:] for row in sweep_rows(tmp_path / "o")] == [
            ["dictionary", "displaced", "noise_radius", "moved", "mean_error", "auc_025"],
            ["wavelet", "1", "0.05", "0", "0.07325429229803737", "1.0"],
            ["wavelet", "1", "0.2", "1", "0.09381065268925874", "0.9938271604938271"],
            ["wavelet", "2", "0.05", "0", "0.07325429229803737", "1.0"],
            ["wavelet", "2", "0.2", "2", "0.12081145308914495", "0.9814814814814815"],
        ]

    def test_noise_rows_say_how_many_samples_moved(self, tmp_path, pair_files):
        # on the 162-vertex pair a radius of 0.05 is under one edge, so no
        # sample moves and the rows differ only in `displaced`; a radius of 1
        # takes in the whole mesh
        src, dst = pair_files
        pair = {"experiment": "pairmatch", "mesh_source": str(src), "mesh_target": str(dst),
                "samples": "5", "scales": "4", "tmax": "0.2", "baseline": "none"}
        run_experiment(resolve_config({**pair, "out_dir": str(tmp_path / "o"),
                                       "displaced": "1,3", "noise_radius": "0.05,1"}))
        header, *rows = sweep_rows(tmp_path / "o")
        assert [row[5:8] for row in [header, *rows]] == [
            ["displaced", "noise_radius", "moved"],
            ["1", "0.05", "0"], ["1", "1.0", "1"], ["3", "0.05", "0"], ["3", "1.0", "3"]]
        assert rows[0][8:] == rows[2][8:]
        # at a radius of 0.2 every disc holds other vertices, so each displaced
        # sample moves
        for displaced, radius, moved in (("3", "0.05", 0), ("3", "1", 3), ("2", "0.2", 2)):
            one = run_experiment(resolve_config({**pair, "out_dir": str(tmp_path / radius),
                                                 "displaced": displaced,
                                                 "noise_radius": radius}))
            assert one["moved"] == moved

    def test_pairmatch_sweep_builds_each_dictionary_once(self, tmp_path, pair_files,
                                                        monkeypatch):
        # the target dictionary depends on (samples, strategy, scales, tmax,
        # dictionary) and the displaced samples on (samples, strategy,
        # displaced, noise_radius); one call per row would make 32 and 16, and
        # with dictionary after noise_radius the one-entry target cache would
        # miss on every row: 16 targets
        calls = collections.Counter()

        def counted(name):
            func = getattr(experiments, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return func(*args, **kwargs)
            monkeypatch.setattr(experiments, name, wrapper)

        counted("build_dictionary")
        counted("perturb_samples")
        src, dst = pair_files
        run_experiment(resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "o"),
            "mesh_source": str(src), "mesh_target": str(dst), "samples": "5",
            "scales": "3,4", "displaced": "1,2", "noise_radius": "0.05,0.2", "tmax": "0.2",
            "dictionary": "wavelet,heat", "baseline": "none",
        }))
        assert calls == {"build_dictionary": 20, "perturb_samples": 4}
        # each kind's rows as a one-kind sweep computed them before dictionary
        # became a list key
        assert [row[2:] for row in sweep_rows(tmp_path / "o")] == [
            ["scales", "tmax", "dictionary", "displaced", "noise_radius", "moved",
             "mean_error", "auc_025"],
            ["3", "0.2", "wavelet", "1", "0.05", "0", "0.07168608634498008", "1.0"],
            ["3", "0.2", "wavelet", "1", "0.2", "1", "0.08973606272161899", "0.9938271604938271"],
            ["3", "0.2", "wavelet", "2", "0.05", "0", "0.07168608634498008", "1.0"],
            ["3", "0.2", "wavelet", "2", "0.2", "2", "0.11960877954297276", "0.9753086419753086"],
            ["3", "0.2", "heat", "1", "0.05", "0", "0.10799590073145085", "0.9444444444444444"],
            ["3", "0.2", "heat", "1", "0.2", "1", "0.11944268642914561", "0.9135802469135802"],
            ["3", "0.2", "heat", "2", "0.05", "0", "0.10799590073145085", "0.9444444444444444"],
            ["3", "0.2", "heat", "2", "0.2", "2", "0.14659936542842317", "0.8518518518518519"],
            ["4", "0.2", "wavelet", "1", "0.05", "0", "0.07325429229803737", "1.0"],
            ["4", "0.2", "wavelet", "1", "0.2", "1", "0.09381065268925874", "0.9938271604938271"],
            ["4", "0.2", "wavelet", "2", "0.05", "0", "0.07325429229803737", "1.0"],
            ["4", "0.2", "wavelet", "2", "0.2", "2", "0.12081145308914495", "0.9814814814814815"],
            ["4", "0.2", "heat", "1", "0.05", "0", "0.10874768132933366", "0.9506172839506173"],
            ["4", "0.2", "heat", "1", "0.2", "1", "0.11867626330035116", "0.9197530864197531"],
            ["4", "0.2", "heat", "2", "0.05", "0", "0.10874768132933366", "0.9506172839506173"],
            ["4", "0.2", "heat", "2", "0.2", "2", "0.14694482494747838", "0.8518518518518519"],
        ]

    def test_dictionary_sweep_rows_equal_single_kind_runs(self, tmp_path, pair_files):
        src, dst = pair_files
        pair = {"experiment": "pairmatch", "mesh_source": str(src), "mesh_target": str(dst),
                "samples": "5", "scales": "6", "tmax": "0.5"}
        run_experiment(resolve_config({**pair, "out_dir": str(tmp_path / "s"),
                                       "dictionary": "wavelet,heat"}))
        header, *rows = sweep_rows(tmp_path / "s")
        scores = ["mean_error", "auc_025", "baseline_mean_error", "baseline_auc_025"]
        assert header == ["samples", "strategy", "scales", "tmax", "dictionary", "displaced",
                          "noise_radius", "moved", *scores]
        assert [row[4] for row in rows] == ["wavelet", "heat"]
        for row in rows:
            one = run_experiment(resolve_config({**pair, "out_dir": str(tmp_path / row[4]),
                                                 "dictionary": row[4]}))
            assert row[-4:] == [repr(one[key]) for key in scores]

    def test_failing_setting_keeps_finished_rows(self, tmp_path, monkeypatch):
        # on this pair the dictionary at tmax=4 has degenerate columns
        src, dst = tmp_path / "src.off", tmp_path / "dst.off"
        write_off(jittered_icosphere(3, seed=4), src)
        write_off(stretched_icosphere(3, seed=4), dst)
        pair = {"experiment": "pairmatch", "mesh_source": str(src), "mesh_target": str(dst),
                "samples": "6", "seed": "4", "baseline": "none"}
        config = write_config(tmp_path, "".join(
            f"{key}={value}\n" for key, value in
            {**pair, "out_dir": tmp_path / "o", "tmax": "0.25,4"}.items()))
        assert main(["experiment", "run", "--config", str(config)]) == 3
        with pytest.raises(NumericalError, match="degenerate column"):
            run_experiment(resolve_config({**pair, "out_dir": str(tmp_path / "e"),
                                           "tmax": "0.25,4"}))
        one = run_experiment(resolve_config({**pair, "out_dir": str(tmp_path / "one"),
                                             "tmax": "0.25"}))
        for out in ("o", "e"):
            assert sweep_rows(tmp_path / out) == [
                ["samples", "strategy", "scales", "tmax", "dictionary", "displaced",
                 "noise_radius", "moved", "mean_error", "auc_025"],
                ["6", "fps-euclidean", "25", "0.25", "wavelet", "0", "0.0", "0",
                 repr(one["mean_error"]), repr(one["auc_025"])],
            ]
            assert not (tmp_path / out / "summary.txt").exists()
        # a sweep.csv that cannot be written does not hide the setting's error

        def unwritable(*args):
            raise OSError("disk full")
        monkeypatch.setattr(experiments, "_write_csv", unwritable)
        with pytest.raises(NumericalError, match="degenerate column") as raised:
            run_experiment(resolve_config({**pair, "out_dir": str(tmp_path / "w"),
                                           "tmax": "0.25,4"}))
        assert not isinstance(raised.value.__context__, OSError)

    def test_tmax_sweep_pair(self, tmp_path, pair_files):
        src, dst = pair_files
        config = resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "o"),
            "mesh_source": str(src), "mesh_target": str(dst), "tmax": "0.1,1",
            "samples": "5", "scales": "6", "baseline": "none",
        })
        assert run_experiment(config)["rows"] == 2
        rows = sweep_rows(tmp_path / "o")
        assert [row[3] for row in rows] == ["tmax", "0.1", "1.0"]
        # the target is used: the same sweep on the source alone differs
        run_experiment({**config, "mesh_target": str(src), "out_dir": str(tmp_path / "s")})
        assert sweep_rows(tmp_path / "s") != rows

    @pytest.mark.parametrize("kind, lists", [
        ("noise", {"displaced": "1", "noise_radius": "0.05", "scales": "2,3"}),
        ("tmax", {"tmax": "0.5,1"}),
    ])
    def test_target_out_of_correspondence(self, tmp_path, mesh_file, kind, lists):
        other = tmp_path / "ico42.off"
        write_off(jittered_icosphere(1, seed=4), other)
        config = resolve_config({"experiment": "pairmatch", "out_dir": str(tmp_path / "o"),
                                 "mesh_source": str(mesh_file), "mesh_target": str(other),
                                 "samples": "4", **lists})
        with pytest.raises(DataError, match="^gt_map is required when the meshes differ in "
                                            "size$"):
            run_experiment(config)

    @pytest.mark.parametrize("kind, keys", [
        ("tmax", {"tmax": "0.5,1", "scales": "6"}),
        ("noise", {"tmax": "1", "scales": "6,3", "displaced": "0,2", "noise_radius": "0.05"}),
    ])
    def test_sweep_row_equals_pairmatch(self, tmp_path, pair_files, kind, keys):
        # the stretched target is larger, so pair_rhos shrinks its times; the
        # sweep row at pairmatch's setting is that run, baseline included
        src, dst = pair_files
        pair = run_experiment(resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "p"),
            "mesh_source": str(src), "mesh_target": str(dst), "samples": "5",
            "scales": "6", "tmax": "1"}))
        assert pair["rho_target"] < 1.0
        run_experiment(resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "s"),
            "mesh_source": str(src), "mesh_target": str(dst), "samples": "5", **keys}))
        header, *rows = sweep_rows(tmp_path / "s")
        scores = ["mean_error", "auc_025", "baseline_mean_error", "baseline_auc_025"]
        assert header[-4:] == scores
        at = {"samples": "5", "scales": "6", "tmax": "1.0", "displaced": "0"}
        [row] = [row for row in rows if at.items() <= dict(zip(header, row)).items()]
        assert [float(value) for value in row[-4:]] == [pair[key] for key in scores]

    def test_sweep_row_equals_selfmatch(self, tmp_path, mesh_file):
        one = run_experiment(resolve_config({
            "experiment": "selfmatch", "out_dir": str(tmp_path / "one"),
            "mesh": str(mesh_file), "samples": "4", "scales": "6", "tmax": "0.5"}))
        run_experiment(resolve_config({
            "experiment": "selfmatch", "out_dir": str(tmp_path / "s"), "mesh": str(mesh_file),
            "samples": "3,4", "scales": "6", "tmax": "0.25,0.5"}))
        header, *rows = sweep_rows(tmp_path / "s")
        scores = ["mean_error", "auc_025", "baseline_mean_error", "baseline_auc_025"]
        assert header == ["samples", "scales", "tmax", "strategy", *scores]
        [row] = [row for row in rows if row[:4] == ["4", "6", "0.5", "fps-euclidean"]]
        assert [float(value) for value in row[4:]] == [one[key] for key in scores]

    def test_tmax_sweep_selfmatch(self, tmp_path, mesh_file):
        config = resolve_config({
            "experiment": "selfmatch", "out_dir": str(tmp_path / "o"),
            "mesh": str(mesh_file), "tmax": "0.25,0.5",
            "samples": "4", "scales": "6", "baseline": "none",
        })
        assert run_experiment(config)["rows"] == 2
        rows = sweep_rows(tmp_path / "o")
        assert [row[2] for row in rows] == ["tmax", "0.25", "0.5"]
        assert "config.tmax=0.25,0.5" in (tmp_path / "o" / "summary.txt").read_text()



def _count_calls(monkeypatch, calls, module, name):
    """Count the calls of ``module.name`` wherever a package module holds it."""
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    for held in list(sys.modules.values()):
        if (getattr(held, "__name__", "").startswith("meshwavelets")
                and getattr(held, name, None) is original):
            monkeypatch.setattr(held, name, wrapper)


@pytest.mark.parametrize("kind, expected", [
    ("selfmatch", {"TriangleMesh": 2, "face_areas_raw": 2, "edge_graph": 1}),
    ("pairmatch", {"TriangleMesh": 4, "face_areas_raw": 4, "edge_graph": 1}),
])
def test_each_mesh_is_normalized_assembled_and_graphed_once(tmp_path, mesh_file, pair_files,
                                                            monkeypatch, kind, expected):
    # per mesh: one TriangleMesh as loaded and one at unit area, each with its
    # face areas, which the normalization and the Laplacian reuse; one edge
    # graph, of the mesh the errors are measured on, for the map and the
    # baseline alike
    calls = collections.Counter()
    post_init = TriangleMesh.__post_init__

    def counted_post_init(self):
        calls["TriangleMesh"] += 1
        post_init(self)
    monkeypatch.setattr(TriangleMesh, "__post_init__", counted_post_init)
    _count_calls(monkeypatch, calls, mesh, "face_areas_raw")
    _count_calls(monkeypatch, calls, geodesics, "edge_graph")
    config = {"experiment": kind, "out_dir": str(tmp_path / "o"), "samples": "4",
              "scales": "6", "tmax": "0.5", "baseline": "lbo"}
    if kind == "selfmatch":
        config["mesh"] = str(mesh_file)
    else:
        config["mesh_source"], config["mesh_target"] = map(str, pair_files)
    summary = run_experiment(resolve_config(config))
    assert np.isfinite(summary["baseline_mean_error"])
    assert calls == expected
