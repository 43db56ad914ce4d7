import re

import numpy as np
import pytest

from meshwavelets import DataError, parse_config, run_experiment, write_off
from meshwavelets.experiments import _DEFAULTS, _SCHEMAS, resolve_config
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

    def test_bad_value_rejected(self, tmp_path):
        path = write_config(tmp_path,
                            "experiment=selfmatch\nout_dir=o\nmesh=m\nsamples=four\n")
        with pytest.raises(DataError, match="samples"):
            parse_config(path)

    @pytest.mark.parametrize("kind, line, allowed", [
        ("selfmatch", "baseline=LBO", "['lbo', 'none']"),
        ("pairmatch", "baseline=eigen", "['lbo', 'none']"),
        ("pairmatch", "dictionary=wavelets", "['wavelet', 'heat']"),
    ])
    def test_unknown_choice_rejected(self, tmp_path, kind, line, allowed):
        meshes = "mesh=m\n" if kind == "selfmatch" else "mesh_source=a\nmesh_target=b\n"
        path = write_config(tmp_path, f"experiment={kind}\nout_dir={tmp_path}/o\n"
                                      f"{meshes}{line}\n")
        with pytest.raises(DataError, match=re.escape(allowed)):
            run_experiment(path)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("kind, line, key", [
        ("sampling", "sample_counts=2,2.5", "sample_counts"),
        ("noise", "displace_counts=1.5", "displace_counts"),
        ("noise", "scales_list=2.5", "scales_list"),
        ("noise", "noise_radii=abc", "noise_radii"),
        ("pairmatch", "rho=abc", "rho"),
        ("sampling", "sample_counts=", "sample_counts"),
        ("sampling", "strategies= , ", "strategies"),
        ("noise", "displace_counts=", "displace_counts"),
        ("noise", "noise_radii=", "noise_radii"),
        ("noise", "scales_list=", "scales_list"),
        ("tmax", "tmax_values=", "tmax_values"),
    ])
    def test_bad_typed_value_rejected(self, tmp_path, kind, line, key):
        meshes = "mesh_source=a\n" if kind == "pairmatch" else "mesh=m\n"
        path = write_config(tmp_path, f"experiment={kind}\nout_dir={tmp_path}/o\n"
                                      f"{meshes}{line}\n")
        with pytest.raises(DataError, match=repr(key)):
            run_experiment(path)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("key, value", [("samples", 2.5), ("scales", 6.9),
                                            ("seed", 1.5), ("samples", float("nan"))])
    def test_fractional_number_for_int_key_rejected(self, key, value):
        with pytest.raises(DataError, match=repr(key)):
            resolve_config({"experiment": "selfmatch", "out_dir": "o", "mesh": "m",
                            key: value})

    def test_integral_float_for_int_key_accepted(self):
        config = resolve_config({"experiment": "selfmatch", "out_dir": "o", "mesh": "m",
                                 "samples": 2.0, "seed": 3.0})
        assert (config["samples"], config["seed"]) == (2, 3)
        assert type(config["samples"]) is int and type(config["seed"]) is int

    @pytest.mark.parametrize("kind, key", [("sampling", "sample_counts"),
                                           ("noise", "displace_counts")])
    def test_resolved_default_lists_are_not_shared(self, kind, key):
        first = resolve_config({"experiment": kind, "out_dir": "o", "mesh": "m"})
        default = list(first[key])
        first[key].append(99)
        second = resolve_config({"experiment": kind, "out_dir": "o", "mesh": "m"})
        assert second[key] == default

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
            "experiment=noise\nout_dir=o\nmesh=m\n"
            "noise_radii=0.01, 0.05\ndisplace_counts=1,2\nscales_list=3\n"))
        config = parse_config(path)
        assert config["noise_radii"] == [0.01, 0.05]
        assert config["displace_counts"] == [1, 2]
        assert config["scales_list"] == [3]
        assert config["tmax"] == 1.0
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
        config = resolve_config({"experiment": "noise", "out_dir": str(tmp_path),
                                 "mesh": "m", "noise_radii": "0.01,0.05", "tmax": "2"})
        assert resolve_config(config) == config

    def test_missing_mesh_file_reported(self, tmp_path):
        config = resolve_config({"experiment": "selfmatch", "out_dir": str(tmp_path),
                                 "mesh": str(tmp_path / "nope.off")})
        with pytest.raises(DataError, match="not found"):
            run_experiment(config)


class TestSelfmatchExperiment:
    def test_outputs_and_determinism(self, tmp_path, mesh_file):
        text = (f"experiment=selfmatch\nout_dir={tmp_path}/out\nmesh={mesh_file}\n"
                "samples=4\nscales=8\ntmax=0.5\nseed=3\n")
        path = write_config(tmp_path, text)
        summary = run_experiment(path)
        out = tmp_path / "out"
        assert (out / "curve.csv").exists()
        assert (out / "map.txt").exists()
        assert (out / "summary.txt").exists()
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


class TestWaveletComparisonExperiment:
    def test_csv_and_ordering(self, tmp_path, mesh_file):
        config = resolve_config({
            "experiment": "wavelets", "out_dir": str(tmp_path / "o"),
            "mesh": str(mesh_file), "samples": "3", "scales": "6",
            "tmax": "0.2", "truncation": "40",
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


class TestSweepExperiments:
    def test_sampling_sweep(self, tmp_path, mesh_file):
        config = resolve_config({
            "experiment": "sampling", "out_dir": str(tmp_path / "o"),
            "mesh": str(mesh_file), "sample_counts": "2,4",
            "strategies": "fps-euclidean,random", "scales": "8", "tmax": "0.5",
        })
        summary = run_experiment(config)
        lines = (tmp_path / "o" / "sampling.csv").read_text().splitlines()
        assert summary["rows"] == 4
        assert len(lines) == 2 + 4

    def test_noise_sweep(self, tmp_path, pair_files):
        src, dst = pair_files
        config = resolve_config({
            "experiment": "noise", "out_dir": str(tmp_path / "o"),
            "mesh": str(src), "mesh_target": str(dst), "samples": "5",
            "displace_counts": "2", "noise_radii": "0.05", "scales_list": "2,4",
            "tmax": "0.2",
        })
        summary = run_experiment(config)
        assert summary["rows"] == 2
        lines = (tmp_path / "o" / "noise.csv").read_text().splitlines()
        assert lines[1].split(",")[0] == "n_scales"

    def test_tmax_sweep_pair(self, tmp_path, pair_files):
        src, dst = pair_files
        config = resolve_config({
            "experiment": "tmax", "out_dir": str(tmp_path / "o"),
            "mesh": str(src), "mesh_target": str(dst), "tmax_values": "0.1,1",
            "samples": "5", "scales": "6",
        })
        summary = run_experiment(config)
        assert summary["best_tmax"] in (0.1, 1.0)
        pair_csv = (tmp_path / "o" / "tmax.csv").read_text()
        assert [line.split(",")[0] for line in pair_csv.splitlines()[2:]] == ["0.1", "1.0"]
        # the target is used: the same sweep without it is a self-matching one
        run_experiment({**config, "mesh_target": "", "out_dir": str(tmp_path / "s")})
        assert (tmp_path / "s" / "tmax.csv").read_text() != pair_csv

    @pytest.mark.parametrize("kind, lists", [
        ("noise", {"displace_counts": "1", "noise_radii": "0.05", "scales_list": "2"}),
        ("tmax", {"tmax_values": "0.5"}),
    ])
    def test_target_out_of_correspondence(self, tmp_path, mesh_file, kind, lists):
        other = tmp_path / "ico42.off"
        write_off(jittered_icosphere(1, seed=4), other)
        config = resolve_config({"experiment": kind, "out_dir": str(tmp_path / "o"),
                                 "mesh": str(mesh_file), "mesh_target": str(other),
                                 "samples": "4", **lists})
        with pytest.raises(DataError, match=f"^{kind} experiment needs meshes in "
                                            "vertex correspondence$"):
            run_experiment(config)

    @pytest.mark.parametrize("kind, keys", [
        ("tmax", {"tmax_values": "1", "scales": "6"}),
        ("noise", {"tmax": "1", "scales_list": "6", "displace_counts": "0",
                   "noise_radii": "0.05"}),
    ])
    def test_sweep_row_equals_pairmatch(self, tmp_path, pair_files, kind, keys):
        # the stretched target is larger, so pair_rhos shrinks its times; a
        # sweep row at pairmatch's setting is that run
        src, dst = pair_files
        pair = run_experiment(resolve_config({
            "experiment": "pairmatch", "out_dir": str(tmp_path / "p"),
            "mesh_source": str(src), "mesh_target": str(dst), "samples": "5",
            "scales": "6", "tmax": "1", "baseline": "none"}))
        assert pair["rho_target"] < 1.0
        run_experiment(resolve_config({
            "experiment": kind, "out_dir": str(tmp_path / "s"), "mesh": str(src),
            "mesh_target": str(dst), "samples": "5", **keys}))
        row = (tmp_path / "s" / f"{kind}.csv").read_text().splitlines()[2].split(",")
        assert (float(row[-2]), float(row[-1])) == (pair["mean_error"], pair["auc_025"])

    def test_tmax_sweep_selfmatch(self, tmp_path, mesh_file):
        config = resolve_config({
            "experiment": "tmax", "out_dir": str(tmp_path / "o"),
            "mesh": str(mesh_file), "tmax_values": "0.25,0.5",
            "samples": "4", "scales": "6",
        })
        summary = run_experiment(config)
        assert summary["best_tmax"] in (0.25, 0.5)
        lines = (tmp_path / "o" / "tmax.csv").read_text().splitlines()
        assert len(lines) == 2 + 2


def test_transfer_map_rejects_unknown_kind():
    from meshwavelets import build_laplacian, normalize_unit_area, sample
    from meshwavelets.experiments import transfer_map
    mesh, _ = normalize_unit_area(jittered_icosphere(1, seed=4))
    lap = build_laplacian(mesh)
    samples = sample(mesh, 3, seed=0)
    with pytest.raises(ValueError, match="bogus"):
        transfer_map(lap, lap, samples, samples, 4, 0.5, (1.0, 1.0), kind="bogus")
