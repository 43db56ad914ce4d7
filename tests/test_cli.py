import inspect
import warnings

import numpy as np
import pytest

from meshwavelets import (NumericalError, build_dictionary, load_dictionary, load_pointmap,
                          pair_rhos, perturb_samples, run_experiment, sample, write_off)
from meshwavelets import experiments
from meshwavelets.cli import build_parser, main
from meshwavelets.experiments import resolve_config
from meshwavelets.synthetic import (jittered_icosphere, rigid_transform,
                                    rotation_matrix, stretched_icosphere)


@pytest.fixture(scope="module")
def mesh_off(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "mesh.off"
    write_off(jittered_icosphere(2, seed=6), path)
    return path


@pytest.fixture(scope="module")
def rigid_pair(tmp_path_factory):
    root = tmp_path_factory.mktemp("clipair")
    mesh = jittered_icosphere(2, seed=6)
    moved = rigid_transform(mesh, rotation=rotation_matrix([1, 1, 0], 0.8),
                            translation=[2.0, -1.0, 0.5])
    src, dst = root / "src.off", root / "dst.off"
    write_off(mesh, src)
    write_off(moved, dst)
    return src, dst


def test_dict_build_and_load(tmp_path, mesh_off):
    out = tmp_path / "dict.dwd"
    code = main(["dict", "build", "--mesh", str(mesh_off), "--samples", "4",
                 "--scales", "6", "--tmax", "0.5", "--seed", "1",
                 "--out", str(out)])
    assert code == 0
    assert out.exists() and out.with_suffix(".meta").exists()
    d = load_dictionary(out)
    assert d.n_columns == 24
    assert d.samples.strategy == "fps-euclidean"


def test_dict_build_to_a_meta_path_is_2(tmp_path, mesh_off, capsys, monkeypatch):
    # the sidecar would overwrite the dictionary at the same path; the path
    # is refused before the mesh is loaded or any dictionary built
    import meshwavelets.cli as cli
    monkeypatch.setattr(cli, "load_shape", _no_work)
    monkeypatch.setattr(cli, "build_dictionary", _no_work)
    out = tmp_path / "d.meta"
    code = main(["dict", "build", "--mesh", str(mesh_off), "--samples", "3",
                 "--scales", "4", "--out", str(out)])
    assert code == 2
    assert ".meta" in capsys.readouterr().err
    assert not out.exists()


def test_dict_build_with_a_directory_sidecar_is_2_before_any_work(tmp_path, mesh_off, capsys,
                                                                   monkeypatch):
    # the .meta sidecar's write would fail after the dictionary is written,
    # leaving a file load_dictionary cannot read; it fails before the mesh is read
    (tmp_path / "d.meta").mkdir()
    loads = []
    monkeypatch.setattr(experiments, "load_mesh", lambda *args: loads.append(args))
    out = tmp_path / "d.dwd"
    code = main(["dict", "build", "--mesh", str(mesh_off), "--samples", "3",
                 "--scales", "4", "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == (f"data error: [Errno 21] Is a directory: "
                                       f"'{tmp_path / 'd.meta'}'\n")
    assert loads == [] and not out.exists()


@pytest.mark.parametrize("command", ["dict build", "match self"])
def test_negative_seed_is_a_usage_error_before_any_mesh_is_read(tmp_path, mesh_off, capsys,
                                                                monkeypatch, command):
    loads = []
    monkeypatch.setattr(experiments, "load_mesh", lambda *args: loads.append(args))
    with pytest.raises(SystemExit) as exc:
        main(command.split() + ["--mesh", str(mesh_off), "--samples", "3", "--seed", "-1",
                                "--out", str(tmp_path / "o")])
    assert exc.value.code == 1
    assert ("argument --seed: expected a non-negative integer, got '-1'"
            in capsys.readouterr().err)
    assert loads == [] and list(tmp_path.iterdir()) == []


def test_negative_config_seed_is_2_before_any_mesh_is_read(tmp_path, mesh_off, capsys,
                                                           monkeypatch):
    loads = []
    monkeypatch.setattr(experiments, "load_mesh", lambda *args: loads.append(args))
    config = tmp_path / "config.txt"
    config.write_text(f"experiment=selfmatch\nout_dir={tmp_path / 'o'}\nmesh={mesh_off}\n"
                      "seed=-1\n")
    assert main(["experiment", "run", "--config", str(config)]) == 2
    assert capsys.readouterr().err == (f"data error: {config}: bad value for 'seed': '-1'; "
                                       "expected a non-negative integer\n")
    assert loads == [] and not (tmp_path / "o").exists()


def test_dict_build_uses_rho_1(tmp_path, mesh_off):
    out = tmp_path / "dict.dwd"
    code = main(["dict", "build", "--mesh", str(mesh_off), "--samples", "3",
                 "--scales", "4", "--out", str(out)])
    assert code == 0
    assert load_dictionary(out).rho == 1.0


def test_cli_defaults_are_the_experiment_defaults(monkeypatch):
    # one table: a changed experiment default is the CLI's default too
    for key, value in {"scales": 7, "tmax": 0.25, "seed": 3, "rho": "0.5"}.items():
        monkeypatch.setitem(experiments._DEFAULTS, key, value)
    parse = build_parser().parse_args
    built = parse(["dict", "build", "--mesh", "m.off", "--samples", "3", "--out", "o"])
    matched = parse(["match", "self", "--mesh", "m.off", "--samples", "3", "--out", "o"])
    paired = parse(["match", "pair", "--src", "a.off", "--dst", "b.off", "--out", "o",
                    "--landmarks-src", "a.txt", "--landmarks-dst", "b.txt"])
    for args in (built, matched, paired):
        assert (args.scales, args.tmax) == (7, 0.25)
    assert built.seed == matched.seed == 3
    assert paired.rho == "0.5"


@pytest.mark.parametrize("function, parameter, key", [
    (build_dictionary, "n_scales", "scales"), (build_dictionary, "t_max", "tmax"),
    (build_dictionary, "kind", "dictionary"), (sample, "strategy", "strategy"),
    (sample, "seed", "seed"), (perturb_samples, "seed", "seed"), (pair_rhos, "rho", "rho")])
def test_experiment_defaults_are_the_library_defaults(function, parameter, key):
    # one default table: a config or command that leaves a key out runs what
    # the library call that takes it runs by default
    default = inspect.signature(function).parameters[parameter].default
    assert experiments._DEFAULTS[key] == default


def test_dict_build_with_landmark_file(tmp_path, mesh_off):
    lm = tmp_path / "landmarks.txt"
    lm.write_text("0\n50\n100\n")
    out = tmp_path / "dict.dwd"
    code = main(["dict", "build", "--mesh", str(mesh_off), "--samples", str(lm),
                 "--scales", "4", "--tmax", "0.5", "--out", str(out)])
    assert code == 0
    d = load_dictionary(out)
    np.testing.assert_array_equal(d.samples.indices, [0, 50, 100])
    assert d.samples.strategy == "explicit"
    assert d.samples.seed == 0


def test_match_self_and_eval(tmp_path, mesh_off):
    map_path = tmp_path / "map.txt"
    code = main(["match", "self", "--mesh", str(mesh_off), "--samples", "4",
                 "--scales", "8", "--tmax", "0.5", "--out", str(map_path)])
    assert code == 0
    pm = load_pointmap(map_path, 162)
    assert pm.source_size == 162

    gt = tmp_path / "gt.txt"
    gt.write_text("".join(f"{i}\n" for i in range(162)))
    csv = tmp_path / "curve.csv"
    code = main(["eval", "--map", str(map_path), "--gt", str(gt),
                 "--mesh", str(mesh_off), "--out", str(csv)])
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0] == "# schema=curve/1"
    assert len(lines) == 2 + 100
    assert "np.float" not in csv.read_text()
    first = lines[2].split(",")
    assert float(first[0]) == 0.0 and 0 <= float(first[1]) <= 1


def test_match_pair_rigid_copy_is_identity(tmp_path, rigid_pair):
    src, dst = rigid_pair
    lm = tmp_path / "lm.txt"
    lm.write_text("3\n77\n130\n9\n25\n")
    out = tmp_path / "pair_map.txt"
    code = main(["match", "pair", "--src", str(src), "--dst", str(dst),
                 "--landmarks-src", str(lm), "--landmarks-dst", str(lm),
                 "--scales", "8", "--tmax", "0.5", "--out", str(out)])
    assert code == 0
    pm = load_pointmap(out, target_size=162)
    np.testing.assert_array_equal(pm.targets, np.arange(162))


def test_match_self_equals_selfmatch_experiment(tmp_path, mesh_off):
    out = tmp_path / "map.txt"
    assert main(["match", "self", "--mesh", str(mesh_off), "--samples", "4",
                 "--scales", "8", "--tmax", "0.5", "--seed", "3", "--out", str(out)]) == 0
    run_experiment(resolve_config({
        "experiment": "selfmatch", "out_dir": str(tmp_path / "experiment"),
        "mesh": str(mesh_off), "samples": "4", "scales": "8", "tmax": "0.5",
        "seed": "3", "baseline": "none"}))
    assert out.read_bytes() == (tmp_path / "experiment" / "map.txt").read_bytes()


def test_eval_equals_selfmatch_experiment_curve(tmp_path, mesh_off):
    run_experiment(resolve_config({
        "experiment": "selfmatch", "out_dir": str(tmp_path / "experiment"),
        "mesh": str(mesh_off), "samples": "3", "scales": "6", "tmax": "0.5",
        "baseline": "none"}))
    map_path = tmp_path / "experiment" / "map.txt"
    assert (load_pointmap(map_path, 162).targets != np.arange(162)).any()
    gt = tmp_path / "gt.txt"
    gt.write_text("".join(f"{i}\n" for i in range(162)))
    csv = tmp_path / "curve.csv"
    assert main(["eval", "--map", str(map_path), "--gt", str(gt),
                 "--mesh", str(mesh_off), "--out", str(csv)]) == 0
    assert csv.read_bytes() == (tmp_path / "experiment" / "curve.csv").read_bytes()


def test_eval_equals_pairmatch_experiment_error(tmp_path, capsys):
    # eval scores on the unit-area mesh the experiment scores on
    src, dst = tmp_path / "src.off", tmp_path / "dst.off"
    write_off(jittered_icosphere(3, seed=0), src)
    write_off(stretched_icosphere(3, seed=0), dst)
    gt = tmp_path / "gt.txt"
    gt.write_text("".join(f"{i}\n" for i in range(642)))
    summary = run_experiment(resolve_config({
        "experiment": "pairmatch", "out_dir": str(tmp_path / "experiment"),
        "mesh_source": str(src), "mesh_target": str(dst), "gt_map": str(gt),
        "samples": "6", "scales": "10", "tmax": "0.1", "baseline": "none"}))
    capsys.readouterr()
    assert main(["eval", "--map", str(tmp_path / "experiment" / "map.txt"), "--gt", str(gt),
                 "--mesh", str(dst), "--out", str(tmp_path / "curve.csv")]) == 0
    assert f"mean_error={summary['mean_error']!r}\n" in capsys.readouterr().out


def test_match_pair_equals_pairmatch_experiment(tmp_path, mesh_off):
    # a stretched target has a different area, so rho=auto is not (1, 1)
    dst = tmp_path / "stretched.off"
    write_off(stretched_icosphere(2, seed=6), dst)
    lm_src, lm_dst = tmp_path / "lm_src.txt", tmp_path / "lm_dst.txt"
    lm_src.write_text("3\n77\n130\n9\n")
    lm_dst.write_text("3\n77\n130\n10\n")
    out = tmp_path / "map.txt"
    assert main(["match", "pair", "--src", str(mesh_off), "--dst", str(dst),
                 "--landmarks-src", str(lm_src), "--landmarks-dst", str(lm_dst),
                 "--scales", "8", "--tmax", "0.1", "--out", str(out)]) == 0
    summary = run_experiment(resolve_config({
        "experiment": "pairmatch", "out_dir": str(tmp_path / "experiment"),
        "mesh_source": str(mesh_off), "mesh_target": str(dst),
        "landmarks_source": str(lm_src), "landmarks_target": str(lm_dst),
        "scales": "8", "tmax": "0.1", "baseline": "none"}))
    assert summary["rho_target"] != 1.0 or summary["rho_source"] != 1.0
    assert out.read_bytes() == (tmp_path / "experiment" / "map.txt").read_bytes()


def test_experiment_run(tmp_path, mesh_off):
    config = tmp_path / "config.txt"
    config.write_text(f"experiment=selfmatch\nout_dir={tmp_path}/out\n"
                      f"mesh={mesh_off}\nsamples=3\nscales=5\ntmax=0.5\n")
    code = main(["experiment", "run", "--config", str(config)])
    assert code == 0
    assert (tmp_path / "out" / "curve.csv").exists()


def _no_work(*args, **kwargs):
    raise AssertionError("a pipeline stage ran")


class TestExitCodes:
    def test_usage_error_is_1(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dict", "build", "--mesh", "x.off"])  # missing required args
        assert exc.value.code == 1

    def test_match_pair_takes_no_seed(self, tmp_path):
        # the landmark files fix the samples: there is nothing to seed
        with pytest.raises(SystemExit) as exc:
            main(["match", "pair", "--src", "a.off", "--dst", "b.off",
                  "--landmarks-src", "a.txt", "--landmarks-dst", "b.txt",
                  "--seed", "0", "--out", str(tmp_path / "m.txt")])
        assert exc.value.code == 1

    def test_dict_build_takes_no_rho(self, tmp_path, mesh_off, capsys):
        # one shape has nothing to compare its area with: rho is 1
        with pytest.raises(SystemExit) as exc:
            main(["dict", "build", "--mesh", str(mesh_off), "--samples", "3",
                  "--rho", "0.5", "--out", str(tmp_path / "d.dwd")])
        assert exc.value.code == 1
        assert "--rho" in capsys.readouterr().err

    def test_unknown_command_is_1(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 1

    def test_removed_entry_points(self, tmp_path, capsys):
        # the comparison and the timings are the wavelets experiment's
        with pytest.raises(SystemExit) as exc:
            main(["compare", "wavelets", "--mesh", "m.off", "--out", "e.csv"])
        assert exc.value.code == 1
        # the sweeps are list values on the selfmatch and pairmatch keys
        config = tmp_path / "config.txt"
        for kind in ("timing", "sampling", "noise", "tmax"):
            config.write_text(f"experiment={kind}\nout_dir=o\nmesh=m\n")
            assert main(["experiment", "run", "--config", str(config)]) == 2
            assert (f"unknown experiment kind '{kind}'; expected one of "
                    "['pairmatch', 'selfmatch', 'wavelets']") in capsys.readouterr().err

    @pytest.mark.parametrize("role", ["config", "out", "mesh"])
    def test_unreadable_path_is_2(self, tmp_path, mesh_off, capsys, role):
        folder = tmp_path / "folder.off"
        folder.mkdir()
        if role == "config":
            command = ["experiment", "run", "--config", str(folder)]
        else:
            mesh, out = (mesh_off, folder) if role == "out" else (folder, tmp_path / "m.txt")
            command = ["match", "self", "--mesh", str(mesh), "--samples", "3", "--scales", "4",
                       "--out", str(out)]
        assert main(command) == 2
        assert capsys.readouterr().err == f"data error: [Errno 21] Is a directory: '{folder}'\n"

    @pytest.mark.parametrize("command", ["dict build", "match self", "match pair", "eval"])
    @pytest.mark.parametrize("out, error", [
        ("folder", "[Errno 21] Is a directory"),
        ("nodir/out.txt", "[Errno 2] No such file or directory"),
        ("file/out.txt", "[Errno 20] Not a directory")])
    def test_unusable_out_is_2_before_any_mesh_is_read(self, tmp_path, mesh_off, capsys,
                                                       monkeypatch, command, out, error):
        # an --out that is a directory or has no directory parent is refused
        # with the error the final write would raise, before any mesh is
        # read, and nothing is created
        (tmp_path / "folder").mkdir()
        (tmp_path / "file").write_text("")
        mesh = str(mesh_off)
        inputs = {"dict build": ["--mesh", mesh, "--samples", "3"],
                  "match self": ["--mesh", mesh, "--samples", "3"],
                  "match pair": ["--src", mesh, "--dst", mesh, "--landmarks-src", "a.txt",
                                 "--landmarks-dst", "b.txt"],
                  "eval": ["--map", "m.txt", "--gt", "g.txt", "--mesh", mesh]}[command]
        loads = []
        monkeypatch.setattr(experiments, "load_mesh", lambda *args: loads.append(args))
        before = sorted(tmp_path.rglob("*"))
        assert main(command.split() + inputs + ["--out", str(tmp_path / out)]) == 2
        assert capsys.readouterr().err == f"data error: {error}: '{tmp_path / out}'\n"
        assert loads == [] and sorted(tmp_path.rglob("*")) == before

    def test_non_finite_vertex_is_2(self, tmp_path, capsys):
        path = tmp_path / "m.off"
        path.write_text("OFF\n4 2 0\n0 0 0\n1 0 0\n0 1 0\n0 0 -inf\n3 0 1 2\n3 0 1 3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["match", "self", "--mesh", str(path), "--samples", "3",
                         "--scales", "4", "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert "vertex 3 has a non-finite coordinate" in capsys.readouterr().err

    def test_missing_file_is_2(self, tmp_path, capsys):
        code = main(["match", "self", "--mesh", str(tmp_path / "nope.off"),
                     "--samples", "4", "--out", str(tmp_path / "m.txt")])
        assert code == 2
        assert "data error" in capsys.readouterr().err

    def test_bad_config_is_2(self, tmp_path, capsys):
        config = tmp_path / "config.txt"
        config.write_text("experiment=selfmatch\nout_dir=o\nmesh=m\nbogus=1\n")
        assert main(["experiment", "run", "--config", str(config)]) == 2

    def test_bad_landmarks_is_2(self, tmp_path, mesh_off, capsys):
        lm = tmp_path / "lm.txt"
        lm.write_text("0\n0\n")  # duplicate: invalid sample set
        code = main(["dict", "build", "--mesh", str(mesh_off), "--samples", str(lm),
                     "--out", str(tmp_path / "d.dwd")])
        assert code == 2

    def test_negative_landmark_is_2(self, tmp_path, mesh_off, capsys):
        lm = tmp_path / "lm.txt"
        lm.write_text("-1\n5\n")
        out = tmp_path / "d.dwd"
        code = main(["dict", "build", "--mesh", str(mesh_off), "--samples", str(lm),
                     "--out", str(out)])
        assert code == 2
        assert "out of range" in capsys.readouterr().err
        assert not out.exists()

    def test_landmark_beyond_mesh_is_2(self, tmp_path, mesh_off, capsys):
        lm = tmp_path / "lm.txt"
        lm.write_text("0\n162\n")  # the mesh has vertices 0..161
        config = tmp_path / "config.txt"
        config.write_text(f"experiment=pairmatch\nout_dir={tmp_path}/out\n"
                          f"mesh_source={mesh_off}\nmesh_target={mesh_off}\n"
                          f"landmarks_source={lm}\nlandmarks_target={lm}\n"
                          "dictionary=heat\nscales=4\nbaseline=none\n")
        assert main(["experiment", "run", "--config", str(config)]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_misspelled_dictionary_kind_is_2(self, tmp_path, mesh_off, capsys):
        config = tmp_path / "config.txt"
        config.write_text(f"experiment=pairmatch\nout_dir={tmp_path}/out\n"
                          f"mesh_source={mesh_off}\nmesh_target={mesh_off}\n"
                          "dictionary=wavelets\nscales=4\nbaseline=none\n")
        assert main(["experiment", "run", "--config", str(config)]) == 2
        assert "['wavelet', 'heat']" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", [
        ["match", "self", "--samples", "3", "--tmax", "nan"],
        ["dict", "build", "--samples", "3", "--tmax", "inf"],
        ["experiment", "run", "tmax=nan"],
    ], ids=["match-self-nan", "dict-build-inf", "config-nan"])
    def test_non_finite_tmax_is_2(self, tmp_path, mesh_off, capsys, command):
        out = tmp_path / "out.txt"
        if command[0] == "experiment":
            config = tmp_path / "config.txt"
            config.write_text(f"experiment=selfmatch\nout_dir={tmp_path}/o\n"
                              f"mesh={mesh_off}\nsamples=3\nscales=4\n{command[2]}\n")
            command = command[:2] + ["--config", str(config)]
        else:
            command = command + ["--mesh", str(mesh_off), "--out", str(out)]
        assert main(command) == 2
        assert "t_max must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("role, text, message", [
        ("landmarks", "0\nabc\n", "could not convert string 'abc'"),
        ("landmarks", "3\n3\n", "sample indices must be distinct"),
        ("landmarks", "", "at least one index"),
        ("landmarks", "0 1\n2 3\n", "1-D array"),
        ("map", "0 1\n2 3\n", "targets must be a 1-D index array"),
    ], ids=["landmarks-unparseable", "landmarks-repeated", "landmarks-empty",
            "landmarks-2d", "map-2d"])
    def test_bad_index_file_is_named(self, tmp_path, mesh_off, capsys, role, text,
                                     message):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        good = tmp_path / "good.txt"
        out = tmp_path / "out.txt"
        if role == "landmarks":
            # the second of two landmark files is bad: the message must say which
            good.write_text("0\n5\n")
            command = ["match", "pair", "--src", str(mesh_off), "--dst", str(mesh_off),
                       "--landmarks-src", str(good), "--landmarks-dst", str(bad)]
        else:
            good.write_text("".join(f"{i}\n" for i in range(162)))
            command = ["eval", "--map", str(good), "--gt", str(bad), "--mesh", str(mesh_off)]
        assert main(command + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"data error: {bad}: " in err and message in err
        assert not out.exists()

    @pytest.mark.parametrize("role", ["landmarks", "map"])
    @pytest.mark.parametrize("text", ["", "\n  \n# no index here\n"], ids=["empty", "blank"])
    def test_index_file_without_indices_is_one_clean_line(self, tmp_path, mesh_off, capsys,
                                                          role, text):
        empty = tmp_path / "empty.txt"
        empty.write_text(text)
        good = tmp_path / "good.txt"
        if role == "landmarks":
            good.write_text("0\n5\n")
            command = ["match", "pair", "--src", str(mesh_off), "--dst", str(mesh_off),
                       "--landmarks-src", str(good), "--landmarks-dst", str(empty)]
            what = "landmark"
        else:
            good.write_text("".join(f"{i}\n" for i in range(162)))
            command = ["eval", "--map", str(empty), "--gt", str(good), "--mesh", str(mesh_off)]
            what = "point-map"
        out = tmp_path / "out.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy's empty-input warning would raise
            assert main(command + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"data error: {empty}: bad {what} file: needs at least one index\n")
        assert not out.exists()

    def test_numerical_failure_is_3(self, tmp_path, mesh_off, capsys, monkeypatch):
        import meshwavelets.cli as cli
        monkeypatch.setattr(cli, "build_dictionary",
                            lambda *a, **k: (_ for _ in ()).throw(
                                NumericalError("factorization breakdown")))
        code = main(["dict", "build", "--mesh", str(mesh_off), "--samples", "3",
                     "--out", str(tmp_path / "d.dwd")])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
