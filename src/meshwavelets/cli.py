"""Command-line interface.

Subcommands: ``dict build``, ``match self``, ``match pair``, ``eval``,
``experiment run`` (the method comparisons are the ``wavelets`` experiment).
Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import DataError, NumericalError
from .evaluation import curve, geodesic_errors
from .experiments import (_DEFAULTS, load_landmark_pair, load_landmarks, load_shape,
                          run_experiment, write_curve_csv)
from .matching import load_pointmap, reconstruct_delta_map, save_pointmap, transfer_pointmap
from .sampling import sample
from .wavelets import build_dictionary, check_dictionary_path, pair_rhos, save_dictionary

EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _shape_dictionary(args):
    """The --mesh shape and its dictionary over --samples (FPS count or landmark file)."""
    shape = load_shape(args.mesh)
    try:
        n = int(args.samples)
    except ValueError:
        samples = load_landmarks(args.samples, shape.mesh)
    else:
        samples = sample(shape, n, seed=args.seed)
    return shape, build_dictionary(shape.lap, samples, n_scales=args.scales, t_max=args.tmax)


def _cmd_dict_build(args):
    check_dictionary_path(args.out)
    shape, dictionary = _shape_dictionary(args)
    save_dictionary(dictionary, args.out)
    print(f"wrote {args.out}: {dictionary.n_vertices} vertices x "
          f"{dictionary.n_columns} columns (t_step={dictionary.t_step:.6g}, "
          f"original area={shape.area:.6g})")
    return 0


def _cmd_match_self(args):
    pm = reconstruct_delta_map(_shape_dictionary(args)[1])
    save_pointmap(pm, args.out)
    print(f"wrote {args.out} ({pm.source_size} correspondences)")
    return 0


def _cmd_match_pair(args):
    src, dst = load_shape(args.src), load_shape(args.dst)
    landmarks = load_landmark_pair(args.landmarks_src, args.landmarks_dst, src, dst)
    rhos = pair_rhos(src.area, dst.area, args.rho)
    d_src, d_dst = (build_dictionary(shape.lap, samples, n_scales=args.scales, t_max=args.tmax,
                                     rho=rho)
                    for shape, samples, rho in zip((src, dst), landmarks, rhos))
    pm = transfer_pointmap(d_src, d_dst)
    save_pointmap(pm, args.out)
    print(f"wrote {args.out} ({pm.source_size} -> {pm.target_size} vertices, "
          f"rho=({rhos[0]:.4g}, {rhos[1]:.4g}))")
    return 0


def _cmd_eval(args):
    shape = load_shape(args.mesh)
    pm = load_pointmap(args.map, shape.mesh.n_vertices)
    gt = load_pointmap(args.gt, shape.mesh.n_vertices)
    errors = geodesic_errors(pm, gt, shape)
    ec = curve(errors)
    write_curve_csv(args.out, ec)
    print(f"mean_error={ec.mean_error!r}")
    print(f"auc_025={ec.auc_025!r}")
    print(f"wrote {args.out}")
    return 0


def _cmd_experiment_run(args):
    summary = run_experiment(args.config)
    for key, value in summary.items():
        print(f"{key}={value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser; every default is read from ``experiments._DEFAULTS``."""
    parser = _Parser(prog="meshwavelets",
                     description="Diffusion wavelet dictionaries on triangle meshes")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # the diffusion options of every command that builds a dictionary
    diffusion = argparse.ArgumentParser(add_help=False)
    diffusion.add_argument("--scales", type=int, default=_DEFAULTS["scales"])
    diffusion.add_argument("--tmax", type=float, default=_DEFAULTS["tmax"])

    p_dict = sub.add_parser("dict", help="dictionary construction")
    dict_sub = p_dict.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    p = dict_sub.add_parser("build", help="build and serialize a wavelet dictionary",
                            parents=[diffusion])
    p.add_argument("--mesh", required=True)
    p.add_argument("--samples", required=True,
                   help="sample count (FPS) or landmark index file")
    p.add_argument("--seed", type=int, default=_DEFAULTS["seed"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_dict_build)

    p_match = sub.add_parser("match", help="point-to-point matching")
    match_sub = p_match.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    p = match_sub.add_parser("self", help="delta-reconstruction self-matching",
                             parents=[diffusion])
    p.add_argument("--mesh", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--seed", type=int, default=_DEFAULTS["seed"])
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_match_self)
    p = match_sub.add_parser("pair", help="cross-shape transfer from matched landmarks",
                             parents=[diffusion])
    p.add_argument("--src", required=True)
    p.add_argument("--dst", required=True)
    p.add_argument("--landmarks-src", required=True)
    p.add_argument("--landmarks-dst", required=True)
    p.add_argument("--rho", default=_DEFAULTS["rho"],
                   help="'auto' computes the ratio from the original areas")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_match_pair)

    p = sub.add_parser("eval", help="geodesic-error curve of a map against ground truth")
    p.add_argument("--map", required=True)
    p.add_argument("--gt", required=True)
    p.add_argument("--mesh", required=True, help="target mesh")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_eval)

    p_exp = sub.add_parser("experiment", help="config-driven experiments")
    exp_sub = p_exp.add_subparsers(dest="subcommand", required=True, parser_class=_Parser)
    p = exp_sub.add_parser("run", help="run a key=value experiment config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_experiment_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out and (Path(out).is_dir() or not Path(out).parent.is_dir()):
            open(out, "r+")  # the final write's OSError, before any work; "r+" creates nothing
        return args.func(args)
    except (DataError, ValueError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
