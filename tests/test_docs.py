"""README drift: the documented commands and experiment kinds are the real ones.

The CLI block must hold only commands that parse and must show every
subcommand; the experiments table must list exactly the configurable kinds.
"""
import argparse
import re
import shlex
from pathlib import Path

from meshwavelets.cli import build_parser
from meshwavelets.experiments import _SCHEMAS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def section(title):
    return README.split(f"\n## {title}\n", 1)[1].split("\n## ", 1)[0]


def cli_commands():
    """Argument lists of the ``meshwavelets`` commands in the CLI section's
    shell block, with backslash-continued lines joined."""
    block = section("CLI").split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("meshwavelets ")]


def leaf_commands(parser, prefix=()):
    """Every runnable subcommand path of ``parser``, e.g. ("match", "self")."""
    subs = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subs:
        return [prefix]
    return [leaf for name, sub in subs[0].choices.items()
            for leaf in leaf_commands(sub, prefix + (name,))]


def test_cli_block_matches_parser():
    commands = cli_commands()
    assert commands
    for argv in commands:
        build_parser().parse_args(argv)  # a usage error exits the test
    for leaf in leaf_commands(build_parser()):
        assert any(tuple(argv[:len(leaf)]) == leaf for argv in commands), \
            f"README's CLI block does not show `meshwavelets {' '.join(leaf)}`"


def test_experiments_table_matches_schemas():
    kinds = re.findall(r"^\| `(\w+)` ", section("Experiments"), flags=re.M)
    assert sorted(kinds) == sorted(_SCHEMAS)
