"""README drift: the documented commands, experiment kinds and example are the real ones.

The CLI block must hold only commands that parse and must show every
subcommand; the experiments table must list exactly the configurable kinds
and name each kind's config keys; the minimal example must run; the Scripts
section must name exactly the files under ``scripts/`` and ``configs/``; the
Library tour's signatures must be the package's, and its ``evaluation`` row
must name the Dijkstra chunk size the module uses. Every public name of the
package has a user.
"""
import argparse
import importlib
import inspect
import pkgutil
import re
import shlex
from pathlib import Path

import numpy as np

import meshwavelets
from meshwavelets import evaluation, write_off
from meshwavelets.cli import build_parser
from meshwavelets.experiments import _SCHEMAS
from meshwavelets.synthetic import jittered_icosphere

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


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
    # one row per kind, naming exactly its config keys besides out_dir and seed
    rows = dict(re.findall(r"^\| `(\w+)` +\|[^|]*\|([^|]*)\|$", section("Experiments"),
                           flags=re.M))
    assert sorted(rows) == sorted(_SCHEMAS)
    for kind, keys in rows.items():
        assert set(re.findall(r"`(\w+)`", keys)) == set(_SCHEMAS[kind]), kind


def test_minimal_example_runs(tmp_path, monkeypatch, capsys):
    example = README.split("A minimal end-to-end use:\n\n```python\n", 1)[1].split("```", 1)[0]
    write_off(jittered_icosphere(2, seed=1), tmp_path / "mesh.off")
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(compile(example, "README.md", "exec"), scope)
    assert scope["pm"].source_size == scope["shape"].mesh.n_vertices == 162
    assert re.fullmatch(r"mean error \d\.\d{4}, AUC@0\.25 \d\.\d{3}\n",
                        capsys.readouterr().out)


def test_scripts_section_names_every_script_and_config():
    named = set(re.findall(r"\b((?:scripts|configs)/[\w.-]+)", section("Scripts")))
    shipped = {f"{path.parent.name}/{path.name}" for folder in ("scripts", "configs")
               for path in (ROOT / folder).iterdir() if path.is_file()}
    assert named == shipped


def public_callables():
    """Every public function, class and class method of the package's
    modules, by name, each from the module that defines it."""
    found = {}
    for info in pkgutil.iter_modules(meshwavelets.__path__):
        module = importlib.import_module(f"meshwavelets.{info.name}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or inspect.isclass(obj):
                found.setdefault(name, []).append(obj)
            if inspect.isclass(obj):
                for method, fn in vars(obj).items():
                    if not method.startswith("_") and inspect.isfunction(fn):
                        found.setdefault(method, []).append(fn)
    return found


def test_library_tour_signatures_match_the_code():
    # each backticked `name(a, b=default)` names one public callable, whose
    # parameters are exactly a, b, ... in order (a trailing `...` stands for
    # the rest), with the quoted defaults
    quoted = re.findall(r"`(\w+)\(([^`]*)\)`", section("Library tour"))
    assert quoted
    callables = public_callables()
    for name, params in quoted:
        assert len(callables.get(name, [])) == 1, f"`{name}` is not one public callable"
        signature = inspect.signature(callables[name][0])
        real = [p for p in signature.parameters.values() if p.name != "self"]
        items = [item.strip() for item in params.split(",")]
        if items[-1] == "...":
            items, real = items[:-1], real[:len(items) - 1]
        assert [item.split("=")[0] for item in items] == [p.name for p in real], \
            f"README's `{name}({params})` against {signature}"
        for item, p in zip(items, real):
            if "=" in item:
                assert eval(item.split("=", 1)[1], {"np": np}) == p.default, \
                    f"README's `{name}({params})` against {signature}"


def test_every_public_name_has_a_user():
    # each public function, class and method outside the test-support module
    # `synthetic` is named in src/ beyond its definition and the package's
    # re-exports, in scripts/, configs/ or perfbench/, or in README's backticks
    package = ROOT / "src" / "meshwavelets"
    src = [path.read_text() for path in package.glob("*.py") if path.name != "__init__.py"]
    users = [path.read_text() for folder in ("scripts", "configs", "perfbench")
             for path in (ROOT / folder).rglob("*") if path.suffix in (".py", ".txt", ".md")]
    users.append(" ".join(re.findall(r"`[^`\n]+`", README)))
    unused = []
    for name, objs in public_callables().items():
        if all(obj.__module__ == "meshwavelets.synthetic" for obj in objs):
            continue
        word = re.compile(rf"\b{name}\b")
        definition = re.compile(rf"^\s*(?:def|class) {name}\b.*$", flags=re.M)
        if not any(word.search(definition.sub("", text)) for text in src + users):
            unused.append(name)
    assert unused == []


def test_evaluation_row_names_the_dijkstra_chunk():
    row = re.search(r"^\| `evaluation` .*$", section("Library tour"), flags=re.M).group(0)
    chunk = str(evaluation._DIJKSTRA_CHUNK)
    assert re.findall(r"chunks of (\d+) sources, O\((\d+)·n\) memory", row) == [(chunk, chunk)]
