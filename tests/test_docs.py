"""README drift: the documented commands, experiment kinds and example are the real ones.

The CLI block must hold only commands that parse and must show every
subcommand; the experiments table must list exactly the configurable kinds
and name each kind's config keys; the minimal example must run; the Scripts
section must name exactly the files under ``scripts/`` and ``configs/``; the
Library tour's signatures must be the package's, and its ``evaluation`` row
must name the Dijkstra chunk size the module uses. Every public name of the
package has a user in code, and every defaulted parameter a caller that
passes it.
"""
import argparse
import ast
import collections
import importlib
import inspect
import io
import pkgutil
import re
import shlex
import tokenize
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


def code_files():
    """The Python files that use the package: its modules but ``__init__``,
    ``scripts/`` and ``perfbench/``."""
    modules = (ROOT / "src" / "meshwavelets").glob("*.py")
    return ([path for path in modules if path.name != "__init__.py"]
            + [path for folder in ("scripts", "perfbench")
               for path in (ROOT / folder).rglob("*.py")])


def code_names(path):
    """The names a Python file's code uses: its NAME tokens, so none from a
    string or a comment, less each name that a ``def`` or ``class`` defines."""
    tokens = list(tokenize.generate_tokens(io.StringIO(path.read_text()).readline))
    return {token.string for before, token in zip([None] + tokens, tokens)
            if token.type == tokenize.NAME and not (before and before.string in ("def", "class"))}


def test_every_public_name_has_a_user():
    # each public function, class and method outside the test-support module
    # `synthetic` is named by code: a module's code beyond its definition, a
    # script, perfbench, a config, or a fenced code block of README; prose
    # and docstrings are no users
    used = set().union(*map(code_names, code_files()))
    for text in [path.read_text() for path in (ROOT / "configs").iterdir()] + \
            re.findall(r"^```\w*\n(.*?)^```", README, flags=re.M | re.S):
        used.update(re.findall(r"\w+", text))
    unused = [name for name, objs in public_callables().items()
              if name not in used
              and any(obj.__module__ != "meshwavelets.synthetic" for obj in objs)]
    assert unused == []


def passes(call, index, param):
    """Whether ``call`` passes ``param``, its callee's ``index``-th parameter
    (``self`` not counted): by keyword, by position, or through ``*`` or ``**``."""
    if any(keyword.arg in (param.name, None) for keyword in call.keywords):
        return True
    return param.kind is not inspect.Parameter.KEYWORD_ONLY and (
        len(call.args) > index or any(isinstance(arg, ast.Starred) for arg in call.args))


def test_every_defaulted_parameter_is_passed():
    # a default that no call overrides is a setting with one value in use:
    # each defaulted parameter of a public function or method outside
    # `synthetic` is passed by some call in the code files, a call being
    # matched to its callee by name
    calls = collections.defaultdict(list)
    for path in code_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                calls[getattr(node.func, "id", getattr(node.func, "attr", None))].append(node)
    unpassed = []
    for name, objs in public_callables().items():
        for fn in objs:
            if inspect.isclass(fn) or fn.__module__ == "meshwavelets.synthetic":
                continue
            params = [p for p in inspect.signature(fn).parameters.values() if p.name != "self"]
            unpassed += [f"{name}({p.name})" for i, p in enumerate(params)
                         if p.default is not inspect.Parameter.empty
                         and not any(passes(call, i, p) for call in calls[name])]
    assert unpassed == []


def test_evaluation_row_names_the_dijkstra_chunk():
    row = re.search(r"^\| `evaluation` .*$", section("Library tour"), flags=re.M).group(0)
    chunk = str(evaluation._DIJKSTRA_CHUNK)
    assert re.findall(r"chunks of (\d+) sources, O\((\d+)·n\) memory", row) == [(chunk, chunk)]
