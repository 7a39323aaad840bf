"""Every function in `src/tsesim` is reached by a command, or is allowlisted with its reason.

The census parses the package's modules with `ast` and runs short forms of
every command in process under `sys.setprofile`: `gen-trace`; `run` on the
built-in table, on a trace file with the EMC on and TSE 2.1, and from a
`--config` file with an `--acl` file; `render-map`; and `sweep`.  A code
object is matched to its `def` by file and first line; a decorated `def`
starts at its first decorator, which is where `co_firstlineno` points.  A
function that is neither reached nor in `ALLOWED` fails, and so does an
`ALLOWED` entry that is no longer defined or that a command now reaches.
Code that only the tests need belongs with the test oracles.
"""

import ast
import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

import tsesim
from tsesim.cli import main

PACKAGE = Path(tsesim.__file__).resolve().parent

# Qualified name (module.Class.function) -> why it stays in src/ unreached.
ALLOWED = {
    "attack.schedule_emissions":
        "perfbench/child.py drains it in every traced run for attack.schedule_emissions_s",
    "flow_cache.synthesize_megaflow":
        "perfbench/tracing.py patches it through vars(flow_cache); without it every traced "
        "benchmark child and tests/test_tracing.py raise KeyError",
    "headers.FieldSpec.__post_init__": "runs at import, building FIVE_TUPLE and HYP",
    "headers.HeaderLayout.__post_init__": "runs at import, building FIVE_TUPLE and HYP",
    "headers.HeaderValue.__hash__":
        "value-type protocol: perfbench/child.py keeps headers in a set to count repeats",
    "headers.HeaderValue.__eq__":
        "value-type protocol: perfbench/child.py keeps headers in a set to count repeats",
    "headers.HeaderValue.__repr__": "value-type protocol: names a header in a failing test",
}


def package_defs() -> dict[tuple[str, int], str]:
    """(file, first line) -> qualified name of every `def` in the package, nested ones too."""
    found = {}

    def visit(node: ast.AST, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = (child.decorator_list or [child])[0].lineno
                found[path, first] = prefix + child.name
                visit(child, path, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), str(path), path.stem + ".")
    return found


def commands(tmp: Path) -> list[list[str]]:
    (tmp / "acl.txt").write_text(
        "priority=100 dport=80 action=allow\n"
        "priority=90 ip_src=10.0.0.1 sport=53 action=allow\n"
        "priority=0 action=deny\n"
    )
    (tmp / "scenario.json").write_text(
        json.dumps({"use_case": "dp", "tse": "2.0", "duration": 3, "attack_start": 1})
    )
    short = ["--use-case", "dp", "--duration", "3", "--attack-start", "1"]
    return [
        ["gen-trace", "--use-case", "dp", "--out", f"{tmp}/dp.trace"],
        ["run", *short, "--out", f"{tmp}/builtin"],
        ["run", *short, "--trace", f"{tmp}/dp.trace", "--emc", "--tse", "2.1", "--rate", "3000",
         "--out", f"{tmp}/replay"],
        ["run", "--config", f"{tmp}/scenario.json", "--acl", f"{tmp}/acl.txt",
         "--out", f"{tmp}/config"],
        ["render-map", f"{tmp}/builtin/cachemap.csv"],
        ["sweep", "--use-case", "dp", "--cores-list", "1,2", "--rates-list", "1000",
         "--t-attack", "2", "--t-sleep", "1", "--attack-start", "1", "--duration", "8",
         "--out", f"{tmp}/sweep.csv"],
    ]


@pytest.fixture(scope="module")
def census(tmp_path_factory):
    """(qualified names of the package's defs, those no command reached)."""
    argvs = commands(tmp_path_factory.mktemp("census"))
    codes = set()

    def profile(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    before = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            exits = [main(argv) for argv in argvs]
    finally:
        sys.setprofile(before)
    assert exits == [0] * len(argvs)
    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}
    defs = package_defs()
    return set(defs.values()), {name for key, name in defs.items() if key not in reached}


def test_every_function_is_reached_or_allowlisted(census):
    _, unreached = census
    stray = sorted(unreached - ALLOWED.keys())
    assert not stray, (
        f"no command reaches {stray}: delete them, move them to the test oracles, "
        "or add each to ALLOWED with its reason"
    )


def test_allowlist_names_only_defined_functions(census):
    defined, _ = census
    stale = sorted(ALLOWED.keys() - defined)
    assert not stale, f"ALLOWED names {stale}, which src/ no longer defines"


def test_allowlist_names_no_reached_function(census):
    defined, unreached = census
    reached = sorted(ALLOWED.keys() & (defined - unreached))
    assert not reached, f"a command reaches {reached} now: drop them from ALLOWED"
