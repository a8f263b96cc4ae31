import json
import subprocess
import sys
from pathlib import Path

import domkit


def test_every_public_name_resolves():
    assert len(set(domkit.__all__)) == len(domkit.__all__)
    for name in domkit.__all__:
        assert hasattr(domkit, name), name


def test_star_import_binds_exactly_the_public_names():
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import json, sys; sys.path.insert(0, {str(src)!r}); before = set(globals()); "
        "from domkit import *; bound = set(globals()) - before - {'before'}; "
        "import domkit; print(json.dumps([sorted(bound), sorted(domkit.__all__)]))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    bound, public = json.loads(out)
    assert bound == public
    assert public == sorted(domkit.__all__)


def test_cli_import_leaves_out_slow_stdlib_modules():
    # dataclasses imports inspect, ast, dis and tokenize, which used to double
    # domkit's import time; -S because a site .pth file may import typing
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        f"import json, sys; sys.path.insert(0, {str(src)!r}); import domkit.cli; "
        "print(json.dumps([m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules]))"
    )
    out = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert json.loads(out) == []


def test_module_entry_point():
    # runs src/domkit/__main__.py as `python -m domkit` does; -I keeps an
    # installed copy and PYTHONPATH off the path
    src = Path(__file__).resolve().parents[1] / "src"

    def run(*argv):
        code = (
            f"import runpy, sys; sys.path.insert(0, {str(src)!r}); "
            f"sys.argv = ['domkit', *{list(argv)!r}]; "
            "runpy.run_module('domkit', run_name='__main__', alter_sys=True)"
        )
        return subprocess.run([sys.executable, "-I", "-c", code], capture_output=True, text=True)

    done = run("ratio", "--d", "4", "--s", "7", "--format", "plain")
    assert (done.returncode, done.stdout, done.stderr) == (0, "1/4\n", "")
    done = run("gamma", "--n", "0", "--set", "1")
    assert done.returncode == 2
    assert done.stdout == ""
