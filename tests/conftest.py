import importlib.util
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

from domkit import solver

SRC = Path(__file__).resolve().parent.parent / "src"
CORE_C_SOURCE = SRC / "domkit" / "_core.c"
# the interpreter's own compile-and-link command for extensions
LDSHARED = shlex.split(sysconfig.get_config_var("LDSHARED") or "cc -shared")


def compile_core(directory, *flags):
    """Path of domkit._core compiled from source with flags into directory,
    a temp dir, never src/."""
    target = directory / ("_core" + sysconfig.get_config_var("EXT_SUFFIX"))
    include = sysconfig.get_paths()["include"]
    subprocess.run(
        [*LDSHARED, "-fPIC", *flags, "-I", include, str(CORE_C_SOURCE), "-o", str(target)],
        check=True,
    )
    return target


@pytest.fixture(scope="session")
def core_c(tmp_path_factory):
    """domkit._core freshly compiled from source, warnings as errors, or None
    without a C compiler."""
    if shutil.which(LDSHARED[0]) is None:
        return None
    target = compile_core(tmp_path_factory.mktemp("core_c"), "-O3", "-Wall", "-Wextra", "-Werror")
    spec = importlib.util.spec_from_file_location("domkit._core", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def empty_caches(monkeypatch):
    """Starts the test with solver's cache empty and restores it after;
    the returned function empties it again."""

    def empty():
        monkeypatch.setattr(solver, "_gamma_cache", {})
        monkeypatch.setattr(solver, "_cached_residues", 0)

    empty()
    return empty
