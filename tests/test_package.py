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
