"""Smoke tests: every demo script and the README's library quick start run
to completion, and every name the package exports resolves."""

import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lckgeo

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_all_five_demos_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_readme_library_quick_start():
    """The first Python block under "Quick start (library)" runs, and gives
    what its comments say: theta = [1, 0, 0, 0] and a Vaisman verdict."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("## Quick start (library)", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()):
        exec(compile(block, "README.md", "exec"), namespace)
    assert np.max(np.abs(namespace["data"].theta
                         - [1.0, 0.0, 0.0, 0.0])) < 1e-8
    assert namespace["out"].kind == "Vaisman"


def test_every_export_resolves():
    assert len(set(lckgeo.__all__)) == len(lckgeo.__all__)
    missing = [name for name in lckgeo.__all__
               if not hasattr(lckgeo, name)]
    assert missing == []
