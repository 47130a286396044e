"""numpy is the only dependency: no suite loads a scipy module.

The check runs in a fresh interpreter, since this process may have imported
scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

REPORT_SCIPY = """
import json, sys
print(json.dumps(sorted(m for m in sys.modules
                        if m == "scipy" or m.startswith("scipy."))))
"""


def _scipy_modules(body: str) -> list:
    """The scipy modules loaded after running ``body`` in a fresh process."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", body + REPORT_SCIPY],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.splitlines()[-1])


def test_no_suite_loads_scipy():
    """Resolve every zoo family at its default parameters and run one
    sample of every suite that applies to it."""
    body = """
import lckgeo
from lckgeo.errors import ParameterError
from lckgeo.report import _FAMILIES, SUITE_NAMES, SuiteConfig, run

ran = set()
for selector in _FAMILIES:
    lckgeo.resolve_manifold(selector)
    for suite in SUITE_NAMES:
        try:
            run(SuiteConfig(manifold=selector, suites=(suite,), samples=1,
                            seed=1))
        except ParameterError:
            continue      # the suite does not apply to this entry
        ran.add(suite)
assert len(ran) == len(SUITE_NAMES), ran
"""
    assert _scipy_modules(body) == []

