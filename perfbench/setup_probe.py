"""Fresh-process set-up: import lckgeo and resolve the manifolds named in argv.

    python3 perfbench/setup_probe.py "hopf{n=2}" "calabi{ell=sin,b=pi}"

run.py times this whole process from outside, as a user pays it on every
``lck run``.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import lckgeo  # noqa: E402

for selector in sys.argv[1:]:
    lckgeo.resolve_manifold(selector)
