"""Rules the package source keeps, read from it by ``ast``.

Squares are products.  ``x * x`` is correctly rounded on every IEEE
machine; a square through the C library's ``pow`` (Python's ``**`` and
``pow``, ``math.pow``, numpy's ``float_power`` and ``power``) may round
differently under another libm or CPU dispatch, and the reports are
byte-identical for a given (config, seed) only where their squares are.
``np.linalg.lstsq`` takes no stacks, so it would run one point at a time.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lckgeo"

BANNED_NAMES = {"pow", "float_power", "power", "lstsq"}


def _violations(source: str) -> list:
    """(line, what) of each square by ``**`` and each banned name."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if (isinstance(node.op, ast.Pow)
                    and isinstance(exponent, ast.Constant)
                    and exponent.value == 2):
                found.append((node.lineno, "** 2"))
        elif isinstance(node, ast.Name) and node.id in BANNED_NAMES:
            found.append((node.lineno, node.id))
        elif isinstance(node, ast.Attribute) and node.attr in BANNED_NAMES:
            found.append((node.lineno, node.attr))
    return found


def test_no_square_by_pow_and_no_per_point_least_squares():
    found = {path.name: _violations(path.read_text())
             for path in sorted(SRC.glob("*.py"))}
    assert {name: v for name, v in found.items() if v} == {}


@pytest.mark.parametrize("line", [
    "y = np.float_power(x, 2)", "y = x ** 2", "y = x ** 2.0", "x **= 2",
    "y = pow(x, 2)", "y = math.pow(x, 2)", "y = np.power(x, 2)",
    "t = np.linalg.lstsq(a, b, rcond=None)[0]"])
def test_each_form_is_seen(line):
    assert len(_violations(line)) == 1
