"""Rules the package source keeps, read from it by ``ast``.

Squares are products.  ``x * x`` is correctly rounded on every IEEE
machine; a square through the C library's ``pow`` (Python's ``**`` and
``pow``, ``math.pow``, numpy's ``float_power`` and ``power``) may round
differently under another libm or CPU dispatch, and the reports are
byte-identical for a given (config, seed) only where their squares are.
``np.linalg.lstsq`` takes no stacks, so it would run one point at a time.
``np.linalg.solve`` is called only in ``holonomy._loop_log``, whose solve
is not by a metric: every index a check raises uses the g^-1 of its
Lee-form pass, so a solve by g would be a second route to the same numbers.
A matrix times a vector is ``np.matvec``, not the hand-rolled
``(A @ v[..., None])[..., 0]``, so each product has one route.  The numpy
floor of ``pyproject.toml`` covers the release of every newer numpy name
the source calls.
"""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lckgeo"

# the numpy release that introduced each of these names
NUMPY_SINCE = {"vecdot": (2, 0), "matvec": (2, 2), "vecmat": (2, 2)}

BANNED_NAMES = {"pow", "float_power", "power", "lstsq", "solve"}

# (module, function) of the one ``solve`` the source keeps
SOLVE_SITE = ("holonomy.py", "_loop_log")


def _is_hand_matvec(node) -> bool:
    """``(A @ v[..., None])[..., 0]``: a matrix product with a trailing
    axis added to its right operand, whose trailing axis is then dropped."""
    def slice_is(sub, last):
        return (isinstance(sub, ast.Subscript)
                and isinstance(sub.slice, ast.Tuple)
                and [type(e) for e in sub.slice.elts] == [ast.Constant] * 2
                and [e.value for e in sub.slice.elts] == [Ellipsis, last])
    return (slice_is(node, 0) and isinstance(node.value, ast.BinOp)
            and isinstance(node.value.op, ast.MatMult)
            and slice_is(node.value.right, None))


def _violations(source: str, solve_in: str = None) -> list:
    """(line, what) of each square by ``**``, each banned name, but a
    ``solve`` inside the function named ``solve_in``, and each hand-rolled
    matrix-vector product."""
    tree = ast.parse(source)
    allowed = {id(node) for f in ast.walk(tree)
               if isinstance(f, ast.FunctionDef) and f.name == solve_in
               for node in ast.walk(f)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if (isinstance(node.op, ast.Pow)
                    and isinstance(exponent, ast.Constant)
                    and exponent.value == 2):
                found.append((node.lineno, "** 2"))
        name = (node.id if isinstance(node, ast.Name)
                else node.attr if isinstance(node, ast.Attribute) else None)
        if name in BANNED_NAMES and not (name == "solve"
                                         and id(node) in allowed):
            found.append((node.lineno, name))
        if _is_hand_matvec(node):
            found.append((node.lineno, "(A @ v[..., None])[..., 0]"))
    return found


def test_no_square_by_pow_and_no_per_point_least_squares():
    found = {path.name: _violations(
        path.read_text(),
        SOLVE_SITE[1] if path.name == SOLVE_SITE[0] else None)
        for path in sorted(SRC.glob("*.py"))}
    assert {name: v for name, v in found.items() if v} == {}


@pytest.mark.parametrize("line", [
    "y = np.float_power(x, 2)", "y = x ** 2", "y = x ** 2.0", "x **= 2",
    "y = pow(x, 2)", "y = math.pow(x, 2)", "y = np.power(x, 2)",
    "t = np.linalg.lstsq(a, b, rcond=None)[0]",
    "v = np.linalg.solve(g, w)",
    "def _loop_log():\n    pass\ndef f():\n    return solve(g, w)",
    "v = (a @ v[..., None])[..., 0]",
    "t = (-np.swapaxes(J, -1, -2) @ np.asarray(tau)[..., None])[..., 0]"])
def test_each_form_is_seen(line):
    assert len(_violations(line, solve_in=SOLVE_SITE[1])) == 1


@pytest.mark.parametrize("line", [
    "d = partials(np.asarray(r, dtype=float)[..., None])[..., 0]",
    "s = (v[..., None, :] @ m @ v[..., :, None])[..., 0, 0]",
    "w = np.matvec(a, v)"])
def test_other_forms_are_not_seen(line):
    assert _violations(line) == []


def test_numpy_floor_covers_the_names_called():
    text = (SRC.parent.parent / "pyproject.toml").read_text()
    floor = tuple(int(part) for part in re.search(
        r'"numpy>=([0-9.]+)"', text).group(1).split("."))
    called = {node.attr for path in SRC.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Attribute) and node.attr in NUMPY_SINCE}
    assert called
    assert {name: NUMPY_SINCE[name] for name in called
            if floor < NUMPY_SINCE[name]} == {}
