"""The one rule for which error a stacked call raises: errors.in_item_order."""

import ast
from pathlib import Path

import pytest

from lckgeo.errors import in_item_order

_SOURCES = Path(__file__).resolve().parent.parent / "src" / "lckgeo"


class TestInItemOrder:
    def test_returns_the_stacked_value(self):
        def each(item):
            raise AssertionError("an item was evaluated")

        assert in_item_order(lambda: [1, 2], each, [1, 2]) == [1, 2]

    def test_first_item_that_raises_alone_raises(self):
        seen = []

        def each(item):
            seen.append(item)
            if item >= 2:
                raise ValueError(f"item {item}")

        def stacked():
            raise ValueError("item 3")

        with pytest.raises(ValueError, match="item 2"):
            in_item_order(stacked, each, [0, 1, 2, 3])
        assert seen == [0, 1, 2]

    def test_stacked_error_where_no_item_raises(self):
        def stacked():
            raise MemoryError("the stack is too large")

        with pytest.raises(MemoryError, match="too large"):
            in_item_order(stacked, lambda item: None, [0, 1])


def _broad_handlers(tree):
    """(enclosing function, line) of each bare ``except:`` and each handler
    that names ``Exception`` or ``BaseException``."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.ExceptHandler):
            types = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            if any(t is None or (isinstance(t, ast.Name) and t.id in
                                 ("Exception", "BaseException"))
                   for t in types):
                found.append((function, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_the_helper_is_the_only_broad_handler():
    """A handler that catches every error exists to choose which error a
    stacked call raises; that rule lives in in_item_order alone."""
    found = {path.name: _broad_handlers(ast.parse(path.read_text()))
             for path in sorted(_SOURCES.glob("*.py"))}
    broad = [(name, function) for name, handlers in found.items()
             for function, _ in handlers]
    assert broad == [("errors.py", "in_item_order")], found
