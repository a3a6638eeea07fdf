"""Every name the package exports, and every function and method the bench
tracer wraps by name, exists.

``bench/tracing.py`` looks its targets up when a traced run starts, so a
removed or renamed target would crash ``bench/run.py --trace 1`` only.  The
tracer's ``FUNCTIONS`` and ``METHODS`` tables are read from its source, so
the test neither imports nor writes anything under ``bench/``.
"""

import ast
import importlib
from pathlib import Path

import pytest

import towb
import towb.cli

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _table(name: str, width: int) -> list[tuple]:
    """The first ``width`` entries of each row of the list ``name``."""
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name
                for t in node.targets):
            return [tuple(ast.literal_eval(e) for e in row.elts[:width])
                    for row in node.value.elts]
    raise AssertionError(f"no {name} table in {TRACING}")


def test_exported_names_resolve():
    assert [name for name in towb.__all__ if not hasattr(towb, name)] == []


@pytest.mark.parametrize("home, attr", _table("FUNCTIONS", 2))
def test_traced_function_exists(home, attr):
    assert callable(getattr(importlib.import_module(home), attr))


@pytest.mark.parametrize("home, cls, meth", _table("METHODS", 3))
def test_traced_method_exists(home, cls, meth):
    assert callable(vars(getattr(importlib.import_module(home), cls))[meth])


def test_traced_handlers_exist():
    handlers = towb.cli._HANDLERS
    assert handlers and all(callable(h) for h in handlers.values())
