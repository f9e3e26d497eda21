"""The repository benchmark's contract with the package.

``perfbench/`` imports library names inside the functions its child
processes run, so a refactor that renames or re-signs one of them
breaks only the benchmark run, long after the tests pass.  These tests
read ``perfbench/*.py`` (never edit them) and fail at test time
instead: every ``from repro… import name`` must resolve, and every
direct call of an imported callable must bind to its signature.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from typing import Dict, Iterator, List, Tuple

import pytest

from tests.helpers import REPO_ROOT

PERFBENCH = REPO_ROOT / "perfbench"


def _trees() -> Iterator[Tuple[str, ast.AST]]:
    for path in sorted(PERFBENCH.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def _is_repro_import(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module or "").split(".")[0] == "repro"
    )


def _repro_imports() -> List[Tuple[str, str, str]]:
    """``(file, module, name)`` of every ``from repro… import name``."""
    return [
        (filename, node.module, alias.name)
        for filename, tree in _trees()
        for node in ast.walk(tree)
        if _is_repro_import(node)
        for alias in node.names
    ]


def _calls() -> List[Tuple[str, int, ast.Call]]:
    """``(file, line, call)`` of every direct call of a name that the
    same file imports from ``repro``."""
    found = []
    for filename, tree in _trees():
        imported = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if _is_repro_import(node)
            for alias in node.names
        }
        found.extend(
            (filename, node.lineno, node)
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in imported
        )
    return found


IMPORTS = _repro_imports()


def test_perfbench_imports_something_from_the_package():
    # Guards the scan itself: an empty list would pass every case below.
    modules = {module for _, module, _ in IMPORTS}
    assert "repro.workloads.injection" in modules
    assert "repro.engine.streaming" in modules


@pytest.mark.parametrize(
    "filename, module, name",
    IMPORTS,
    ids=[f"{f}:{m}.{n}" for f, m, n in IMPORTS],
)
def test_every_perfbench_import_resolves(filename, module, name):
    assert hasattr(importlib.import_module(module), name), (
        f"perfbench/{filename} imports {name} from {module}, which no "
        f"longer defines it"
    )


def test_every_perfbench_call_binds_to_its_signature():
    origins: Dict[str, Tuple[str, str]] = {
        name: (module, name) for _, module, name in IMPORTS
    }
    checked = 0
    for filename, line, call in _calls():
        if any(isinstance(arg, ast.Starred) for arg in call.args) or any(
            keyword.arg is None for keyword in call.keywords
        ):
            continue
        module, name = origins[call.func.id]
        try:
            signature = inspect.signature(
                getattr(importlib.import_module(module), name)
            )
        except (TypeError, ValueError):
            continue
        args = [object()] * len(call.args)
        kwargs = {keyword.arg: object() for keyword in call.keywords}
        try:
            signature.bind(*args, **kwargs)
        except TypeError as exc:
            pytest.fail(
                f"perfbench/{filename}:{line} calls {call.func.id} "
                f"with {len(args)} positional and {sorted(kwargs)} "
                f"keyword arguments, which its signature {signature} "
                f"rejects: {exc}"
            )
        checked += 1
    assert checked > 0


def test_iter_injected_rows_takes_perfbench_positional_call():
    # perfbench/tpch.py drives the injector as
    # iter_injected_rows(relation, fd, rows, rate, seed[, sink]).
    from repro.workloads.injection import iter_injected_rows
    from repro.workloads.tpch import generate_tables, tpch_schema

    calls = [
        call for _, _, call in _calls() if call.func.id == "iter_injected_rows"
    ]
    assert calls, "perfbench no longer calls iter_injected_rows"
    assert {len(call.args) for call in calls} <= {5, 6}
    fd = next(
        fd for fd in tpch_schema().fds_for("orders").fds if not fd.is_trivial()
    )
    clean = list(generate_tables(0.002, 3)["orders"]())
    sink: List = []
    rows = list(iter_injected_rows("orders", fd, iter(clean), 0.5, 3, sink))
    assert sink and len(rows) == len(clean) + len(sink)
    assert list(iter_injected_rows("orders", fd, iter(clean), 0.5, 3)) == rows
