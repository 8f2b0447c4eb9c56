"""The benchmark's traced names exist in the package.

``bench/run.py --trace 1`` wraps every function named in ``bench/tracing.py``
by looking it up in its ``gaugenorm`` module, so a rename or an inlined
function would break only the traced run. This test reads those names.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from functools import reduce
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    written = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = written
    return module


def test_every_traced_name_is_callable_in_its_module(tracing):
    missing = []
    for module, names in tracing.TRACED.items():
        home = importlib.import_module(f"gaugenorm.{module}")
        missing += [name for name in names if not callable(getattr(home, name, None))]
    assert missing == []


def _package_chains(source: str) -> set[str]:
    """Every longest attribute chain rooted at the names gn or gaugenorm."""
    tree = ast.parse(source)
    attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    inner = {id(node.value) for node in attributes}
    chains = set()
    for node in attributes:
        if id(node) in inner:
            continue
        names = []
        while isinstance(node, ast.Attribute):
            names.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in ("gn", "gaugenorm"):
            chains.add(".".join(reversed(names)))
    return chains


def test_every_package_attribute_the_bench_reads_resolves():
    # The bench reads the package as gn.* and gaugenorm.*, beyond the traced
    # names (worker.py reads duality._primal_vertices_cached.cache_info).
    gaugenorm = importlib.import_module("gaugenorm")
    chains = set()
    for path in sorted(TRACING.parent.glob("*.py")):
        chains |= _package_chains(path.read_text(encoding="utf-8"))
    assert "duality._primal_vertices_cached.cache_info" in chains
    missing = []
    for chain in sorted(chains):
        try:
            reduce(getattr, chain.split("."), gaugenorm)
        except AttributeError:
            missing.append(chain)
    assert missing == []
