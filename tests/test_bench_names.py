"""The benchmark's traced names exist in the package.

``bench/run.py --trace 1`` wraps every function named in ``bench/tracing.py``
by looking it up in its ``gaugenorm`` module, so a rename or an inlined
function would break only the traced run. This test reads those names.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
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
