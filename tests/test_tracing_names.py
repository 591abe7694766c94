"""The benchmark's per-layer spans name functions of spinsurf: each must exist.

`bench/tracing.py` wraps functions by module and name and reports one that
is gone as untraced, so a rename in `src/` would zero its per-layer metric
without failing a run. This test reads the tables there and edits nothing.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TABLES = _tracing()
# name -> (defining module, function, the modules named to hold it, or ())
TRACED = {**{name: (m, f, holders or ()) for name, (m, f, holders) in _TABLES.SPANS.items()},
          **{name: (m, f, ()) for name, (m, f) in _TABLES.COUNTERS.items()}}


def _module(short):
    return importlib.import_module("spinsurf." + short)


@pytest.mark.parametrize("name", sorted(TRACED))
def test_traced_function_exists_in_its_module(name):
    module, function, holders = TRACED[name]
    original = getattr(_module(module), function, None)
    assert callable(original)
    for holder in holders:
        assert getattr(_module(holder), function, None) is original, holder
