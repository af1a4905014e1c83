"""The names the benchmark's layer tracer hooks into must still exist.

`benchmarks/layer_trace.py` wraps functions by (module, name) and checks that
module caches start empty through `cache_info()`; a rename in the package
would break `benchmarks/run.py --trace 1` and its cache check.  The tracer is
loaded from its file without writing bytecode next to it.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

LAYER_TRACE = Path(__file__).resolve().parents[1] / "benchmarks" / "layer_trace.py"


@pytest.fixture(scope="module")
def layer_trace():
    spec = importlib.util.spec_from_file_location("_layer_trace_probe", LAYER_TRACE)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def _package_attr(mod: str, name: str):
    return getattr(importlib.import_module(f"quiver_orders.{mod}"), name, None)


def test_wrapped_functions_resolve(layer_trace):
    assert layer_trace.WRAPPED
    missing = [
        f"{mod}.{fn}" for mod, fn, _ in layer_trace.WRAPPED if not callable(_package_attr(mod, fn))
    ]
    assert missing == []


def test_cached_functions_keep_cache_info(layer_trace):
    assert layer_trace.CACHED
    missing = [
        f"{mod}.{fn}"
        for mod, fn in layer_trace.CACHED
        if not callable(getattr(_package_attr(mod, fn), "cache_info", None))
    ]
    assert missing == []
