"""The names and command lines the benchmark hooks into must still exist.

`benchmarks/layer_trace.py` wraps functions by (module, name) and checks that
module caches start empty through `cache_info()`; a rename in the package
would break `benchmarks/run.py --trace 1` and its cache check.  The ops of
`benchmarks/run.py` are command lines of the CLI; a parser change that
rejected one would break every run of its workload.  Both files are loaded
by path without writing bytecode next to them.  A traced run of two ops
through the CLI checks that the wrappers still fit the package's signatures.
"""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from quiver_orders import flag_fibers
from quiver_orders.cli import build_parser, main

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"_{name}_probe", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
        del sys.modules[spec.name]
    return module


@pytest.fixture(scope="module")
def layer_trace():
    return _load("layer_trace")


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


def test_every_seeded_op_parses():
    run = _load("run")
    parser = build_parser()
    parsed = 0
    for workload, ops in run.WORKLOADS.items():
        for op in ops:
            for image in op.images():
                fill = {
                    "quiver": "q.quiver",
                    "ledger": "ledger.json",
                    "out": "out.dot",
                    "nu": ",".join(map(str, image.nu or ())),
                }
                argv = [a.format(**fill) for a in image.args]
                assert callable(parser.parse_args(argv).func), (workload, argv)
                parsed += 1
    assert parsed >= sum(len(ops) for ops in run.WORKLOADS.values())


def test_traced_ops_run_and_record_spans(layer_trace, tmp_path, capsys):
    d4 = tmp_path / "d4.quiver"
    d4.write_text("type D4\n1 -> 2\n3 -> 2\n4 -> 2\n")
    a2 = tmp_path / "a2.quiver"
    a2.write_text("type A2\n1 -> 2\n")
    # empty caches, as at the start of a benchmark pass, so every layer runs
    for mod, fn in layer_trace.CACHED:
        _package_attr(mod, fn).cache_clear()
    flag_fibers._fiber_table.cache_clear()
    flag_fibers._class_memo.cache_clear()
    tracer = layer_trace.Tracer("test")
    tracer.install()
    try:
        codes = [
            main(["verify", "ringel", str(d4)]),
            main(["count", "fibers", str(a2), "1,1", "--q", "2,3"]),
        ]
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0, 0]
    stats = tracer.summary()
    assert sum(s["calls"] for name, s in stats.items() if name.startswith("linalg.rref.")) > 0
    assert stats["reps.hom_dim"]["calls"] > 0
    # the count takes each class directly, and the recursion runs on classes:
    # the tracer sees its nodes as the `iso_class` spans of the restrictions
    # it classifies, inside `fiber_point_count`
    assert stats["flag_fibers.fiber_point_count"]["calls"] > 0
    names = [tracer.names[k] for k in tracer.name_of]

    def inside_a_count(span):
        while (span := tracer.parent[span]) >= 0:
            if names[span] == "flag_fibers.fiber_point_count":
                return True
        return False

    assert any(n == "reps.iso_class" and inside_a_count(s) for s, n in enumerate(names))
    assert layer_trace.leftover_wrappers() == []
