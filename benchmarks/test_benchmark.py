"""Tests of the benchmark itself.

    python3 -m pytest -q benchmarks/test_benchmark.py
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import layer_trace  # noqa: E402
import run  # noqa: E402

# Cheap ops that between them reach the elimination, fiber, orbit, partition
# and calibration layers.
SMALL = ("z-A3", "mackey-D4", "calibrate-D4")
HELD_OUT_SEED = 13


def small_ops(seed: int = 0) -> list[run.Op]:
    ops = [*run.seeded_ops("fibers-fq", seed), *run.seeded_ops("poset", seed)]
    return [op for op in ops if op.name in SMALL]


def test_every_seedable_op_has_a_reference():
    refs = run.load_references()
    keys = {image.key for ops in run.WORKLOADS.values() for op in ops for image in op.images()}
    assert keys == set(refs)
    assert all(ref["exit"] == 0 for ref in refs.values())


def test_seed_picks_relabelled_inputs():
    for workload in run.WORKLOADS:
        assert run.seeded_ops(workload, 0) == run.seeded_ops(workload, 0)
        assert run.seeded_ops(workload, 0) != run.seeded_ops(workload, HELD_OUT_SEED)
    for seed in range(64):
        e6 = [op.arrows for op in run.seeded_ops("hom-q", seed) if op.label == "E6"]
        assert len(e6) == 2 and e6[0] != e6[1]


def test_relabelling_poses_the_same_problem():
    from quiver_orders import adapted_order, enumerate_kp, quiver

    (op,) = [op for op in run.WORKLOADS["poset"] if op.name == "kp-hasse-A4"]
    sizes = set()
    for image in op.images():
        Q = quiver(image.label, image.arrows)
        sizes.add(len(enumerate_kp(Q.datum, image.nu, adapted_order(Q))))
    assert len(op.images()) == 2 and len(sizes) == 1


def test_corrupted_reference_is_detected(tmp_path):
    ops = small_ops()
    spec = run.write_inputs(ops, tmp_path)
    _, result = run.run_child(spec, tmp_path)
    refs = run.load_references()
    assert run.check_ops(result, refs) == []
    bad_digest = copy.deepcopy(refs)
    bad_digest[ops[0].key]["digest"] = "0" * 64
    assert run.check_ops(result, bad_digest) == [ops[0].key]
    bad_exit = copy.deepcopy(refs)
    bad_exit[ops[1].key]["exit"] = 1
    assert run.check_ops(result, bad_exit) == [ops[1].key]


def test_measure_counts_failed_ops(tmp_path, monkeypatch):
    refs = json.loads(run.REFERENCES.read_text())
    for key in refs["ops"]:
        if key.startswith("calibrate-D4:"):
            refs["ops"][key]["digest"] = "0" * 64
    corrupted = tmp_path / "references.json"
    corrupted.write_text(json.dumps(refs))
    monkeypatch.setattr(run, "REFERENCES", corrupted)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    result = run.measure("poset", 0, 0, trace=False)
    assert result["correct"] is False
    assert (result["attempted"], result["failed"]) == (5, 1)


def test_traced_counts_repeat_and_wrappers_are_removed(tmp_path):
    spec = run.write_inputs(small_ops(), tmp_path)
    results = []
    for i in range(2):
        spans = tmp_path / f"spans{i}.tsv"
        traced = {**spec, "trace": True, "run_id": f"r{i}", "spans": str(spans)}
        results.append(run.run_child(traced, tmp_path)[1])
        header, first = spans.read_text().splitlines()[:2]
        assert header.split("\t") == ["run_id", "span", "parent", "name", "start_s", "end_s"]
        assert first.startswith(f"r{i}\t0\t-1\tcli.main\t")
    counts = [
        {k: v for k, v in r["layers"].items() if run.layer_unit(k) == "count"}
        for r in results
    ]
    assert counts[0] == counts[1]
    assert counts[0]["flag_fibers.nodes"] > counts[0]["flag_fibers.distinct_nodes"] > 0
    assert counts[0]["linalg.rref.cells.fp"] > 0 and counts[0]["linalg.rref.cells.gf"] > 0
    assert counts[0]["kostant.enumerate_kp.partitions"] > 0
    assert counts[0]["cli.main.calls"] == len(SMALL)
    assert all(r["leftover_wrappers"] == [] for r in results)
    assert all(run.check_ops(r, run.load_references()) == [] for r in results)


def _bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "quiver_orders" or name.startswith("quiver_orders.")
        for attr, value in vars(mod).items()
    }


def test_install_rebinds_every_import_and_uninstall_restores():
    import quiver_orders.cli  # noqa: F401
    from quiver_orders import flag_fibers, linalg, pbw, reps

    before = _bindings()
    tracer = layer_trace.Tracer("in-process")
    tracer.install()
    try:
        for mod, attr in ((reps, "rref"), (reps, "nullspace"), (flag_fibers, "nullspace"),
                          (flag_fibers, "_count"), (linalg, "rref")):
            assert getattr(mod, attr) is not before[(mod.__name__, attr)]
        assert pbw.rank is before[("quiver_orders.pbw", "rank")]  # rank itself is not traced
        assert len(layer_trace.leftover_wrappers()) > len(layer_trace.WRAPPED)
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert layer_trace.leftover_wrappers() == []


def test_cache_check_sees_a_warm_cache():
    from quiver_orders.fields import galois_field

    for mod, fn in layer_trace.CACHED:
        getattr(layer_trace._module(mod), fn).cache_clear()
    assert layer_trace.warm_caches() == []
    galois_field(4)
    assert layer_trace.warm_caches() == ["fields.galois_field"]
    galois_field.cache_clear()


def test_result_line_contract():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "poset", "--seed", "1",
         "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=BENCH.parent,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / BENCH.name / "run.py"), "--workload", "hom-q",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
