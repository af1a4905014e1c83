"""Benchmark of the quiver-orders command line, end to end and per layer.

    python3 benchmarks/run.py --workload hom-q --seed 0 --seconds 30 --trace 0

Load model: a closed loop with one client.  Each workload pass runs all of
the workload's ops back to back through `quiver_orders.cli.main` in a fresh
interpreter (one child process at a time), so the module caches start empty
on every pass, as they do for a CLI user.  Passes repeat until `--seconds`
have elapsed.  Every op's exit code and stdout digest are compared with the
references in references.json, recorded from the unmodified program.

Times are scaled to a steady machine: each child also times a fixed
reference kernel (pass_child.reference_kernel) between ops, and every
reported time is multiplied by REFERENCE_KERNEL_S / (median kernel time of
the run).  On a shared machine whose speed drifts by 20% or more over
minutes, this cancels the drift; the raw medians are printed on the `#`
lines.

The seed picks, for every op, the orientation of its Dynkin quiver among the
images of a fixed base orientation under the diagram automorphisms (and
permutes the op's dimension vector to match).  Every seed thus poses the same
problems up to relabelling the vertices, which keeps the run-to-run spread
of the timings small while inputs still differ between seeds.

With `--trace 0` the last stdout line carries the end-to-end metrics, with
`--trace 1` the per-layer metrics of traced passes (see layer_trace.py),
plus the tracing overhead.  Exit code 0 on a completed measurement, even
when outputs are wrong (then "correct" is false); 2 when the program cannot
be run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCES = BENCH / "references.json"
CHILD = BENCH / "pass_child.py"

SETUP_PROBES = 10
REFERENCE_KERNEL_S = 0.07  # the reference kernel's typical time where the baseline was recorded
RUN_LIMIT_S = 170  # a run must end within 180 s; no child may outlive this

LEDGER = {
    "order_direction": "reversed",
    "hom_formula_direction": "transposed",
    "res_large_side": "first-factor",
}

def automorphisms(label: str) -> list[dict[int, int]]:
    """The vertex permutations preserving the Dynkin diagram of `label`."""
    n = int(label[1:])
    ident = {i: i for i in range(1, n + 1)}
    if label[0] == "A":
        return [ident, {i: n + 1 - i for i in range(1, n + 1)}]
    if label == "D4":
        return [
            {2: 2, **dict(zip((1, 3, 4), p))} for p in itertools.permutations((1, 3, 4))
        ]
    if label[0] == "D":
        return [ident, {**ident, n - 1: n, n: n - 1}]
    if label == "E6":
        return [ident, {1: 6, 6: 1, 3: 5, 5: 3, 2: 2, 4: 4}]
    raise ValueError(f"no automorphisms listed for {label}")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `args` with {quiver}, {nu}, {ledger}, {out} filled in."""

    name: str
    label: str
    arrows: tuple[tuple[int, int], ...]
    args: tuple[str, ...]
    nu: tuple[int, ...] | None = None

    def relabel(self, sigma: dict[int, int]) -> "Op":
        arrows = tuple(sorted((sigma[s], sigma[t]) for s, t in self.arrows))
        nu = None
        if self.nu is not None:
            inverse = {v: k for k, v in sigma.items()}
            nu = tuple(self.nu[inverse[i] - 1] for i in range(1, len(self.nu) + 1))
        return Op(self.name, self.label, arrows, self.args, nu)

    def images(self) -> list["Op"]:
        """The distinct relabellings of this op, in a fixed order."""
        seen = {}
        for sigma in automorphisms(self.label):
            op = self.relabel(sigma)
            seen.setdefault((op.arrows, op.nu), op)
        return [seen[k] for k in sorted(seen)]

    @property
    def key(self) -> str:
        arrows = ",".join(f"{s}>{t}" for s, t in self.arrows)
        nu = "" if self.nu is None else ":" + ",".join(map(str, self.nu))
        return f"{self.name}:{arrows}{nu}"

    def quiver_text(self) -> str:
        return f"type {self.label}\n" + "".join(f"{s} -> {t}\n" for s, t in self.arrows)


RINGEL = ("verify", "ringel", "{quiver}")
WORKLOADS: dict[str, tuple[Op, ...]] = {
    # Exact rational elimination, Hom-system assembly, indecomposable cache.
    "hom-q": (
        Op("ringel-E6-a", "E6", ((1, 3), (4, 2), (4, 3), (5, 4), (5, 6)), RINGEL),
        Op("ringel-E6-b", "E6", ((2, 4), (3, 1), (3, 4), (4, 5), (5, 6)), RINGEL),
        Op("ringel-D6", "D6", ((1, 2), (2, 3), (3, 4), (4, 5), (6, 4)), RINGEL),
        Op(
            "reflection-D4", "D4", ((1, 2), (2, 4), (3, 2)),
            ("verify", "reflection", "{quiver}", "--ledger", "{ledger}", "--nu-max", "4"),
        ),
    ),
    # Elimination over F_p and GF(p^r) on many tiny matrices; the fiber recursion.
    "fibers-fq": (
        Op(
            "fibers-A3", "A3", ((1, 2), (3, 2)),
            ("count", "fibers", "{quiver}", "{nu}", "--q", "2,3,4,5,7,8,9"), (2, 2, 2),
        ),
        Op(
            "z-A3", "A3", ((1, 2), (2, 3)),
            ("count", "z", "{quiver}", "{nu}", "--q", "2,3,4,5"), (2, 2, 2),
        ),
        Op("evenness-A3", "A3", ((1, 2), (2, 3)), ("verify", "evenness", "{quiver}", "--nu-max", "4")),
    ),
    # Partition enumeration, cover relations and pairwise order comparisons.
    "poset": (
        Op(
            "kp-hasse-A4", "A4", ((1, 2), (3, 2), (3, 4)),
            ("kp", "{quiver}", "{nu}", "--hasse", "{out}", "--ledger", "{ledger}", "--cap", "100000"),
            (3, 3, 4, 3),
        ),
        Op("kp-E6", "E6", ((1, 3), (2, 4), (3, 4), (4, 5), (5, 6)), ("kp", "{quiver}", "{nu}"), (1, 2, 2, 3, 2, 1)),
        Op(
            "baumann-D5", "D5", ((1, 2), (2, 3), (3, 4), (5, 3)),
            ("verify", "baumann", "{quiver}", "--ledger", "{ledger}", "--nu-max", "5"),
        ),
        Op(
            "mackey-D4", "D4", ((2, 1), (2, 3), (4, 2)),
            ("verify", "mackey", "{quiver}", "--ledger", "{ledger}", "--nu-max", "4"),
        ),
        Op("calibrate-D4", "D4", ((1, 2), (2, 4), (3, 2)), ("calibrate", "{quiver}")),
    ),
}


class BenchError(RuntimeError):
    pass


def seeded_ops(workload: str, seed: int) -> list[Op]:
    """The workload's ops with the orientations picked by `seed`.

    The two E6 ops of hom-q start from base orientations that no diagram
    automorphism relates, so they stay distinct under every seed.
    """
    rng = random.Random(f"{workload}:{seed}")
    return [rng.choice(op.images()) for op in WORKLOADS[workload]]


def write_inputs(ops: list[Op], work: Path) -> dict:
    """Write quiver and ledger files under `work`; return the child spec."""
    ledger = work / "ledger.json"
    ledger.write_text(json.dumps(LEDGER, indent=2) + "\n")
    spec_ops = []
    quivers = []
    for op in ops:
        stem = f"{op.name}-{hashlib.sha256(op.key.encode()).hexdigest()[:10]}"
        quiver = work / f"{stem}.quiver"
        quiver.write_text(op.quiver_text())
        quivers.append(str(quiver))
        out = work / f"{stem}.out"
        fill = {
            "quiver": str(quiver),
            "ledger": str(ledger),
            "out": str(out),
            "nu": ",".join(map(str, op.nu or ())),
        }
        argv = [a.format(**fill) for a in op.args]
        writes = [str(out)] if "{out}" in op.args else []
        spec_ops.append({"key": op.key, "argv": argv, "writes": writes})
    return {
        "src": str(SRC),
        "work": str(work),
        "ledger": str(ledger),
        "quivers": quivers,
        "ops": spec_ops,
        "trace": False,
    }


def run_child(spec: dict, work: Path, timeout: float = RUN_LIMIT_S) -> tuple[float, dict]:
    """Run one child; return (set-up seconds, its result)."""
    path = work / "spec.json"  # children run one at a time, so one file serves all
    path.write_text(json.dumps(spec))
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), str(path)],
            capture_output=True, text=True, timeout=timeout, cwd=ROOT,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass did not finish within {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"child failed with exit {proc.returncode}:\n{proc.stderr[-3000:]}")
    result = json.loads(lines[-1])
    return result["ready"] - t_spawn, result


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())["ops"]


def check_ops(result: dict, references: dict) -> list[str]:
    """Keys of the ops whose exit code or digest differs from the reference."""
    bad = []
    for op in result["ops"]:
        ref = references.get(op["key"])
        if ref is None or ref["exit"] != op["exit"] or ref["digest"] != op["digest"]:
            bad.append(op["key"])
    return bad


def tail_note(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if above the median."""
    n = len(values)
    if n < 22:
        return f"n={n}: no percentile above the median has 10 samples beyond it"
    return f"n={n}: p{100 * (n - 10) // n} {sorted(values)[n - 11]:.4f} s"


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes for `seconds`; return the result object printed as the last line."""
    if not (SRC / "quiver_orders" / "cli.py").is_file():
        raise BenchError(f"no program source under {SRC}")
    references = load_references()
    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT))
    try:
        ops = seeded_ops(workload, seed)
        spec = write_inputs(ops, work)
        setups, kernels, attempted, failures, warm, errors = [], [], 0, [], [], {}
        began = time.monotonic()

        def one(child_spec):
            nonlocal attempted
            setup, result = run_child(child_spec, work, RUN_LIMIT_S - (time.monotonic() - began))
            setups.append(setup)
            kernels.extend(result["kernel_s"])
            warm.extend(result["warm_caches"])
            if "ops" in result:
                attempted += len(result["ops"])
                bad = check_ops(result, references)
                failures.extend(bad)
                for op in result["ops"]:
                    if op["key"] in bad:
                        errors.setdefault(op["key"], op["stderr"].strip()[-500:])
            return result

        for _ in range(SETUP_PROBES):
            one({**spec, "setup_only": True})
        plain, traced = [], []
        start = time.monotonic()
        while time.monotonic() - start < seconds or not plain or (trace and not traced):
            if trace and len(traced) < len(plain):
                run_id = f"{workload}-{seed}-{len(traced)}"
                spans = OUT / f"spans-{workload}-seed{seed}.tsv"
                traced.append(one({**spec, "trace": True, "run_id": run_id, "spans": str(spans)}))
            else:
                plain.append(one(spec))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    walls = [r["wall_s"] for r in plain]
    scale = REFERENCE_KERNEL_S / statistics.median(kernels)
    correct = not failures and not warm
    print(f"# {workload} seed={seed}: orientations " + "; ".join(op.key for op in ops))
    print(
        f"# reference kernel median {statistics.median(kernels):.4f} s (n={len(kernels)});"
        f" times below are raw, the JSON line scales them by {scale:.4f}"
    )
    print(f"# wall_s median {statistics.median(walls):.4f} s ({tail_note(walls)})")
    print(f"# setup_s median {statistics.median(setups):.4f} s (n={len(setups)})")
    for k, op in enumerate(ops):
        op_walls = [r["ops"][k]["wall_s"] for r in plain]
        print(f"#   {op.name}: median {statistics.median(op_walls):.4f} s")
    print(f"# fail_ratio {len(failures)}/{attempted}")
    for key, err in errors.items():
        print(f"# failed {key}; stderr: {err or '(empty)'}")
    if warm:
        print(f"# caches not empty at pass start: {sorted(set(warm))}")

    if not trace:
        metrics = {
            "wall_s": (statistics.median(walls) * scale, "s"),
            "setup_s": (statistics.median(setups) * scale, "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    else:
        metrics = layer_metrics(traced, walls, scale)
        if any(r["leftover_wrappers"] for r in traced):
            print("# tracing wrappers were left installed")
            correct = False
        counts = [
            {k: v for k, v in r["layers"].items() if layer_unit(k) == "count"}
            for r in traced
        ]
        if any(c != counts[0] for c in counts):
            print("# per-layer counts differ between traced passes")
            correct = False
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def layer_unit(name: str) -> str:
    parts = name.split(".")
    if any(p.endswith("_s") for p in parts):
        return "s"
    return "ratio" if parts[-1].endswith("_ratio") else "count"


def layer_metrics(traced: list[dict], plain_walls: list[float], scale: float) -> dict:
    """Medians over the traced passes (times scaled), plus the tracing overhead."""
    metrics = {}
    for name in traced[0]["layers"]:
        unit = layer_unit(name)
        value = statistics.median(r["layers"][name] for r in traced)
        metrics[name] = (value * scale if unit == "s" else value, unit)
    traced_wall = statistics.median(r["wall_s"] for r in traced) * scale
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - statistics.median(plain_walls) * scale, "s")
    metrics["reference.kernel_s"] = (REFERENCE_KERNEL_S / scale, "s")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
