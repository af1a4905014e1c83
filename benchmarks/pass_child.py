"""One workload pass in a fresh interpreter: python3 pass_child.py SPEC.json

The spec (written by run.py) names the source tree, the input files and the
CLI argument lists of the ops.  The child imports `quiver_orders.cli`, loads
the inputs, checks that every module cache is empty, runs the ops back to
back through `cli.main` and prints one JSON line: the set-up timestamp, the
pass wall time, each op's exit code and stdout digest, the peak RSS, the
reference-kernel times and, when traced, the per-layer metrics.  With
"setup_only" it stops after loading and one reference-kernel run.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path


def _run_op(cli, argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


def reference_kernel() -> float:
    """Seconds for a fixed computation that does not use the program: exact
    elimination of 14 x 14 integer matrices over Q and an integer loop.

    run.py scales every time by this kernel's median, which cancels the drift
    in speed of a shared machine.  It runs between ops, outside their timing.
    """
    start = time.perf_counter()
    for shift in range(3):
        rows = [[Fraction((7 * i + 3 * j + shift) % 11 - 5) for j in range(14)] for i in range(14)]
        for c in range(14):
            p = next((i for i in range(c, 14) if rows[i][c]), None)
            if p is None:
                continue
            rows[c], rows[p] = rows[p], rows[c]
            inv = 1 / rows[c][c]
            rows[c] = [inv * x for x in rows[c]]
            for i in range(14):
                if i != c and rows[i][c]:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
        total = 0
        for k in range(150_000):
            total += k * k % 7
    return time.perf_counter() - start


def _digest(stdout: str, op: dict, work: str) -> str:
    """sha256 of the op's stdout, with the work directory masked, and of the
    files it wrote."""
    digest = hashlib.sha256(stdout.replace(work, "$WORK").encode())
    for path in op["writes"]:
        p = Path(path)
        digest.update(p.read_bytes() if p.exists() else b"<missing>")
    return digest.hexdigest()


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    sys.path.insert(0, spec["src"])
    from quiver_orders import cli
    from quiver_orders.kostant import OrientationLedger
    from quiver_orders.quivers import parse_quiver_file

    for path in spec["quivers"]:
        parse_quiver_file(Path(path).read_text())
    OrientationLedger.from_json(Path(spec["ledger"]).read_text())
    ready = time.monotonic()

    import layer_trace

    result: dict = {"ready": ready, "warm_caches": layer_trace.warm_caches()}
    if spec.get("setup_only"):
        result["kernel_s"] = [reference_kernel()]
        print(json.dumps(result))
        return 0

    tracer = layer_trace.Tracer(spec["run_id"]) if spec["trace"] else None
    if tracer is not None:
        tracer.install()
    ops = []
    kernel = []
    try:
        for op in spec["ops"]:
            kernel.append(reference_kernel())
            t = time.perf_counter()
            code, out, err = _run_op(cli, op["argv"])
            seconds = time.perf_counter() - t
            ops.append(
                {"key": op["key"], "exit": code, "digest": _digest(out, op, spec["work"]),
                 "wall_s": seconds, "stderr": err[-2000:]}
            )
        kernel.append(reference_kernel())
    finally:
        if tracer is not None:
            tracer.uninstall()
    result["kernel_s"] = kernel
    result["wall_s"] = sum(op["wall_s"] for op in ops)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["ops"] = ops
    if tracer is not None:
        result["layers"] = tracer.metrics()
        result["leftover_wrappers"] = layer_trace.leftover_wrappers()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
