"""Record references.json: the exit code and stdout digest of every op that any
seed can produce (each op under every relabelling of its quiver).

    python3 benchmarks/record_references.py

Run it only on a commit whose outputs are known to be right; the benchmark
counts every later difference as a failed op.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="references-", dir=run.OUT))
    refs = {}
    try:
        for workload, ops in run.WORKLOADS.items():
            instances = [image for op in ops for image in op.images()]
            _, result = run.run_child(run.write_inputs(instances, work), work, timeout=900)
            for op in result["ops"]:
                refs[op["key"]] = {"exit": op["exit"], "digest": op["digest"]}
                print(f"{op['key']}: exit {op['exit']} in {op['wall_s']:.2f} s")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True, cwd=run.ROOT
    ).stdout.strip()
    payload = {"recorded_at_commit": commit or "unknown", "ops": dict(sorted(refs.items()))}
    run.REFERENCES.write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
