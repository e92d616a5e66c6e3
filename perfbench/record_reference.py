"""Record the reference outputs that the benchmark checks against.

    python3 perfbench/record_reference.py [workload ...]

Runs one pass of each workload on every input set of the pool and writes
``perfbench/reference.json``.  Run it only at a commit whose numerics are
known good: the benchmark then checks later commits against it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main(argv) -> int:
    run.limit_blas_threads()
    run.import_package()
    import workloads

    path = run.HERE / "reference.json"
    refs = json.loads(path.read_text()) if path.exists() else {}
    refs["pool"] = workloads.POOL
    workdir = run.ROOT / ".perfbench_work" / f"record-{os.getpid()}"
    for name in argv or list(workloads.WORKLOADS):
        refs[name] = {}
        for input_set in range(workloads.POOL):
            workdir.mkdir(parents=True, exist_ok=True)
            try:
                wl = workloads.WORKLOADS[name]("full", input_set, str(workdir))
                wl.setup()
                out = wl.run_pass()
                errors = {op: msg for op, msg in wl.verify(out, None).items() if msg}
                if errors:
                    raise SystemExit(f"{name} input set {input_set}: {errors}")
                refs[name][str(input_set)] = wl.reference(out)
            finally:
                shutil.rmtree(workdir, ignore_errors=True)
            print(f"{name} {input_set}", flush=True)
    path.write_text(json.dumps(refs, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
