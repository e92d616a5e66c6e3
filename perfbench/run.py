"""Benchmark of the tisergcn package: three workloads, one command.

    python3 perfbench/run.py --workload train_default --seed 0 --seconds 55 --trace 0

``--workload`` is ``train_default``, ``synth_default``, ``cv_small`` or
``all`` (every workload in this one process; its peak memory is then
cumulative).  The run imports ``tisergcn`` from ``src/`` next to this
directory and refuses to run if the import resolves anywhere else.  It
repeats the workload's set-up and pass until ``--seconds`` have passed and
reports medians over passes and over set-ups; spreading the set-ups over
the run keeps a short spell of a slower host from deciding ``setup_s``.
The gated pass time is ``wall_per_ref``: a pass's wall time (``wall_s``,
in the table) over the time of a fixed reference kernel run around it.
The first set-up and pass of a run are a warm-up, checked but not timed:
a fresh process pays for touching new memory, and on a virtual machine
that first touch can cost several times a later one.  No set-up and pass
starts that would end past ``--seconds``.

With ``--trace 0`` the last line of standard output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` untraced and traced
passes alternate, and the JSON holds the per-layer metrics of the traced
passes plus ``trace.overhead_s`` (traced minus untraced pass wall time).
Lines before it are a human-readable table of every metric with its unit
and sample count, and a record of the environment.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

# metric -> unit.  Every workload reports the end-to-end metrics, which
# BENCHMARK.json gates; the other metrics, some on some workloads only,
# are reported in the table.
E2E = {"wall_per_ref": "ratio", "setup_s": "s", "peak_mem_mb": "MB"}
STAGE = {
    "wall_s": "s",
    "ref_s": "s",
    "train_events_per_s": "events/s",
    "predict_events_per_s": "events/s",
    "synth_events_per_s": "events/s",
    "cv_test_mse": "log10^2",
}


class GuardError(Exception):
    """The environment would measure something other than this checkout."""


def limit_blas_threads() -> int:
    """Cap BLAS threads at the usable core count; call before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            wanted = int(os.environ.get(var) or cores)
        except ValueError:
            wanted = cores
        os.environ[var] = str(max(1, min(wanted, cores)))
    return cores


def import_package() -> frozenset[str]:
    """Import tisergcn from this checkout's src/; return the names of the
    modules that were loaded before it, numpy among them."""
    import numpy  # noqa: F401

    src = ROOT / "src"
    if not (src / "tisergcn" / "__init__.py").is_file():
        raise GuardError(f"no package sources at {src / 'tisergcn'}")
    if "tisergcn" in sys.modules:
        raise GuardError("tisergcn was imported before the guard could pin it")
    sys.path.insert(0, str(src))
    before = frozenset(sys.modules)
    import tisergcn
    where = Path(tisergcn.__file__).resolve()
    if src.resolve() not in where.parents:
        raise GuardError(f"tisergcn resolved to {where}, outside {src}")
    return before


def time_import(before: frozenset[str]) -> float:
    """Seconds to import tisergcn afresh.  Every module loaded since
    ``before`` is set aside, the package is imported again, and the
    modules set aside are put back, so the run keeps using them."""
    kept = {name: sys.modules.pop(name) for name in set(sys.modules) - before}
    start = time.perf_counter()
    importlib.import_module("tisergcn")
    elapsed = time.perf_counter() - start
    for name in set(sys.modules) - before:
        del sys.modules[name]
    sys.modules.update(kept)
    gc.collect()            # the discarded copy, before the next timed pass
    return elapsed


def _git_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas_threads():
    import ctypes
    import numpy as np

    libdir = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libdir.glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(cores: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "tisergcn").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    threads = _blas_threads()
    if threads is not None and threads > cores:
        raise GuardError(f"BLAS uses {threads} threads on {cores} cores")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": threads,
        "nproc": cores,
        "cpu": cpu,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest()[:16],
    }


class ReferenceKernel:
    """Fixed work, timed before every set-up and pass and after the last.

    On a virtual machine of a shared host, speed can drift by a fifth or
    more over tens of seconds, and every pass of a run drifts alike;
    dividing a pass's wall time by the mean time of this kernel just before
    and just after it cancels most of that.  Like the workloads, the kernel spends about half its time in
    interpreter-bound Python and half in float32 GEMM on every BLAS thread.
    No code of the package runs in it.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self.a = rng.standard_normal((2000, 1000), dtype=np.float32)
        self.b = rng.standard_normal((1000, 1500), dtype=np.float32)

    def __call__(self) -> float:
        start = time.perf_counter()
        for _ in range(6):
            self.a @ self.b
        total = 0
        for i in range(2_000_000):
            total += i * i
        return time.perf_counter() - start


def _median(values):
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 before: frozenset[str], size: str = "full") -> dict:
    """Set up and run a pass until ``seconds`` have passed, verify each
    pass; return the result.  ``before`` is what ``import_package`` gave."""
    import tracing
    import workloads

    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[name](size, seed % workloads.POOL, str(workdir))
        setups = []
        ref = None
        if size == "full":
            refs = json.loads((HERE / "reference.json").read_text())
            ref = refs[name][str(wl.input_set)]

        tracer = tracing.Tracer() if trace else None
        plain, traced, layer_passes, failures = [], [], [], []
        attempted = 0
        reference = ReferenceKernel()
        refs = []           # kernel seconds before each set-up and pass, and after the last
        wl.clock.install()
        try:
            deadline = time.perf_counter() + seconds
            took = {}           # traced? -> seconds the last such set-up and pass took
            warm_up = True
            while True:
                tracing_now = trace and not warm_up and len(plain) > len(traced)
                started = time.perf_counter()
                refs.append(reference())
                import_s = time_import(before)
                start = time.perf_counter()
                wl.setup()
                if not warm_up:
                    setups.append(import_s + time.perf_counter() - start)
                attempted += len(wl.ops)
                wl.clock.reset()
                if tracing_now:
                    tracer.reset()
                    tracer.install(wl.models())
                try:
                    out = wl.run_pass()
                except Exception:
                    failures.extend(f"{op}: raised\n{traceback.format_exc()}" for op in wl.ops)
                    out = None
                finally:
                    if tracing_now:
                        tracer.uninstall()
                sample = {}
                if out is not None:
                    errors = wl.verify(out, ref)
                    failures.extend(f"{op}: {msg}" for op, msg in errors.items() if msg)
                    sample = {k: out[k] for k in STAGE if k in out}
                    sample.update(wl.clock.rates(), iteration=len(refs) - 1)
                if out is not None and tracing_now:
                    attempted += 1
                    problems = tracer.check(wl.spans)
                    if problems:
                        failures.append("trace: " + "; ".join(problems))
                    layer_passes.append(tracer.metrics())
                if not warm_up:
                    (traced if tracing_now else plain).append(sample)
                out = None          # free this pass's outputs before the next one
                now = time.perf_counter()
                took[tracing_now] = now - started
                warm_up = False
                # stop before a set-up and pass that would end past the deadline,
                # once the run has a timed pass of each kind it reports
                next_traced = trace and len(plain) > len(traced)
                if plain and (traced or not next_traced) \
                        and now + took.get(next_traced, took[False]) > deadline:
                    break
            refs.append(reference())
        finally:
            wl.clock.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    for sample in (*plain, *traced):
        if "wall_s" in sample:
            i = sample.pop("iteration")
            sample["wall_per_ref"] = 2 * sample["wall_s"] / (refs[i] + refs[i + 1])
    table = {}
    for key in (*E2E, *STAGE):
        values = [p[key] for p in plain if key in p]
        if values:
            table[key] = (_median(values), len(values))
    table["setup_s"] = (_median(setups), len(setups))
    table["ref_s"] = (_median(refs), len(refs))
    table["peak_mem_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    result = {
        "workload": name, "seed": seed, "input_set": wl.input_set, "size": size,
        "passes": len(plain) + len(traced), "attempted": attempted,
        "failed": len(failures), "failures": failures, "table": table,
    }
    if trace:
        layer = tracing.median_metrics(layer_passes) if layer_passes else {}
        walls = [p["wall_s"] for p in traced if "wall_s" in p]
        if walls and "wall_s" in table:
            layer["trace.overhead_s"] = _median(walls) - table["wall_s"][0]
        result["layers"] = layer
        result["traced_passes"] = len(layer_passes)
    return result


def _fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(result: dict, trace: bool) -> dict:
    """Print the table for one workload; return its JSON metrics."""
    import tracing

    print(f"# {result['workload']}: seed {result['seed']} (input set {result['input_set']}), "
          f"{result['passes']} passes, {result['attempted']} operations, "
          f"{result['failed']} failed")
    for failure in result["failures"]:
        print(f"# FAILED {failure}")
    print(f"{'metric':40s} {'value':>14s} {'unit':10s} n")
    table = dict(result["table"])
    table["failed_share"] = (result["failed"] / result["attempted"], result["attempted"])
    units = {**E2E, **STAGE, "failed_share": "ratio"}
    for key, (value, n) in table.items():
        print(f"{key:40s} {_fmt(value):>14s} {units[key]:10s} {n}")
    if not trace:
        return {k: {"value": table[k][0], "unit": E2E[k]} for k in E2E if k in table}
    n = result["traced_passes"]
    for key, value in result["layers"].items():
        print(f"{key:40s} {_fmt(value):>14s} {tracing.UNITS[key]:10s} {n}")
    return {k: {"value": v, "unit": tracing.UNITS[k]} for k, v in result["layers"].items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["train_default", "synth_default", "cv_small", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    cores = limit_blas_threads()
    try:
        before = import_package()
        env = environment(cores)
    except (GuardError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("# env " + json.dumps(env, sort_keys=True))

    names = ["train_default", "synth_default", "cv_small"] if args.workload == "all" \
        else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace), before)
        m = report(result, bool(args.trace))
        if len(names) > 1:
            # one process runs every workload, so peak memory is cumulative
            m = {f"{name}.{k}": v for k, v in m.items()}
        metrics.update(m)
        attempted += result["attempted"]
        failed += result["failed"]
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
