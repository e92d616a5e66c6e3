"""Self-test of the benchmark at a tiny size (under a minute in all).

    python3 perfbench/selftest.py

Runs every workload untraced once and traced twice.  Checks that each
metric appears with its unit on each workload that lists it, that no
operation failed, that the exact counts repeat exactly across the two
traced runs, and that ``BENCHMARK.json`` names the metrics the runner
prints.  Then traces with one binding site left unwrapped and checks that
the traced run fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

# stage metrics each workload reports in its table, beside the gated ones
STAGE_METRICS = {
    "train_default": ("train_events_per_s", "predict_events_per_s"),
    "synth_default": ("synth_events_per_s",),
    "cv_small": ("train_events_per_s", "predict_events_per_s", "synth_events_per_s",
                 "cv_test_mse"),
}


def skip_built_layers(base):
    class Tracer(base):
        """Leaves the activation that built layers bound at construction."""

        def install(self, models=()):
            super().install(())
    return Tracer


def skip_cli(base):
    class Tracer(base):
        """Leaves the names cli imported by name from other modules."""

        def install(self, models=()):
            cli = self.mods["cli"]
            self.patcher.namespaces = [ns for ns in self.patcher.namespaces if ns is not cli]
            super().install(models)
    return Tracer


def _run(name: str, trace: bool, before: frozenset[str]) -> tuple[dict, dict]:
    result = run.run_workload(name, 5, 0.0, trace, before, size="tiny")
    with contextlib.redirect_stdout(io.StringIO()):
        metrics = run.report(result, trace)
    return result, metrics


def main() -> int:
    run.limit_blas_threads()
    before = run.import_package()
    import tracing
    import workloads

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.E2E, "BENCHMARK.json end_to_end"
    assert per_layer == tracing.UNITS, "BENCHMARK.json per_layer"
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)

    for name in workloads.WORKLOADS:
        result, metrics = _run(name, False, before)
        assert result["failed"] == 0, result["failures"]
        assert {k: v["unit"] for k, v in metrics.items()} == e2e, (name, metrics)
        for key in STAGE_METRICS[name]:
            assert key in result["table"], (name, key)
        counts = []
        for _ in range(2):
            result, metrics = _run(name, True, before)
            assert result["failed"] == 0, result["failures"]
            assert {k: v["unit"] for k, v in metrics.items()} == per_layer, name
            counts.append({k: metrics[k]["value"] for k in tracing.EXACT_COUNTS})
        assert counts[0] == counts[1], (name, counts)
        print(f"{name}: ok {counts[0]}")

    tracer = tracing.Tracer
    for name, skip in (("train_default", skip_built_layers), ("synth_default", skip_cli),
                       ("cv_small", skip_cli)):
        tracing.Tracer = skip(tracer)
        try:
            result, _ = _run(name, True, before)
        finally:
            tracing.Tracer = tracer
        caught = [f for f in result["failures"] if f.startswith("trace: ")]
        assert caught, (name, skip.__name__, result["failures"])
        print(f"{name} with {skip.__name__}: caught {caught[0]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
