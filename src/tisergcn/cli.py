"""Experiment runner: dataset synthesis, graph building, training,
evaluation, ablation sweeps, and report consolidation.

Every command but ``report`` is driven by one JSON spec (flags override
fields) and is idempotent: identical spec + seed produce bitwise-identical
artifacts, each stamped with the spec hash and a content hash of the
installed package sources.  A command is a function of the parsed
arguments that makes its output directory, writes its artifacts and
returns ``(run_dir, artifact_path)``.  ``main`` owns the rest of the
lifecycle: it times the command, and only after it succeeds writes the
wall-clock ``run.log`` into ``run_dir`` and prints ``artifact_path``; a
failure ends as one JSON line on stderr with exit code 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict, dataclass, replace

import numpy as np

from .data import (
    SynthConfig,
    _window_samples,
    load_dataset,
    random_stations,
    read_json_object,
    save_dataset,
    synth_dataset,
    truncate_dataset,
)
from .errors import InputError, TisergcnError
from .geo import build_adjacency, graph_stats, graph_to_dict, propagation_matrix
from .model import (IM_NAMES, MODEL_KINDS, Model, ModelConfig, check_fields, load_checkpoint,
                    save_checkpoint)
from .train import (
    METRIC_NAMES,
    TrainConfig,
    _aggregate,
    metrics_from_predictions,
    predict_batched,
    run_protocol,
    train,
)


# ---------------------------------------------------------------------------
# spec handling and provenance

@dataclass(frozen=True)
class AblateConfig:
    """The ``ablate`` spec section: the values the sweeps run over."""

    ks: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
    windows: tuple[int, ...] = (10, 9, 8, 7, 6, 5, 4)

    def __post_init__(self):
        check_fields(self, InputError, ks="[0, 1]", windows="[4, 10]")


@dataclass(frozen=True)
class Spec:
    """A whole spec: the top-level values, ``model.kind`` and one config
    per section.  Each value is kept as written (a list as a tuple), so
    spec_dict gives back the JSON that was loaded."""

    dataset: str | None = None
    graph_k: float = 0.3
    window_seconds: int | None = None
    protocol: str = "cv"
    seed: int = 0
    kind: str = "tiser"
    synth: SynthConfig = SynthConfig()
    model: ModelConfig = ModelConfig()
    train: TrainConfig = TrainConfig()
    ablate: AblateConfig = AblateConfig()

    def __post_init__(self):
        check_fields(self, InputError, graph_k="[0, 1]", window_seconds="[4, 10]",
                     protocol=("cv", "single"), seed="[0, inf)", kind=MODEL_KINDS)


_SECTIONS = {"synth": SynthConfig, "model": ModelConfig, "train": TrainConfig,
             "ablate": AblateConfig}


def spec_dict(spec: Spec) -> dict:
    """The spec as JSON values, with ``kind`` inside the ``model`` section."""
    out = asdict(spec)
    out["model"] = {"kind": out.pop("kind"), **out["model"]}
    return out


def default_spec() -> dict:
    return spec_dict(Spec())


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], val)
        else:
            out[key] = val
    return out


def load_spec(args) -> Spec:
    """Defaults merged with the user spec and flags, validated before any I/O."""
    spec = default_spec()
    if getattr(args, "spec", None):
        spec = _merge(spec, read_json_object(args.spec, InputError))
    if getattr(args, "seed", None) is not None:
        spec["seed"] = args.seed
    if getattr(args, "dataset", None):
        spec["dataset"] = args.dataset
    if getattr(args, "k", None) is not None:
        spec["graph_k"] = args.k
    if getattr(args, "window", None) is not None:
        spec["window_seconds"] = args.window
    # a section that is not an object fails at **, and an unknown key or a
    # value of the wrong type or out of range in the section's constructor
    try:
        spec["model"] = {**spec["model"]}
        kind = spec["model"].pop("kind")
        sections = {key: cls(**spec.pop(key)) for key, cls in _SECTIONS.items()}
        return Spec(kind=kind, **sections, **spec)
    except (TypeError, ValueError) as exc:
        raise InputError(f"invalid spec: {exc}") from None


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def spec_hash(spec: dict) -> str:
    return hashlib.sha256(canonical_json(spec).encode()).hexdigest()[:12]


def code_version() -> str:
    """Content hash of the installed package sources."""
    root = os.path.dirname(__file__)
    digest = hashlib.sha256()
    for name in sorted(os.listdir(root)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(root, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:12]


def provenance(spec: Spec) -> dict:
    data_id = {"dataset": spec.dataset, "synth": asdict(spec.synth),
               "window_seconds": spec.window_seconds}
    return {
        "spec_sha256": spec_hash(spec_dict(spec)),
        "code_version": code_version(),
        "data_hash": spec_hash(data_id),
    }


def dataset_path(spec: Spec) -> str:
    if spec.dataset:
        return spec.dataset
    return os.path.join(os.environ.get("TISER_DATA_DIR", os.getcwd()), "dataset")


def out_dir(args) -> str:
    path = args.out or os.path.join(os.getcwd(), f"{args.command}-out")
    os.makedirs(path, exist_ok=True)
    return path


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path: str, prov: dict, header: str, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# spec={prov['spec_sha256']} code={prov['code_version']}\n")
        fh.write(header + "\n")
        for row in rows:
            fh.write(row + "\n")


def write_run_log(path: str, command: str, started: float) -> None:
    write_json(os.path.join(path, "run.log"), {
        "command": command,
        "wall_clock_s": time.monotonic() - started,
        "finished_unix": time.time(),
    })


# ---------------------------------------------------------------------------
# shared pipeline pieces

def _load_windowed_dataset(spec: Spec):
    ds = load_dataset(dataset_path(spec))
    if spec.window_seconds is not None:
        ds = truncate_dataset(ds, spec.window_seconds)
    return ds


def _model_config(spec: Spec, ds) -> ModelConfig:
    """The spec's model config with the input shape of the dataset."""
    return replace(spec.model, input_seconds=ds.input_seconds,
                   sample_rate_hz=ds.sample_rate_hz, channels=ds.n_channels)


def _propagation(spec: Spec, ds, cfg: ModelConfig):
    return propagation_matrix(build_adjacency(ds.stations, float(spec.graph_k)),
                              cfg.propagation)


def _residual_rows(event_idx, y_true, y_pred):
    rows = []
    for e_pos, event in enumerate(event_idx):
        for i, im in enumerate(IM_NAMES):
            for s in range(y_true.shape[2]):
                rows.append(f"{int(event)},{s},{im},"
                            f"{y_true[e_pos, i, s]!r},{y_pred[e_pos, i, s]!r}")
    return rows


RESIDUAL_HEADER = "event,station,im,y_true_log10,y_pred_log10"


def _write_curves(path: str, prov: dict, train_loss, val_loss) -> None:
    """One row per epoch; an epoch without a validation loss reads nan."""
    rows = []
    for e, tl in enumerate(train_loss):
        vl = val_loss[e] if e < len(val_loss) else float("nan")
        rows.append(f"{e},{tl!r},{vl!r}")
    write_csv(path, prov, "epoch,train_loss,val_loss", rows)


# ---------------------------------------------------------------------------
# commands

def cmd_synth(args) -> tuple[str, str]:
    spec = load_spec(args)
    recipe = asdict(spec.synth)
    stations = random_stations(recipe.pop("n_stations"), recipe.pop("station_seed"))
    ds = synth_dataset(stations, recipe.pop("n_events"), spec.seed, **recipe)
    path = args.out or dataset_path(spec)
    os.makedirs(path, exist_ok=True)
    save_dataset(path, ds)
    write_json(os.path.join(path, "provenance.json"), provenance(spec))
    return path, path


def cmd_build_graph(args) -> tuple[str, str]:
    spec = load_spec(args)
    ds = _load_windowed_dataset(spec)
    graph = build_adjacency(ds.stations, float(spec.graph_k))
    edges, centrality, cutoff = graph_stats(graph)
    payload = graph_to_dict(graph)
    payload.update({
        "edge_count": edges,
        "avg_degree_centrality": centrality,
        "cutoff_km": cutoff,
        "provenance": provenance(spec),
    })
    path = out_dir(args)
    write_json(os.path.join(path, "graph.json"), payload)
    return path, os.path.join(path, "graph.json")


def _write_report_artifacts(path: str, prov: dict, report, residuals: dict) -> None:
    write_json(os.path.join(path, "metrics.json"), {**asdict(report), "provenance": prov})
    for run in report.runs:
        _write_curves(os.path.join(path, f"curves_r{run['repeat']}f{run['fold']}.csv"), prov,
                      run["curves"]["train_loss"], run["curves"]["val_loss"])
    if residuals:
        write_csv(os.path.join(path, "residuals.csv"), prov, RESIDUAL_HEADER,
                  _residual_rows(residuals["event_idx"], residuals["y_true"],
                                 residuals["y_pred"]))


def _score_every_event(path: str, prov: dict, model, prop, ds, batch_size: int,
                       **fields) -> None:
    """Predict every event of ``ds`` and write metrics.json (``fields``, the
    model kind, provenance and metrics) and residuals.csv into ``path``."""
    y_true = np.asarray(ds.Y, dtype=np.float64)
    y_pred = predict_batched(model, prop, ds.X, ds.stations.coords(), batch_size)
    write_json(os.path.join(path, "metrics.json"), {
        **fields, "provenance": prov, "model_kind": model.kind,
        "metrics": metrics_from_predictions(y_true, y_pred)})
    write_csv(os.path.join(path, "residuals.csv"), prov, RESIDUAL_HEADER,
              _residual_rows(np.arange(ds.n_events), y_true, y_pred))


def cmd_train(args) -> tuple[str, str]:
    spec = load_spec(args)
    prov = provenance(spec)
    ds = _load_windowed_dataset(spec)
    mcfg = _model_config(spec, ds)
    prop = _propagation(spec, ds, mcfg)
    path = out_dir(args)

    if spec.protocol == "cv":
        report, residuals = run_protocol(spec.kind, ds, prop, mcfg, spec.train, spec.seed)
        _write_report_artifacts(path, prov, report, residuals)
    else:
        model = Model(spec.kind, replace(mcfg, init_seed=spec.seed), ds.n_nodes)
        hist = train(model, ds, prop, spec.train, seed=spec.seed)
        _score_every_event(path, prov, model, prop, ds, spec.train.batch_size,
                           protocol="single", seed=spec.seed,
                           param_count=model.param_count(), epochs_run=len(hist.train_loss))
        _write_curves(os.path.join(path, "curves.csv"), prov, hist.train_loss, hist.val_loss)
        save_checkpoint(model, os.path.join(path, "checkpoint.tsrg"), ds.stations, spec.graph_k)
    return path, os.path.join(path, "metrics.json")


def cmd_eval(args) -> tuple[str, str]:
    spec = load_spec(args)
    prov = provenance(spec)
    path = out_dir(args)
    ds = _load_windowed_dataset(spec)
    model = load_checkpoint(args.checkpoint, ds.stations, spec.graph_k)
    stored = {"kind": model.kind, **asdict(model.cfg)}
    wanted = {"kind": spec.kind, **asdict(replace(_model_config(spec, ds),
                                                  init_seed=model.cfg.init_seed))}
    if differ := [key for key in stored if stored[key] != wanted[key]]:
        raise InputError(f"{args.checkpoint}: the spec's model section differs from the "
                         f"checkpoint's in {', '.join(differ)}")
    prop = _propagation(spec, ds, model.cfg)
    _score_every_event(path, prov, model, prop, ds, 32,
                       checkpoint=os.path.basename(args.checkpoint))
    return path, os.path.join(path, "metrics.json")


def _ablate(args, header: str, rows) -> tuple[str, str]:
    """Shared ablation sweep: the generator ``rows(spec, prov, ds, run)``
    yields the CSV rows, where ``run`` runs the protocol on the spec's
    setting with the given kind, dataset, graph or model fields swapped."""
    spec = load_spec(args)
    prov = provenance(spec)
    path = out_dir(args)
    ds = _load_windowed_dataset(spec)
    mcfg = _model_config(spec, ds)
    graph = build_adjacency(ds.stations, float(spec.graph_k))

    def run(kind=spec.kind, ds=ds, graph=graph, **model_changes):
        cfg = replace(mcfg, **model_changes)
        prop = propagation_matrix(graph, cfg.propagation)
        return run_protocol(kind, ds, prop, cfg, spec.train, spec.seed)[0]

    name = os.path.join(path, args.command.replace("-", "_") + ".csv")
    write_csv(name, prov, header, list(rows(spec, prov, ds, run)))
    return path, name


def _mean_mse(report) -> float:
    return report.aggregate["overall"]["mse"]["mean"]


def cmd_ablate_k(args) -> tuple[str, str]:
    def rows(spec, prov, ds, run):
        for k in map(float, spec.ablate.ks):
            graph = build_adjacency(ds.stations, k)
            edges, centrality, cutoff = graph_stats(graph)
            yield f"{k!r},{cutoff!r},{edges},{centrality!r},{_mean_mse(run(graph=graph))!r}"

    return _ablate(args, "k,cutoff_km,edges,avg_degree_centrality,mse", rows)


def cmd_ablate_window(args) -> tuple[str, str]:
    def rows(spec, prov, ds, run):
        # every window must fit before the first protocol runs
        for seconds in spec.ablate.windows:
            _window_samples(seconds, ds.sample_rate_hz, ds.n_samples)
        for kind in MODEL_KINDS:
            for seconds in spec.ablate.windows:
                report = run(kind, truncate_dataset(ds, seconds), input_seconds=seconds)
                yield f"{kind},{seconds},{report.param_count},{_mean_mse(report)!r}"

    return _ablate(args, "model,window_seconds,param_count,mse", rows)


def cmd_ablate_meta(args) -> tuple[str, str]:
    def rows(spec, prov, ds, run):
        for kind in MODEL_KINDS:
            for meta in (True, False):
                mse = _mean_mse(run(kind, use_metadata=meta))
                yield (f"{kind},{'on' if meta else 'off'},{mse!r},"
                       f"{spec.seed},{prov['spec_sha256']}")

    return _ablate(args, "model,metadata,mse,seed,spec_sha256", rows)


def _run_metrics(path, body: dict) -> list[dict]:
    """The per-run metric tables of one metrics.json: its "runs" entries'
    "metrics", or its own; each must give a number for every statistic of
    every IM and "overall"."""
    runs = body.get("runs", [body])

    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    def table(m):
        return isinstance(m, dict) and all(
            isinstance(m.get(im), dict) and all(number(m[im].get(s)) for s in METRIC_NAMES)
            for im in (*IM_NAMES, "overall"))

    if not (isinstance(runs, list) and runs
            and all(isinstance(r, dict) and table(r.get("metrics")) for r in runs)):
        raise InputError(f"{path}: expected mae, mse and rmse numbers per IM under 'metrics'")
    return [r["metrics"] for r in runs]


def cmd_report(args) -> tuple[str, str]:
    if not args.runs:
        raise InputError("report needs at least one run directory")
    reports = []
    for run_dir in args.runs:
        metrics_path = os.path.join(run_dir, "metrics.json")
        body = read_json_object(metrics_path, InputError)
        stamp = body.get("provenance")
        keys = ("spec_sha256", "code_version", "data_hash")
        if "provenance" in body and not (
                isinstance(stamp, dict) and all(isinstance(stamp.get(k), str) for k in keys)):
            raise InputError(f"{metrics_path}: provenance must be a JSON object with "
                             f"string {', '.join(keys)}")
        reports.append((run_dir, body))
    hashes = {r[1].get("provenance", {}).get("data_hash") for r in reports}
    if len(hashes) != 1:
        raise InputError(f"run directories mix incompatible datasets: {sorted(map(str, hashes))}")
    kinds = {body.get("model_kind") for _, body in reports}
    if len(kinds) != 1:
        raise InputError(f"run directories mix model kinds: {sorted(map(str, kinds))}")

    # pool every individual run's metrics; a single dir reproduces itself
    pooled = [m for run_dir, body in reports
              for m in _run_metrics(os.path.join(run_dir, "metrics.json"), body)]
    prov = reports[0][1].get("provenance", {"spec_sha256": "none", "code_version": code_version()})

    table_rows = []
    md = ["# Run report", "", f"Runs aggregated: {len(pooled)}", "",
          "| im | mae | mse | rmse |", "| --- | --- | --- | --- |"]
    for im, cells in _aggregate(pooled).items():
        table_rows += [f"{im},{m},{c['mean']!r},{c['std']!r}" for m, c in cells.items()]
        md.append(f"| {im} | " + " | ".join(f"{c['mean']:.4f} ± {c['std']:.4f}"
                                           for c in cells.values()) + " |")

    path = out_dir(args)
    write_csv(os.path.join(path, "metrics_table.csv"), prov,
              "im,metric,mean,std", table_rows)
    residual_rows = []
    for run_dir, _ in reports:
        res_path = os.path.join(run_dir, "residuals.csv")
        if os.path.exists(res_path):
            with open(res_path, encoding="utf-8") as fh:
                residual_rows.extend(
                    line.rstrip("\n") for line in fh
                    if not line.startswith("#") and not line.startswith("event,"))
    write_csv(os.path.join(path, "residuals.csv"), prov, RESIDUAL_HEADER, residual_rows)
    with open(os.path.join(path, "report.md"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(md) + "\n")
        fh.write(f"\nspec={prov['spec_sha256']} code={prov['code_version']}\n")
    return path, os.path.join(path, "report.md")


# ---------------------------------------------------------------------------
# argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tisergcn",
        description="Waveform-graph intensity regression experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = [
        ("synth", cmd_synth, "generate a synthetic dataset"),
        ("build-graph", cmd_build_graph, "build and save the station graph"),
        ("train", cmd_train, "train a model per the spec protocol"),
        ("eval", cmd_eval, "evaluate a checkpoint on a dataset"),
        ("ablate-k", cmd_ablate_k, "sweep the edge-weight cutoff"),
        ("ablate-window", cmd_ablate_window, "sweep the input window length"),
        ("ablate-meta", cmd_ablate_meta, "toggle station-coordinate metadata"),
        ("report", cmd_report, "consolidate run directories"),
    ]
    for name, func, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", help="output directory")
        p.set_defaults(func=func)
        if name != "report":
            p.add_argument("--spec", help="JSON experiment spec; flags override fields")
            p.add_argument("--seed", type=int, help="root RNG seed")
            p.add_argument("--dataset",
                           help="dataset directory (default $TISER_DATA_DIR/dataset)")
    sub.choices["build-graph"].add_argument("--k", type=float, help="edge-weight cutoff")
    sub.choices["eval"].add_argument("--checkpoint", required=True)
    sub.choices["train"].add_argument("--window", type=int,
                                      help="truncate inputs to this many seconds")
    sub.choices["report"].add_argument("runs", nargs="*", help="run directories")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        run_dir, artifact = args.func(args)
        write_run_log(run_dir, args.command, started)
    except (TisergcnError, OSError) as exc:
        # OSError: a missing input file, or an output directory that cannot
        # be created (e.g. under a regular file)
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return 2
    print(artifact)
    return 0


if __name__ == "__main__":
    sys.exit(main())
