"""End-to-end command-line workflows on tiny synthetic datasets:
artifact layout, provenance stamps, bitwise idempotence, and the JSON
error contract."""

import json
import math
import os
import shutil
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from tisergcn.cli import load_spec, main, provenance
from tisergcn.data import EventDataset, load_dataset, save_dataset


TINY_SPEC = {
    "synth": {
        "n_stations": 3,
        "n_events": 12,
        "station_seed": 5,
        "input_seconds": 5,
        "total_seconds": 15.0,
    },
    "model": {
        "kind": "tiser",
        "input_seconds": 5,
        "conv_filters": [2, 3],
        "conv_kernels": [16, 8],
        "conv_strides": [4, 4],
        "gcn_filters": [4, 4],
        "dense_width": 8,
        "dtype": "f64",
    },
    "train": {
        "batch_size": 8,
        "max_epochs": 1,
        "folds": 2,
        "repeats": 1,
        "test_fraction": 0.25,
    },
    "seed": 0,
    "ablate": {"ks": [0.2, 0.5], "windows": [5, 4]},
}


VALID_METRICS = {im: {"mae": 1.0, "mse": 1.0, "rmse": 1.0}
                 for im in ("pga", "pgv", "sa03", "sa1", "sa3", "overall")}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """One synthesized dataset shared by every CLI test in this module."""
    root = tmp_path_factory.mktemp("cli")
    spec_path = root / "spec.json"
    spec_path.write_text(json.dumps(TINY_SPEC))
    data_dir = root / "data"
    rc = main(["synth", "--spec", str(spec_path), "--out", str(data_dir)])
    assert rc == 0
    return root, str(spec_path), str(data_dir)


def run_ok(argv):
    rc = main(argv)
    assert rc == 0


def read_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line.rstrip("\n") for line in fh]


COMMANDS = ["synth", "build-graph", "train", "train-single", "eval", "ablate-k",
            "ablate-window", "ablate-meta", "report"]


def command_argv(command, out, workdir, single, trained):
    """The argv of one run of ``command`` on the module's fixtures, writing
    to ``out``; ``train-single`` is ``train`` on the single-protocol spec."""
    _, spec_path, data_dir = workdir
    spec_single, single_out = single
    return [command.removesuffix("-single"), "--out", str(out)] + {
        "synth": ["--spec", spec_path],
        "train-single": ["--spec", spec_single, "--dataset", data_dir],
        "eval": ["--spec", spec_single, "--dataset", data_dir,
                 "--checkpoint", str(single_out / "checkpoint.tsrg")],
        "report": [str(trained)],
    }.get(command, ["--spec", spec_path, "--dataset", data_dir])


class TestSynth:
    def test_artifacts(self, workdir):
        _, _, data_dir = workdir
        names = set(os.listdir(data_dir))
        assert {"manifest.json", "stations.csv", "X.bin", "Y.bin",
                "provenance.json", "run.log"} <= names
        ds = load_dataset(data_dir)
        assert ds.n_events == 12 and ds.n_nodes == 3 and ds.n_samples == 500

    def test_provenance_fields(self, workdir):
        _, _, data_dir = workdir
        prov = json.loads(Path(data_dir, "provenance.json").read_text())
        assert set(prov) == {"spec_sha256", "code_version", "data_hash"}
        assert len(prov["spec_sha256"]) == 12

    def test_wall_clock_only_in_run_log(self, workdir):
        _, _, data_dir = workdir
        log = json.loads(Path(data_dir, "run.log").read_text())
        assert log["command"] == "synth"
        assert "wall_clock_s" in log

    def test_env_var_default_location(self, workdir, tmp_path, monkeypatch):
        _, spec_path, _ = workdir
        monkeypatch.setenv("TISER_DATA_DIR", str(tmp_path))
        run_ok(["synth", "--spec", spec_path])
        assert (tmp_path / "dataset" / "manifest.json").exists()


README_SPEC = {
    "synth": {"n_stations": 10, "n_events": 60},
    "model": {"conv_filters": [8, 16], "conv_kernels": [32, 32], "conv_strides": [4, 4]},
    "train": {"max_epochs": 10, "folds": 2, "repeats": 1},
}


@pytest.mark.parametrize("user,spec_sha256,data_hash", [
    (TINY_SPEC, "37864eca98ed", "f6525a04c1a0"),
    (README_SPEC, "95676df14487", "a0318d8df6f4"),
    ({}, "18c29229913d", "68b86a1f7903"),
    # the merged spec is hashed as written: lr stays 1, not 1.0
    ({"train": {"lr": 1}}, "c115251ee595", "68b86a1f7903"),
], ids=["tiny", "readme", "defaults", "int-lr"])
def test_provenance_hashes_are_pinned(tmp_path, user, spec_sha256, data_hash):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(user))
    prov = provenance(load_spec(SimpleNamespace(spec=str(path))))
    assert (prov["spec_sha256"], prov["data_hash"]) == (spec_sha256, data_hash)


class TestBuildGraph:
    def test_graph_payload(self, workdir, tmp_path):
        _, spec_path, data_dir = workdir
        out = tmp_path / "g"
        run_ok(["build-graph", "--spec", spec_path, "--dataset", data_dir,
                "--out", str(out), "--k", "0.2"])
        g = json.loads((out / "graph.json").read_text())
        assert g["n"] == 3
        assert g["edge_count"] >= 1 and len(g["edges"]) == g["edge_count"]
        assert "provenance" in g

    def test_k_one_drops_every_edge(self, workdir, tmp_path):
        _, spec_path, data_dir = workdir
        out = tmp_path / "g1"
        run_ok(["build-graph", "--spec", spec_path, "--dataset", data_dir,
                "--out", str(out), "--k", "1.0"])
        g = json.loads((out / "graph.json").read_text())
        assert g["edge_count"] == 0
        assert g["cutoff_km"] == 0.0


@pytest.fixture(scope="module")
def trained(workdir, tmp_path_factory):
    _, spec_path, data_dir = workdir
    out = tmp_path_factory.mktemp("cv")
    run_ok(["train", "--spec", spec_path, "--dataset", data_dir,
            "--out", str(out)])
    return out


class TestTrainCV:
    def test_artifacts(self, trained):
        names = set(os.listdir(trained))
        assert {"metrics.json", "residuals.csv", "run.log",
                "curves_r0f0.csv", "curves_r0f1.csv"} <= names

    def test_metrics_structure(self, trained):
        body = json.loads((trained / "metrics.json").read_text())
        assert body["model_kind"] == "tiser"
        assert len(body["runs"]) == 2
        agg = body["aggregate"]["overall"]["rmse"]
        assert set(agg) == {"mean", "std"}
        assert "wall_clock" not in (trained / "metrics.json").read_text()

    def test_residual_row_count(self, trained):
        # 3 test events x 3 stations x 5 targets, plus stamp and header lines
        lines = read_lines(trained / "residuals.csv")
        assert lines[0].startswith("# spec=")
        assert lines[1] == "event,station,im,y_true_log10,y_pred_log10"
        assert len(lines) == 2 + 3 * 3 * 5

    def test_rerun_is_bitwise_identical(self, workdir, trained, tmp_path):
        _, spec_path, data_dir = workdir
        again = tmp_path / "again"
        run_ok(["train", "--spec", spec_path, "--dataset", data_dir,
                "--out", str(again)])
        for name in ("metrics.json", "residuals.csv", "curves_r0f0.csv",
                     "curves_r0f1.csv"):
            assert (again / name).read_bytes() == (trained / name).read_bytes()

    def test_stop_below_train_loss_ends_every_run(self, workdir, tmp_path):
        root, _, data_dir = workdir
        spec = {**TINY_SPEC, "train": {**TINY_SPEC["train"], "max_epochs": 10,
                                       "stop_below_train_loss": 1e9}}
        spec_path = root / "spec_stop.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "stop"
        run_ok(["train", "--spec", str(spec_path), "--dataset", data_dir,
                "--out", str(out)])
        runs = json.loads((out / "metrics.json").read_text())["runs"]
        assert [r["epochs_run"] for r in runs] == [1, 1]

    def test_window_flag_changes_data_hash(self, workdir, trained, tmp_path):
        _, spec_path, data_dir = workdir
        out = tmp_path / "w4"
        run_ok(["train", "--spec", spec_path, "--dataset", data_dir,
                "--out", str(out), "--window", "4"])
        a = json.loads((trained / "metrics.json").read_text())
        b = json.loads((out / "metrics.json").read_text())
        assert a["provenance"]["data_hash"] != b["provenance"]["data_hash"]


@pytest.fixture(scope="module")
def single(workdir, tmp_path_factory):
    root, spec_path, data_dir = workdir
    spec = dict(TINY_SPEC)
    spec["protocol"] = "single"
    spec_single = root / "spec_single.json"
    spec_single.write_text(json.dumps(spec))
    out = tmp_path_factory.mktemp("single")
    run_ok(["train", "--spec", str(spec_single), "--dataset", data_dir,
            "--out", str(out)])
    return str(spec_single), out


class TestSingleAndEval:
    def test_artifacts(self, single):
        _, out = single
        assert {"metrics.json", "curves.csv", "residuals.csv",
                "checkpoint.tsrg"} <= set(os.listdir(out))

    def test_residuals_cover_all_events(self, single):
        _, out = single
        lines = read_lines(out / "residuals.csv")
        assert len(lines) == 2 + 12 * 3 * 5

    def test_eval_reproduces_training_metrics(self, workdir, single, tmp_path):
        _, _, data_dir = workdir
        spec_single, out = single
        eval_out = tmp_path / "eval"
        run_ok(["eval", "--spec", spec_single, "--dataset", data_dir,
                "--out", str(eval_out),
                "--checkpoint", str(out / "checkpoint.tsrg")])
        trained = json.loads((out / "metrics.json").read_text())["metrics"]
        evaled = json.loads((eval_out / "metrics.json").read_text())["metrics"]
        for im in trained:
            for metric, val in trained[im].items():
                assert evaled[im][metric] == val

    @pytest.mark.parametrize("change,part", [
        ({"synth": {"station_seed": 99}}, "stations"),
        ({"graph_k": 0.9}, "graph_k"),
        ({"model": {"kind": "cnn"}}, "kind"),
        ({"model": {"propagation": "laplacian"}}, "propagation"),
    ], ids=["station_seed-99", "graph_k-0.9", "kind-cnn", "propagation-laplacian"])
    def test_eval_on_another_network_or_model_is_refused(self, workdir, single, tmp_path,
                                                         capsys, change, part):
        # the checkpoint was trained on the 3 stations of station seed 5 at
        # graph_k 0.3, as a tiser model with renormalized propagation
        _, _, data_dir = workdir
        spec_single, out = single
        spec = json.loads(Path(spec_single).read_text())
        for key, value in change.items():
            spec[key] = {**spec[key], **value} if isinstance(value, dict) else value
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        if "synth" in change:
            data_dir = str(tmp_path / "data")
            run_ok(["synth", "--spec", str(spec_path), "--out", data_dir])
            capsys.readouterr()
        eval_out = tmp_path / "eval"
        rc = main(["eval", "--spec", str(spec_path), "--dataset", data_dir,
                   "--out", str(eval_out), "--checkpoint", str(out / "checkpoint.tsrg")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "InputError"
        assert part in err["message"]
        assert not (eval_out / "metrics.json").exists()


class TestAblations:
    def test_ablate_k_rows(self, workdir, tmp_path):
        _, spec_path, data_dir = workdir
        out = tmp_path / "ak"
        run_ok(["ablate-k", "--spec", spec_path, "--dataset", data_dir,
                "--out", str(out)])
        lines = read_lines(out / "ablate_k.csv")
        assert lines[1] == "k,cutoff_km,edges,avg_degree_centrality,mse"
        assert len(lines) == 2 + 2  # two cutoff values in the tiny spec
        ks = [float(line.split(",")[0]) for line in lines[2:]]
        assert ks == [0.2, 0.5]

    def test_ablate_window_rows_and_param_counts(self, workdir, tmp_path):
        _, spec_path, data_dir = workdir
        out = tmp_path / "aw"
        run_ok(["ablate-window", "--spec", spec_path, "--dataset", data_dir,
                "--out", str(out)])
        lines = read_lines(out / "ablate_window.csv")
        assert lines[1] == "model,window_seconds,param_count,mse"
        rows = [line.split(",") for line in lines[2:]]
        assert [(r[0], int(r[1])) for r in rows] == \
               [("tiser", 5), ("tiser", 4), ("cnn", 5), ("cnn", 4)]
        for model in ("tiser", "cnn"):
            counts = [int(r[2]) for r in rows if r[0] == model]
            assert counts[0] > counts[1]

    def test_ablate_meta_rows(self, workdir, tmp_path):
        _, spec_path, data_dir = workdir
        out = tmp_path / "am"
        run_ok(["ablate-meta", "--spec", spec_path, "--dataset", data_dir,
                "--out", str(out)])
        lines = read_lines(out / "ablate_meta.csv")
        assert lines[1] == "model,metadata,mse,seed,spec_sha256"
        rows = [line.split(",") for line in lines[2:]]
        assert [(r[0], r[1]) for r in rows] == \
               [("tiser", "on"), ("tiser", "off"), ("cnn", "on"), ("cnn", "off")]


class TestReport:
    def test_single_dir_reproduces_itself(self, workdir, tmp_path):
        _, spec_path, data_dir = workdir
        run_dir = tmp_path / "run"
        run_ok(["train", "--spec", spec_path, "--dataset", data_dir,
                "--out", str(run_dir)])
        rep = tmp_path / "rep"
        run_ok(["report", "--out", str(rep), str(run_dir)])
        body = json.loads((run_dir / "metrics.json").read_text())
        table = {
            (r.split(",")[0], r.split(",")[1]): float(r.split(",")[2])
            for r in read_lines(rep / "metrics_table.csv")[2:]
        }
        agg = body["aggregate"]["overall"]["mse"]["mean"]
        assert table[("overall", "mse")] == pytest.approx(agg, rel=1e-12)
        assert (rep / "report.md").exists()

    def test_pooled_mean_is_run_mean(self, workdir, tmp_path):
        _, spec_path, data_dir = workdir
        dirs = []
        for seed in (1, 2):
            d = tmp_path / f"run{seed}"
            run_ok(["train", "--spec", spec_path, "--dataset", data_dir,
                    "--out", str(d), "--seed", str(seed)])
            dirs.append(d)
        rep = tmp_path / "rep"
        run_ok(["report", "--out", str(rep)] + [str(d) for d in dirs])

        pooled = []
        for d in dirs:
            body = json.loads((d / "metrics.json").read_text())
            pooled.extend(r["metrics"]["overall"]["mse"] for r in body["runs"])
        rows = read_lines(rep / "metrics_table.csv")[2:]
        cell = next(r for r in rows if r.startswith("overall,mse"))
        assert float(cell.split(",")[2]) == pytest.approx(np.mean(pooled), rel=1e-12)
        # concatenated residuals: one block per run directory
        res_lines = read_lines(rep / "residuals.csv")
        assert len(res_lines) == 2 + 2 * (3 * 3 * 5)

    def test_single_run_and_its_eval_pool_as_two_runs(self, workdir, single, tmp_path):
        # both directories hold the flat metrics.json of one scored model
        _, _, data_dir = workdir
        spec_single, out = single
        eval_out = tmp_path / "eval"
        run_ok(["eval", "--spec", spec_single, "--dataset", data_dir, "--out", str(eval_out),
                "--checkpoint", str(out / "checkpoint.tsrg")])
        rep = tmp_path / "rep"
        run_ok(["report", "--out", str(rep), str(out), str(eval_out)])
        assert "Runs aggregated: 2" in (rep / "report.md").read_text()
        mses = [json.loads((d / "metrics.json").read_text())["metrics"]["overall"]["mse"]
                for d in (out, eval_out)]
        cell = next(r for r in read_lines(rep / "metrics_table.csv")
                    if r.startswith("overall,mse"))
        assert float(cell.split(",")[2]) == pytest.approx(np.mean(mses), rel=1e-12)
        blocks = [read_lines(d / "residuals.csv")[2:] for d in (out, eval_out)]
        assert read_lines(rep / "residuals.csv")[2:] == blocks[0] + blocks[1]
        assert len(blocks[0]) == len(blocks[1]) == 12 * 3 * 5

    def test_refuses_a_run_without_provenance(self, trained, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        body = json.loads((trained / "metrics.json").read_text())
        del body["provenance"]
        (run_dir / "metrics.json").write_text(json.dumps(body))
        rep = tmp_path / "rep"
        assert main(["report", "--out", str(rep), str(trained), str(run_dir)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "InputError"
        assert str(run_dir / "metrics.json") in err["message"]
        assert not rep.exists()

    def test_refuses_mixed_datasets(self, workdir, tmp_path):
        root, spec_path, data_dir = workdir
        a = tmp_path / "a"
        run_ok(["train", "--spec", spec_path, "--dataset", data_dir,
                "--out", str(a)])
        other = tmp_path / "data2"
        run_ok(["synth", "--spec", spec_path, "--out", str(other)])
        b = tmp_path / "b"
        run_ok(["train", "--spec", spec_path, "--dataset", str(other),
                "--out", str(b)])
        rc = main(["report", "--out", str(tmp_path / "rep"), str(a), str(b)])
        assert rc == 2

    def test_refuses_mixed_model_kinds(self, workdir, trained, tmp_path, capsys):
        root, _, data_dir = workdir
        spec_path = root / "spec_cnn.json"
        spec_path.write_text(json.dumps({**TINY_SPEC, "model": {**TINY_SPEC["model"],
                                                                "kind": "cnn"}}))
        cnn = tmp_path / "cnn"
        run_ok(["train", "--spec", str(spec_path), "--dataset", data_dir, "--out", str(cnn)])
        capsys.readouterr()
        rep = tmp_path / "rep"
        assert main(["report", "--out", str(rep), str(trained), str(cnn)]) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "InputError" and "'cnn', 'tiser'" in err["message"]
        assert not (rep / "report.md").exists()
        # a body without model_kind is a kind of its own
        body = json.loads((cnn / "metrics.json").read_text())
        del body["model_kind"]
        (cnn / "metrics.json").write_text(json.dumps(body))
        assert main(["report", "--out", str(rep), str(trained), str(cnn)]) == 2
        assert "'None', 'tiser'" in json.loads(capsys.readouterr().err)["message"]


class TestLifecycle:
    """``main`` times every command, writes its run.log only after it
    succeeds and prints the artifact path it returns."""

    @pytest.mark.parametrize("command", COMMANDS)
    def test_success_writes_one_run_log_and_prints_an_artifact(
            self, workdir, single, trained, tmp_path, capsys, command):
        out = tmp_path / "out"
        capsys.readouterr()
        run_ok(command_argv(command, out, workdir, single, trained))
        printed = capsys.readouterr().out.splitlines()[-1]
        assert printed.startswith(str(out)) and os.path.exists(printed)
        assert list(out.rglob("run.log")) == [out / "run.log"]
        log = json.loads((out / "run.log").read_text())
        assert log["command"] == command.removesuffix("-single")
        assert math.isfinite(log["wall_clock_s"])

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "synth"])
    def test_failure_prints_nothing_and_writes_no_run_log(
            self, workdir, single, trained, tmp_path, capsys, command):
        # every input directory (dataset or run directory) is missing
        _, _, data_dir = workdir
        out, missing = tmp_path / "out", str(tmp_path / "missing")
        argv = [missing if a in (data_dir, str(trained)) else a
                for a in command_argv(command, out, workdir, single, trained)]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert not list(tmp_path.rglob("run.log"))


class TestErrorContract:
    def test_missing_dataset_json_error(self, workdir, tmp_path, capsys):
        _, spec_path, _ = workdir
        rc = main(["train", "--spec", spec_path,
                   "--dataset", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "DatasetFormatError"
        assert "manifest" in err["message"]

    def test_invalid_spec_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc = main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert "offset" in err["message"]

    def test_unknown_spec_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"optimizer": "adam"}))
        rc = main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"

    @pytest.mark.parametrize("user", [
        {"train": {"x": 1}},
        {"synth": {"n_station": 5}},
        {"model": {"kind": "gat"}},
        {"protocol": "kfold"},
        {"train": {"batch_size": "8"}},
        {"train": {"batch_size": 0}},
        {"train": {"lr": "0.1"}},
        {"train": {"stop_below_train_loss": True}},
        {"model": {"conv_filters": [8, "16"]}},
        {"model": {"use_metadata": 1}},
        {"model": {"dense_width": 8.5}},
        {"graph_k": "abc"},
        {"graph_k": 1.5},
        {"seed": -1},
        {"seed": 1.5},
        {"window_seconds": 3},
        {"window_seconds": "8"},
        {"synth": {"n_events": "5"}},
        {"synth": {"n_events": 0}},
        {"synth": {"sample_rate_hz": 0}},
        {"synth": {"total_seconds": 10}},
        {"synth": {"mag_range": [5.0]}},
        {"synth": {"mag_range": [5.0, 4.0]}},
        {"synth": {"noise_amp": -1.0}},
        {"synth": {"site_amp": True}},
        {"model": {"dense_width": 0}},
        {"model": {"dense_width": -1}},
        {"model": {"conv_filters": [0, 3]}},
        {"model": {"conv_kernels": [0, 8]}},
        {"train": {"lr": -1}},
        {"train": {"patience": -1}},
        {"train": {"l2": -1}},
        {"train": {"rho": 2.0}},
        {"train": {"eps": -1}},
        {"ablate": {"ks": "ab"}},
        {"ablate": {"ks": 5}},
        {"ablate": {"ks": [2.0]}},
        {"ablate": {"windows": ["5"]}},
    ])
    def test_bad_spec_rejected_before_io(self, tmp_path, capsys, user):
        # the dataset directory does not exist: reading it would be a
        # DatasetFormatError, so an InputError shows it was never read
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(user))
        rc = main(["train", "--spec", str(bad), "--dataset", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InputError"

    @pytest.mark.parametrize("command,user", [
        ("build-graph", {"graph_k": "abc"}),
        ("synth", {"synth": {"sample_rate_hz": 0}}),
        ("synth", {"dataset": 5}),
    ])
    def test_data_values_rejected_as_input_error(self, workdir, tmp_path, capsys,
                                                 command, user):
        _, _, data_dir = workdir
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**TINY_SPEC, **user,
                                   "synth": {**TINY_SPEC["synth"], **user.get("synth", {})}}))
        argv = [command, "--spec", str(bad), "--out", str(tmp_path / "o")]
        if command == "build-graph":
            argv += ["--dataset", data_dir]
        assert main(argv) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and json.loads(lines[0])["error"] == "InputError"
        assert not (tmp_path / "o").exists()

    def test_model_too_large_to_allocate(self, workdir, tmp_path, capsys):
        # a valid dense width that numpy refuses at once
        _, _, data_dir = workdir
        spec = {**TINY_SPEC, "model": {**TINY_SPEC["model"], "dense_width": 10**12}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = main(["train", "--spec", str(path), "--dataset", data_dir,
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "ConstructionError" and "fit in memory" in err["message"]

    def test_spec_value_types_accepted(self, workdir, tmp_path):
        # an int where a float is declared, null for an optional float, and
        # JSON lists for tuple fields all load
        _, _, data_dir = workdir
        spec = {**TINY_SPEC, "train": {**TINY_SPEC["train"], "lr": 1,
                                       "stop_below_train_loss": None}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        run_ok(["build-graph", "--spec", str(path), "--dataset", data_dir,
                "--out", str(tmp_path / "g")])

    @pytest.mark.parametrize("text", [b"{not json", b"[]", b"\xff"])
    def test_report_corrupt_metrics_json(self, tmp_path, capsys, text):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.json").write_bytes(text)
        rc = main(["report", "--out", str(tmp_path / "o"), str(run_dir)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InputError"

    @pytest.mark.parametrize("flag", ["--spec", "--seed", "--dataset"])
    def test_report_takes_no_spec_flags(self, trained, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["report", flag, "1", "--out", str(tmp_path / "o"), str(trained)])
        assert exc.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_ablate_window_checks_every_window_before_training(self, workdir, tmp_path,
                                                                capsys, monkeypatch):
        # the 4-s window fits the 5-s dataset and the 10-s one does not
        _, _, data_dir = workdir
        called = []
        monkeypatch.setattr("tisergcn.cli.run_protocol", lambda *a, **k: called.append(a))
        spec = {**TINY_SPEC, "ablate": {**TINY_SPEC["ablate"], "windows": [4, 10]}}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        rc = main(["ablate-window", "--spec", str(path), "--dataset", data_dir,
                   "--out", str(tmp_path / "o")])
        assert called == []
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "InputError"
        assert "cannot truncate to 1000 samples" in err["message"]

    @pytest.mark.parametrize("body", [
        {},
        {"metrics": {"pga": 1}},
        {"metrics": {"pga": {"mae": 1.0, "mse": 1.0, "rmse": 1.0}}},
        {"runs": []},
        {"runs": [{"metrics": None}]},
        {"runs": 5},
        {"provenance": 5, "metrics": VALID_METRICS},
        {"provenance": {}, "metrics": VALID_METRICS},
        {"provenance": {"spec_sha256": "a", "code_version": "b", "data_hash": [1]},
         "metrics": VALID_METRICS},
    ])
    def test_report_malformed_metrics_names_file(self, tmp_path, capsys, body):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.json").write_text(json.dumps(body))
        rc = main(["report", "--out", str(tmp_path / "o"), str(run_dir)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "InputError"
        assert str(run_dir / "metrics.json") in err["message"]

    @pytest.mark.parametrize("station_file", [".", "missing.csv"])
    def test_unreadable_station_file(self, workdir, tmp_path, capsys, station_file):
        _, spec_path, data_dir = workdir
        copy = tmp_path / "data"
        shutil.copytree(data_dir, copy)
        manifest = copy / "manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()),
                                        "station_file": station_file}))
        rc = main(["build-graph", "--spec", spec_path, "--dataset", str(copy),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "InputError"
        assert "cannot read station file" in err["message"]

    def test_window_on_a_dataset_without_events(self, workdir, tmp_path, capsys):
        _, spec_path, data_dir = workdir
        ds = load_dataset(data_dir)
        empty = tmp_path / "empty"
        save_dataset(str(empty), EventDataset(stations=ds.stations, X=ds.X[:0], Y=ds.Y[:0],
                                              sample_rate_hz=ds.sample_rate_hz))
        rc = main(["train", "--spec", spec_path, "--dataset", str(empty), "--window", "4",
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "DatasetFormatError"
        assert "E must be >= 1" in err["message"]

    def test_window_of_partial_seconds_is_refused_before_training(self, workdir, tmp_path,
                                                                    capsys):
        # 450 samples at 100 Hz: the model would read 4 s and find 4.5 s
        _, spec_path, data_dir = workdir
        ds = load_dataset(data_dir)
        cut = tmp_path / "cut"
        save_dataset(str(cut), EventDataset(stations=ds.stations, X=ds.X[:, :, :450], Y=ds.Y,
                                            sample_rate_hz=ds.sample_rate_hz))
        out = tmp_path / "o"
        rc = main(["train", "--spec", spec_path, "--dataset", str(cut), "--out", str(out)])
        assert rc == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "InputError"
        assert all(part in err["message"] for part in ("T=450", "100 Hz", "window_seconds"))
        assert not out.exists()
        # cut to whole seconds, the same dataset trains
        run_ok(["train", "--spec", spec_path, "--dataset", str(cut), "--window", "4",
                "--out", str(out)])
        assert len(json.loads((out / "metrics.json").read_text())["runs"]) == 2

    def test_spec_not_utf8(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(b'{"seed": 1, "graph_k": "\xff"}')
        rc = main(["synth", "--spec", str(bad), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "InputError"
        assert str(bad) in err["message"]

    def test_missing_checkpoint(self, workdir, tmp_path, capsys):
        _, spec_path, data_dir = workdir
        rc = main(["eval", "--spec", spec_path, "--dataset", data_dir,
                   "--out", str(tmp_path / "o"),
                   "--checkpoint", str(tmp_path / "missing.tsrg")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "FileNotFoundError"

    @pytest.mark.parametrize("command", [c for c in COMMANDS if c != "train-single"])
    def test_output_dir_under_a_file(self, workdir, single, trained, tmp_path, capsys,
                                     monkeypatch, command):
        # the directory is made before any training or prediction
        called = []
        for name in ("run_protocol", "predict_batched"):
            monkeypatch.setattr(f"tisergcn.cli.{name}",
                                lambda *args, name=name, **kwargs: called.append(name))
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert main(command_argv(command, blocker / "sub", workdir, single, trained)) == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "NotADirectoryError"
        assert called == []

    def test_report_without_runs(self, tmp_path, capsys):
        rc = main(["report", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "InputError"
