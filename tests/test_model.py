"""Model assembly: configuration arithmetic, parameter counts, forward
shapes, the BLAS scope of a pass, and the checkpoint container format."""

import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest

import tisergcn.autodiff as ad
from tisergcn.data import random_stations
from tisergcn.errors import CheckpointFormatError, ConstructionError, InputError, ShapeError
from tisergcn.geo import StationSet, build_adjacency, propagation_matrix
from tisergcn.model import (
    IM_NAMES,
    Model,
    ModelConfig,
    build_tiser_gcn,
    load_checkpoint,
    save_checkpoint,
)
from tisergcn.pool import blas_on_caller

from conftest import line_stations


@pytest.fixture(scope="module")
def small_cfg():
    return ModelConfig(
        input_seconds=4,
        conv_filters=(4, 8),
        conv_kernels=(25, 25),
        conv_strides=(2, 2),
        gcn_filters=(8, 8),
        dense_width=16,
    )


@pytest.fixture(scope="module")
def prop5():
    return propagation_matrix(build_adjacency(line_stations(5), 0.3), "renormalized")


class TestConfig:
    def test_default_conv_chain(self):
        assert ModelConfig().conv_chain() == [1000, 438, 157]

    def test_flat_feature_width(self):
        cfg = ModelConfig()
        assert cfg.flat_feature_width() == 157 * 64 == 10048
        assert cfg.node_feature_width() == 10050
        assert ModelConfig(use_metadata=False).node_feature_width() == 10048

    def test_window_shrinks_chain(self):
        for sec in range(4, 11):
            chain = ModelConfig(input_seconds=sec).conv_chain()
            assert chain[0] == sec * 100
            assert chain[-1] >= 1

    def test_impossible_conv_names_layer(self):
        cfg = ModelConfig(input_seconds=1, conv_kernels=(90, 125), conv_strides=(2, 2))
        with pytest.raises(ConstructionError, match="conv2"):
            cfg.conv_chain()

    def test_mismatched_tuples(self):
        with pytest.raises(ConstructionError):
            ModelConfig(conv_kernels=(5,)).conv_chain()

    def test_bad_dtype(self):
        with pytest.raises(ConstructionError):
            _ = ModelConfig(dtype="f16").np_dtype

    def test_round_trip_dict(self):
        # through JSON, as a checkpoint stores it: lists come back as tuples
        cfg = ModelConfig(conv_filters=(8, 16), dense_width=32, dtype="f32")
        assert ModelConfig(**json.loads(json.dumps(asdict(cfg)))) == cfg


class TestAssembly:
    def test_unknown_kind(self, small_cfg):
        with pytest.raises(ConstructionError):
            Model("transformer", small_cfg, 5)

    @pytest.mark.parametrize("n_nodes", [0, -2, True, 2.0, "3"])
    def test_n_nodes_must_be_a_positive_int(self, small_cfg, n_nodes):
        with pytest.raises(ConstructionError, match="n_nodes"):
            Model("tiser", small_cfg, n_nodes)

    def test_param_count_tiser_vs_cnn(self, small_cfg):
        # graph mixing reuses one (F_in, F_out) matrix per layer; the
        # cross-station conv carries a full (N, F_in, 64) bank
        tiser = build_tiser_gcn(small_cfg, 5)
        cnn = Model("cnn", small_cfg, 5)
        assert tiser.param_count() < cnn.param_count()

    def test_param_count_by_hand(self, small_cfg):
        model = build_tiser_gcn(small_cfg, 3)
        w = small_cfg.node_feature_width()
        expected = (
            (25 * 3 * 4 + 4)            # conv1 kernels + bias
            + (25 * 4 * 8 + 8)          # conv2
            + w * 8 + 8 * 8             # gcn stack, no biases
            + (3 * 8) * 16 + 16         # dense trunk
            + 5 * (16 * 3 + 3)          # five linear heads
        )
        assert model.param_count() == expected

    def test_same_seed_same_init(self, small_cfg):
        a = build_tiser_gcn(small_cfg, 4)
        b = build_tiser_gcn(small_cfg, 4)
        for p, q in zip(a.params(), b.params()):
            assert np.array_equal(p.data, q.data)

    def test_param_names_unique(self, small_cfg):
        model = build_tiser_gcn(small_cfg, 4)
        names = [p.name for p in model.params()]
        assert len(names) == len(set(names))

    def test_l2_params_are_kernels_only(self, small_cfg):
        model = build_tiser_gcn(small_cfg, 4)
        names = {p.name for p in model.l2_params()}
        assert names == {"conv1.kernels", "conv2.kernels", "gcn1.W", "gcn2.W"}


class TestForward:
    def test_output_shape_and_finiteness(self, small_cfg, prop5, rng):
        model = build_tiser_gcn(small_cfg, 5)
        x = rng.standard_normal((3, 5, 400, 3))
        z = line_stations(5).coords()
        out = model.forward(prop5, x, z)
        assert out.shape == (3, len(IM_NAMES), 5)
        assert np.all(np.isfinite(out.data))

    def test_cnn_same_interface(self, small_cfg, prop5, rng):
        model = Model("cnn", small_cfg, 5)
        x = rng.standard_normal((2, 5, 400, 3))
        out = model.forward(prop5, x, line_stations(5).coords())
        assert out.shape == (2, 5, 5)

    def test_shape_validation(self, small_cfg, prop5, rng):
        model = build_tiser_gcn(small_cfg, 5)
        z = line_stations(5).coords()
        with pytest.raises(ShapeError):
            model.forward(prop5, rng.standard_normal((2, 4, 400, 3)), z)
        with pytest.raises(ShapeError):
            model.forward(prop5, rng.standard_normal((2, 5, 399, 3)), z)

    def test_prop_matrix_size_checked(self, small_cfg, rng):
        model = build_tiser_gcn(small_cfg, 5)
        bad = np.eye(4)
        with pytest.raises(ShapeError):
            model.forward(bad, rng.standard_normal((1, 5, 400, 3)),
                          line_stations(5).coords())

    def test_metadata_changes_output(self, small_cfg, prop5, rng):
        x = rng.standard_normal((2, 5, 400, 3))
        z = line_stations(5).coords()
        on = build_tiser_gcn(small_cfg, 5).forward(prop5, x, z).data
        off_cfg = ModelConfig(**{**asdict(small_cfg), "use_metadata": False})
        off = build_tiser_gcn(off_cfg, 5).forward(prop5, x, z).data
        assert not np.allclose(on, off)


class TestBlasScope:
    def test_direct_pass_matches_the_pass_inside_the_scope(self, blas_at_two):
        # OpenBLAS rounds some of the default model's GEMMs differently on one
        # and on two threads; forward and backward hold one thread themselves,
        # so a direct pass has the bits of the same pass inside a scope
        stations = random_stations(20, 0)
        prop = propagation_matrix(build_adjacency(stations, 0.3), "renormalized")
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((4, 20, 1000, 3)), rng.standard_normal((4, 5, 20))
        model = build_tiser_gcn(ModelConfig(), 20)

        def run():
            ad.zero_grad(model.params())
            pred = model.forward(prop, x, stations.coords())
            ad.backward(ad.mse_loss(pred, y))
            return {"pred": pred.data, **{p.name: p.grad for p in model.params()}}

        direct = run()
        with blas_on_caller():
            scoped = run()
        assert [k for k in direct if not np.array_equal(direct[k], scoped[k])] == []


# every checkpoint below is bound to the line network of its model's size
GRAPH_K = 0.3


def save(model, path):
    save_checkpoint(model, path, line_stations(model.n_nodes), GRAPH_K)


def load(path, n_nodes=3):
    return load_checkpoint(path, line_stations(n_nodes), GRAPH_K)


def rewrite_meta(path, edit):
    """Apply ``edit`` to the meta JSON of the checkpoint at ``path`` in place."""
    raw = path.read_bytes()
    blob_len = int.from_bytes(raw[8:12], "little")
    meta = json.loads(raw[12:12 + blob_len])
    edit(meta)
    blob = json.dumps(meta, sort_keys=True).encode()
    path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + blob_len:])


class TestCheckpoint:
    def test_round_trip(self, small_cfg, prop5, rng, tmp_path):
        model = build_tiser_gcn(small_cfg, 5)
        for p in model.params():
            p.data += rng.standard_normal(p.data.shape) * 0.01
        path = tmp_path / "model.tsrg"
        save(model, path)

        loaded = load(path, 5)
        assert loaded.kind == model.kind
        assert loaded.cfg == model.cfg
        x = rng.standard_normal((2, 5, 400, 3))
        z = line_stations(5).coords()
        assert np.array_equal(loaded.forward(prop5, x, z).data,
                              model.forward(prop5, x, z).data)

    def test_layout(self, small_cfg, tmp_path):
        # magic, version 2, the meta's length and JSON, then one f64 payload
        model = build_tiser_gcn(small_cfg, 3)
        path = tmp_path / "model.tsrg"
        save(model, path)
        raw = path.read_bytes()
        blob_len = int.from_bytes(raw[8:12], "little")
        assert raw[:8] == b"TSRG" + struct.pack("<I", 2)
        meta = json.loads(raw[12:12 + blob_len])
        assert meta["params"] == [{"name": p.name, "shape": list(p.shape)}
                                  for p in model.params()]
        assert meta["stations"] == [[s.id, s.lat, s.lon] for s in line_stations(3).stations]
        assert meta["graph_k"] == GRAPH_K
        payload = np.concatenate([p.data.ravel() for p in model.params()]).astype("<f8")
        assert raw[12 + blob_len:] == payload.tobytes()

    def test_bad_magic(self, small_cfg, tmp_path):
        model = build_tiser_gcn(small_cfg, 3)
        path = tmp_path / "model.tsrg"
        save(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load(path)

    def test_bad_version(self, small_cfg, tmp_path):
        model = build_tiser_gcn(small_cfg, 3)
        path = tmp_path / "model.tsrg"
        save(model, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="version"):
            load(path)

    def test_version_1_is_refused(self, small_cfg, tmp_path):
        # the old per-record layout has no reader: retraining is the way on
        path = tmp_path / "model.tsrg"
        save(build_tiser_gcn(small_cfg, 3), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
        with pytest.raises(CheckpointFormatError,
                           match=r"version 1\b.*train --protocol single"):
            load(path)

    def test_truncated_payload(self, small_cfg, tmp_path):
        model = build_tiser_gcn(small_cfg, 3)
        path = tmp_path / "model.tsrg"
        save(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointFormatError):
            load(path)

    def test_every_truncation_is_a_format_error(self, tmp_path):
        cfg = ModelConfig(input_seconds=1, sample_rate_hz=20, conv_filters=(2, 2),
                          conv_kernels=(4, 4), conv_strides=(2, 2), gcn_filters=(2, 2),
                          dense_width=4)
        path = tmp_path / "model.tsrg"
        save(build_tiser_gcn(cfg, 3), path)
        raw = path.read_bytes()
        cut_path = tmp_path / "cut.tsrg"
        for cut in range(len(raw)):
            cut_path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointFormatError):
                load(cut_path)

    def test_trailing_garbage(self, small_cfg, tmp_path):
        model = build_tiser_gcn(small_cfg, 3)
        path = tmp_path / "model.tsrg"
        save(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointFormatError):
            load(path)

    @pytest.mark.parametrize("edit", [
        lambda meta: meta.pop("kind"),
        lambda meta: meta.pop("params"),
        lambda meta: meta.update(n_nodes="abc"),
        lambda meta: meta.update(n_nodes=-1),
        lambda meta: meta.update(n_nodes=0),
        lambda meta: meta.update(n_nodes=True),
        lambda meta: meta["cfg"].update(conv_kernels="ab"),
        lambda meta: meta["cfg"].update(conv_kernels=[0, 3]),
        lambda meta: meta["cfg"].update(dense_width=0),
        lambda meta: meta["cfg"].update(gcn_filters=[0, 4]),
        lambda meta: meta["cfg"].update(conv_filters=["4", 8]),
        lambda meta: meta["cfg"].update(dtype="f16"),
        lambda meta: meta.update(cfg=[]),
        lambda meta: meta["cfg"].update(dense_width=10**12),
        lambda meta: meta.update(params={}),
        lambda meta: meta["params"].__setitem__(0, "conv1.kernels"),
        lambda meta: meta["params"][0]["shape"].__setitem__(0, -1),
        lambda meta: meta["params"][0]["shape"].__setitem__(0, "25"),
    ], ids=["no-kind", "no-params", "n_nodes-abc", "n_nodes-negative", "n_nodes-zero",
            "n_nodes-bool", "conv_kernels-str", "conv_kernels-zero", "dense_width-zero",
            "gcn_filters-zero", "conv_filters-str", "dtype-f16", "cfg-list",
            "dense_width-huge", "params-dict", "params-entry-str", "params-dim-negative",
            "params-dim-str"])
    def test_bad_metadata_is_a_format_error(self, small_cfg, tmp_path, edit):
        path = tmp_path / "model.tsrg"
        save(build_tiser_gcn(small_cfg, 3), path)
        rewrite_meta(path, edit)
        with pytest.raises(CheckpointFormatError, match="metadata"):
            load(path)

    @pytest.mark.parametrize("cut", [-8, 8], ids=["8-short", "8-over"])
    def test_payload_of_another_size_is_a_format_error(self, small_cfg, tmp_path, cut):
        path = tmp_path / "model.tsrg"
        save(build_tiser_gcn(small_cfg, 3), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:cut] if cut < 0 else raw + bytes(cut))
        with pytest.raises(CheckpointFormatError, match="payload"):
            load(path)

    @pytest.mark.parametrize("edit", [
        lambda params: params[0]["shape"].reverse(),
        lambda params: params[0].update(name="conv1.weights"),
        lambda params: params.insert(0, params.pop(1)),
    ], ids=["shape-changed", "renamed", "swapped"])
    def test_params_unlike_the_model_are_a_format_error(self, small_cfg, tmp_path, edit):
        # each edit keeps the payload's size, so only the list itself is wrong
        path = tmp_path / "model.tsrg"
        save(build_tiser_gcn(small_cfg, 3), path)
        rewrite_meta(path, lambda meta: edit(meta["params"]))
        with pytest.raises(CheckpointFormatError, match="params"):
            load(path)

    @pytest.mark.parametrize("value", [math.nan, 1e300], ids=["nan", "overflows-f32"])
    def test_non_finite_parameter_is_a_format_error(self, small_cfg, tmp_path, value):
        # the payload's first value (of conv1.kernels) rewritten in place;
        # 1e300 is finite in the stored f64 but not in the f32 model
        path = tmp_path / "model.tsrg"
        save(build_tiser_gcn(small_cfg, 3), path)
        raw = path.read_bytes()
        payload = 12 + int.from_bytes(raw[8:12], "little")
        path.write_bytes(raw[:payload] + struct.pack("<d", value) + raw[payload + 8:])
        with pytest.raises(CheckpointFormatError, match="conv1.kernels"):
            load(path)

    def test_config_from_older_version(self, small_cfg, tmp_path):
        # a stored config with a field ModelConfig no longer has
        path = tmp_path / "model.tsrg"
        save(build_tiser_gcn(small_cfg, 3), path)
        rewrite_meta(path, lambda meta: meta["cfg"].update(l2_coeff=1e-4))
        with pytest.raises(CheckpointFormatError, match="ModelConfig"):
            load(path)

    @pytest.mark.parametrize("stations,graph_k,part", [
        (line_stations(3, spacing_deg=0.2), GRAPH_K, "stations"),
        (StationSet(line_stations(3).stations[::-1]), GRAPH_K, "stations"),
        (line_stations(3), 0.5, "graph_k"),
    ], ids=["stations-moved", "stations-reordered", "graph_k"])
    def test_another_network_is_an_input_error(self, small_cfg, tmp_path, stations,
                                               graph_k, part):
        path = tmp_path / "model.tsrg"
        save(build_tiser_gcn(small_cfg, 3), path)
        with pytest.raises(InputError, match=part):
            load_checkpoint(path, stations, graph_k)
