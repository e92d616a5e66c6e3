"""Model assembly: configuration arithmetic, parameter counts, forward
shapes, and the checkpoint container format."""

import json
import math
import struct
from dataclasses import asdict

import numpy as np
import pytest

from tisergcn.errors import CheckpointFormatError, ConstructionError, ShapeError
from tisergcn.geo import build_adjacency, propagation_matrix
from tisergcn.model import (
    IM_NAMES,
    Model,
    ModelConfig,
    build_tiser_gcn,
    load_checkpoint,
    save_checkpoint,
)

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


class TestCheckpoint:
    def test_round_trip(self, small_cfg, prop5, rng, tmp_path):
        model = build_tiser_gcn(small_cfg, 5)
        for p in model.params():
            p.data += rng.standard_normal(p.data.shape) * 0.01
        path = tmp_path / "model.tsrg"
        save_checkpoint(model, path)

        loaded = load_checkpoint(path)
        assert loaded.kind == model.kind
        assert loaded.cfg == model.cfg
        x = rng.standard_normal((2, 5, 400, 3))
        z = line_stations(5).coords()
        assert np.array_equal(loaded.forward(prop5, x, z).data,
                              model.forward(prop5, x, z).data)

    def test_bad_magic(self, small_cfg, tmp_path):
        model = build_tiser_gcn(small_cfg, 3)
        path = tmp_path / "model.tsrg"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load_checkpoint(path)

    def test_bad_version(self, small_cfg, tmp_path):
        model = build_tiser_gcn(small_cfg, 3)
        path = tmp_path / "model.tsrg"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 99
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointFormatError, match="version"):
            load_checkpoint(path)

    def test_truncated_payload(self, small_cfg, tmp_path):
        model = build_tiser_gcn(small_cfg, 3)
        path = tmp_path / "model.tsrg"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

    def test_every_truncation_is_a_format_error(self, tmp_path):
        cfg = ModelConfig(input_seconds=1, sample_rate_hz=20, conv_filters=(2, 2),
                          conv_kernels=(4, 4), conv_strides=(2, 2), gcn_filters=(2, 2),
                          dense_width=4)
        path = tmp_path / "model.tsrg"
        save_checkpoint(build_tiser_gcn(cfg, 3), path)
        raw = path.read_bytes()
        cut_path = tmp_path / "cut.tsrg"
        for cut in range(len(raw)):
            cut_path.write_bytes(raw[:cut])
            with pytest.raises(CheckpointFormatError):
                load_checkpoint(cut_path)

    def test_trailing_garbage(self, small_cfg, tmp_path):
        model = build_tiser_gcn(small_cfg, 3)
        path = tmp_path / "model.tsrg"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(CheckpointFormatError):
            load_checkpoint(path)

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
        save_checkpoint(build_tiser_gcn(small_cfg, 3), path)
        raw = path.read_bytes()
        blob_len = int.from_bytes(raw[8:12], "little")
        meta = json.loads(raw[12:12 + blob_len])
        edit(meta)
        blob = json.dumps(meta, sort_keys=True).encode()
        path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob
                         + raw[12 + blob_len:])
        with pytest.raises(CheckpointFormatError, match="metadata"):
            load_checkpoint(path)

    @pytest.mark.parametrize("header", [
        struct.pack("<I", 3 | 1 << 31),
        struct.pack("<I", 70),
        struct.pack("<4I", 3, 2**21, 2**21, 2**22),
    ], ids=["ndim-flipped-2^31", "ndim-past-numpy", "dims-overflow-int64"])
    def test_bad_record_header_is_a_format_error(self, small_cfg, tmp_path, header):
        # the first record's ndim, and its dims, rewritten in place
        path = tmp_path / "model.tsrg"
        save_checkpoint(build_tiser_gcn(small_cfg, 3), path)
        raw = path.read_bytes()
        rec = 12 + int.from_bytes(raw[8:12], "little")
        at = rec + 4 + int.from_bytes(raw[rec:rec + 4], "little")
        path.write_bytes(raw[:at] + header + raw[at + len(header):])
        with pytest.raises(CheckpointFormatError, match="record"):
            load_checkpoint(path)

    @pytest.mark.parametrize("value", [math.nan, 1e300], ids=["nan", "overflows-f32"])
    def test_non_finite_parameter_is_a_format_error(self, small_cfg, tmp_path, value):
        # the first value of the first record (conv1.kernels) rewritten in place;
        # 1e300 is finite in the stored f64 but not in the f32 model
        path = tmp_path / "model.tsrg"
        save_checkpoint(build_tiser_gcn(small_cfg, 3), path)
        raw = path.read_bytes()
        rec = 12 + int.from_bytes(raw[8:12], "little")
        at = rec + 4 + int.from_bytes(raw[rec:rec + 4], "little")
        payload = at + 4 + 4 * int.from_bytes(raw[at:at + 4], "little")
        path.write_bytes(raw[:payload] + struct.pack("<d", value) + raw[payload + 8:])
        with pytest.raises(CheckpointFormatError, match="conv1.kernels"):
            load_checkpoint(path)

    def test_config_from_older_version(self, small_cfg, tmp_path):
        # a stored config with a field ModelConfig no longer has
        model = build_tiser_gcn(small_cfg, 3)
        path = tmp_path / "model.tsrg"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        blob_len = int.from_bytes(raw[8:12], "little")
        meta = json.loads(raw[12:12 + blob_len])
        meta["cfg"]["l2_coeff"] = 1e-4
        blob = json.dumps(meta, sort_keys=True).encode()
        path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob
                         + raw[12 + blob_len:])
        with pytest.raises(CheckpointFormatError, match="ModelConfig"):
            load_checkpoint(path)
