"""Fuzz of the checkpoint reader: whatever bytes it is given, load_checkpoint
returns a model or raises a TisergcnError, never another exception."""

import json
from dataclasses import asdict

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from tisergcn.errors import TisergcnError
from tisergcn.model import ModelConfig, build_tiser_gcn, load_checkpoint, save_checkpoint

from conftest import line_stations

TINY = ModelConfig(input_seconds=1, sample_rate_hz=20, conv_filters=(2, 2),
                   conv_kernels=(4, 4), conv_strides=(2, 2), gcn_filters=(2, 2),
                   dense_width=4)
STATIONS = line_stations(3)

# JSON values of every type; integers stay small so that no value that
# happens to fit a field sizes a model too large for a test
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                 max_size=3),
    max_leaves=6)


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.tsrg"
    save_checkpoint(build_tiser_gcn(TINY, 3), path, STATIONS, 0.3)
    return path.with_name("mutant.tsrg"), path.read_bytes()


def load_or_refuse(path, raw: bytes) -> None:
    path.write_bytes(raw)
    try:
        load_checkpoint(path, STATIONS, 0.3)
    except TisergcnError:
        pass


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(data=st.data())
def test_bit_flips_and_truncations(saved, data):
    path, raw = saved
    if data.draw(st.booleans(), label="truncate"):
        mutant = raw[:data.draw(st.integers(0, len(raw) - 1), label="cut")]
    else:
        bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
        mutant = bytearray(raw)
        mutant[bit // 8] ^= 1 << (bit % 8)
    load_or_refuse(path, bytes(mutant))


@pytest.mark.parametrize("key", ["kind", "n_nodes", "cfg", "params", "stations", "graph_k",
                                 *(f"cfg.{name}" for name in asdict(TINY))])
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(value=JSON_VALUES)
def test_wrong_typed_meta_values(saved, key, value):
    path, raw = saved
    blob_len = int.from_bytes(raw[8:12], "little")
    meta = json.loads(raw[12:12 + blob_len])
    section, _, name = key.rpartition(".")
    (meta[section] if section else meta)[name] = value
    blob = json.dumps(meta).encode()
    load_or_refuse(path, raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + blob_len:])
