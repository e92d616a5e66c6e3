"""Fuzz of the dataset and station readers: whatever a dataset directory
holds, load_dataset and load_stations_csv return or raise a TisergcnError,
never another exception."""

import json
import shutil

import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st

from tisergcn.data import MANIFEST_NAME, STATIONS_NAME, load_dataset, random_stations, \
    save_dataset, synth_dataset
from tisergcn.errors import TisergcnError
from tisergcn.geo import load_stations_csv

from test_checkpoint_fuzz import JSON_VALUES

# one cell of a station row: numbers in and out of range, non-finite and
# non-numeric text, quotes, separators and NUL
CELLS = st.one_of(st.floats().map(repr), st.integers(-200, 200).map(str),
                  st.sampled_from(["", " ", "nan", "inf", "-inf", "1e400", '"', '"1,2"', "\x00",
                                   "s0", "s1", "lat"]),
                  st.text(max_size=6))


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A tiny saved dataset, and a directory its mutants are written to."""
    root = tmp_path_factory.mktemp("fuzz")
    ds = synth_dataset(random_stations(3, 5), 2, 3, input_seconds=1, total_seconds=2.0,
                       sample_rate_hz=10)
    save_dataset(root / "good", ds)
    shutil.copytree(root / "good", root / "mutant")
    raw = {p.name: p.read_bytes() for p in (root / "good").iterdir()}
    return root / "mutant", raw


def load_or_refuse(directory, raw: dict, **changed: bytes) -> None:
    """Write the dataset with the files named in `changed` replaced, then load it."""
    for name, content in {**raw, **changed}.items():
        (directory / name).write_bytes(content)
    try:
        load_dataset(directory)
    except TisergcnError:
        pass


def cut_or_flip(data, raw: bytes, label: str) -> bytes:
    if data.draw(st.booleans(), label=f"truncate {label}"):
        return raw[:data.draw(st.integers(0, max(0, len(raw) - 1)), label="cut")]
    bit = data.draw(st.integers(0, 8 * len(raw) - 1), label="bit")
    mutant = bytearray(raw)
    mutant[bit // 8] ^= 1 << (bit % 8)
    return bytes(mutant)


@pytest.mark.parametrize("name", ["X.bin", "Y.bin", MANIFEST_NAME, STATIONS_NAME])
@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(data=st.data())
def test_bit_flips_and_truncations(saved, name, data):
    directory, raw = saved
    load_or_refuse(directory, raw, **{name: cut_or_flip(data, raw[name], name)})


@pytest.mark.parametrize("key", ["version", "E", "N", "T", "C", "sample_rate_hz",
                                 "station_file", "dtype", "byte_order"])
@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(value=JSON_VALUES | st.sampled_from(["", ".", "a\x00", "X.bin", "missing.csv"]))
def test_wrong_typed_manifest_values(saved, key, value):
    directory, raw = saved
    manifest = json.loads(raw[MANIFEST_NAME])
    manifest[key] = value
    load_or_refuse(directory, raw, **{MANIFEST_NAME: json.dumps(manifest).encode()})


# the example is a field past csv's size limit
@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(rows=st.lists(st.lists(CELLS, min_size=0, max_size=5), max_size=4),
       header=st.sampled_from(["id,lat,lon", "id,lat,lon,extra", "id,lon,lat", "", "id"]))
@example(rows=[["s0", "1" * 131073, "2"]], header="id,lat,lon")
def test_broken_station_rows(saved, rows, header):
    directory, raw = saved
    text = "\n".join([header] + [",".join(row) for row in rows]) + "\n"
    content = text.encode("utf-8", "surrogatepass")
    load_or_refuse(directory, raw, **{STATIONS_NAME: content})
    (directory / STATIONS_NAME).write_bytes(content)
    try:
        load_stations_csv(directory / STATIONS_NAME)
    except TisergcnError:
        pass


@pytest.mark.parametrize("name", ["X.bin", "Y.bin", STATIONS_NAME, MANIFEST_NAME])
def test_missing_file_is_refused(saved, name):
    directory, raw = saved
    load_or_refuse(directory, raw)
    (directory / name).unlink()
    with pytest.raises(TisergcnError):
        load_dataset(directory)
