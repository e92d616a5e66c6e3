"""Fuzz of report's metrics.json reader: whatever JSON a run directory's
metrics.json holds at its stamp, kind, runs or metric cells, ``report``
either succeeds or exits 2 with one JSON line on stderr, and never raises."""

import contextlib
import copy
import io
import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings

from tisergcn.cli import main

from test_checkpoint_fuzz import JSON_VALUES

STAMP = {"spec_sha256": "a", "code_version": "b", "data_hash": "c"}
METRICS = {im: {"mae": 1.0, "mse": 2.0, "rmse": 3.0}
           for im in ("pga", "pgv", "sa03", "sa1", "sa3", "overall")}


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("report_fuzz")


def with_value(key: str, value) -> dict:
    """A valid flat metrics.json body with the dotted ``key`` set to ``value``."""
    body = copy.deepcopy({"provenance": STAMP, "model_kind": "tiser", "metrics": METRICS})
    *parents, last = key.split(".")
    node = body
    for part in parents:
        node = node[part]
    node[last] = value
    return body


@pytest.mark.parametrize("key", ["provenance", "provenance.data_hash", "model_kind", "runs",
                                 "metrics", "metrics.pga", "metrics.sa1.mse"])
@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(value=JSON_VALUES)
def test_report_returns_or_refuses(run_dir, key, value):
    (run_dir / "metrics.json").write_text(json.dumps(with_value(key, value)))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["report", "--out", str(run_dir / "out"), str(run_dir)])
    if rc == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] == "InputError"
    else:
        assert rc == 0 and err.getvalue() == ""
