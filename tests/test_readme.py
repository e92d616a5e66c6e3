"""The README's Python API example runs as written, and the package root
it tells readers not to import from stays empty."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import tisergcn

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    overall = ast.literal_eval(capsys.readouterr().out)
    assert set(overall) == {"mae", "mse", "rmse"}


def test_package_import_loads_no_submodule():
    src = str(Path(tisergcn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, tisergcn; print(sorted(m for m in sys.modules if m.startswith('tisergcn.')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
