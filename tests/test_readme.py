"""The README's quick start and Python API example run as written, and the
package root it tells readers not to import from stays empty."""

import ast
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import tisergcn
from tisergcn.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_python_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.DOTALL)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme_example"})
    overall = ast.literal_eval(capsys.readouterr().out)
    assert set(overall) == {"mae", "mse", "rmse"}


def test_quick_start_runs(tmp_path, monkeypatch):
    # the shell block: an export, a heredoc that writes small.json, and the commands
    block = re.search(r"## Quick start\n\n```\n(.*?)```", README.read_text(encoding="utf-8"),
                      re.DOTALL).group(1)
    heredoc = re.search(r"cat > (\S+) <<'EOF'\n(.*?)\nEOF\n", block, re.DOTALL)
    assert "export TISER_DATA_DIR=" in block
    commands = [shlex.split(line, comments=True) for line in block.splitlines()
                if line.startswith("tisergcn ")]
    assert len(commands) == 4
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("TISER_DATA_DIR", str(tmp_path / "tiser"))
    (tmp_path / heredoc.group(1)).write_text(heredoc.group(2) + "\n", encoding="utf-8")
    for argv in commands:
        assert main(argv[1:]) == 0, argv
    assert (tmp_path / "runs" / "rep" / "report.md").exists()


def test_package_import_loads_no_submodule():
    src = str(Path(tisergcn.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, tisergcn; print(sorted(m for m in sys.modules if m.startswith('tisergcn.')))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"
