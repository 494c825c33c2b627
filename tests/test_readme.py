"""README's library example and CLI lines run as written."""

import json
import re
import shlex
from pathlib import Path

from entsup.cli import EXIT_OK, main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(language):
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{language}\n(.*?)^```", text, re.M | re.S)


def test_readme_python_blocks_run():
    blocks = _blocks("python")
    assert blocks
    for block in blocks:
        exec(compile(block, str(README), "exec"), {})


def test_readme_cli_lines_run(tmp_path, monkeypatch, capsys):
    # The CLI lines read state.json: README's sparse 3-qubit example.
    (state,) = [doc for doc in map(json.loads, _blocks("json")) if doc["dims"] == [2, 2, 2]]
    (tmp_path / "state.json").write_text(json.dumps(state))
    monkeypatch.chdir(tmp_path)
    lines = [
        line for block in _blocks("sh") for line in block.splitlines()
        if line.startswith("entsup ")
    ]
    assert lines
    for line in lines:
        assert main(shlex.split(line)[1:]) == EXIT_OK, line
        capsys.readouterr()
