"""The README's examples run as written."""

import re
import shlex
from pathlib import Path

from expseries.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.M | re.S)


def test_python_quick_start_runs(tmp_path, monkeypatch):
    (block,) = fenced_blocks("python")
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})


def test_cli_examples_exit_zero(tmp_path, monkeypatch, capsys):
    commands = [
        shlex.split(line)[1:]
        for block in fenced_blocks("sh")
        for line in block.splitlines()
        if line.startswith("expseries ")
    ]
    assert commands
    monkeypatch.chdir(tmp_path)
    # In order: simulate reads the control.json that synthesize writes.
    for argv in commands:
        assert main(argv) == 0, argv
        assert not capsys.readouterr().err
