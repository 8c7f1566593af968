"""The README's quick start runs; its CLI examples and CSV columns match the CLI."""

import re
import shlex
from pathlib import Path

import pytest

from igamf import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def test_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {})


def test_cli_examples_parse(tmp_path, monkeypatch):
    # each `igamf-bench` line of the sh blocks parses (nothing runs); the
    # argument files the blocks write with `cat > NAME <<'EOF'` exist first
    blocks = re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    lines = []
    for block in blocks:
        for name, body in re.findall(r"cat > (\S+) <<'EOF'\n(.*?)^EOF$",
                                     block, re.S | re.M):
            (tmp_path / name).write_text(body)
        lines += [ln for ln in block.splitlines()
                  if ln.startswith("igamf-bench ")]
    assert len(lines) >= 4
    assert any("@" in ln for ln in lines)
    parser = cli.build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {line}")


def test_csv_columns_match_cli():
    block = re.search(r"Output CSV columns:\n\n```\n(.*?)```",
                      README.read_text(), re.S).group(1)
    assert "".join(block.split()).split(",") == cli.CSV_HEADER
