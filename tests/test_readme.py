"""The README's quick start runs; its CLI examples and CSV columns match the
CLI; the names its Layout table gives exist."""

import dataclasses
import importlib
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


def test_layout_names_exist():
    # every backticked identifier in the Layout table is an attribute of an
    # igamf module or a field of an igamf dataclass, so a deleted name
    # cannot linger in the docs
    table = README.read_text().split("\n## Layout\n", 1)[1].split("\n## ", 1)[0]
    names = {n for n in re.findall(r"`([^`]+)`", table) if n.isidentifier()}
    modules = [importlib.import_module(m)
               for m in re.findall(r"^\| `(igamf\.\w+)` \|", table, re.M)]
    assert len(names) >= 20 and len(modules) >= 9
    known = set()
    for mod in modules:
        known.update(vars(mod))
        known.update(f.name for obj in vars(mod).values()
                     if isinstance(obj, type) and dataclasses.is_dataclass(obj)
                     for f in dataclasses.fields(obj))
    assert not names - known, f"Layout names no igamf attribute: {names - known}"
