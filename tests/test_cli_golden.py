"""Byte contract of the CLI: every ``cli`` entry recorded in
``perfbench/golden.json`` is replayed in-process through :func:`main`, and
its exit code and the sha256 of its stdout and stderr must match the
recorded values.  An entry is the command line after ``tangentia``, with
any ``NAME=value`` environment settings in front.
"""
import hashlib
import json
import shlex
from pathlib import Path

import pytest

from tangentia.cli import main

GOLDEN = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "golden.json").read_text()
)["cli"]


def _split_entry(entry: str) -> tuple[list[str], dict[str, str]]:
    words = shlex.split(entry)
    env = {}
    while words and "=" in words[0] and not words[0].startswith("-"):
        name, value = words.pop(0).split("=", 1)
        env[name] = value
    return words, env


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("entry", sorted(GOLDEN))
def test_golden_cli_entry(entry, capsys, monkeypatch):
    argv, env = _split_entry(entry)
    monkeypatch.delenv("TANGENTIA_FORMAT", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code = main(argv)
    captured = capsys.readouterr()
    expected = GOLDEN[entry]
    assert (code, _sha(captured.out), _sha(captured.err)) == (
        expected["exit"], expected["stdout"], expected["stderr"]
    )
