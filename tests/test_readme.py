"""Every `pqst` command of the README's sh blocks runs and exits 0, so the
documented examples stay in step with the CLI."""

import re
import shlex
from pathlib import Path

import pytest
from click.testing import CliRunner

from pqst.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_commands() -> list[list[str]]:
    """The arguments of each `pqst` line of the sh blocks, `\\` continuations joined."""
    commands = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["pqst"]:
                commands.append(words[1:])
    return commands


def test_readme_has_examples_of_every_command():
    assert {args[0] for args in readme_commands()} == \
        {"ensemble-info", "reconstruct", "estimate", "bench", "validate"}


@pytest.mark.parametrize("args", readme_commands(), ids=" ".join)
def test_readme_command_exits_0(tmp_path, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
