"""The README's quick start and command lines run as written."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from heatlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"
COMMAND_LINES = re.search(r"Command line:\n\n```\n(.*?)```",
                          README.read_text(), re.S).group(1).splitlines()


def test_readme_quick_start_runs():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], str(README), "exec"), {})
    assert out.getvalue().splitlines() == ["['GlobalBounded', 'BlowUp']"]


@pytest.mark.parametrize("line", COMMAND_LINES)
def test_readme_command_line_runs(line, tmp_path):
    argv = shlex.split(line)
    assert argv[0] == "heatlab"
    assert main([*argv[1:], "--out-dir", str(tmp_path / "out")]) == 0
