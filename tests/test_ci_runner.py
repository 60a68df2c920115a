"""The CI runner .github/heatlab-run.sh NAME STATUSES ARGS...: it runs
heatlab from the src/ beside it into ci/NAME of the working directory and
fails unless the exit status is allowed and stderr is clean."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUNNER = Path(__file__).resolve().parents[1] / ".github" / "heatlab-run.sh"
CHECK_PP = ["check", "--family", "pure-power", "--p", "3", "--dim", "5"]

pytestmark = pytest.mark.skipif(
    shutil.which("bash") is None or shutil.which("timeout") is None,
    reason="the runner needs bash and coreutils' timeout")


def _run(runner, cwd, *args):
    # `python` on PATH is the interpreter running these tests
    env = {**os.environ, "PATH": os.pathsep.join(
        [os.path.dirname(sys.executable), os.environ.get("PATH", "")])}
    return subprocess.run(["bash", str(runner), *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)


def test_allowed_status_passes_and_creates_ci(tmp_path):
    # the cubic fails tail convexity (A3) by design: exit 1
    proc = _run(RUNNER, tmp_path, "check-pp", "1", *CHECK_PP)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert (tmp_path / "ci" / "check-pp" / "admissibility.json").is_file()
    assert (tmp_path / "ci" / "check-pp.err").is_file()


def test_other_status_fails_naming_it(tmp_path):
    proc = _run(RUNNER, tmp_path, "check-pp", "0", *CHECK_PP)
    assert proc.returncode != 0
    assert "check-pp: exit status 1, want one of 0" in proc.stderr


def test_runtime_warning_on_stderr_fails(tmp_path):
    # a copy of the runner beside a stub heatlab whose cli warns, exit 0
    (tmp_path / ".github").mkdir()
    runner = tmp_path / ".github" / RUNNER.name
    shutil.copy(RUNNER, runner)
    stub = tmp_path / "src" / "heatlab"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text("")
    (stub / "cli.py").write_text(
        "import sys\n"
        "print('RuntimeWarning: overflow encountered', file=sys.stderr)\n")
    work = tmp_path / "work"
    work.mkdir()
    proc = _run(runner, work, "stub", "0", "check")
    assert proc.returncode != 0
    assert "RuntimeWarning: overflow encountered" in proc.stdout
    assert "stub: a Traceback or RuntimeWarning on stderr" in proc.stderr
