import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

import empeq
from empeq.cli import run

GAMES = {
    "gamma1": ["--corpus", "gamma1"],
    "gamma2c-2-2": ["--corpus", "gamma2c", "--c1", "2", "--c2", "2"],
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _run_fresh_process(argv):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(empeq.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, "-m", "empeq.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def test_nash_gamma1_exits_zero():
    code, out, err = _run(["nash", *GAMES["gamma1"]])
    assert code == 0
    assert err == ""
    assert len(json.loads(out)["isolated"]) == 2


def test_unknown_corpus_name_is_input_error():
    code, out, err = _run(["nash", "--corpus", "no-such-game"])
    assert code == 2
    assert out == ""
    assert "unknown corpus game" in err


def test_missing_game_file_is_input_error(tmp_path):
    code, out, err = _run(["nash", "--game", str(tmp_path / "missing.json")])
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("command", ["nash", "empirical", "trace"])
@pytest.mark.parametrize("game", sorted(GAMES))
def test_repeat_runs_are_byte_identical(command, game):
    argv = [command, *GAMES[game]]
    code, out, _ = _run(argv)
    assert code in (0, 1)
    assert out
    assert _run(argv)[:2] == (code, out)
    # a fresh interpreter has a fresh hash seed
    assert _run_fresh_process(argv) == (code, out)
