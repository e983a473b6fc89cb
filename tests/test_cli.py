import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import empeq
from empeq.cli import run
from empeq.game import Game

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


def _game_file(tmp_path, a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m, k = a.shape
    g = Game(["P1", "P2"], {"P1": [f"a{i + 1}" for i in range(m)],
                            "P2": [f"b{j + 1}" for j in range(k)]},
             np.stack([a, b], axis=-1))
    path = tmp_path / "game.json"
    g.to_file(path)
    return str(path)


def test_inconclusive_verdict_exits_one(tmp_path):
    # every membership search on a 6x6 game stops at the 5-action cap
    rng = np.random.default_rng(6)
    path = _game_file(tmp_path, *rng.uniform(-10, 10, size=(2, 6, 6)))
    code, out, err = _run(["empirical", "--game", path])
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    assert doc["isolated"]
    assert {e["decision"] for e in doc["isolated"]} == {"inconclusive"}


def test_structural_zeros_in_components_print_as_zero(tmp_path):
    # P1 uniform with P2 = (q, 1 - q, 0): b3 is zero along the whole segment
    path = _game_file(tmp_path, [[2, 2, 1], [2, 2, 0], [2, 2, 2]],
                      [[2, 1, 1], [1, 0, 1], [0, 2, 1]])
    code, out, _ = _run(["nash", "--game", path])
    assert code in (0, 1)
    (full,) = [c for c in json.loads(out)["components"]
               if c["support"] == [["a1", "a2", "a3"], ["b1", "b2", "b3"]]]
    assert full["base"][1][2] == 0.0
    assert full["direction"][1][2] == 0.0


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
