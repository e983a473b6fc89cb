import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import empeq
from empeq import cli, corpus
from empeq.cli import run
from empeq.empirical import DEFAULT_DELTAS
from empeq.game import Game
from empeq.qre import QreConvergenceError

from conftest import per_pair_reference

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


def test_unconverged_trace_exits_one(monkeypatch):
    def fail(game, schedule):
        raise QreConvergenceError("fixed point not reached (last residual 1.4e-10)",
                                  1.4e-10)

    monkeypatch.setattr(cli, "trace_logit_path", fail)
    code, out, err = _run(["trace", *GAMES["gamma1"]])
    assert code == 1
    assert out == ""
    assert err == "error: fixed point not reached (last residual 1.4e-10)\n"


def test_trace_enumerates_no_equilibrium(monkeypatch):
    def fail(game):
        raise AssertionError("trace must not enumerate Nash equilibria")

    monkeypatch.setattr(empeq.nash, "enumerate_nash", fail)
    code, out, err = _run(["trace", "--corpus", "psi"])
    assert code == 0
    assert err == ""
    assert len(out.splitlines()) == 42


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
    # (a1, b1) is the only equilibrium; P2's seven unused actions tie in
    # probability and utility, so they have 47,293 weak orders, more
    # compatible patterns than the closure test tries
    a = [[1] * 8, [0] * 8]
    b = [[1] + [0] * 7] * 2
    path = _game_file(tmp_path, a, b)
    code, out, err = _run(["empirical", "--game", path])
    assert code == 1
    assert err == ""
    doc = json.loads(out)
    assert [e["decision"] for e in doc["isolated"]] == ["inconclusive"]
    assert doc["components"] == []


@pytest.mark.parametrize("schedule", [None, "0.1,0.001"])
def test_empirical_lists_one_witness_per_delta(schedule, tmp_path):
    # every member lists its witness once per scheduled delta, largest
    # first; perfbench/checks.check_membership fails a member without them
    path = _game_file(tmp_path, *np.random.default_rng(7).uniform(size=(2, 5, 5)))
    argv = ["empirical", "--game", path]
    if schedule is not None:
        argv += ["--delta-schedule", schedule]
    deltas = [0.1, 0.001] if schedule else sorted(DEFAULT_DELTAS, reverse=True)
    code, out, err = _run(argv)
    assert (code, err) == (0, "")
    members = [e for e in json.loads(out)["isolated"] if e["decision"] == "member"]
    assert members
    for entry in members:
        assert [w["delta"] for w in entry["witnesses"]] == deltas
        assert all(w["profile"] == entry["witnesses"][0]["profile"]
                   for w in entry["witnesses"])


def test_empirical_has_no_grid_option():
    # component decisions are taken at breakpoints, not on a grid
    code, out, err = _run(["empirical", "--corpus", "psi", "--grid", "101"])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --grid" in err


def test_nash_has_no_grid_option():
    # refinements are decided at breakpoints too, and listed as intervals
    code, out, err = _run(["nash", "--corpus", "psi", "--grid", "101"])
    assert code == 2
    assert out == ""
    assert "unrecognized arguments: --grid" in err
    code, out, _ = _run(["nash", "--corpus", "psi"])
    assert code == 0
    (comp,) = json.loads(out)["components"]
    hi = comp["interval"][1]
    assert [e["t"] for e in comp["grid"]][::4] == comp["interval"]
    for key in ("undominated_region", "perfect_intervals", "proper_intervals"):
        assert comp[key] == [[hi, hi]]


@pytest.mark.parametrize("name", ["psi", "phi"])
def test_payoff_units_do_not_make_equilibria_input_errors(name, tmp_path):
    # at payoffs of size 1e10 the enumerated equilibria have raw Nash
    # defects of about 2e-6; the checks measure the defect on unit-range
    # payoffs, so neither command rejects them
    game = corpus.get(name)
    path = tmp_path / "game.json"
    Game(game.players, game.actions, 1e10 * game.payoffs).to_file(path)
    for command in ("nash", "empirical"):
        assert _run([command, "--game", str(path)])[::2] == (0, "")


def test_nash_diagnostics_match_per_pair_reference(tmp_path):
    # `nash` reports only the pairs that may hold equilibria but gave none;
    # this game has degenerate faces
    rng = np.random.default_rng(3)
    path = _game_file(tmp_path, *rng.integers(0, 3, size=(2, 4, 4)))
    code, out, err = _run(["nash", "--game", path])
    assert code == 0
    assert err == ""
    got = json.loads(out)["diagnostics"]
    ref = per_pair_reference(Game.from_file(path)).diagnostics
    assert sum(d["status"] == "degenerate" for d in got) == 13
    assert {d["status"] for d in got} <= {"degenerate", "incentive-violation"}
    assert got == [{"support": [list(s) for s in d.support], "status": d.status,
                    "detail": d.detail} for d in ref]
    # every support pair of Gamma2(2, 2) without an equilibrium is empty
    code, out, _ = _run(["nash", *GAMES["gamma2c-2-2"]])
    assert code == 0
    assert '"diagnostics": []' in out


def test_empirical_lists_dropped_faces(tmp_path):
    # every profile of the constant game is Nash; enumeration traces the four
    # edges and leaves the square itself as a `degenerate` face, which
    # `empirical` lists as `nash` does, without changing its exit code
    path = _game_file(tmp_path, np.ones((2, 2)), np.ones((2, 2)))
    code, out, err = _run(["empirical", "--game", path])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert len(doc["components"]) == 4
    assert doc["diagnostics"] == [{"support": [[0, 1], [0, 1]], "status": "degenerate",
                                   "detail": "solution set of dimension 2 not traced"}]
    nash_doc = json.loads(_run(["nash", "--game", path])[1])
    assert doc["diagnostics"] == nash_doc["diagnostics"]


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


def _profile_file(tmp_path, game):
    # a mixed profile whose monotonicity verdicts list violations
    game = corpus.get(game.split("-")[0], *game.split("-")[1:])
    doc = {p: {a: (0.7 if j == 0 else 0.3 / (len(acts) - 1)) for j, a in enumerate(acts)}
           for p, acts in game.actions.items()}
    path = tmp_path / "profile.json"
    path.write_text(json.dumps(doc))
    return str(path)


# region needs two actions per player, so it runs on gamma1 only
REPEAT_CASES = [(g, c) for g in sorted(GAMES) for c in ("nash", "empirical", "trace", "wpm")]
REPEAT_CASES.append(("gamma1", "region"))


@pytest.mark.parametrize("game, command", REPEAT_CASES)
def test_repeat_runs_are_byte_identical(game, command, tmp_path):
    argv = [command, *GAMES[game]]
    if command == "region":
        argv += ["--resolution", "20"]
    if command == "wpm":
        argv += ["--profile", _profile_file(tmp_path, game), "--m", "0.5"]
    code, out, _ = _run(argv)
    assert code in (0, 1)
    assert out
    assert _run(argv)[:2] == (code, out)
    # a fresh interpreter has a fresh hash seed
    assert _run_fresh_process(argv) == (code, out)


@pytest.mark.parametrize("argv, message", [
    (["empirical", "--corpus", "gamma1", "--delta-schedule", "nan"], "delta schedule"),
    (["empirical", "--corpus", "gamma1", "--delta-schedule", "inf"], "delta schedule"),
    (["empirical", "--corpus", "gamma1", "--delta-schedule", "0.1,-0.01"], "delta schedule"),
    (["nash", "--corpus", "gamma1", "--eps-schedule", "-0.1"], "eps schedule"),
    (["nash", "--corpus", "gamma1", "--eps-schedule", "0.1,nan"], "eps schedule"),
    (["trace", "--corpus", "gamma1", "--lambda-max", "inf"], "lambda schedule"),
    (["trace", "--corpus", "gamma1", "--lambda-max", "0.001"], "lambda schedule"),
    (["region", "--corpus", "gamma1", "--resolution", "0"], "resolution"),
    (["region", "--corpus", "gamma1", "--resolution", "-2"], "resolution"),
    (["nash", "--corpus", "gamma1", "--eps-schedule", "0"], "eps schedule"),
    (["trace", "--corpus", "gamma1", "--steps", "1", "--lambda-max", "1000"],
     "steps >= 2"),
    (["trace", "--corpus", "gamma1", "--steps", "-3"], "steps >= 2"),
])
def test_meaningless_schedules_and_grids_are_input_errors(argv, message):
    code, out, err = _run(argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert "Warning" not in err
