import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import empeq
from empeq import cli, corpus, nash
from empeq.cli import run
from empeq.empirical import DEFAULT_DELTAS
from empeq.game import Game, MixedProfile
from empeq.qre import QreConvergenceError

from conftest import (chained_tie_game, noisy_integer_games, per_pair_reference,
                      without_dropped_faces)

GAMES = {
    "gamma1": ["--corpus", "gamma1"],
    "gamma2c-2-2": ["--corpus", "gamma2c", "--c1", "2", "--c2", "2"],
}


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def _run_fresh_process(argv, module=("-m", "empeq.cli")):
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(empeq.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run([sys.executable, *module, *argv], env=env,
                          capture_output=True, text=True, timeout=300)
    return proc.returncode, proc.stdout


def test_lp_solver_loads_on_first_lp():
    # scipy.optimize takes about half a second to import; trace solves no LP
    script = ("import sys\nfrom empeq.cli import run\n"
              "loaded = 'scipy.optimize' in sys.modules\n"
              "run(sys.argv[1:])\n"
              "print(loaded, 'scipy.optimize' in sys.modules)")
    code, out = _run_fresh_process(["trace", "--corpus", "gamma1"], ("-c", script))
    assert code == 0
    assert out.splitlines()[-1] == "False False"


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


@pytest.mark.parametrize("argv", [
    ["nash", "--corpus", "gamma1", "--c1", "5"],
    ["empirical", "--corpus", "psi", "--c2", "1"],
    ["corpus", "emit", "phi", "--c1", "1", "--c2", "2"],
    ["nash", "--game", "{path}", "--c1", "1", "--c2", "2"],
])
def test_costs_for_games_other_than_gamma2c_are_input_errors(argv, tmp_path):
    path = tmp_path / "g.json"
    corpus.gamma1().to_file(path)
    code, out, err = _run([a.format(path=path) for a in argv])
    assert code == 2
    assert out == ""
    assert "apply to gamma2c only" in err


def test_game_file_and_corpus_name_are_exclusive(tmp_path):
    path = tmp_path / "g.json"
    corpus.gamma1().to_file(path)
    code, out, err = _run(["nash", "--game", str(path), "--corpus", "psi"])
    assert code == 2
    assert out == ""
    assert "not allowed with argument" in err


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
    # the reference lists every face of dimension >= 2; `nash` leaves out
    # only those that the dominance stage proves empty
    listed = {tuple(map(tuple, d["support"])) for d in got}
    full = per_pair_reference(Game.from_file(path)).diagnostics
    ref = without_dropped_faces(listed, nash.EquilibriumSet([], [], full)).diagnostics
    assert (len(full) - len(ref), sum(d["status"] == "degenerate" for d in got)) == (3, 10)
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
    (["wpm", "--corpus", "gamma1", "--profile", "{profile}", "--tol", "-1"], "tol"),
    (["wpm", "--corpus", "gamma1", "--profile", "{profile}", "--tol", "nan"], "tol"),
    (["region", "--corpus", "gamma1", "--tol", "-1"], "tol"),
    (["region", "--corpus", "gamma1", "--tol", "nan"], "tol"),
    (["nash", "--corpus", "gamma1", "--eps-schedule", "2"], "eps schedule"),
])
def test_meaningless_schedules_and_grids_are_input_errors(argv, message, tmp_path):
    profile = _profile_file(tmp_path, "gamma1")
    code, out, err = _run([a.format(profile=profile) for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and message in err
    assert "Warning" not in err


def _help(parser, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit):
        parser.parse_args(argv)
    return out.getvalue()


def _run_full_parser(argv):
    """What `run` printed and returned when the full parser parsed every
    argv."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            args = cli.build_parser().parse_args(argv)
        except SystemExit as exc:
            code = 2 if exc.code not in (0, None) else 0
        else:
            code = cli._COMMANDS[args.command][2](args)
    return code, out.getvalue(), err.getvalue()


VALID_ARGV = {
    "corpus": ["corpus", "emit", "gamma2c", "--c1", "1", "--c2", "2", "--out", "o"],
    "nash": ["nash", "--cor", "psi", "--eps-schedule", "0.1,0.01"],
    "wpm": ["wpm", "--game", "g.json", "--profile", "p.json", "--m", "2", "--tol", "0"],
    "region": ["region", "--corpus", "phi", "--resolution", "5", "--kind", "strict"],
    "trace": ["trace", "--corpus=gamma1", "--steps=3", "--lambda-max", "10"],
    "empirical": ["empirical", "--m", "0.5", "--corpus", "gamma1", "--m", "1",
                  "--timings"],
    "ccost": ["ccost", "check", "--corpus", "gamma1", "--profile", "p.json",
              "--splines", "s.json", "--eps", "0.2", "--y0", "1", "--ystar", "2"],
}


@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_subcommand_parser_matches_full_parser(command, monkeypatch):
    # `run` parses a named command with that command's parser alone
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "-h"]
    assert _run(argv) == (0, _help(cli.build_parser(), argv), "")
    parsed = []
    help_text, add_args, _ = cli._COMMANDS[command]
    monkeypatch.setitem(cli._COMMANDS, command,
                        (help_text, add_args, lambda args: parsed.append(args) or 0))
    argv = VALID_ARGV[command]
    assert _run(argv) == (0, "", "")
    assert parsed == [cli.build_parser().parse_args(argv)]


PARSE_ONLY_ARGV = [
    [], ["-h"], ["bogus"], ["-h", "nash"],
    *([command, "-h"] for command in sorted(cli._COMMANDS)),
    ["nash", "--corpus", "psi", "--grid", "101"],
    ["wpm", "--corpus", "gamma1"],
    ["nash", "--game", "g.json", "--corpus", "psi"],
    ["trace", "--corpus", "gamma1", "--steps", "x"],
    ["empirical", "--corpus", "gamma1", "--seed", "3"],
    ["nash", "--corpus", "psi", "extra"],
    ["nash", "--", "x"],
    ["corpus", "list", "x", "y"],
    ["trace", "--corpus=gamma1", "--steps=3"],
    ["nash", "--cor", "psi"],
    ["empirical", "--m", "0.5", "--corpus", "gamma1", "--m", "1"],
    ["nash", "--corpus", "psi", "-h"],
]


@pytest.mark.parametrize("argv", PARSE_ONLY_ARGV, ids=" ".join)
def test_run_prints_what_a_full_parser_prints(argv, monkeypatch):
    # help, usage, every parse error and the parsed command's output read
    # the same as with the full parser
    monkeypatch.setenv("COLUMNS", "80")
    got = _run(argv)
    assert got == _run_full_parser(argv)
    assert got[0] in (0, 2) and got[1:] != ("", "")


def test_run_builds_one_new_parser_per_call(monkeypatch):
    # a valid argv builds its command's parser alone; help, an unknown
    # command and leftover arguments build the full parser, prog "empeq",
    # once
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(parser, *args, **kwargs):
        init(parser, *args, **kwargs)
        built.append(parser.prog)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    full = ["empeq", *(f"empeq {command}" for command in cli._COMMANDS)]
    for argv, progs in ((["corpus", "list"], ["empeq corpus"]),
                        (["corpus", "list"], ["empeq corpus"]),
                        (["-h"], full),
                        (["bogus"], full),
                        (["corpus", "list", "x", "y"], ["empeq corpus", *full])):
        built.clear()
        _run(argv)
        assert built == progs


@pytest.mark.parametrize("argv", [
    ["nash", "--corpus", "gamma1", "--out", "{F}/x.json"],
    ["nash", "--game", "{F}/x.json"],
    ["wpm", "--corpus", "gamma1", "--profile", "{F}/p.json"],
])
def test_paths_through_a_regular_file_are_input_errors(argv, tmp_path):
    regular = tmp_path / "F"
    regular.write_text("")
    code, out, err = _run([a.format(F=regular) for a in argv])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(actions=["a"]),
    lambda doc: doc["payoffs"].__setitem__(0, 3),
    lambda doc: doc.update(players="P1"),
    lambda doc: doc["payoffs"][0].update(profile="x"),
    lambda doc: doc["actions"].update(P1="ab"),
    lambda doc: doc.update(players=["P1", "P3"]),
])
def test_malformed_game_files_are_input_errors(edit, tmp_path):
    # one-letter labels, so that the string "ab" reads as a valid action list
    game = Game(["P1", "P2"], {"P1": ["a", "b"], "P2": ["c", "d"]}, np.zeros((2, 2, 2)))
    doc = json.loads(game.to_json())
    edit(doc)
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(["nash", "--game", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("value", [float("nan"), "nan"])
def test_a_nan_utility_is_an_input_error(value, tmp_path):
    doc = json.loads(corpus.gamma1().to_json())
    doc["payoffs"][1]["u"]["P2"] = value
    path = tmp_path / "g.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(["nash", "--game", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: payoff record 1: utility {value!r} for 'P2' is not a finite number\n"


@pytest.mark.parametrize("doc", [
    [1, 2], {"P1": [0.5, 0.5]}, {"P1": {"a1": None}, "P2": {"b1": 1}},
])
def test_malformed_profile_files_are_input_errors(doc, tmp_path):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    code, out, err = _run(["wpm", "--corpus", "gamma1", "--profile", str(path)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {"splines": {}}, [1], {"splines": {"P1": 3, "P2": {}}},
    {"splines": {"P1": {"knots": [0.5, 1.0], "slopes": [-1.0, 0.0], "epsilon": 0.1,
                        "levels": [None]}, "P2": {}}},
])
def test_malformed_spline_files_are_input_errors(doc, tmp_path):
    profile = tmp_path / "p.json"
    profile.write_text(json.dumps({"P1": {"a1": 0.5, "a2": 0.5}, "P2": {"b1": 0.5, "b2": 0.5}}))
    splines = tmp_path / "s.json"
    splines.write_text(json.dumps(doc))
    code, out, err = _run(["ccost", "check", "--corpus", "gamma1", "--profile", str(profile),
                           "--splines", str(splines)])
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("game", [chained_tie_game(), noisy_integer_games(75)[74]],
                         ids=["chained-tie", "noisy-74"])
@pytest.mark.parametrize("command", ["nash", "empirical"])
def test_segment_ends_near_ties_are_nash(game, command, tmp_path):
    # both commands once exited 2 here: enumeration returned segment ends
    # that failed the Nash test every verdict starts with
    path = tmp_path / "g.json"
    path.write_text(game.to_json())
    code, out, err = _run([command, "--game", str(path)])
    assert code in (0, 1) and err == ""
    doc = json.loads(out)
    assert doc["isolated"] or doc["components"]
    for entry in doc["isolated"]:
        nash._require_nash(game, MixedProfile.from_dict(game, entry["profile"]))


def test_ccost_build_then_check_round_trip(tmp_path):
    # interior and payoff-monotone: a1 and b1 earn 0.6 against it, a2 and b2 0
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"P1": {"a1": 0.6, "a2": 0.4},
                                   "P2": {"b1": 0.6, "b2": 0.4}}))
    splines = tmp_path / "splines.json"
    common = [*GAMES["gamma1"], "--profile", str(profile)]
    assert _run(["ccost", "build", *common, "--out", str(splines)]) == (0, "", "")
    code, out, err = _run(["ccost", "check", *common, "--splines", str(splines)])
    assert (code, err) == (0, "")
    assert '"equilibrium": true' in out


@pytest.mark.parametrize("field,index,bad,message", [
    ("knots", 1, float("nan"), "knots must be finite"),
    ("slopes", 0, float("-inf"), "slopes must be finite"),
])
def test_ccost_check_rejects_non_finite_splines(field, index, bad, message, tmp_path):
    # a NaN knot once passed the order check, and both files printed
    # "equilibrium": true with exit 0
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"P1": {"a1": 0.6, "a2": 0.4},
                                   "P2": {"b1": 0.6, "b2": 0.4}}))
    splines = tmp_path / "splines.json"
    common = [*GAMES["gamma1"], "--profile", str(profile)]
    assert _run(["ccost", "build", *common, "--out", str(splines)]) == (0, "", "")
    doc = json.loads(splines.read_text())
    doc["splines"]["P1"][field][index] = bad
    splines.write_text(json.dumps(doc))
    code, out, err = _run(["ccost", "check", *common, "--splines", str(splines)])
    assert (code, out, err) == (2, "", f"error: spline of 'P1': {message}\n")


def test_ccost_check_reports_an_infinite_defect(tmp_path):
    # P2's entry of 1e-170 has slope -inf, so P2's defect is inf and no
    # NaN from -inf - -inf may turn the verdict into "equilibrium": true
    game = tmp_path / "g.json"
    game.write_text(Game(["P1", "P2"], {"P1": ["a1", "a2"], "P2": ["b1", "b2"]},
                         [[[1, 1], [1, 0]], [[0, 1], [0, 0]]]).to_json())
    profile, at = tmp_path / "profile.json", tmp_path / "at.json"
    profile.write_text(json.dumps({"P1": {"a1": 0.6, "a2": 0.4},
                                   "P2": {"b1": 0.6, "b2": 0.4}}))
    at.write_text(json.dumps({"P1": {"a1": 0.6, "a2": 0.4},
                              "P2": {"b1": 1e-170, "b2": 1.0}}))
    splines = tmp_path / "splines.json"
    argv = ["ccost", "build", "--game", str(game), "--profile", str(profile)]
    assert _run([*argv, "--out", str(splines)]) == (0, "", "")
    # 1e-170 squared underflows to 0, with no RuntimeWarning (an error here)
    code, out, err = _run(["ccost", "check", "--game", str(game), "--profile", str(at),
                           "--splines", str(splines)])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    assert doc["equilibrium"] is False
    assert doc["max_defect"] == doc["per_player_defect"][1] == float("inf")
    assert doc["per_player_defect"][0] < 1e-9


def test_corpus_emit_writes_the_game(tmp_path):
    path = tmp_path / "g.json"
    argv = ["corpus", "emit", "gamma2c", "--c1", "2", "--c2", "2", "--out", str(path)]
    assert _run(argv) == (0, "", "")
    assert Game.from_file(path) == corpus.gamma2c(2, 2)


def test_empirical_timings_add_only_stage_seconds():
    argv = ["empirical", *GAMES["gamma2c-2-2"]]
    code, plain, _ = _run(argv)
    timed_code, timed, _ = _run([*argv, "--timings"])
    plain, timed = json.loads(plain), json.loads(timed)
    assert timed_code == code and timed["isolated"]
    for entry in timed["isolated"]:
        stages = entry.pop("stage_seconds")
        assert stages and all(s >= 0.0 for s in stages.values())
    assert timed == plain


def _stdlib_json(doc):
    return json.dumps(doc, sort_keys=True, indent=2)


# sort_keys sorts a dict's keys, so the keys of one dict are all str, all
# numbers (int, float and bool compare with one another) or the one None
_JSON_SCALARS = (st.none() | st.booleans() | st.integers()
                 | st.integers(min_value=2**63, max_value=2**80) | st.floats()
                 | st.floats().map(np.float64) | st.text())
_JSON_DOCS = st.recursive(
    _JSON_SCALARS,
    lambda children: (st.lists(children, max_size=4)
                      | st.lists(children, max_size=4).map(tuple)
                      | st.dictionaries(st.text(), children, max_size=4)
                      | st.dictionaries(st.integers() | st.floats() | st.booleans(),
                                        children, max_size=4)
                      | st.dictionaries(st.none(), children, max_size=1)),
    max_leaves=24)


@settings(max_examples=300, deadline=None)
@given(_JSON_DOCS)
def test_writer_prints_what_the_stdlib_prints(doc):
    assert cli._json_text(doc) == _stdlib_json(doc)


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.text(alphabet=st.characters(codec="utf-8")) | st.sampled_from(
    ["\"", "\\", "\n", "\t", "\x00", "\x7f", "\u2028", "é", "\U0001f600", "/"]),
    _JSON_SCALARS, min_size=1))
def test_writer_escapes_keys_and_strings_as_the_stdlib_does(doc):
    assert cli._json_text(doc) == _stdlib_json(doc)
    assert cli._json_text(list(doc)) == _stdlib_json(list(doc))


_PINNED = [float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e-05, 1e16, 5e-324,
           np.float64(0.1), np.float64("nan"), np.float64("-inf"), 2**63, 2**64 + 1,
           -(2**70), True, False, None]


@pytest.mark.parametrize("value", _PINNED, ids=repr)
def test_writer_prints_pinned_values_as_the_stdlib_does(value):
    for doc in (value, [value, value], {"v": value, "w": [value]}, (value,)):
        assert cli._json_text(doc) == _stdlib_json(doc)
    if value is not None and not isinstance(value, bool):
        # a number key, and a number key beside True and False
        for doc in ({value: 1}, {value: 1, True: 2, False: 3}):
            assert cli._json_text(doc) == _stdlib_json(doc)
    assert cli._json_text({None: value}) == _stdlib_json({None: value})


def test_writer_prints_a_shared_sub_dict_at_each_depth():
    shared = {"b": [1.5, {"c": None}], "a": "x", "n": {}}
    doc = {"one": shared, "two": shared, "deep": {"three": [shared, (shared, [shared])]}}
    assert cli._json_text(doc) == _stdlib_json(doc)
    assert cli._json_text([shared, shared]) == _stdlib_json([shared, shared])


@pytest.mark.parametrize("doc", [
    np.int64(1), {"a": np.int64(1)}, [1.0, np.int64(1)], ({"a": [np.int64(2)]},),
    {(1, 2): 0}, {"a": {(1,): 0}}, {"a": {1, 2}},
], ids=repr)
def test_writer_raises_type_error_where_the_stdlib_does(doc):
    with pytest.raises(TypeError) as stdlib:
        _stdlib_json(doc)
    with pytest.raises(TypeError) as ours:
        cli._json_text(doc)
    assert str(ours.value) == str(stdlib.value)


ROUND_TRIP_GAMES = {**GAMES, "psi": ["--corpus", "psi"], "phi": ["--corpus", "phi"]}


def _monotone_profile_file(tmp_path, game):
    """An interior payoff-monotone profile: the first member's witness, or
    `_profile_file`'s where the game has no isolated member."""
    code, out, _ = _run(["empirical", *ROUND_TRIP_GAMES[game]])
    members = [e for e in json.loads(out)["isolated"] if e["decision"] == "member"]
    if not members:
        return _profile_file(tmp_path, game)
    path = tmp_path / "monotone.json"
    path.write_text(json.dumps(members[0]["witnesses"][0]["profile"]))
    return str(path)


@pytest.mark.parametrize("game", sorted(ROUND_TRIP_GAMES))
def test_json_output_is_the_stdlib_encoding(game, tmp_path):
    # a json.loads / json.dumps round trip gives back any text the stdlib
    # encoder wrote, and --out writes the bytes stdout gets
    args = ROUND_TRIP_GAMES[game]
    profile = _monotone_profile_file(tmp_path, game)
    splines = tmp_path / "splines.json"
    assert _run(["ccost", "build", *args, "--profile", profile,
                 "--out", str(splines)]) == (0, "", "")
    runs = [
        ["nash", *args],
        ["empirical", *args],
        ["empirical", *args, "--m", "0.5"],
        ["wpm", *args, "--profile", _profile_file(tmp_path, game), "--m", "0.5"],
        ["ccost", "build", *args, "--profile", profile],
        ["ccost", "check", *args, "--profile", profile, "--splines", str(splines)],
    ]
    for argv in runs:
        code, out, err = _run(argv)
        assert code in (0, 1) and err == ""
        assert out == _stdlib_json(json.loads(out)) + "\n"
        path = tmp_path / "out.json"
        assert _run([*argv, "--out", str(path)]) == (code, "", "")
        assert path.read_bytes() == out.encode("ascii")
