"""Command-line front end.

Exit codes: 0 success, 1 analysis inconclusive, 2 input error.  A logit
QRE fixed point that is not reached (`QreConvergenceError`) is
inconclusive: it prints `error: ...` on stderr and exits 1.  Output is
deterministic for a fixed (input, version) pair; wall-clock timings
are only included when explicitly requested.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import corpus
from .ccost import (
    ControlCostGame,
    ControlCostSpline,
    SplineError,
    build_spline,
    cc_equilibrium_check,
)
from .empirical import enumerate_empirical
from .game import TIE_TOL, Game, GameFormatError, MixedProfile, expected_utility
from .monotone import (
    is_m_weakly_payoff_monotone,
    is_payoff_monotone,
    is_weakly_payoff_monotone,
    region_csv,
    sample_monotone_region,
)
from .nash import classify, enumerate_nash
from .qre import (
    QreConvergenceError,
    default_lambda_schedule,
    trace_logit_path,
)

# GameFormatError, ProfileError, SplineError and UnsupportedGameError are
# ValueErrors too
INPUT_ERRORS = (OSError, ValueError)


def _fmt12(x):
    return float(f"{float(x):.12g}")


def _profile_doc(profile):
    return {
        p: {a: _fmt12(v) for a, v in acts.items()}
        for p, acts in profile.as_dict().items()
    }


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _dump(doc, out_path):
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", out_path)


def _load_game(args):
    if getattr(args, "game", None):
        if args.c1 is not None or args.c2 is not None:
            raise GameFormatError("--c1 and --c2 apply to gamma2c only, not to --game")
        return Game.from_file(args.game)
    if getattr(args, "corpus", None):
        return corpus.get(args.corpus, getattr(args, "c1", None),
                          getattr(args, "c2", None))
    raise GameFormatError("provide --game PATH or --corpus NAME")


def _load_profile(game, path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return MixedProfile.from_dict(game, doc)


def _add_game_args(sub):
    source = sub.add_mutually_exclusive_group()
    source.add_argument("--game", help="path to a game JSON file")
    source.add_argument("--corpus", help="bundled game name "
                        f"({', '.join(corpus.NAMES)})")
    sub.add_argument("--c1", type=float, help="gamma2c cost for player 1")
    sub.add_argument("--c2", type=float, help="gamma2c cost for player 2")


def _parse_schedule(text):
    values = [float(v) for v in text.split(",") if v.strip()]
    if not values:
        raise GameFormatError("empty schedule")
    return values


def _corpus_args(p):
    p.add_argument("action", choices=["list", "emit"])
    p.add_argument("name", nargs="?")
    p.add_argument("--c1", type=float)
    p.add_argument("--c2", type=float)
    p.add_argument("--out")


def _nash_args(p):
    _add_game_args(p)
    p.add_argument("--eps-schedule", default="1e-1,1e-2,1e-3,1e-4")
    p.add_argument("--out")


def _wpm_args(p):
    _add_game_args(p)
    p.add_argument("--profile", required=True, help="profile JSON file")
    p.add_argument("--m", type=float, default=None)
    p.add_argument("--tol", type=float, default=TIE_TOL)
    p.add_argument("--out")


def _region_args(p):
    _add_game_args(p)
    p.add_argument("--resolution", type=int, default=200)
    p.add_argument("--kind", choices=["weak", "strict"], default="weak")
    p.add_argument("--tol", type=float, default=TIE_TOL)
    p.add_argument("--out")


def _trace_args(p):
    _add_game_args(p)
    p.add_argument("--lambda-max", type=float, default=1e3)
    p.add_argument("--steps", type=int, default=40)
    p.add_argument("--out")


def _empirical_args(p):
    _add_game_args(p)
    p.add_argument("--delta-schedule", default="1e-1,1e-2,1e-3,1e-4")
    p.add_argument("--m", type=float, default=1.0)
    p.add_argument("--timings", action="store_true",
                   help="include wall times (breaks byte determinism)")
    p.add_argument("--out")


def _ccost_args(p):
    p.add_argument("action", choices=["build", "check"])
    _add_game_args(p)
    p.add_argument("--profile", required=True)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--y0", type=float)
    p.add_argument("--ystar", type=float)
    p.add_argument("--splines", help="spline JSON (for check)")
    p.add_argument("--out")


def build_parser(command=None):
    """The `empeq` parser, with arguments for `command` only.

    Every subcommand is registered with its help text, so the top-level
    usage, `empeq -h` and the error for an unknown command read the same
    for any `command`.  Only `command`'s subparser gets its arguments, or
    every subparser when `command` is None.  `run` parses one subcommand
    per call, and adding the arguments of all seven takes about as long
    as enumerating a 6x6 game's equilibria, so a small analysis would
    spend a large share of its time building options it never reads.
    """
    parser = argparse.ArgumentParser(
        prog="empeq",
        description="Finite-game equilibrium analysis: Nash refinements, "
                    "monotone regions, quantal response paths, control-cost "
                    "splines, and empirical-equilibrium membership.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args, _) in _COMMANDS.items():
        sub = subs.add_parser(name, help=help_text)
        if command in (None, name):
            add_args(sub)
    return parser


def _cmd_corpus(args):
    if args.action == "list":
        _emit("\n".join(corpus.NAMES) + "\n", args.out)
        return 0
    if not args.name:
        raise GameFormatError("corpus emit needs a game name")
    game = corpus.get(args.name, args.c1, args.c2)
    _emit(game.to_json(), args.out)
    return 0


def _verdict_doc(verdict):
    doc = {"status": verdict.status}
    if verdict.witnesses:
        doc["witnesses"] = [
            {"eps": eps, "profile": _profile_doc(prof)}
            for eps, prof in verdict.witnesses
        ]
    if verdict.certificate is not None:
        doc["certificate"] = verdict.certificate
    if verdict.notes:
        doc["notes"] = list(verdict.notes)
    return doc


def _diagnostics_doc(eqset):
    """The support pairs that enumeration could not decide."""
    return [{"support": [list(s) for s in d.support], "status": d.status,
             "detail": d.detail} for d in eqset.diagnostics]


def _cmd_nash(args):
    game = _load_game(args)
    schedule = tuple(_parse_schedule(args.eps_schedule))
    eqset = enumerate_nash(game)
    tags, comp_summaries = classify(game, eqset, schedule=schedule)
    doc = {"isolated": [], "components": [],
           "diagnostics": _diagnostics_doc(eqset)}
    inconclusive = False
    for prof, tag in zip(eqset.isolated, tags):
        entry = {
            "profile": _profile_doc(prof),
            "undominated": tag.undominated,
            "perfect": _verdict_doc(tag.perfect),
            "proper": _verdict_doc(tag.proper),
        }
        inconclusive |= "inconclusive" in (tag.perfect.status, tag.proper.status)
        doc["isolated"].append(entry)
    for comp, summary in zip(eqset.components, comp_summaries):
        doc["components"].append(
            {
                "support": [list(s) for s in comp.support],
                "interval": [comp.interval[0], comp.interval[1]],
                "base": [[_fmt12(v) for v in vec] for vec in comp.base],
                "direction": [[_fmt12(v) for v in vec] for vec in comp.direction],
                **summary,
            }
        )
        inconclusive |= any(
            "inconclusive" in (g["perfect"], g["proper"]) for g in summary["grid"]
        )
    _dump(doc, args.out)
    return 1 if inconclusive else 0


def _monotone_doc(verdict):
    return {
        "satisfied": verdict.satisfied,
        "violations": [
            {
                "player": v.player,
                "actions": list(v.actions),
                "probs": [_fmt12(x) for x in v.probs],
                "utils": [_fmt12(x) for x in v.utils],
                "note": v.note,
            }
            for v in verdict.violations
        ],
    }


def _cmd_wpm(args):
    game = _load_game(args)
    profile = _load_profile(game, args.profile)
    doc = {
        "profile": _profile_doc(profile),
        "weak": _monotone_doc(is_weakly_payoff_monotone(game, profile, args.tol)),
        "payoff": _monotone_doc(is_payoff_monotone(game, profile, args.tol)),
    }
    if args.m is not None:
        doc["m"] = args.m
        doc["m_weak"] = _monotone_doc(
            is_m_weakly_payoff_monotone(game, profile, args.m, args.tol)
        )
    _dump(doc, args.out)
    return 0


def _cmd_region(args):
    game = _load_game(args)
    rows = sample_monotone_region(game, args.resolution, kind=args.kind,
                                  tol=args.tol)
    _emit(region_csv(rows), args.out)
    return 0


def _cmd_trace(args):
    game = _load_game(args)
    schedule = default_lambda_schedule(lam_max=args.lambda_max, steps=args.steps)
    path = trace_logit_path(game, schedule)
    header = ["lambda"]
    for p in game.players:
        header.extend(f"{p}:{a}" for a in game.actions[p])
    header.append("residual")
    lines = [",".join(header)]
    for point in path.points:
        row = [repr(float(point.lam))]
        for vec in point.profile.vectors:
            row.extend(repr(float(v)) for v in vec)
        row.append(repr(float(point.residual)))
        lines.append(",".join(row))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _membership_doc(verdict, timings):
    doc = {"decision": verdict.decision}
    # one witness, listed at every scheduled delta: readers of this output,
    # `perfbench/checks.check_membership` among them, take a member without
    # an entry per delta as a failure, so printing the witness once with the
    # delta list would fail every member
    if verdict.witnesses:
        profile = _profile_doc(verdict.witnesses[0][1])
        doc["witnesses"] = [{"delta": d, "profile": profile} for d, _ in verdict.witnesses]
    if verdict.refutation is not None:
        doc["refutation"] = {
            "kind": verdict.refutation.kind,
            "data": verdict.refutation.data,
        }
    if timings:
        doc["stage_seconds"] = verdict.diagnostics.get("stage_seconds", {})
    return doc


def _cmd_empirical(args):
    game = _load_game(args)
    schedule = tuple(_parse_schedule(args.delta_schedule))
    report = enumerate_empirical(game, schedule, m=args.m)
    doc = {"m": args.m, "isolated": [], "components": [],
           "diagnostics": _diagnostics_doc(report.eqset)}
    inconclusive = False
    for prof, verdict in report.isolated:
        doc["isolated"].append(
            {"profile": _profile_doc(prof),
             **_membership_doc(verdict, args.timings)}
        )
        inconclusive |= verdict.decision == "inconclusive"
    for comp_report in report.components:
        comp = comp_report.component
        doc["components"].append(
            {
                "support": [list(s) for s in comp.support],
                "interval": [comp.interval[0], comp.interval[1]],
                "grid": [{"t": t, "decision": d} for t, d in comp_report.grid],
                "member_intervals": [
                    [lo, hi] for lo, hi in comp_report.member_intervals
                ],
            }
        )
        inconclusive |= any(d == "inconclusive" for _, d in comp_report.grid)
    _dump(doc, args.out)
    return 1 if inconclusive else 0


def _cmd_ccost(args):
    game = _load_game(args)
    profile = _load_profile(game, args.profile)
    if args.action == "build":
        splines = {}
        for i, p in enumerate(game.players):
            eu = expected_utility(game, profile, i)
            spline = build_spline(profile.vectors[i], eu, args.eps,
                                  y0=args.y0, ystar=args.ystar)
            splines[p] = spline.to_dict()
        _dump({"splines": splines}, args.out)
        return 0
    if not args.splines:
        raise GameFormatError("ccost check needs --splines PATH")
    with open(args.splines, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    docs = doc.get("splines") if isinstance(doc, dict) else None
    if not isinstance(docs, dict):
        raise SplineError("the splines file must be a JSON object with a 'splines' object")
    splines = []
    for p in game.players:
        if p not in docs:
            raise SplineError(f"'splines' has no entry for player {p!r}")
        try:
            splines.append(ControlCostSpline.from_dict(docs[p]))
        except SplineError as exc:
            raise SplineError(f"spline of {p!r}: {exc}") from None
    ccg = ControlCostGame(game, tuple(splines))
    ok, defect, per_player = cc_equilibrium_check(ccg, profile)
    _dump(
        {"equilibrium": bool(ok), "max_defect": defect,
         "per_player_defect": per_player},
        args.out,
    )
    return 0


# name -> (help text, function that adds its arguments, handler)
_COMMANDS = {
    "corpus": ("list or emit bundled games", _corpus_args, _cmd_corpus),
    "nash": ("enumerate and classify equilibria; components are decided at "
             "their breakpoints", _nash_args, _cmd_nash),
    "wpm": ("monotonicity verdicts for a profile", _wpm_args, _cmd_wpm),
    "region": ("monotone-region grid CSV", _region_args, _cmd_region),
    "trace": ("logit path CSV", _trace_args, _cmd_trace),
    "empirical": ("empirical-equilibrium membership", _empirical_args,
                  _cmd_empirical),
    "ccost": ("control-cost spline build/check", _ccost_args, _cmd_ccost),
}


def run(argv):
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    parser = build_parser(command)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command][2](args)
    except INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except QreConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
