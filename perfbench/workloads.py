"""Seeded inputs and op sequences for the benchmark workloads.

A workload is a list of games.  Each game has a generator that yields ops
one at a time and receives each op's result, so later ops can use earlier
outputs (a spline file written from `ccost build`, the points of a trace).
The payoff tensors here are the benchmark's own; the checks use them, never
the program's copy.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

import checks
from stats import digest

WORKLOADS = ("paper-corpus", "random-generic", "logit-path")

# Pool sizes: several times what the seed code gets through in one run, so a
# faster program still finds fresh (game, op) pairs until the window ends.
GAMMA2_POOL = 150
RANDOM_POOL = 100  # games of each size
LOGIT_POOL = 100  # games of each shape

LAMBDA_RANGE = (1e-2, 1e3)  # the trace's default schedule range


@dataclass
class GameSpec:
    label: str
    players: list
    actions: dict
    payoffs: np.ndarray
    args: list  # how the CLI selects the game
    path: str | None = None


@dataclass
class Op:
    name: str
    kind: str  # "cli" or "api"
    game: str
    check: object  # callable -> Counter of verdicts; raises checks.CheckFailed
    argv: list | None = None
    call: object = None  # api ops: callable returning the result
    render: object = None  # api ops: result -> canonical text for the digest


@dataclass
class Workload:
    name: str
    warmup: list  # op generator factories run before timing starts
    games: list  # op generator factories, one per game, in run order
    inputs: dict  # file name -> sha256


# ---------------------------------------------------------------------------
# games


def _two_player(label, payoffs, args, players=("P1", "P2"), actions=None):
    payoffs = np.asarray(payoffs, dtype=float)
    if actions is None:
        actions = {players[0]: [f"a{j + 1}" for j in range(payoffs.shape[0])],
                   players[1]: [f"b{j + 1}" for j in range(payoffs.shape[1])]}
    return GameSpec(label, list(players), actions, payoffs, args)


def gamma1():
    return _two_player("gamma1", [[[1, 1], [0, 0]], [[0, 0], [0, 0]]],
                       ["--corpus", "gamma1"])


def psi():
    return _two_player("psi", [[[2, 2], [2, 1]], [[2, 3], [0, 0]]],
                       ["--corpus", "psi"])


def phi():
    payoffs = [[[10, 30], [15, 25], [20, 20]],
               [[5, 15], [15, 25], [20, 20]],
               [[0, 20], [0, 20], [20, 20]]]
    bids = ["10", "15", "20"]
    return _two_player("phi", payoffs, ["--corpus", "phi"], players=("U", "T"),
                       actions={"U": bids, "T": bids})


def gamma2(c1, c2):
    a, b = -7 - c1, -7 - c2
    payoffs = [[[1, 1], [0, 0], [a, b]],
               [[0, 0], [0, 0], [-7, -7]],
               [[a, b], [-7, -7], [-7, -7]]]
    return _two_player(f"gamma2c-{c1:g}-{c2:g}", payoffs,
                       ["--corpus", "gamma2c", "--c1", repr(c1), "--c2", repr(c2)])


def random_game(label, shape, rng):
    n = len(shape)
    players = [f"P{i + 1}" for i in range(n)]
    actions = {p: [f"{p.lower()}a{j + 1}" for j in range(k)] for p, k in zip(players, shape)}
    return GameSpec(label, players, actions, rng.uniform(0.0, 1.0, size=shape + (n,)), [])


def game_json(spec):
    """The game in the program's file format, written by the benchmark."""
    records = []
    for idx in itertools.product(*(range(len(spec.actions[p])) for p in spec.players)):
        records.append({
            "profile": {p: spec.actions[p][j] for p, j in zip(spec.players, idx)},
            "u": {p: float(spec.payoffs[idx + (i,)]) for i, p in enumerate(spec.players)},
        })
    doc = {"players": spec.players, "actions": spec.actions, "payoffs": records}
    return json.dumps(doc) + "\n"


def logit_qre(payoffs, lam, iters=20000, tol=1e-14):
    """The benchmark's own logit QRE by damped iteration from the centroid.

    Used only for moderate lambda, where the iteration contracts."""
    vectors = [np.full(k, 1.0 / k) for k in payoffs.shape[:-1]]
    for _ in range(iters):
        target = [checks.softmax(checks.action_values(payoffs, vectors, i), lam)
                  for i in range(len(vectors))]
        if checks.max_distance(vectors, target) < tol:
            return target
        vectors = [0.5 * v + 0.5 * t for v, t in zip(vectors, target)]
    return None


def monotone_profile(spec, rng):
    """An interior payoff-monotone profile: a logit QRE at a seeded lambda."""
    lam = float(rng.uniform(0.1, 0.6))
    while True:
        vectors = logit_qre(spec.payoffs, lam)
        if vectors is not None and checks.monotone_violation(spec.payoffs, vectors, 1.0) is None:
            return vectors
        lam *= 0.5


def profile_json(spec, vectors):
    return json.dumps({p: {a: float(x) for a, x in zip(spec.actions[p], v)}
                       for p, v in zip(spec.players, vectors)}) + "\n"


class Files:
    """Writes input files into the run's work directory and digests them."""

    def __init__(self, workdir, inputs):
        self.workdir = workdir
        self.inputs = inputs

    def write(self, name, text):
        path = self.workdir / name
        path.write_text(text, encoding="utf-8")
        self.inputs[name] = digest(text)
        return str(path)

    def game(self, spec):
        spec.path = self.write(f"{spec.label}.json", game_json(spec))
        spec.args = ["--game", spec.path]
        return spec


# ---------------------------------------------------------------------------
# op sequences


def cli(name, spec, argv, check):
    return Op(name, "cli", spec.label, check, argv=argv)


def api(name, spec, call, check, render):
    return Op(name, "api", spec.label, check, call=call, render=render)


def corpus_ops(spec, profile_path, vectors, splines_path, region):
    g = spec.args
    yield cli("nash", spec, ["nash"] + g, lambda t, c: checks.check_nash(spec, t, c))
    for m in ("1", "0.5"):
        yield cli(f"empirical --m {m}", spec, ["empirical"] + g + ["--m", m],
                  lambda t, c, m=float(m): checks.check_empirical(spec, t, c, m))
    yield cli("trace", spec, ["trace"] + g, lambda t, c: checks.check_trace(spec, t, c))
    yield cli("wpm", spec, ["wpm"] + g + ["--profile", profile_path, "--m", "0.5"],
              lambda t, c: checks.check_wpm(spec, t, c, vectors, 0.5))
    built = yield cli("ccost build", spec, ["ccost", "build"] + g + ["--profile", profile_path],
                      lambda t, c: checks.check_ccost_build(spec, t, c, vectors))
    if built.passed:
        with open(splines_path, "w", encoding="utf-8") as fh:
            fh.write(built.output)
        splines = [json.loads(built.output)["splines"][p] for p in spec.players]
        yield cli("ccost check", spec,
                  ["ccost", "check"] + g + ["--profile", profile_path, "--splines", splines_path],
                  lambda t, c: checks.check_ccost_check(spec, t, c, vectors, splines))
    if region:
        yield cli("region", spec, ["region"] + g, lambda t, c: checks.check_region(spec, t, c))


def _corpus_game(files, spec, rng, region):
    vectors = monotone_profile(spec, rng)
    profile_path = files.write(f"{spec.label}.profile.json", profile_json(spec, vectors))
    splines_path = str(files.workdir / f"{spec.label}.splines.json")
    return lambda: corpus_ops(spec, profile_path, vectors, splines_path, region)


def warmup_game(files):
    """A 2x2 coordination game that no workload uses."""
    spec = files.game(_two_player("warmup", [[[3, 3], [0, 0]], [[0, 0], [1, 1]]], []))
    vectors = logit_qre(spec.payoffs, 0.5)
    profile_path = files.write("warmup.profile.json", profile_json(spec, vectors))
    return spec, vectors, profile_path


def paper_corpus(seed, files):
    rng = np.random.default_rng([seed, 1])
    warm, vectors, profile_path = warmup_game(files)
    warmup = [lambda: _warm_corpus(warm, profile_path, vectors, files)]
    fixed = [gamma1(), psi(), phi(), gamma2(2.0, 2.0), gamma2(0.5, 0.5)]
    costs = []
    while len(costs) < GAMMA2_POOL:  # distinct pairs, so no (game, op) pair repeats
        pair = (round(float(rng.uniform(0.1, 4.0)), 3), round(float(rng.uniform(0.1, 4.0)), 3))
        if pair not in costs and pair not in ((2.0, 2.0), (0.5, 0.5)):
            costs.append(pair)
    games = fixed + [gamma2(c1, c2) for c1, c2 in costs]
    files.inputs["gamma2c-costs"] = digest(json.dumps(costs))
    entries = [_corpus_game(files, spec, rng, region=spec.payoffs.shape[:2] == (2, 2))
               for spec in games]
    return Workload("paper-corpus", warmup, entries, files.inputs)


def _warm_corpus(spec, profile_path, vectors, files):
    splines_path = str(files.workdir / "warmup.splines.json")
    yield from corpus_ops(spec, profile_path, vectors, splines_path, region=False)
    yield cli("region", spec, ["region"] + spec.args + ["--resolution", "10"],
              lambda t, c: checks.check_region(spec, t, c, resolution=10))


def random_generic(seed, files):
    rng = np.random.default_rng([seed, 2])
    warm, _, _ = warmup_game(files)
    warmup = [lambda: random_ops(warm)]
    games = []
    for j in range(RANDOM_POOL):
        for n in (4, 5, 6):
            spec = files.game(random_game(f"random{n}x{n}-{j}", (n, n), rng))
            games.append(lambda spec=spec: random_ops(spec))
    return Workload("random-generic", warmup, games, files.inputs)


def random_ops(spec):
    yield cli("empirical", spec, ["empirical"] + spec.args,
              lambda t, c: checks.check_empirical(spec, t, c, 1.0))


def logit_path(seed, files):
    rng = np.random.default_rng([seed, 3])
    warm, _, _ = warmup_game(files)
    warmup = [lambda: logit_ops(warm, 10.0)]
    games = []
    for j in range(LOGIT_POOL):
        for shape in ((3, 3), (4, 4), (2, 2, 2)):
            label = "x".join(map(str, shape))
            spec = files.game(random_game(f"logit{label}-{j}", shape, rng))
            lam = math.exp(rng.uniform(*np.log(LAMBDA_RANGE)))
            games.append(lambda spec=spec, lam=lam: logit_ops(spec, lam))
    return Workload("logit-path", warmup, games, files.inputs)


def _render_vectors(vectors):
    return json.dumps([[repr(float(x)) for x in v] for v in vectors])


def logit_ops(spec, lam):
    """trace, then API calls on its points and on a QRE at `lam`."""
    import empeq

    def game():
        return empeq.Game.from_file(spec.path)

    traced = yield cli("trace", spec, ["trace"] + spec.args,
                       lambda t, c: checks.check_trace(spec, t, c))
    if not traced.passed:
        return
    points = checks.parse_trace(spec, traced.output)

    def vanishing():
        g = game()
        profiles = [empeq.MixedProfile(g, v) for lam_j, v in points if lam_j > 0]
        return empeq.vanishing_sequence(g, profiles)

    def check_vanishing(seq):
        kept = [v for lam_j, v in points if lam_j > 0]
        for entry in seq.entries:
            splines = [s.to_dict() for s in entry.cc_game.splines]
            checks.check_splines(spec, splines, kept[entry.source_index])
        eps = [e.epsilon for e in seq.entries]
        if any(b >= a for a, b in zip(eps, eps[1:])):
            checks.fail("vanishing costs do not shrink")
        return Counter()

    yield api("vanishing_sequence", spec, vanishing, check_vanishing,
              lambda seq: json.dumps([(e.source_index, e.epsilon, e.cases) for e in seq.entries]))

    start = min(points, key=lambda p: abs(math.log(max(p[0], 1e-300)) - math.log(lam)))[1]

    def logit_point():
        g = game()
        qrfs = [empeq.LogisticQRF(lam) for _ in spec.players]
        return empeq.qre_fixed_point(g, qrfs, start=empeq.MixedProfile(g, start), lam=lam)

    def check_logit(point):
        res = checks.logit_residual(spec.payoffs, list(point.profile.vectors), lam)
        if res > 1e-8:
            checks.fail(f"logit QRE residual {res:.2e} at lambda={lam:g}")
        return Counter()

    qre = yield api("qre_fixed_point", spec, logit_point, check_logit,
                    lambda p: _render_vectors(p.profile.vectors))
    if not qre.passed:
        return
    vectors = [np.array(v) for v in qre.value.profile.vectors]
    utils = [checks.action_values(spec.payoffs, vectors, i) for i in range(len(vectors))]

    def splines_of(value):
        return [s.to_dict() for s in value]

    def check_built(value):
        checks.check_splines(spec, splines_of(value), vectors)
        return Counter()

    built = yield api("build_spline", spec,
                      lambda: [empeq.build_spline(v, u, 0.1) for v, u in zip(vectors, utils)],
                      check_built, lambda value: json.dumps(splines_of(value)))
    if not built.passed:
        return
    splines = built.value
    dicts = splines_of(splines)

    def equilibrium_check():
        g = game()
        return empeq.cc_equilibrium_check(empeq.ControlCostGame(g, tuple(splines)),
                                          empeq.MixedProfile(g, vectors))

    def check_claim(value):
        checks.check_equilibrium_claim(spec, vectors, dicts, bool(value[0]))
        return Counter()

    yield api("cc_equilibrium_check", spec, equilibrium_check, check_claim,
              lambda value: repr((bool(value[0]), float(value[1]))))

    def spline_point():
        return empeq.qre_fixed_point(game(), [empeq.SplineQRF(s) for s in splines])

    def check_spline_point(point):
        v = [np.array(x) for x in point.profile.vectors]
        res = checks.spline_fixed_point_residual(spec.payoffs, v, dicts)
        if res > 1e-7:
            checks.fail(f"spline QRE residual {res:.2e}")
        return Counter()

    yield api("spline_qrf_fixed_point", spec, spline_point, check_spline_point,
              lambda p: _render_vectors(p.profile.vectors))

    if len(spec.players) == 3:
        terminal = points[-1][1]

        def membership():
            g = game()
            return empeq.empirical_membership(g, empeq.MixedProfile(g, terminal))

        def check_member(verdict):
            tally = Counter()
            doc = {"decision": verdict.decision,
                   "witnesses": [(d, [np.array(v) for v in w.vectors])
                                 for d, w in verdict.witnesses],
                   "refutation": None if verdict.refutation is None else
                   {"kind": verdict.refutation.kind, "data": verdict.refutation.data}}
            checks.check_membership(spec, terminal, doc, 1.0, tally)
            return tally

        yield api("empirical_membership", spec, membership, check_member,
                  lambda v: json.dumps([v.decision] + [_render_vectors(w.vectors)
                                                       for _, w in v.witnesses]))


BUILDERS = {"paper-corpus": paper_corpus, "random-generic": random_generic,
            "logit-path": logit_path}
