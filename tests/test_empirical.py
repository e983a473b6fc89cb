import itertools

import numpy as np
import pytest

from empeq import corpus, empirical, search
from empeq.empirical import (
    DEFAULT_DELTAS,
    empirical_membership,
    enumerate_empirical,
)
from empeq.game import Game, MixedProfile, nash_defect, unit_view
from empeq.nash import classify, enumerate_nash
from empeq.monotone import is_m_weakly_payoff_monotone, is_payoff_monotone

from conftest import (corpus_games, integer_games, nonemptiness_probe, random_game,
                      recheck_dominance)


def _recheck_member(game, candidate, verdict, m):
    """A member verdict re-checked from its witnesses alone."""
    assert verdict.decision == "member"
    assert sorted(d for d, _ in verdict.witnesses) == sorted(DEFAULT_DELTAS)
    for delta, witness in verdict.witnesses:
        assert witness.is_interior
        assert witness.distance(candidate) <= delta * (1 + 1e-9)
        if m == 1.0:
            assert is_payoff_monotone(game, witness).satisfied
        else:
            assert is_m_weakly_payoff_monotone(game, witness, m).satisfied


def _corpus_candidates(game):
    """Isolated equilibria, and component points at their breakpoints and
    between them."""
    report = enumerate_empirical(game)
    out = [p for p, _ in report.isolated]
    for c in report.components:
        out += [c.component.profile_at(game, t) for t, _ in c.grid]
    return out


@pytest.mark.parametrize("m", [1.0, 0.5])
@pytest.mark.parametrize("name", ["gamma1", "psi", "phi", "gamma2c"])
def test_member_witnesses_recheck_on_corpus(name, m):
    game = corpus.get(name, 2, 2) if name == "gamma2c" else corpus.get(name)
    members = 0
    for candidate in _corpus_candidates(game):
        verdict = empirical_membership(game, candidate, m=m)
        if verdict.decision == "member":
            _recheck_member(game, candidate, verdict, m)
            members += 1
    assert members >= 1


@pytest.mark.parametrize("m", [1.0, 0.5])
def test_member_witnesses_recheck_on_three_player_games(m):
    # outside the two-player engine the witnesses come from the logit
    # perturbation fixed point
    members = 0
    for seed in range(4):
        game = random_game(np.random.default_rng(seed), (2, 2, 2), -3.0, 3.0)
        for combo in itertools.product(range(2), repeat=3):
            pure = {p: game.actions[p][j] for p, j in zip(game.players, combo)}
            candidate = MixedProfile.pure(game, pure)
            if nash_defect(game, candidate) > 0:
                continue
            verdict = empirical_membership(game, candidate, m=m)
            if verdict.decision == "member":
                _recheck_member(game, candidate, verdict, m)
                members += 1
    assert members >= 4


@pytest.mark.parametrize("alpha", [1e-10, 1e10])
def test_three_player_verdicts_at_every_payoff_scale(alpha):
    # the witness heuristic runs on the unit view, so at 1e-10, where every
    # raw utility ties, the five pure members stay members
    for seed in range(4):
        base = random_game(np.random.default_rng(seed), (2, 2, 2), -3.0, 3.0)
        game = Game(base.players, base.actions, alpha * base.payoffs)
        for combo in itertools.product(range(2), repeat=3):
            pure = {p: game.actions[p][j] for p, j in zip(game.players, combo)}
            if nash_defect(base, MixedProfile.pure(base, pure)) > 0:
                continue
            for m in (1.0, 0.5):
                expected = empirical_membership(base, MixedProfile.pure(base, pure), m=m)
                candidate = MixedProfile.pure(game, pure)
                verdict = empirical_membership(game, candidate, m=m)
                assert verdict.decision == expected.decision
                if verdict.decision == "member":
                    _recheck_member(unit_view(game), candidate, verdict, m)
                    assert all(w.game is game for _, w in verdict.witnesses)


@pytest.mark.parametrize("alpha", [1e-10, 1e-6, 1.0, 1e6, 1e10])
def test_mixed_member_at_every_payoff_scale(alpha):
    # P1 [[0,2,2],[2,2,1],[1,2,0]] and P2 [[0,1,2],[1,0,0],[1,2,2]].  At
    # 1e10, rounding puts P1's two support utilities 1.2e-5 apart, which a
    # tie test on raw payoffs read as a strict order against sigma's; on the
    # unit view they tie at every scale.  The witness re-checks there, and
    # is a profile of the scaled game
    game = integer_games(40)[26]
    game = Game(game.players, game.actions, alpha * game.payoffs)
    candidate = MixedProfile(game, [[1 / 3, 2 / 3, 0.0], [1 / 3, 0.0, 2 / 3]])
    verdict = empirical_membership(game, candidate)
    _recheck_member(unit_view(game), candidate, verdict, 1.0)
    assert all(w.game is game for _, w in verdict.witnesses)


@pytest.mark.parametrize("m", [1.0, 0.5])
def test_gamma1_verdicts_and_dominance_certificate(m):
    """Gamma1 has two Nash points, (a1, b1) and (a2, b2).

    (a2, b2): a1 weakly dominates a2 (payoffs (1, 0) against (0, 0)), so
    every m-weakly monotone profile has sigma(a1) >= m * sigma(a2), which
    (a2, b2) violates: non-member by dominance.
    (a1, b1): a strict equilibrium.  Each player's probabilities and
    utilities order its actions alike (1 > 0), so the one compatible
    pattern puts the first action on top for both, and x = y = (0.9, 0.1)
    realizes it (u(first) = 0.9 > u(second) = 0): member.
    """
    game = corpus.gamma1()
    top = MixedProfile.pure(game, {"P1": "a1", "P2": "b1"})
    bottom = MixedProfile.pure(game, {"P1": "a2", "P2": "b2"})
    _recheck_member(game, top, empirical_membership(game, top, m=m), m)
    verdict = empirical_membership(game, bottom, m=m)
    assert verdict.decision == "non-member"
    assert verdict.refutation.kind == "dominance"
    recheck_dominance(game, verdict.refutation)


def test_dominance_refutations_hold_on_the_callers_payoffs(monkeypatch):
    """Integer games jittered by at most 1e-15: in game 31 P2's b2 loses
    2.2e-16 to b3 at one opponent action, a loss that the unit view's
    rounding erases.  The pair does not hold, so the points that its
    forcing would refute are refuted by the closure test instead; every
    `dominance` certificate holds on the payoffs given."""
    rng = np.random.default_rng(3)
    jit = [Game(g.players, g.actions, g.payoffs + rng.uniform(-1e-15, 1e-15, g.payoffs.shape))
           for g in integer_games(200)]
    verdicts = []

    def record(game, profile, *args, **kwargs):
        verdict = empirical_membership(game, profile, *args, **kwargs)
        verdicts.append((game, profile, kwargs["m"], verdict))
        return verdict

    monkeypatch.setattr(empirical, "empirical_membership", record)
    for n in (31, 189):
        for m in (1.0, 0.5):
            enumerate_empirical(jit[n], m=m)
    rounded = certified = 0
    for game, profile, m, verdict in verdicts:
        if verdict.refutation is not None and verdict.refutation.kind == "dominance":
            assert verdict.decision == "non-member"
            recheck_dominance(game, verdict.refutation)
            certified += 1
        elif empirical._dominance_refutation(unit_view(game), profile, m) is not None:
            assert verdict.decision == "non-member"
            assert verdict.refutation.kind == "pattern-exhaustion"
            rounded += 1
    assert rounded == 24 and certified == 86


@pytest.mark.parametrize("game", corpus_games(),
                         ids=["gamma1", "psi", "gamma2c-2-2", "gamma2c-0.5-0.5", "phi"])
def test_no_dominance_report_is_built_on_a_unit_view(game):
    enumerate_empirical(game)
    enumerate_empirical(game, m=0.5)
    classify(game, enumerate_nash(game))
    assert unit_view(game)._dominance is None


BAD_SCHEDULES = [(np.nan,), (np.inf,), (-0.1,), (0.0,), (0.1, -1e-3), (0.1, np.nan), ()]


@pytest.mark.parametrize("schedule", BAD_SCHEDULES)
def test_membership_rejects_meaningless_schedules(schedule):
    game = corpus.gamma1()
    top = MixedProfile.pure(game, {"P1": "a1", "P2": "b1"})
    with pytest.raises(ValueError, match="schedule"):
        empirical_membership(game, top, schedule)
    with pytest.raises(ValueError, match="schedule"):
        enumerate_empirical(game, schedule)


@pytest.mark.parametrize("m", [1.0, 0.5, 0.0])
def test_utilities_chained_past_the_tie_tolerance_are_not_refuted(m):
    # P1's utilities against b0 sit 0.7e-9 apart, so a2 ties a1 and a1 ties
    # a0 while a2 and a0 differ by more than TIE_TOL.  For m < 1 the blocks
    # are those of the utilities alone: single linkage chains them into one
    # block, whose splits the closure test tries
    col = 1 - np.array([1.4, 0.7, 0.0, 1.4]) * 1e-9
    payoffs = np.stack([np.stack([col, np.zeros(4)], axis=1),
                        np.stack([np.ones(4), np.zeros(4)], axis=1)], axis=-1)
    game = Game(["P1", "P2"], {"P1": [f"a{j}" for j in range(4)], "P2": ["b0", "b1"]},
                payoffs)
    profile = MixedProfile.pure(game, {"P1": "a2", "P2": "b0"})
    if m < 1.0:
        out = search.monotone_pattern_search(unit_view(game), profile, min(DEFAULT_DELTAS), m=m)
        assert out.outcome != search.OUTCOME_REFUTED and out.tried > 0
    assert empirical_membership(game, profile, m=m).decision != "non-member"


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_isolated_equilibria_of_uniform_games_are_members(n):
    # a generic Nash point has one compatible pattern pair, whatever the
    # number of actions
    for seed in range(4):
        game = random_game(np.random.default_rng([n, seed]), (n, n))
        for candidate in enumerate_nash(game).isolated:
            verdict = empirical_membership(game, candidate)
            _recheck_member(game, candidate, verdict, 1.0)
            out = search.monotone_pattern_search(unit_view(game), candidate, min(DEFAULT_DELTAS))
            assert out.tried == 1


def _decisions(report):
    return {tuple(tuple(float(x) for x in v) for v in p.vectors): verdict.decision
            for p, verdict in report.isolated}


def _member_intervals(report):
    (comp,) = report.components
    return comp.member_intervals


@pytest.mark.parametrize("m", [1.0, 0.5])
def test_gamma2c_pinned(m):
    """Gamma2(c1, c2) has three Nash points, (a1, b1), (a2, b2), (a3, b3).

    (a3, b3): a2 weakly dominates a3 (row (0, 0, -7) against
    (-7 - c1, -7, -7)), so it is a non-member by dominance.
    (a1, b1) is strict, so a member as in Gamma1.
    (a2, b2): against b2, a1 and a2 tie in utility (0) above a3 (-7), and
    sigma(a1) = 0 < m * sigma(a2).  So the one compatible pattern is
    a2 > a1 > a3, and b2 > b1 > b3 for P2 by symmetry.  Against y,
    u1(a2) - u1(a1) = c1 * y3 - y1 must be > 0, while P2's pattern needs
    y1 > y3 (m = 1) or y1 >= m * y3 (m = 0.5).  With c1 = c2 = 2, any
    y3 < y1 < 2 * y3 works, say x = y = (0.02, 0.969, 0.011): member.  With
    c1 = c2 = 0.5, y1 < y3 / 2 contradicts both, so no compatible pair is
    nonempty: non-member by pattern exhaustion.
    """
    for (c1, c2), middle, kind in (((2, 2), "member", None),
                                   ((0.5, 0.5), "non-member", "pattern-exhaustion")):
        game = corpus.gamma2c(c1, c2)
        report = enumerate_empirical(game, m=m)
        assert _decisions(report) == {
            ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)): "member",
            ((0.0, 1.0, 0.0), (0.0, 1.0, 0.0)): middle,
            ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)): "non-member",
        }
        kinds = {p.vectors[0].argmax(): v.refutation and v.refutation.kind
                 for p, v in report.isolated}
        assert kinds == {0: None, 1: kind, 2: "dominance"}


@pytest.mark.parametrize("m, start", [(1.0, 0.0), (0.5, -1 / 6)])
def test_psi_pinned(m, start):
    """Psi's Nash set is one segment: P2 plays b1, which strictly dominates
    b2 (2 > 1, 3 > 0), and P1 plays a1 with p = 0.5 + t, t in [-0.5, 0.5],
    since u1(a1) = u1(a2) = 2 against b1.

    Against an interior y, u1(a1) - u1(a2) = 2 * y(b2) > 0.  So interior
    payoff-monotone play has x(a1) > x(a2), and its limits have p >= 1/2,
    t >= 0; every such p is a limit (x near p with x(a1) > x(a2), y near
    b1).  m-weakly monotone play only needs x(a1) >= m * x(a2): p >= 1/3,
    t >= -1/6 at m = 0.5.  The member interval is [start, 0.5].
    """
    game = corpus.psi()
    report = enumerate_empirical(game, m=m)
    assert report.isolated == []
    ((lo, hi),) = _member_intervals(report)
    assert abs(lo - start) <= 1e-12 and abs(hi - 0.5) <= 1e-12
    decisions = dict(report.components[0].grid)
    assert all(d == ("member" if t >= lo else "non-member") for t, d in decisions.items())


@pytest.mark.parametrize("m, start", [(1.0, 0.0), (0.5, -1 / 6)])
def test_phi_pinned(m, start):
    """Phi (U rows, T columns, bids 10/15/20) has two Nash points and one
    segment.

    (20, 20): U's bid 10 weakly dominates 20 (payoffs (10, 15, 20) against
    (0, 0, 20)): non-member by dominance.
    (10, 10): strict for both, (10, 5, 0) for U and (30, 25, 20) for T, so
    the one compatible pattern is 10 > 15 > 20 for both; it holds at any
    x with x10 > 2 * x15 > 0 and x20 small, and any y with y10 > y15 > y20:
    member.
    Segment: T bids 15, U bids 10 with p = 0.5 + t, 15 with 1 - p; T
    prefers 15 while u_T(10) = 15 + 15p <= 25, so t in [-0.5, 1/6].  Against
    an interior y, u_U(10) - u_U(15) = 5 * y10 > 0, so payoff-monotone
    limits need p >= 1/2 (t >= 0) and m-weakly monotone ones p >= m(1 - p)
    (t >= -1/6 at m = 0.5).  T's side only needs u_T(15) > u_T(10) >=
    u_T(20), true for p in [1/3, 2/3).  Member interval: [start, 1/6].
    """
    game = corpus.phi()
    report = enumerate_empirical(game, m=m)
    assert _decisions(report) == {((1.0, 0.0, 0.0), (1.0, 0.0, 0.0)): "member",
                                  ((0.0, 0.0, 1.0), (0.0, 0.0, 1.0)): "non-member"}
    ((lo, hi),) = _member_intervals(report)
    assert abs(lo - start) <= 1e-12 and abs(hi - 1 / 6) <= 1e-12


def _three_player_probe_game():
    # all 1 at (a0, a0, a0), all 0.5 at (a1, a1, a1), 0 elsewhere
    payoffs = np.zeros((2, 2, 2, 3))
    payoffs[0, 0, 0] = 1.0
    payoffs[1, 1, 1] = 0.5
    return Game(["P1", "P2", "P3"], {p: ["a0", "a1"] for p in ("P1", "P2", "P3")},
                payoffs)


@pytest.mark.parametrize("make, expected", [
    (corpus.gamma1, {"P1": {"a1": 1.0}, "P2": {"b1": 1.0}}),
    (corpus.psi, {"P1": {"a1": 0.5, "a2": 0.5}, "P2": {"b1": 1.0}}),
    (corpus.phi, {"U": {"10": 1.0}, "T": {"10": 1.0}}),
    (lambda: corpus.gamma2c(2, 2), {"P1": {"a1": 1.0}, "P2": {"b1": 1.0}}),
    (lambda: corpus.gamma2c(0.5, 0.5), {"P1": {"a1": 1.0}, "P2": {"b1": 1.0}}),
    (_three_player_probe_game, {p: {"a0": 1.0} for p in ("P1", "P2", "P3")}),
], ids=["gamma1", "psi", "phi", "gamma2c-2-2", "gamma2c-0.5-0.5", "three-player"])
def test_nonemptiness_probe_pinned(make, expected):
    """The logit branch ends next to a member: (a1; b1) in Gamma1 and both
    Gamma2(c), (10; 10) in Phi, and the midpoint (a1/2 + a2/2; b1) of Psi's
    segment.  Enumeration does not support three players, so there the
    candidate is the path's own terminal."""
    game = make()
    result = nonemptiness_probe(game)
    assert result.verdict.decision == "member"
    assert result.profile.distance(MixedProfile.from_dict(game, expected)) <= 1e-9
    if game.n_players == 3:
        assert result.profile is result.path.terminal
