"""Smallest-scale decisions against the per-scale loops they replaced, and
two-player membership against the delta-box searches it replaced.

`empirical_membership`, `check_perfect` and `check_proper` list one
witness at every scale.  The refinement references below are the earlier
loops, which searched every scale on its own; the perfect one runs the
best-response-set search (`conftest.reference_perfect_search`) that the
exact best-reply LPs replaced.  The membership reference
runs one closure test for two players and re-checks its witness at every
delta; for more players it searches every delta on its own.  On the
default schedules decisions, refutations, statuses and certificates must
match.  On the wide eps schedule a refinement may also go from inconclusive
to verified: its smallest-eps witness holds at every larger eps, where a
search of its own failed.  Perfection may also go from inconclusive to
refuted: the exhausted best-response-set search could not refute, and the
LPs find a mixed strategy that dominates, whose certificate must re-check.
Every witness is re-checked at every scale, and only member and verified
verdicts carry witnesses.

The closure test must also keep every verdict that the earlier delta-box
searches decided (`conftest.reference_membership`).
"""

import collections
import itertools

import numpy as np
import pytest

from empeq import corpus, empirical, nash, search
from empeq.empirical import (
    DEFAULT_DELTAS,
    INCONCLUSIVE,
    MEMBER,
    NON_MEMBER,
    MembershipVerdict,
    Refutation,
    empirical_membership,
)
from empeq.game import Game, MixedProfile, nash_defect
from empeq.monotone import is_m_weakly_payoff_monotone, is_payoff_monotone
from empeq.nash import (
    DEFAULT_EPS_SCHEDULE,
    DELTA_FACTOR,
    check_perfect,
    check_proper,
    enumerate_nash,
    is_epsilon_perfect,
    is_epsilon_proper,
    segment_breakpoints,
)

from conftest import (
    corpus_games,
    integer_games,
    random_game,
    recheck_mixed_dominance,
    reference_membership,
    reference_perfect_search,
    segment_grid,
)


def _membership_reference(game, profile, deltas=DEFAULT_DELTAS, m=1.0, seed=0):
    """Two players: one closure test, its witness re-checked at every delta.
    More players: one witness search per delta, largest first."""
    cert = empirical._dominance_refutation(game, profile, m)
    if cert is not None and m > 0.0:
        return MembershipVerdict(NON_MEMBER, [], cert)
    if game.n_players == 2:
        out = search.monotone_pattern_search(game, profile, min(deltas), m=m)
        if out.outcome == search.OUTCOME_REFUTED:
            return MembershipVerdict(NON_MEMBER, [], Refutation("pattern-exhaustion", {
                "m": m, "patterns_tried": out.tried,
                "note": "no compatible pattern pair has interior monotone profiles",
            }))
        witnesses = [(delta, out.witness) for delta in sorted(deltas, reverse=True)]
    else:
        witnesses = [(delta, empirical._generic_witness(game, profile, delta, m, seed))
                     for delta in sorted(deltas, reverse=True)]
    missing = [d for d, w in witnesses if not empirical._witness_ok(game, w, profile, d, m)]
    if not missing:
        return MembershipVerdict(MEMBER, witnesses)
    return MembershipVerdict(INCONCLUSIVE, [], None, {"missing_deltas": missing})


def _perfect_reference(game, profile, schedule=DEFAULT_EPS_SCHEDULE):
    """One perfect-witness search per eps, largest first."""
    if game.n_players == 2:
        cert = nash._dominated_on_support(game, profile)
        if cert is not None:
            return nash.RefinementVerdict(nash.REFUTED, certificate=cert)
    witnesses, notes = [], []
    for eps in sorted(schedule, reverse=True):
        delta = DELTA_FACTOR * eps
        cand = nash._smoothed_perfect_witness(game, profile, eps)
        if cand is not None and cand.distance(profile) <= delta:
            witnesses.append((eps, cand))
            continue
        if game.n_players == 2:
            out = reference_perfect_search(game, profile, eps, delta)
            if out.outcome == search.OUTCOME_FEASIBLE and is_epsilon_perfect(
                game, out.witness, eps
            ):
                witnesses.append((eps, out.witness))
                continue
            notes.append(f"eps={eps:g}: no witness found ({out.tried} patterns)")
        else:
            notes.append(f"eps={eps:g}: no witness found")
    if len(witnesses) == len(schedule):
        return nash.RefinementVerdict(nash.VERIFIED, witnesses)
    return nash.RefinementVerdict(nash.INCONCLUSIVE, witnesses, notes=notes)


def _proper_reference(game, profile, schedule=DEFAULT_EPS_SCHEDULE):
    """One proper-witness search per eps, largest first."""
    if game.n_players == 2:
        cert = nash._dominated_on_support(game, profile)
        if cert is not None:
            return nash.RefinementVerdict(nash.REFUTED, certificate=cert)
    witnesses, notes = [], []
    smallest_refuted = None
    for eps in sorted(schedule, reverse=True):
        delta = DELTA_FACTOR * eps
        cand = nash._tiered_proper_witness(game, profile, eps)
        if cand is not None and cand.distance(profile) <= delta:
            witnesses.append((eps, cand))
            continue
        if game.n_players != 2:
            notes.append(f"eps={eps:g}: no witness found")
            continue
        out = search.proper_pattern_search(game, profile, eps, delta)
        if out.outcome == search.OUTCOME_FEASIBLE and is_epsilon_proper(
            game, out.witness, eps
        ):
            witnesses.append((eps, out.witness))
        else:
            notes.append(f"eps={eps:g}: {out.outcome} ({out.tried} patterns)")
            if eps == min(schedule) and out.outcome == search.OUTCOME_REFUTED:
                smallest_refuted = out
    if len(witnesses) == len(schedule):
        return nash.RefinementVerdict(nash.VERIFIED, witnesses)
    if smallest_refuted is not None:
        cert = {
            "kind": "order-exhaustion",
            "eps": float(min(schedule)),
            "delta": float(DELTA_FACTOR * min(schedule)),
            "patterns_tried": smallest_refuted.tried,
        }
        return nash.RefinementVerdict(nash.REFUTED, witnesses, certificate=cert,
                                      notes=notes)
    return nash.RefinementVerdict(nash.INCONCLUSIVE, witnesses, notes=notes)


def _candidates(game):
    """Isolated equilibria, and component points at both ends and inside."""
    eqset = enumerate_nash(game)
    out = list(eqset.isolated)
    for c in eqset.components:
        out += [p for _, p in segment_grid(game, c, 3)]
    return out


def _seeded_games():
    rng = np.random.default_rng(2024)
    return [random_game(rng, (n, n)) for n in (3, 4, 5) for _ in range(5)]


def _integer_games():
    # payoffs in {0, 1, 2}: ties, dominance, segments and degenerate faces
    rng = np.random.default_rng(12)
    return [Game(["P1", "P2"], {"P1": [f"a{j}" for j in range(n)],
                                "P2": [f"b{j}" for j in range(n)]},
                 rng.integers(0, 3, size=(n, n, 2)).astype(float))
            for n in (2, 3, 3, 3, 4, 4)]


def _three_player_games():
    return [random_game(np.random.default_rng(seed), (2, 2, 2), -3.0, 3.0)
            for seed in range(4)]


def _pure_equilibria(game):
    out = []
    for combo in itertools.product(*(range(k) for k in game.action_counts)):
        pure = {p: game.actions[p][j] for p, j in zip(game.players, combo)}
        candidate = MixedProfile.pure(game, pure)
        if nash_defect(game, candidate) == 0:
            out.append(candidate)
    return out


GAME_SETS = {
    "corpus": lambda: [(g, _candidates(g)) for g in corpus_games()],
    "seeded": lambda: [(g, _candidates(g)) for g in _seeded_games()],
    "integer": lambda: [(g, _candidates(g)) for g in _integer_games()],
    "three-player": lambda: [(g, _pure_equilibria(g)) for g in _three_player_games()],
}


def _recheck_monotone(game, candidate, verdict, deltas, m):
    if verdict.decision != MEMBER:
        assert verdict.witnesses == []
        return
    assert [d for d, _ in verdict.witnesses] == sorted(deltas, reverse=True)
    for delta, w in verdict.witnesses:
        assert w.is_interior and w.distance(candidate) <= delta * (1 + 1e-9)
        if m == 1.0:
            assert is_payoff_monotone(game, w).satisfied
        else:
            assert is_m_weakly_payoff_monotone(game, w, m).satisfied


# on the wide eps schedule some integer-game proper candidates have a
# witness at 1e-5 while a search of their own fails at a larger eps, so the
# per-scale reference leaves them inconclusive
DELTA_SCHEDULES = {"default": DEFAULT_DELTAS, "wide": (0.5, 0.25, 1e-1, 1e-6)}
EPS_SCHEDULES = {"default": DEFAULT_EPS_SCHEDULE, "wide": (0.3, 0.1, 1e-3, 1e-5)}


def _capped_games():
    # a 6x6 game, which the former 5-action cap of the searches left
    # inconclusive throughout
    return [(g, enumerate_nash(g).isolated)
            for g in [random_game(np.random.default_rng(6), (6, 6))]]


@pytest.mark.parametrize("schedule", sorted(DELTA_SCHEDULES))
@pytest.mark.parametrize("m", [1.0, 0.5])
@pytest.mark.parametrize("games", sorted(GAME_SETS) + ["capped"])
def test_membership_matches_per_scale_reference(games, m, schedule):
    deltas = DELTA_SCHEDULES[schedule]
    decisions = set()
    game_set = _capped_games() if games == "capped" else GAME_SETS[games]()
    for game, candidates in game_set:
        for candidate in candidates:
            got = empirical_membership(game, candidate, deltas, m=m)
            ref = _membership_reference(game, candidate, deltas, m=m)
            assert got.decision == ref.decision
            assert got.refutation == ref.refutation
            assert "missing_deltas" not in got.diagnostics
            _recheck_monotone(game, candidate, got, deltas, m)
            decisions.add(got.decision)
    assert MEMBER in decisions
    if games == "capped":
        assert decisions == {MEMBER}


def _recheck_refinement(game, candidate, verdict, epss, passes):
    if verdict.status != nash.VERIFIED:
        assert verdict.witnesses == []
        return
    assert [e for e, _ in verdict.witnesses] == sorted(epss, reverse=True)
    for eps, w in verdict.witnesses:
        assert w.distance(candidate) <= DELTA_FACTOR * eps * (1 + 1e-9)
        assert passes(game, w, eps)


@pytest.mark.parametrize("schedule", sorted(EPS_SCHEDULES))
@pytest.mark.parametrize("games", sorted(GAME_SETS))
def test_refinements_match_per_scale_reference(games, schedule):
    epss = EPS_SCHEDULES[schedule]
    smallest = f"eps={min(epss):g}:"
    statuses = set()
    for game, candidates in GAME_SETS[games]():
        for candidate in candidates:
            for check, reference, passes in (
                (check_perfect, _perfect_reference, is_epsilon_perfect),
                (check_proper, _proper_reference, is_epsilon_proper),
            ):
                got, ref = check(game, candidate, epss), reference(game, candidate, epss)
                if got.status != ref.status and got.status == nash.REFUTED:
                    assert check is check_perfect and ref.status == nash.INCONCLUSIVE
                    recheck_mixed_dominance(game, candidate, got.certificate)
                elif got.status != ref.status:
                    assert schedule == "wide"
                    assert (ref.status, got.status) == (nash.INCONCLUSIVE, nash.VERIFIED)
                else:
                    assert got.certificate == ref.certificate
                    assert got.notes == [n for n in ref.notes if n.startswith(smallest)]
                _recheck_refinement(game, candidate, got, epss, passes)
                statuses.add(got.status)
    assert nash.VERIFIED in statuses


def _count_searches(monkeypatch, name):
    calls = []
    original = getattr(search, name)

    def counted(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(out.outcome)
        return out

    monkeypatch.setattr(search, name, counted)
    return calls


@pytest.mark.parametrize("m", [1.0, 0.5])
def test_member_candidate_runs_one_search(monkeypatch, m):
    game = corpus.gamma1()
    top = MixedProfile.pure(game, {"P1": "a1", "P2": "b1"})
    calls = _count_searches(monkeypatch, "monotone_pattern_search")
    verdict = empirical_membership(game, top, m=m)
    assert verdict.decision == MEMBER
    assert len(verdict.witnesses) == len(DEFAULT_DELTAS)
    assert calls == [search.OUTCOME_FEASIBLE]


def test_seeded_members_run_one_search_each(monkeypatch):
    # one closure test per candidate that passes the dominance check,
    # member or not
    calls = _count_searches(monkeypatch, "monotone_pattern_search")
    members = 0
    for game, candidates in GAME_SETS["seeded"]() + GAME_SETS["integer"]():
        for candidate in candidates:
            calls.clear()
            verdict = empirical_membership(game, candidate)
            dominated = verdict.refutation is not None and verdict.refutation.kind == "dominance"
            assert len(calls) == (0 if dominated else 1)
            members += verdict.decision == MEMBER
    assert members >= 3


def _found_game():
    """5x5 game with 13 Nash segments and no isolated equilibrium."""
    rows = [[3, 0, 3, 2, 0], [1, 0, 2, 2, 2], [2, 0, 2, 2, 0], [1, 1, 2, 1, 1],
            [1, 2, 3, 2, 1]]
    cols = [[3, 2, 3, 2, 2], [0, 2, 2, 3, 1], [2, 0, 1, 1, 0], [3, 1, 3, 2, 2],
            [2, 2, 0, 1, 0]]
    return Game(["P1", "P2"], {"P1": [f"a{j}" for j in range(5)],
                               "P2": [f"b{j}" for j in range(5)]},
                np.stack([rows, cols], axis=-1).astype(float))


def test_non_member_runs_one_search(monkeypatch):
    # the segment ends are refuted by one closure test each, which is what
    # the delta-box searches decided as well
    game = _found_game()
    (segment,) = [c for c in enumerate_nash(game).components
                  if c.support == (("a0", "a1"), ("b3",))]
    calls = _count_searches(monkeypatch, "monotone_pattern_search")
    for _, end in segment_grid(game, segment, 2):
        calls.clear()
        verdict = empirical_membership(game, end, m=0.5)
        assert verdict.decision == NON_MEMBER
        assert verdict.refutation.kind == "pattern-exhaustion"
        assert verdict.witnesses == []
        assert calls == [search.OUTCOME_REFUTED]
        assert reference_membership(game, end, m=0.5) == NON_MEMBER


def _differential_games():
    """The game sets above and every fourth of the first 80 integer games."""
    games = [g for name in ("corpus", "seeded", "integer") for g, _ in GAME_SETS[name]()]
    return games + integer_games(80)[::4]


@pytest.mark.parametrize("m", [1.0, 0.5])
def test_closure_test_keeps_decided_reference_verdicts(m):
    """Every verdict that the delta-box searches decide, at isolated
    equilibria and at component points (ends, breakpoints and a grid), is
    the closure test's verdict too; the 400 integer games are in CHANGES.md."""
    kept = collections.Counter()
    for game in _differential_games():
        eqset = enumerate_nash(game)
        candidates = list(eqset.isolated)
        for c in eqset.components:
            candidates += [p for _, p in segment_grid(game, c, 5)]
            candidates += [c.profile_at(game, t) for t in segment_breakpoints(game, c, m)]
        for candidate in candidates:
            ref = reference_membership(game, candidate, m=m)
            got = empirical_membership(game, candidate, m=m)
            if ref != INCONCLUSIVE:
                assert got.decision == ref
            kept[ref, got.decision] += 1
    assert kept[MEMBER, MEMBER] > 50 and kept[NON_MEMBER, NON_MEMBER] > 50
