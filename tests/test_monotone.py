import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from empeq.game import Game, MixedProfile, expected_utility
from empeq import corpus
from empeq.monotone import (
    Violation,
    is_m_weakly_payoff_monotone,
    is_payoff_monotone,
    is_weakly_payoff_monotone,
    region_csv,
    sample_monotone_region,
)

from conftest import corpus_games, random_game, random_profile


def test_uniform_play_always_weakly_monotone():
    rng = np.random.default_rng(0)
    for _ in range(50):
        g = random_game(rng)
        assert is_weakly_payoff_monotone(g, MixedProfile.uniform(g)).satisfied
    for g in corpus_games():
        assert is_weakly_payoff_monotone(g, MixedProfile.uniform(g)).satisfied


def test_gamma1_interior_point_weakly_monotone(gamma1):
    p = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.75, "a2": 0.25}, "P2": {"b1": 0.75, "b2": 0.25}}
    )
    assert is_weakly_payoff_monotone(gamma1, p).satisfied


def test_gamma1_bad_corner_violates(gamma1):
    p = MixedProfile.pure(gamma1, {"P1": "a2", "P2": "b2"})
    verdict = is_weakly_payoff_monotone(gamma1, p)
    assert not verdict.satisfied
    assert any(v.player == "P1" for v in verdict.violations)


def test_psi_equal_split_payoff_monotone(psi):
    p = MixedProfile.from_dict(
        psi, {"P1": {"a1": 0.5, "a2": 0.5}, "P2": {"b1": 1.0}}
    )
    assert is_payoff_monotone(psi, p).satisfied


def test_uniform_with_distinct_utilities_not_payoff_monotone(gamma1):
    p = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.5, "a2": 0.5}, "P2": {"b1": 1.0}}
    )
    verdict = is_payoff_monotone(gamma1, p)
    assert not verdict.satisfied


def test_single_action_players_trivially_monotone():
    g = Game(["P1", "P2"], {"P1": ["only"], "P2": ["one"]}, np.zeros((1, 1, 2)))
    p = MixedProfile.uniform(g)
    assert is_payoff_monotone(g, p).satisfied
    assert is_weakly_payoff_monotone(g, p).satisfied


def test_m_zero_never_restricts():
    rng = np.random.default_rng(1)
    for _ in range(30):
        g = random_game(rng)
        p = random_profile(g, rng)
        assert is_m_weakly_payoff_monotone(g, p, 0.0).satisfied


def test_m_example_on_gamma1(gamma1):
    p = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.4, "a2": 0.6}, "P2": {"b1": 0.9, "b2": 0.1}}
    )
    assert is_m_weakly_payoff_monotone(gamma1, p, 0.5).satisfied
    assert not is_m_weakly_payoff_monotone(gamma1, p, 1.0).satisfied


def test_m_one_matches_weak_monotonicity_without_ties():
    # the two definitions only part ways at utility ties, so skip those
    rng = np.random.default_rng(7)
    checked = 0
    games = corpus_games()
    while checked < 1000:
        g = games[checked % len(games)]
        p = random_profile(g, rng)
        tied = False
        for i in range(g.n_players):
            eu = expected_utility(g, p, i)
            sig = p.vectors[i]
            for a in range(len(eu)):
                for b in range(a + 1, len(eu)):
                    if abs(eu[a] - eu[b]) <= 1e-6 or abs(sig[a] - sig[b]) <= 1e-6:
                        tied = True
        if tied:
            checked += 1
            continue
        weak = is_weakly_payoff_monotone(g, p).satisfied
        m1 = is_m_weakly_payoff_monotone(g, p, 1.0).satisfied
        assert weak == m1
        checked += 1


def test_m_rejects_out_of_range(gamma1):
    with pytest.raises(ValueError):
        is_m_weakly_payoff_monotone(gamma1, MixedProfile.uniform(gamma1), 1.5)


@pytest.mark.parametrize("tol", [-1.0, -1e-12, float("nan"), float("inf")])
def test_meaningless_tolerances_are_rejected(gamma1, tol):
    profile = MixedProfile.uniform(gamma1)
    checks = [lambda t: is_weakly_payoff_monotone(gamma1, profile, t),
              lambda t: is_payoff_monotone(gamma1, profile, t),
              lambda t: is_m_weakly_payoff_monotone(gamma1, profile, 0.5, t),
              lambda t: sample_monotone_region(gamma1, 4, tol=t)]
    for check in checks:
        with pytest.raises(ValueError, match="tol must be finite and >= 0"):
            check(tol)
        check(0.0)  # a zero tolerance is a strict test, not an error


def test_m_monotone_in_m():
    rng = np.random.default_rng(11)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for g in corpus_games():
        for _ in range(40):
            p = random_profile(g, rng)
            sat = [is_m_weakly_payoff_monotone(g, p, m).satisfied for m in grid]
            # once satisfied at some m, satisfied at every smaller m
            for i in range(len(grid) - 1):
                if sat[i + 1]:
                    assert sat[i]


def test_interior_payoff_monotone_implies_weak():
    rng = np.random.default_rng(23)
    count = 0
    for g in corpus_games():
        for _ in range(400):
            p = random_profile(g, rng)
            if not p.is_interior:
                continue
            if is_payoff_monotone(g, p).satisfied:
                count += 1
                assert is_weakly_payoff_monotone(g, p).satisfied
    assert count > 10


def test_region_resolution_one_is_corners(gamma1):
    rows = sample_monotone_region(gamma1, 1)
    assert [c for c, _ in rows] == [
        (0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)
    ]


def test_region_gamma1_area(gamma1):
    rows = sample_monotone_region(gamma1, 200, kind="weak")
    assert np.mean([ok for _, ok in rows]) == pytest.approx(0.25, abs=0.02)


def test_region_psi_area(psi):
    rows = sample_monotone_region(psi, 200, kind="weak")
    assert np.mean([ok for _, ok in rows]) == pytest.approx(0.25, abs=0.02)


def test_region_psi_excluded_segment(psi):
    # on the top edge only the even split is weakly monotone
    rows = sample_monotone_region(psi, 10, kind="weak")
    top = {round(c1, 6): ok for (c1, c2), ok in rows if c2 == 1.0}
    assert top[0.5]
    assert not top[0.7]
    assert not top[0.3]


def test_region_rejects_non_two_action_games(phi):
    with pytest.raises(ValueError):
        sample_monotone_region(phi, 10)


def test_region_csv_shape(gamma1):
    rows = sample_monotone_region(gamma1, 2)
    text = region_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "coord_1,coord_2,satisfied"
    assert len(lines) == 10
    assert lines[1] == "0.0,0.0,0"


def test_region_csv_keeps_signed_zeros_apart():
    # 0.0 and -0.0 are equal dict keys but print differently
    zero, neg = 0.0, -0.0
    rows = [((zero, neg), True), ((neg, zero), False), ((zero, zero), True), ((neg, neg), False)]
    assert region_csv(rows) == ("coord_1,coord_2,satisfied\n0.0,-0.0,1\n-0.0,0.0,0\n"
                                "0.0,0.0,1\n-0.0,-0.0,0\n")


def test_region_csv_matches_per_row_repr(gamma1):
    rows = sample_monotone_region(gamma1, 200)
    lines = ["coord_1,coord_2,satisfied"]
    lines += [",".join(repr(c) for c in coords) + f",{int(ok)}" for coords, ok in rows]
    assert region_csv(rows) == "\n".join(lines) + "\n"


def test_region_verdicts_invariant_under_relabeling(gamma1):
    # permuting action labels permutes coordinates but not verdicts
    flipped = Game(
        gamma1.players,
        {"P1": ["a2", "a1"], "P2": list(gamma1.actions["P2"])},
        gamma1.payoffs[::-1, :, :],
    )
    rows = dict(sample_monotone_region(gamma1, 8))
    rows_flipped = dict(sample_monotone_region(flipped, 8))
    for (c1, c2), ok in rows.items():
        assert rows_flipped[(round(1.0 - c1, 12), c2)] == ok


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_monotone_verdicts_relabel_invariant(seed):
    rng = np.random.default_rng(seed)
    g = random_game(rng, (3, 3))
    perm = rng.permutation(3)
    g2 = Game(
        g.players,
        {"P1": [g.actions["P1"][j] for j in perm], "P2": list(g.actions["P2"])},
        g.payoffs[perm, :, :],
    )
    p = random_profile(g, rng)
    p2 = MixedProfile(g2, [p.vectors[0][perm], p.vectors[1]])
    for pred in (is_weakly_payoff_monotone, is_payoff_monotone):
        assert pred(g, p).satisfied == pred(g2, p2).satisfied


# Pair-by-pair references: the rules as scalar loops over
# itertools.permutations / combinations, as they were written before they
# became array masks.


def _ref_violation(game, p, sig, eu, a, b, note):
    return Violation(p, (game.actions[p][a], game.actions[p][b]),
                     (float(sig[a]), float(sig[b])), (float(eu[a]), float(eu[b])), note)


def _ref_weak(game, profile, tol):
    bad = []
    for i, p in enumerate(game.players):
        sig, eu = profile.vectors[i], expected_utility(game, profile, i)
        for a, b in itertools.permutations(range(len(sig)), 2):
            if sig[a] > sig[b] + tol and not eu[a] > eu[b] + tol:
                bad.append(_ref_violation(game, p, sig, eu, a, b,
                                          "played strictly more without strictly higher payoff"))
    return tuple(bad)


def _ref_strict(game, profile, tol):
    bad = []
    for i, p in enumerate(game.players):
        sig, eu = profile.vectors[i], expected_utility(game, profile, i)
        for a, b in itertools.combinations(range(len(sig)), 2):
            du = eu[a] - eu[b]
            if abs(du) <= tol:
                if abs(sig[a] - sig[b]) > tol:
                    bad.append(_ref_violation(game, p, sig, eu, a, b,
                                              "utility tie without probability tie"))
                continue
            hi, lo = (a, b) if du > 0 else (b, a)
            if not sig[hi] > sig[lo]:
                bad.append(_ref_violation(game, p, sig, eu, hi, lo,
                                          "higher payoff without strictly higher probability"))
    return tuple(bad)


def _ref_m_weak(game, profile, m, tol):
    bad = []
    for i, p in enumerate(game.players):
        sig, eu = profile.vectors[i], expected_utility(game, profile, i)
        for a, b in itertools.permutations(range(len(sig)), 2):
            if eu[a] >= eu[b] - tol and not sig[a] >= m * sig[b] - tol:
                bad.append(_ref_violation(
                    game, p, sig, eu, a, b,
                    f"sigma(a) < {m} * sigma(b) despite weakly higher payoff"))
    return tuple(bad)


def test_predicates_match_pairwise_reference():
    rng = np.random.default_rng(31)
    games = corpus_games()
    for shape in ((3, 3), (4, 2), (3, 2, 2)):
        # integer payoffs and rounded probabilities give exact ties
        g = random_game(rng, shape)
        games.append(Game(g.players, g.actions, np.round(g.payoffs / 4)))
    for g in games:
        for s in range(60):
            vecs = [rng.dirichlet(np.ones(k)) for k in g.action_counts]
            if s % 2:
                vecs = [np.round(v * 4) + (v == v.max()) for v in vecs]
            p = MixedProfile(g, vecs)
            # a negative tolerance is an input error (test_meaningless_tolerances_are_rejected)
            for tol in (1e-9, 0.0, 0.05, 0.2):
                assert is_weakly_payoff_monotone(g, p, tol).violations == _ref_weak(g, p, tol)
                assert is_payoff_monotone(g, p, tol).violations == _ref_strict(g, p, tol)
                for m in (0.0, 0.5, 1.0):
                    got = is_m_weakly_payoff_monotone(g, p, m, tol).violations
                    assert got == _ref_m_weak(g, p, m, tol)


def _region_reference(game, resolution, kind, tol=1e-9):
    predicate = is_weakly_payoff_monotone if kind == "weak" else is_payoff_monotone
    axis = np.linspace(0.0, 1.0, resolution + 1)
    rows = []
    for idx in itertools.product(range(resolution + 1), repeat=game.n_players):
        coords = tuple(float(axis[j]) for j in idx)
        profile = MixedProfile(game, [np.array([c, 1.0 - c]) for c in coords])
        rows.append((coords, bool(predicate(game, profile, tol).satisfied)))
    return rows


@pytest.mark.parametrize("kind", ["weak", "strict"])
@pytest.mark.parametrize("case", ["gamma1", "psi", "2x2x2"])
def test_region_grid_matches_per_point_reference(case, kind):
    if case == "2x2x2":
        game, resolution = random_game(np.random.default_rng(5), (2, 2, 2), -3.0, 3.0), 8
    else:
        game, resolution = corpus.get(case), 200
    rows = sample_monotone_region(game, resolution, kind=kind)
    assert region_csv(rows) == region_csv(_region_reference(game, resolution, kind))


@pytest.mark.parametrize("kind", ["weak", "strict"])
def test_region_grid_matches_reference_at_other_tolerances(psi, kind):
    # a negative tolerance is an input error (test_meaningless_tolerances_are_rejected)
    for tol in (0.0, 0.01, 0.3):
        rows = sample_monotone_region(psi, 30, kind=kind, tol=tol)
        assert rows == _region_reference(psi, 30, kind, tol)
