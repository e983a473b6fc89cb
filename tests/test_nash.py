from bisect import bisect

import numpy as np
import pytest

from empeq import corpus, nash, search
from empeq.empirical import empirical_membership, enumerate_empirical
from empeq.game import Game, MixedProfile, nash_defect, unit_view
from empeq.nash import (
    EquilibriumSet,
    UnsupportedGameError,
    check_perfect,
    check_proper,
    classify,
    enumerate_nash,
    is_epsilon_perfect,
    is_epsilon_proper,
    is_nash,
    nearest_nash,
    segment_breakpoints,
)

from conftest import (
    _ref_proves_empty,
    chained_tie_game,
    _ref_side,
    _ref_x0_feasible,
    corpus_games,
    face_proved_empty,
    integer_game,
    integer_games,
    noisy_integer_games,
    per_pair_reference,
    random_game,
    recheck_mixed_dominance,
    reference_perfect_search,
    segment_grid,
    undominated_flag,
    without_dropped_faces,
)


def _pure_set(game, eqset):
    out = set()
    for p in eqset.isolated:
        labels = []
        for i, pl in enumerate(game.players):
            j = int(np.argmax(p.vectors[i]))
            if p.vectors[i][j] < 1 - 1e-9:
                return None
            labels.append(game.actions[pl][j])
        out.add(tuple(labels))
    return out


def test_gamma1_exactly_two_equilibria(gamma1):
    eq = enumerate_nash(gamma1)
    assert not eq.components
    assert _pure_set(gamma1, eq) == {("a1", "b1"), ("a2", "b2")}


def test_gamma2c_three_pure():
    for c in ((2, 2), (0.5, 0.5), (10, 10), (1, 1)):
        g = corpus.gamma2c(*c)
        eq = enumerate_nash(g)
        assert not eq.components
        assert _pure_set(g, eq) == {("a1", "b1"), ("a2", "b2"), ("a3", "b3")}


def test_psi_single_component(psi):
    eq = enumerate_nash(psi)
    assert not eq.isolated
    assert len(eq.components) == 1
    comp = eq.components[0]
    lo, hi = comp.interval
    ends = sorted(
        (comp.profile_at(psi, lo).vectors[0][0],
         comp.profile_at(psi, hi).vectors[0][0])
    )
    assert ends == pytest.approx([0.0, 1.0], abs=1e-9)
    for t, prof in segment_grid(psi, comp, 11):
        assert prof.vectors[1][0] == pytest.approx(1.0, abs=1e-12)
        assert nash_defect(psi, prof) <= 1e-9


def test_phi_equilibrium_set(phi):
    eq = enumerate_nash(phi)
    assert _pure_set(phi, eq) == {("10", "10"), ("20", "20")}
    assert len(eq.components) == 1
    comp = eq.components[0]
    lo, hi = comp.interval
    p15 = sorted(
        (comp.profile_at(phi, lo).vectors[0][1],
         comp.profile_at(phi, hi).vectors[0][1])
    )
    assert p15 == pytest.approx([1 / 3, 1.0], abs=1e-9)
    for _, prof in segment_grid(phi, comp, 21):
        assert prof.vectors[1][1] == pytest.approx(1.0, abs=1e-12)
        assert nash_defect(phi, prof) <= 1e-9


def test_matching_pennies_mixed():
    g = Game(
        ["P1", "P2"],
        {"P1": ["H", "T"], "P2": ["H", "T"]},
        np.array([[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]], dtype=float),
    )
    eq = enumerate_nash(g)
    assert not eq.components
    assert len(eq.isolated) == 1
    assert np.allclose(eq.isolated[0].stacked(), 0.5, atol=1e-12)


def test_battle_three_equilibria():
    g = Game(
        ["P1", "P2"],
        {"P1": ["A", "B"], "P2": ["A", "B"]},
        np.array([[[2, 1], [0, 0]], [[0, 0], [1, 2]]], dtype=float),
    )
    eq = enumerate_nash(g)
    assert len(eq.isolated) == 3
    mixed = [p for p in eq.isolated if 0.01 < p.vectors[0][0] < 0.99]
    assert len(mixed) == 1
    assert mixed[0].vectors[0][0] == pytest.approx(2 / 3)
    assert mixed[0].vectors[1][0] == pytest.approx(1 / 3)


def test_one_by_one_game():
    g = Game(["P1"], {"P1": ["only"]}, np.array([[5.0]]))
    eq = enumerate_nash(g)
    assert len(eq.isolated) == 1
    assert eq.isolated[0].vectors[0][0] == 1.0


def test_enumeration_limit():
    # 70x70 has (2^70 - 1)^2 support pairs, past the 2^20 cap
    rng = np.random.default_rng(0)
    g = random_game(rng, (70, 70))
    with pytest.raises(UnsupportedGameError, match="support pairs"):
        enumerate_nash(g)


def test_one_player_game_with_many_actions_enumerates():
    u = np.zeros(5000)
    u[4321] = 1.0
    game = Game(["P1"], {"P1": [f"a{j}" for j in range(5000)]}, u[:, None])
    eq = enumerate_nash(game)
    assert len(eq.isolated) == 1 and not eq.components
    assert eq.isolated[0].vectors[0][4321] == 1.0
    u[17] = 1.0
    eq = enumerate_nash(Game(game.players, game.actions, u[:, None]))
    assert not eq.isolated and len(eq.components) == 1
    assert eq.components[0].support == (("a17", "a4321"),)


def test_three_player_unsupported():
    rng = np.random.default_rng(0)
    g = random_game(rng, (2, 2, 2))
    with pytest.raises(UnsupportedGameError):
        enumerate_nash(g)


def _assert_same_equilibria(got, ref, atol=1e-12):
    """Same diagnostics and supports, and points, interval ends, bases and
    directions within `atol`."""
    assert ([(d.support, d.status, d.detail) for d in got.diagnostics]
            == [(d.support, d.status, d.detail) for d in ref.diagnostics])
    assert len(got.isolated) == len(ref.isolated)
    for p, q in zip(got.isolated, ref.isolated):
        assert p.distance(q) <= atol
    assert [c.support for c in got.components] == [c.support for c in ref.components]
    for c, r in zip(got.components, ref.components):
        assert np.allclose(c.interval, r.interval, rtol=0, atol=atol)
        for u, v in zip(c.base + c.direction, r.base + r.direction):
            assert np.allclose(u, v, rtol=0, atol=atol)


def _affine(game, alpha, shift, players):
    """`game` with the payoffs of `players` mapped by u -> alpha (u + shift)."""
    payoffs = game.payoffs.copy()
    for i in players:
        payoffs[..., i] = alpha * payoffs[..., i] + alpha * shift
    return Game(game.players, game.actions, payoffs)


def test_affine_invariance():
    # a positive affine map of a player's payoffs keeps the Nash set, and
    # enumeration decides on unit-range payoffs, so it finds the same set at
    # every payoff scale.  The shift is a multiple of alpha, so that rounding
    # does not wipe out payoffs of size 1e-150
    rng = np.random.default_rng(5)
    games = corpus_games() + integer_games(400)
    games += [random_game(rng, (n, n)) for n in (3, 4, 5, 6)]
    for g in games:
        ref = enumerate_nash(g)
        shift = float(rng.uniform(-5, 5))
        for alpha in (1e-150, 1e-10, 1e8, 1e10, 1e150):
            for players in ((0, 1), (1,)):
                _assert_same_equilibria(
                    enumerate_nash(_affine(g, alpha, shift, players)), ref)


def _membership_grids(game, m):
    """`enumerate_empirical`'s decisions: one per isolated equilibrium, and
    each component's grid."""
    report = enumerate_empirical(game, m=m)
    return ([v.decision for _, v in report.isolated],
            [[d for _, d in c.grid] for c in report.components])


def _undominated_and_perfect(game):
    tags, summaries = classify(game, enumerate_nash(game))
    return ([(tag.undominated, tag.perfect.status) for tag in tags],
            [[(e["undominated"], e["perfect"]) for e in s["grid"]] for s in summaries])


def test_membership_and_perfection_affine_invariance():
    # membership, the undominated tag and perfection decide on the unit
    # view, so scaling payoffs keeps every decision and every grid length;
    # on raw payoffs, 1e-10 turned members into non-members and 1e10 did so
    # on a few, through ties read as strict orders
    cases = [(1e-10, (0, 1)), (1e10, (0, 1)), (1e10, (1,))]
    for k, g in enumerate(corpus_games() + integer_games(40)):
        checks = [lambda h: _membership_grids(h, 1.0)]
        if k < 15:  # the corpus and the first 10 integer games
            checks += [lambda h: _membership_grids(h, 0.5), _undominated_and_perfect]
        for check in checks:
            ref = check(g)
            for alpha, players in cases:
                assert check(_affine(g, alpha, 0.0, players)) == ref, (k, alpha, players)


def test_enumerated_profiles_are_nash():
    rng = np.random.default_rng(9)
    for _ in range(25):
        g = random_game(rng)
        eq = enumerate_nash(g)
        assert eq.isolated or eq.components, "every finite game has an equilibrium"
        for p in eq.isolated:
            assert nash_defect(g, p) <= 1e-8
        for comp in eq.components:
            for _, prof in segment_grid(g, comp, 7):
                assert nash_defect(g, prof) <= 1e-7


# -- refinements ---------------------------------------------------------


def test_undominated_gamma2c(gamma2c22):
    eq = enumerate_nash(gamma2c22)
    tags, _ = classify(gamma2c22, eq)
    flagged = {_label(gamma2c22, p): tag.undominated for p, tag in zip(eq.isolated, tags)}
    assert flagged == {
        ("a1", "b1"): True,
        ("a2", "b2"): True,
        ("a3", "b3"): False,
    }


def test_undominated_phi_unique(phi):
    eq = enumerate_nash(phi)
    tags, (summary,) = classify(phi, eq)
    flagged = [_label(phi, p) for p, tag in zip(eq.isolated, tags) if tag.undominated]
    assert flagged == [("10", "10")]
    # every point of the component plays the dominated bid 15
    assert summary["undominated_region"] == []
    assert not any(e["undominated"] for e in summary["grid"])


def test_undominated_no_dominance_all_pass():
    g = Game(
        ["P1", "P2"],
        {"P1": ["H", "T"], "P2": ["H", "T"]},
        np.array([[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]], dtype=float),
    )
    eq = enumerate_nash(g)
    tags, _ = classify(g, eq)
    assert tags and all(tag.undominated for tag in tags)


def _label(game, profile):
    return tuple(
        game.actions[pl][int(np.argmax(profile.vectors[i]))]
        for i, pl in enumerate(game.players)
    )


def _by_label(game, eqset):
    return {_label(game, p): p for p in eqset.isolated}


def test_perfect_gamma2c(gamma2c22):
    eqs = _by_label(gamma2c22, enumerate_nash(gamma2c22))
    v11 = check_perfect(gamma2c22, eqs[("a1", "b1")])
    v22 = check_perfect(gamma2c22, eqs[("a2", "b2")])
    v33 = check_perfect(gamma2c22, eqs[("a3", "b3")])
    assert v11.status == "verified"
    assert v22.status == "verified"
    assert v33.status == "refuted"
    assert v33.certificate["kind"] == "dominated-on-support"
    for eps, witness in v22.witnesses:
        assert is_epsilon_perfect(gamma2c22, witness, eps)
        assert witness.distance(eqs[("a2", "b2")]) <= 10 * eps


def test_perfect_strict_equilibrium_fast_path(gamma1):
    eqs = _by_label(gamma1, enumerate_nash(gamma1))
    v = check_perfect(gamma1, eqs[("a1", "b1")])
    assert v.status == "verified"
    assert len(v.witnesses) == 4


def _mixed_dominance_case(alpha=1.0):
    """(game, profile): B is weakly dominated by 1/2 T + 1/2 M but by no
    pure action, and (B; 1/2 L + 1/2 C) is Nash; every payoff times alpha."""
    u1 = [[2, 0, 0], [0, 2, 0], [1, 1, -1]]
    u2 = [[0, 0, -1]] * 3
    game = Game(["P1", "P2"], {"P1": ["T", "M", "B"], "P2": ["L", "C", "R"]},
                alpha * np.stack([u1, u2], axis=-1).astype(float))
    return game, MixedProfile.from_dict(game, {"P1": {"B": 1.0}, "P2": {"L": 0.5, "C": 0.5}})


def test_pure_dominance_refutes_refinements_with_three_players():
    # P1's y is weakly dominated by x (strictly only against (b1, c1)); at
    # (y; b2; c2) every player is indifferent, so the point is Nash, yet
    # under completely mixed trembles x earns strictly more than y
    u1 = np.ones((2, 2, 2))
    u1[1, 0, 0] = 0.0
    payoffs = np.stack([u1, np.zeros((2, 2, 2)), np.zeros((2, 2, 2))], axis=-1)
    game = Game(["P1", "P2", "P3"], {"P1": ["x", "y"], "P2": ["b1", "b2"],
                                     "P3": ["c1", "c2"]}, payoffs)
    profile = MixedProfile.pure(game, {"P1": "y", "P2": "b2", "P3": "c2"})
    for verdict in (check_perfect(game, profile), check_proper(game, profile)):
        assert verdict.status == "refuted" and verdict.witnesses == []
        assert verdict.certificate == {"kind": "dominated-on-support", "player": "P1",
                                       "action": "y", "dominated_by": "x",
                                       "probability": 1.0}
    (tag,), _ = classify(game, EquilibriumSet([profile], []))
    assert not tag.undominated
    assert tag.perfect.status == tag.proper.status == "refuted"


def test_perfect_refutes_mixed_dominance():
    # the pure check passes (B; 1/2 L + 1/2 C) and only the best-reply LP
    # refutes
    game, profile = _mixed_dominance_case()
    assert undominated_flag(game, profile)
    v = check_perfect(game, profile)
    assert v.status == "refuted" and v.witnesses == []
    assert v.certificate["player"] == "P1"
    assert v.certificate["dominating"] == pytest.approx({"T": 0.5, "M": 0.5})
    recheck_mixed_dominance(game, profile, v.certificate)
    # the best-response-set search it replaced exhausts without a verdict
    out = reference_perfect_search(game, profile, 1e-4, 1e-3)
    assert (out.outcome, out.tried) == (search.OUTCOME_OPEN, 8)


def test_two_player_undominated_tag_is_the_perfect_verdict():
    # B is weakly dominated by 1/2 T + 1/2 M but by no pure action, so the
    # pure test alone would tag (B; 1/2 L + 1/2 C) undominated; for two
    # players the tag is the perfect verdict (van Damme 1991, Thm 3.2.2)
    game, profile = _mixed_dominance_case()
    eqset = enumerate_nash(game)
    tags, summaries = classify(game, eqset)
    points = [(p, tag.undominated, tag.perfect.status)
              for p, tag in zip(eqset.isolated, tags)]
    points += [(comp.profile_at(game, e["t"]), e["undominated"], e["perfect"])
               for comp, summary in zip(eqset.components, summaries)
               for e in summary["grid"]]
    assert all(undominated == (perfect != "refuted") for _, undominated, perfect in points)
    hits = [(undominated, perfect) for p, undominated, perfect in points
            if p.distance(profile) <= 1e-12]
    assert hits and set(hits) == {(False, "refuted")}


@pytest.mark.parametrize("alpha", [1e-12, 1e-6, 1.0, 1e10, 1e12])
def test_perfect_refutation_does_not_depend_on_payoff_units(alpha):
    # eps-perfection and the dominating strategy's gain are tested on the
    # unit view: on raw payoffs, utility gaps of size eps * 1e-6 counted as
    # ties and verified the point, and at 1e10 rounding failed the gain test
    ref = check_perfect(*_mixed_dominance_case())
    game, profile = _mixed_dominance_case(alpha)
    v = check_perfect(game, profile)
    assert v.status == "refuted" and v.witnesses == []
    assert v.certificate == ref.certificate
    recheck_mixed_dominance(*_mixed_dominance_case(), v.certificate)


@pytest.fixture(scope="module")
def classified():
    """(game, eqset, classify's tags and summaries) for the corpus and the
    first 80 integer games."""
    out = []
    for game in corpus_games() + integer_games(80):
        eqset = enumerate_nash(game)
        out.append((game, eqset, *classify(game, eqset)))
    return out


def test_perfect_is_decided_at_every_classified_point(classified):
    # every point `classify` decides (isolated equilibria, and each
    # component's breakpoints and cell midpoints) gets decided perfect and
    # proper verdicts; a perfect one re-checks: a mixed-dominance
    # certificate on the payoff table, or an interior witness within the
    # smallest eps
    eps = min(nash.DEFAULT_EPS_SCHEDULE)
    kinds = set()
    counts = [0, 0]
    for game, eqset, tags, summaries in classified:
        assert all(tag.proper.status != "inconclusive" for tag in tags)
        points = [(p, tag.perfect) for p, tag in zip(eqset.isolated, tags)]
        for comp, summary in zip(eqset.components, summaries):
            ts = [e["t"] for e in summary["grid"]]
            assert ts == segment_breakpoints(game, comp)
            assert all(e["proper"] != "inconclusive" for e in summary["grid"])
            for e in summary["grid"]:
                p = comp.profile_at(game, e["t"])
                points.append((p, check_perfect(game, p)))
                assert points[-1][1].status == e["perfect"]
        counts[0] += len(eqset.isolated)
        counts[1] += len(points) - len(eqset.isolated)
        for p, v in points:
            assert v.status != "inconclusive"
            if v.status == "refuted":
                kinds.add(v.certificate["kind"])
                if v.certificate["kind"] == "mixed-dominance":
                    recheck_mixed_dominance(game, p, v.certificate)
            for e, w in v.witnesses:
                assert w.is_interior and w.distance(p) <= eps * (1 + 1e-9)
                assert is_epsilon_perfect(game, w, e)
    assert kinds == {"dominated-on-support", "mixed-dominance"}
    assert counts == [45, 1303]


def _cell_entry(grid, t):
    """`classify`'s grid entry that decides parameter t: a breakpoint within
    1e-12 of t, else the midpoint of the open cell around t.  Breakpoints
    and midpoints alternate, breakpoints first."""
    ts = [e["t"] for e in grid]
    for k in range(0, len(ts), 2):
        if abs(ts[k] - t) <= 1e-12:
            return grid[k]
    k = bisect(ts, t)
    return grid[k] if k % 2 else grid[k - 1]


def test_classified_cells_match_pointwise_checks(classified):
    # refinements change only at breakpoints: at 11 points per component,
    # every pointwise verdict is the one `classify` reports at that
    # breakpoint or for its cell, and the reported runs are the runs of
    # its grid
    checked = 0
    for game, eqset, _, summaries in classified:
        for comp, summary in zip(eqset.components, summaries):
            for t, p in segment_grid(game, comp, 11):
                e = _cell_entry(summary["grid"], t)
                assert check_perfect(game, p).status == e["perfect"]
                if not undominated_flag(game, p):
                    assert not e["undominated"]
                assert check_proper(game, p).status == e["proper"]
                checked += 1
            for key, passes in (("undominated_region", lambda e: e["undominated"]),
                                ("perfect_intervals", lambda e: e["perfect"] == "verified"),
                                ("proper_intervals", lambda e: e["proper"] == "verified")):
                for lo, hi in summary[key]:
                    inside = [passes(e) for e in summary["grid"] if lo <= e["t"] <= hi]
                    assert inside and all(inside)
                covered = [any(lo <= e["t"] <= hi for lo, hi in summary[key])
                           for e in summary["grid"]]
                assert covered == [passes(e) for e in summary["grid"]]
    assert checked == 11 * sum(len(eq.components) for _, eq, *_ in classified)


def test_nash_candidates_are_required_on_the_unit_view():
    # at 1e10 the enumerated equilibria of these games have raw Nash defects
    # up to about 2e-6, and the checks that require a Nash candidate raised
    # on them; measured on the unit view the defect is the same at every
    # payoff scale
    for game in corpus_games() + integer_games(40):
        scaled = _affine(game, 1e10, 0.0, (0, 1))
        eqset = enumerate_nash(scaled)
        points = list(eqset.isolated)
        points += [c.profile_at(scaled, t) for c in eqset.components
                   for t in segment_breakpoints(scaled, c)[::2]]
        for p in points:
            empirical_membership(scaled, p)
            check_perfect(scaled, p)
            check_proper(scaled, p)


def test_proper_gamma2c():
    for c in ((0.5, 0.5), (2, 2)):
        g = corpus.gamma2c(*c)
        eqs = _by_label(g, enumerate_nash(g))
        assert check_proper(g, eqs[("a1", "b1")]).status == "verified"
        v22 = check_proper(g, eqs[("a2", "b2")])
        assert v22.status == "refuted"
        assert v22.certificate["kind"] == "order-exhaustion"


def test_proper_gamma1(gamma1):
    eqs = _by_label(gamma1, enumerate_nash(gamma1))
    v = check_proper(gamma1, eqs[("a1", "b1")])
    assert v.status == "verified"
    for eps, witness in v.witnesses:
        assert is_epsilon_proper(gamma1, witness, eps)


def test_proper_witness_matches_proposition_shape(gamma2c22):
    # the verified sequence for the top equilibrium keeps utility-ranked
    # probability ratios within eps
    eqs = _by_label(gamma2c22, enumerate_nash(gamma2c22))
    v = check_proper(gamma2c22, eqs[("a1", "b1")])
    for eps, w in v.witnesses:
        x = w.vectors[0]
        assert x[1] <= eps * x[0] * (1 + 1e-9)
        assert x[2] <= eps * x[1] * (1 + 1e-9)


def test_proper_implies_perfect_on_corpus():
    for g in (corpus.gamma1(), corpus.gamma2c(2, 2), corpus.phi()):
        eq = enumerate_nash(g)
        for p in eq.isolated:
            prop = check_proper(g, p)
            if prop.status == "verified":
                assert check_perfect(g, p).status == "verified"
                assert undominated_flag(g, p)


def test_proper_with_utilities_chained_past_the_tie_tolerance():
    # P1's utilities against b0 sit 0.7e-9 apart, so a0 and a2 differ by
    # more than TIE_TOL while each ties a1: single linkage chains a0-a3
    # into one tie block, whose splits the search tries
    col = np.append(1 - 2.1e-9 + np.array([0.7, 1.4, 2.1, 0.7]) * 1e-9, 0.0)
    payoffs = np.stack([np.stack([col, np.zeros(5)], axis=1),
                        np.stack([np.ones(5), np.zeros(5)], axis=1)], axis=-1)
    game = Game(["P1", "P2"], {"P1": [f"a{j}" for j in range(5)], "P2": ["b0", "b1"]}, payoffs)
    profile = MixedProfile.pure(game, {"P1": "a2", "P2": "b0"})
    out = search.proper_pattern_search(game, profile, 1e-4, 1e-3)
    assert out.outcome != search.OUTCOME_REFUTED and out.tried > 0
    v = check_proper(game, profile)
    assert v.status == "verified"
    assert is_epsilon_proper(game, v.witnesses[-1][1], 1e-4)


def test_refinement_rejects_non_nash(gamma1):
    p = MixedProfile.uniform(gamma1)
    with pytest.raises(ValueError):
        check_perfect(gamma1, p)
    with pytest.raises(ValueError):
        check_proper(gamma1, p)


BAD_SCHEDULES = [(np.nan,), (np.inf,), (-0.1,), (0.0,), (0.1, -1e-3), (), (1.0,), (0.1, 2.0)]


@pytest.mark.parametrize("schedule", BAD_SCHEDULES)
def test_refinements_reject_meaningless_schedules(gamma1, schedule):
    # (a1, b1) is strict, so any schedule would otherwise verify it
    p = MixedProfile.pure(gamma1, {"P1": "a1", "P2": "b1"})
    with pytest.raises(ValueError, match="schedule"):
        check_perfect(gamma1, p, schedule=schedule)
    with pytest.raises(ValueError, match="schedule"):
        check_proper(gamma1, p, schedule=schedule)
    with pytest.raises(ValueError, match="schedule"):
        classify(gamma1, enumerate_nash(gamma1), schedule=schedule)


def test_nearest_nash(gamma1):
    p = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.9, "a2": 0.1}, "P2": {"b1": 0.95, "b2": 0.05}}
    )
    d, q = nearest_nash(gamma1, p)
    assert q.vectors[0][0] == pytest.approx(1.0)
    assert d == pytest.approx(0.1)


def test_nearest_nash_component_projection(psi):
    p = MixedProfile.from_dict(
        psi, {"P1": {"a1": 0.6, "a2": 0.4}, "P2": {"b1": 0.98, "b2": 0.02}}
    )
    d, q = nearest_nash(psi, p)
    assert d == pytest.approx(0.02, abs=1e-6)
    # the max-norm minimizer is any t with |t - 0.6| <= 0.02
    assert abs(q.vectors[0][0] - 0.6) <= 0.02 + 1e-9


def test_nearest_nash_inside_degenerate_face():
    # every profile of a constant game is Nash; the 2-dimensional face is
    # only flagged `degenerate` by enumeration
    g = Game(["P1", "P2"], {"P1": ["x", "y"], "P2": ["u", "v"]},
             np.full((2, 2, 2), 1.0))
    assert any(d.status == "degenerate" for d in enumerate_nash(g).diagnostics)
    for p in (MixedProfile.uniform(g),
              MixedProfile(g, [np.array([0.3, 0.7]), np.array([0.6, 0.4])])):
        d, q = nearest_nash(g, p)
        assert d == pytest.approx(0.0, abs=1e-12)
        assert q.distance(p) <= 1e-12
        assert nash_defect(g, q) <= 1e-9
    one = Game(["P"], {"P": ["a", "b", "c"]}, np.ones((3, 1)))
    d, q = nearest_nash(one, MixedProfile.uniform(one))
    assert d == pytest.approx(0.0, abs=1e-12)


def test_nearest_nash_phi_faces_change_nothing(phi):
    # Phi's two degenerate faces collapse to the enumerated point (20, 20)
    eq = enumerate_nash(phi)
    assert sum(d.status == "degenerate" for d in eq.diagnostics) == 2
    bare = EquilibriumSet(eq.isolated, eq.components, [])
    rng = np.random.default_rng(3)
    probes = [MixedProfile(phi, [rng.dirichlet(np.ones(k) * 0.5)
                                 for k in phi.action_counts])
              for _ in range(40)]
    probes += eq.isolated
    for p in probes:
        d, q = nearest_nash(phi, p, eq)
        d0, q0 = nearest_nash(phi, p, bare)
        assert d == d0
        assert q.distance(q0) == 0.0


def test_nearest_nash_faces_at_every_payoff_scale():
    # face projections are tested for Nash on the unit view, so scaling the
    # payoffs keeps every face; on raw payoffs of size 1e10 a projection's
    # defect reaches a few 1e-6, and a test there drops faces that are Nash.
    # The probes are a random profile and its projection onto each face, a
    # Nash point at distance 0.  The shift is a multiple of alpha, so each
    # scaled game is an exact affine image
    rng = np.random.default_rng(0)
    checked = 0
    for g in integer_games(80):
        eq = enumerate_nash(g)
        faces = [d.sides for d in eq.diagnostics if d.sides]
        if not faces:
            continue
        probe = MixedProfile(g, [rng.dirichlet(np.ones(k) * 0.5)
                                 for k in g.action_counts])
        probes = [probe] + [q for q in (nash._project_face(g, f, probe) for f in faces)
                            if q is not None]
        ref = [nearest_nash(g, p, eq)[0] for p in probes]
        for alpha in (1e-12, 1e-6, 1e6, 1e10):
            scaled = _affine(g, alpha, 3.0, (0, 1))
            eq_s = enumerate_nash(scaled)
            got = [nearest_nash(scaled, MixedProfile(scaled, p.vectors), eq_s)[0]
                   for p in probes]
            assert np.allclose(got, ref, rtol=0, atol=1e-9), alpha
        checked += len(probes)
    assert checked > 100


def test_segment_with_rounded_zero_weight_is_kept():
    # P1 uniform with P2 = (q, 1 - q, 0) is Nash for every q in [0, 1].  The
    # zero weight on b3 rounds to about -1e-17; it once emptied the family,
    # which then collapsed to its midpoint as a lone "isolated" point.
    a = [[2, 2, 1], [2, 2, 0], [2, 2, 2]]
    b = [[2, 1, 1], [1, 0, 1], [0, 2, 1]]
    g = Game(["P1", "P2"], {"P1": ["a1", "a2", "a3"], "P2": ["b1", "b2", "b3"]},
             np.stack([a, b], axis=-1).astype(float))
    eq = enumerate_nash(g)
    assert not eq.isolated
    full = [c for c in eq.components
            if c.support == (("a1", "a2", "a3"), ("b1", "b2", "b3"))]
    assert len(full) == 1
    lo, hi = full[0].interval
    assert hi - lo == pytest.approx(1.0, abs=1e-9)
    for _, prof in segment_grid(g, full[0], 11):
        assert nash_defect(g, prof) <= 1e-9


def _two_player(pay):
    m, k = pay.shape[:2]
    return Game(["P1", "P2"], {"P1": [f"a{j}" for j in range(m)],
                               "P2": [f"b{j}" for j in range(k)]}, pay)


def _near_degenerate_games(shifts):
    """A 3x4 integer game with 19 consistent unbalanced pairs, with P2's
    payoff at (a1, b2) moved by each shift."""
    a = [[2, 0, 0, 1], [1, 0, 1, 1], [0, 1, 2, 2]]
    b = [[0, 2, 0, 2], [2, 1, 1, 1], [0, 1, 0, 0]]
    out = []
    for shift in shifts:
        pay = np.stack([a, b], axis=-1).astype(float)
        pay[1, 2, 1] += shift
        out.append(_two_player(pay))
    return out


def _assert_identical_equilibria(got, ref):
    """The same `EquilibriumSet`, bit for bit: diagnostics with their
    `_Side` records, points, supports, bases, directions and interval
    ends."""
    assert ([(d.support, d.status, d.detail) for d in got.diagnostics]
            == [(d.support, d.status, d.detail) for d in ref.diagnostics])
    for d, r in zip(got.diagnostics, ref.diagnostics):
        assert len(d.sides) == len(r.sides)
        for side, ref_side in zip(d.sides, r.sides):
            _assert_same_side(side, ref_side)
    assert len(got.isolated) == len(ref.isolated)
    for p, q in zip(got.isolated, ref.isolated):
        assert all(np.array_equal(u, v) for u, v in zip(p.vectors, q.vectors))
    assert [c.support for c in got.components] == [c.support for c in ref.components]
    for c, r in zip(got.components, ref.components):
        assert c.interval == r.interval
        for u, v in zip(c.base + c.direction, r.base + r.direction):
            assert np.array_equal(u, v)


def test_enumeration_matches_per_pair_reference():
    rng = np.random.default_rng(4)
    games = [random_game(rng, (n, n)) for n in (4, 4, 4, 5, 5, 6, 6)]
    # payoffs in [0, 1] give small singular values, where the screen's
    # margin is tightest
    games += [random_game(rng, (n, n), 0.0, 1.0) for n in (5, 6, 6)]
    # the first 48 integer games hold five segments that a tolerance fault
    # once dropped; the 3x3 game below held another
    games += integer_games(48)
    a = [[2, 2, 1], [2, 2, 0], [2, 2, 2]]
    b = [[2, 1, 1], [1, 0, 1], [0, 2, 1]]
    games.append(Game(["P1", "P2"], {"P1": ["a1", "a2", "a3"], "P2": ["b1", "b2", "b3"]},
                      np.stack([a, b], axis=-1).astype(float)))
    # the only equilibrium puts weight 1e-7/(1 + 1e-7) on a1
    games.append(Game(["P1", "P2"], {"P1": ["a1", "a2"], "P2": ["b1", "b2"]},
                      np.stack([[[1, 0], [0, 1]], [[0, 1], [1e-7, 0]]], axis=-1)))
    # non-square games, where every class of unbalanced pairs has its
    # overdetermined side on one player
    for shape in ((2, 6), (3, 5), (5, 3), (6, 4)):
        games.append(random_game(rng, shape, 0.0, 1.0))
        games.append(integer_game(rng, shape))
    # a degenerate game moved off degeneracy by 1e-13 (all pairs keep their
    # decision), 1e-10 (below the equalities' 1e-9 tolerance) and 1e-8
    # (pairs turn inconsistent, some certified and some only on the exact
    # path)
    games += _near_degenerate_games((0.0, 1e-13, 1e-10, 1e-8))
    # the paper's Gamma2(c) family at seeded costs, as the benchmark draws it
    costs = np.random.default_rng(5).uniform(0.1, 3.0, size=(60, 2))
    games += [corpus.gamma2c(c1, c2) for c1, c2 in costs]
    # the reference lists every face of dimension >= 2; enumeration leaves
    # out only those that the dominance stage proves empty
    dropped = 0
    for g in games:
        got, ref = enumerate_nash(g), per_pair_reference(g)
        kept = without_dropped_faces({d.support for d in got.diagnostics}, ref)
        _assert_identical_equilibria(got, kept)
        dropped += len(ref.diagnostics) - len(kept.diagnostics)
    assert dropped == 20
    # a side that is a point with infeasible x0 empties its pair's face, so
    # no `degenerate` diagnostic may hold one; 173 of the 400 games keep a
    # face of dimension >= 2 that dominance does not prove empty
    with_face = 0
    for g in integer_games(400):
        faces = [d for d in enumerate_nash(g).diagnostics if d.status == "degenerate"]
        assert all(s.null.shape[1] or _ref_x0_feasible(s) for d in faces for s in d.sides)
        with_face += bool(faces)
    assert with_face == 173


def _lapack_calls(monkeypatch, fn, *args, names=("svd", "slogdet", "solve")):
    """(name, matrix stack, output) of every `np.linalg` call among `names`
    made by fn(*args), in call order."""
    calls = []
    originals = {name: getattr(np.linalg, name) for name in names}

    def recorder(name):
        def record(a, *rest, **kwargs):
            out = originals[name](a, *rest, **kwargs)
            calls.append((name, np.array(a), out))
            return out
        return record

    for name in names:
        monkeypatch.setattr(np.linalg, name, recorder(name))
    try:
        fn(*args)
    finally:
        for name, original in originals.items():
            monkeypatch.setattr(np.linalg, name, original)
    return calls


def _svd_calls(monkeypatch, fn, *args):
    """(matrix, U, s, Vt) of every `np.linalg.svd` call made by fn(*args)."""
    return [(a, *out) for _, a, out in _lapack_calls(monkeypatch, fn, *args,
                                                     names=("svd",))]


def _overdetermined_stack(unit):
    """The D blocks of the overdetermined side of every pair of a support
    with a larger opponent support, of every size in one padded stack as
    the screen builds them, player 1's sides first: (mats, sq, p, q,
    sides), with sides[n] = (own, opp, opp_payoff) for `_ref_side`."""
    tables = [nash._support_table(n) for n in unit.action_counts]
    pays = (unit.payoffs[..., 1], unit.payoffs[..., 0].T)
    parts, p, q, sides = [], [], [], []
    for (sup, rows, size), (opp_sup, opp_rows, opp_size), pay in zip(tables, tables[::-1], pays):
        r, c = np.nonzero(size[:, None] < opp_size)
        parts.append((rows[r], opp_rows[c]))
        p.append(size[r])
        q.append(opp_size[c])
        sides += [(sup[i], opp_sup[j], pay) for i, j in zip(r, c)]
    p, q = np.concatenate(p), np.concatenate(q)
    mats, sq = nash._padded_stack(pays, parts, p, q)
    return mats, sq, p, q, sides


def test_inconsistency_certificate_is_sound():
    # wherever the certificate fires, `_side` must find the equalities
    # inconsistent; the screens see the unit view
    rng = np.random.default_rng(6)
    uniform = [random_game(rng, (n, n), 0.0, 1.0) for n in (4, 5, 6)]
    games = uniform + [random_game(rng, shape, 0.0, 1.0)
                       for shape in ((3, 5), (5, 3), (4, 6))]
    games += [integer_game(rng, shape) for shape in ((3, 5), (5, 3), (4, 6))]
    games += integer_games(400)
    games += _near_degenerate_games((1e-13, 1e-10, 1e-9, 3e-9, 1e-8))
    # the shapes where the padding and the two overdetermined players differ most
    wide = [random_game(rng, shape, 0.0, 1.0) for shape in ((3, 7), (7, 3), (4, 8))]
    uniform += wide
    games += wide
    fired = 0
    for g in games:
        mats, sq, p, q, sides = _overdetermined_stack(unit_view(g))
        cert = nash._certified_inconsistent(sq, np.linalg.slogdet(mats)[1], p, q)
        fired += int(cert.sum())
        for n in np.flatnonzero(cert):
            assert _ref_side(*sides[n]) is None
        # every unbalanced pair of a uniform game is certified
        if any(g is u for u in uniform):
            assert cert.all()
    assert fired > 10000


def _assert_same_side(got, ref):
    """The same `_Side` record, bit for bit."""
    assert got.own == ref.own
    for name in ("x0", "null", "g", "tol"):
        a, b = getattr(got, name), getattr(ref, name)
        assert a.shape == b.shape and np.array_equal(a, b), name


def test_single_sides_closed_form_is_exact():
    # a side of size 1 is consistent iff its payoff differences are within
    # TIE_TOL, and then the SVD's x0 is exactly [1.0]: the closed form gives
    # `_side`'s record bit for bit, and the screen keeps it iff x0 is
    # feasible; the screens see the unit view
    rng = np.random.default_rng(7)
    games = integer_games(400)
    games += _near_degenerate_games((0.0, 1e-13, 1e-10, 1e-9, 3e-9, 1e-8))
    for scale in (1.0, 1e-150, 1e150):
        games += [random_game(rng, (n, n), 0.0, scale) for n in (4, 5, 6)]
    sides = consistent = 0
    for g in games:
        u = unit_view(g)
        m, k = g.action_counts
        for pay, n_opp in ((u.payoffs[..., 1], k), (u.payoffs[..., 0].T, m)):
            opps, rows, _ = nash._support_table(n_opp)
            closed, feasible = nash._single_sides(pay, rows)
            for a in range(len(pay)):
                for c, opp in enumerate(opps):
                    ref = _ref_side((a,), opp, pay)
                    sides += 1
                    if ref is None:
                        assert not closed[a, c]
                        continue
                    consistent += 1
                    assert closed[a, c]
                    _assert_same_side(
                        nash._side_record((a,), opp, pay, *nash._UNIT_POINT[:2]), ref)
                    assert feasible[a, c] == _ref_x0_feasible(ref)
    assert sides > 25000 and 0 < consistent < sides


def _square_stacks(unit):
    """The first sides (player 2's) and the second sides (player 1's) of
    every balanced pair of supports of size >= 2, each kind in one padded
    stack as the screen builds it: (mats, sq, p, side, supports) per kind,
    with side = (own, opp, opp_payoff) as `nash._lu_screen` takes it and
    supports[n] the (own, opp) tuples of `_ref_side`."""
    (sup1, rows1, size1), (sup2, rows2, size2) = (nash._support_table(n)
                                                  for n in unit.action_counts)
    r, c = np.nonzero((size1[:, None] == size2) & (size2 >= 2))
    p = size1[r]
    a_t, b = unit.payoffs[..., 0].T, unit.payoffs[..., 1]
    for side, supports in (((rows2[c], rows1[r], a_t), [(sup2[j], sup1[i]) for i, j in zip(r, c)]),
                           ((rows1[r], rows2[c], b), [(sup1[i], sup2[j]) for i, j in zip(r, c)])):
        mats, sq = nash._padded_stack(side[2:], [side[:2]], p, p)
        yield mats, sq, p, side, supports


def test_lu_screen_is_sound():
    # wherever the LU stage drops a square side, `_side` must return None
    # or a point with infeasible x0; the screens see the unit view
    rng = np.random.default_rng(8)
    games = [random_game(rng, (n, n), 0.0, 1.0) for n in (4, 5, 6)]
    games += integer_games(400)
    games += _near_degenerate_games((1e-13, 1e-10, 1e-9, 3e-9, 1e-8))
    # the shapes where the padding and the two overdetermined players differ most
    games += [random_game(rng, shape, 0.0, 1.0) for shape in ((3, 7), (7, 3), (4, 8))]
    unit = np.finfo(float).eps / 2
    dropped = 0
    for g in games:
        for mats, sq, p, side, supports in _square_stacks(unit_view(g)):
            logdet = np.linalg.slogdet(mats)[1]
            infeasible = nash._lu_screen(mats, logdet, sq, p, side)
            dropped += int(infeasible.sum())
            for n in np.flatnonzero(infeasible):
                assert _ref_proves_empty(_ref_side(*supports[n], side[2]))
            # the LAPACK property the stage relies on, for each unpadded M
            low, frob = nash._square_floor(sq, logdet, p)
            for size in np.unique(p):
                at = p == size
                s_min = np.linalg.svd(mats[at, :size, :size], compute_uv=False)[:, -1]
                assert np.all(s_min >= low[at] - 1e3 * size * unit * frob[at])
    assert dropped > 6000


def _beaten_in(pay, own, opp):
    """True when an action of `own` is beaten against `opp`: some other
    action earns more than nash._BEATEN in pay[own action, opponent action]
    against every action of `opp`."""
    block = pay[:, list(opp)]
    return bool(np.any(np.all(block[:, None, :] - block[None, list(own), :] > nash._BEATEN,
                              axis=-1)))


def _undominated_pairs(unit):
    """(s1, s2) -> True where neither support holds an action beaten
    against the other, for every support pair of a two-player game."""
    a, b = unit.payoffs[..., 0], unit.payoffs[..., 1]
    sup1, sup2 = (nash._support_table(n)[0] for n in unit.action_counts)
    return {(s1, s2): not (_beaten_in(a, s1, s2) or _beaten_in(b.T, s2, s1))
            for s1 in sup1 for s2 in sup2}


def test_dominance_stage_is_sound():
    # wherever the dominance stage drops a pair, the side over the support
    # that a beaten action is beaten against holds no feasible point:
    # `_side` finds it inconsistent or an infeasible point, or an LP over
    # its record proves the face empty; the screens see the unit view
    rng = np.random.default_rng(10)
    games = integer_games(400)
    games += _near_degenerate_games((0.0, 1e-13, 1e-10, 1e-9, 3e-9, 1e-8))
    for scale in (1.0, 1e-150, 1e150):
        games += [random_game(rng, (n, n), 0.0, scale) for n in (4, 5, 6)]
    dropped = by_lp = 0
    for g in games:
        u = unit_view(g)
        a, b = u.payoffs[..., 0], u.payoffs[..., 1]
        (sup1, rows1, _), (sup2, rows2, _) = (nash._support_table(n) for n in g.action_counts)
        alive = nash._undominated(a, b.T, rows1, rows2)
        ref = _undominated_pairs(u)
        assert alive.tolist() == [[ref[s1, s2] for s2 in sup2] for s1 in sup1]
        for r, c in zip(*np.nonzero(~alive)):
            s1, s2 = sup1[r], sup2[c]
            sides = [_ref_side(s2, s1, a.T)] if _beaten_in(a, s1, s2) else []
            if _beaten_in(b.T, s2, s1):
                sides.append(_ref_side(s1, s2, b))
            dropped += 1
            if not any(_ref_proves_empty(side) for side in sides):
                by_lp += 1
                assert any(face_proved_empty(side) for side in sides)
    assert dropped > 30000 and by_lp > 1000
    # row a1 trails a2 by delta against both columns: the pair of full
    # supports is dropped only when delta exceeds the margin
    for delta, drops in ((nash._BEATEN * (1 + 1e-6), True),
                         (nash._BEATEN * (1 - 1e-6), False)):
        a = np.array([[1.0 - delta, 0.0], [1.0, delta]])
        b = np.array([[0.0, 1.0], [1.0, 0.0]])
        g = _two_player(np.stack([a, b], axis=-1))
        u = unit_view(g)
        assert np.array_equal(u.payoffs, g.payoffs)
        rows = nash._support_table(2)[1]
        alive = nash._undominated(a, b.T, rows, rows)
        assert alive[2, 2] != drops
        assert _ref_side((0, 1), (0, 1), a.T) is None


def test_equilibrium_indices_sum_to_one():
    # the index theorem (Shapley 1974): in a nondegenerate bimatrix game with
    # positive payoffs A, B, the indices (-1)^(|I| + 1) sign(det A_IJ det
    # B_IJ) of the equilibria, with supports I and J, sum to +1.  Each index
    # is +-1, so a missing or extra equilibrium breaks the sum: this checks
    # that enumeration is complete at sizes the per-pair reference cannot
    # afford.  Payoffs are those of the unit view plus 1
    shapes = [(n, n) for n in range(2, 9)] + [(3, 5), (5, 3), (4, 7), (7, 4), (2, 8)]
    rng = np.random.default_rng(13)
    games = 0
    for _ in range(170):
        for shape in shapes:
            game = random_game(rng, shape)
            eq = enumerate_nash(game)
            assert eq.components == eq.diagnostics == []
            pay = unit_view(game).payoffs + 1.0
            indices = []
            for profile in eq.isolated:
                i, j = (np.flatnonzero(v) for v in profile.vectors)
                assert len(i) == len(j)
                det = np.linalg.det(pay[np.ix_(i, j)].transpose(2, 0, 1))
                indices.append((-1) ** (len(i) + 1) * int(np.sign(det[0] * det[1])))
            assert sum(indices) == 1
            # dropping any one point breaks the sum
            assert all(sum(indices) - index != 1 for index in indices)
            games += 1
    assert games >= 2000


@pytest.mark.parametrize("shape", [(6, 6), (4, 6)])
def test_only_balanced_pairs_reach_the_svd(monkeypatch, shape):
    # every unbalanced pair of a generic game is certified inconsistent and
    # every square side is decided by its LU factors, so the screen takes no
    # SVD, and the exact stage factors square equality matrices only, one
    # stacks of one shape; pure pairs need no SVD
    game = random_game(np.random.default_rng(6), shape, 0.0, 1.0)
    calls = _svd_calls(monkeypatch, enumerate_nash, game)
    assert all(a.shape[-1] == a.shape[-2] for a, *_ in calls)
    assert len({a.shape[1:] for a, *_ in calls}) == len(calls)
    mixed = [p for p in enumerate_nash(game).isolated
             if max(np.count_nonzero(v) for v in p.vectors) > 1]
    assert bool(calls) == bool(mixed)


# square games by their size; the wide shapes are where the padding and the
# two overdetermined players differ most
SCREEN_SHAPES = ([pytest.param((n, n), id=str(n)) for n in range(3, 9)]
                 + [pytest.param(s, id=f"{s[0]}x{s[1]}") for s in ((3, 7), (7, 3), (4, 8))])


@pytest.mark.parametrize("factor", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("shape", SCREEN_SHAPES)
def test_screen_leaves_only_equilibrium_pairs_to_exact_path(monkeypatch, shape, factor):
    # payoffs in [0, 1] give small singular values; the screens' margins must
    # still be tight enough to decide every pair but the equilibria, at every
    # payoff scale
    pairs = []
    decide = nash._exact_stage

    def record(game, unit, open_pairs):
        pairs.extend(open_pairs)
        return decide(game, unit, open_pairs)

    monkeypatch.setattr(nash, "_exact_stage", record)
    for seed in range(3):
        g = random_game(np.random.default_rng(seed), shape, 0.0, 1.0)
        pairs.clear()
        eq = enumerate_nash(Game(g.players, g.actions, g.payoffs * factor))
        assert eq.components == eq.diagnostics == []
        supports = [tuple(tuple(np.flatnonzero(v)) for v in p.vectors)
                    for p in eq.isolated]
        assert sorted(pairs) == sorted(supports)


def test_empirical_does_no_label_work(monkeypatch):
    # the screen takes no SVD on this game.  One padded stack holds the D
    # blocks of the undominated unbalanced pairs and the first sides of the
    # undominated balanced pairs, of every size, and the 36 pure pairs need
    # no factorization.  A pair whose first side is an infeasible point never
    # has its second side factored: fewer second sides than first sides
    # reach the second stack.  The exact stage takes one SVD stack per
    # support size of the open mixed pairs, both sides of each pair in it,
    # and none for the pure pairs
    game = random_game(np.random.default_rng(0), (6, 6), 0.0, 1.0)
    calls = _lapack_calls(monkeypatch, enumerate_empirical, game)
    eq = enumerate_nash(game)
    sizes = sorted(len(np.flatnonzero(p.vectors[0])) for p in eq.isolated)
    assert sizes == [1, 1, 2, 2, 3]
    assert [a.shape for name, a, _ in calls if name == "svd"] == [(4, 2, 2), (2, 3, 3)]
    # the support sizes of the undominated pairs, smaller first
    sizes = [sorted(map(len, pair))
             for pair, ok in _undominated_pairs(unit_view(game)).items() if ok]
    stacks = [a for name, a, _ in calls if name == "slogdet"]
    assert len(stacks) == 2
    first = sum(s[0] == s[1] >= 2 for s in sizes)
    assert len(stacks[0]) == first + sum(2 <= s[0] < s[1] for s in sizes)
    second = len(stacks[1])
    # of the 887 balanced pairs without a pure support
    assert (first, second) == (102, 19)
    assert eq.components == eq.diagnostics == []


@pytest.mark.parametrize("shape", [(n, n) for n in range(2, 9)] + [(3, 7), (7, 3), (4, 8)],
                         ids=lambda shape: f"{shape[0]}x{shape[1]}")
def test_screen_factors_every_size_in_one_pass(monkeypatch, shape):
    # the D blocks and first sides of every size share one padded stack and
    # the surviving second sides one more, so the screen makes at most two
    # `slogdet` and two `solve` calls per game, and the exact stage none
    factored = 0
    for seed in range(3):
        game = random_game(np.random.default_rng(seed), shape, 0.0, 1.0)
        calls = _lapack_calls(monkeypatch, enumerate_nash, game, names=("slogdet", "solve"))
        for name in ("slogdet", "solve"):
            assert sum(call[0] == name for call in calls) <= 2
        factored += bool(calls)
    # dominance and the closed form decide every pair of these small games
    assert factored or min(shape) <= 3


def test_face_projection_has_no_incentive_slack():
    # with the enumeration's 1e-9 slack the projections of this game's
    # degenerate faces had Nash defect 1.2e-9
    a = [[2, 1, 1], [2, 2, 0], [2, 1, 2]]
    b = [[0, 1, 1], [1, 0, 1], [0, 0, 2]]
    g = Game(["P1", "P2"], {"P1": ["a1", "a2", "a3"], "P2": ["b1", "b2", "b3"]},
             np.stack([a, b], axis=-1).astype(float))
    faces = [d.sides for d in enumerate_nash(g).diagnostics if d.sides]
    assert faces
    rng = np.random.default_rng(5)
    projected = 0
    for _ in range(5):
        p = MixedProfile(g, [rng.dirichlet(np.ones(k)) for k in g.action_counts])
        for sides in faces:
            q = nash._project_face(g, sides, p)
            if q is not None:
                projected += 1
                assert nash_defect(g, q) <= 1e-10
    assert projected


def _grid_distances(comp, profile, ts):
    pts = np.clip(np.concatenate(comp.base)
                  + ts[:, None] * np.concatenate(comp.direction), 0.0, None)
    return np.max(np.abs(pts - profile.stacked()), axis=1)


@pytest.mark.parametrize("name", ["psi", "phi"])
def test_component_distance_is_exact(name):
    game = corpus.get(name)
    (comp,) = enumerate_nash(game).components
    lo, hi = comp.interval
    ts = np.linspace(lo, hi, 100_001)
    step = ts[1] - ts[0]
    rng = np.random.default_rng(12)
    for _ in range(30):
        p = MixedProfile(game, [rng.dirichlet(np.ones(k)) for k in game.action_counts])
        d, t = comp.distance_to(game, p)
        vals = _grid_distances(comp, p, ts)
        assert lo <= t <= hi
        assert d == comp.profile_at(game, t).distance(p)
        assert d <= vals.min() + 1e-12
        # the slopes are at most 1, so no grid point is more than a step off
        assert d >= vals.min() - step


@pytest.mark.parametrize("name", ["psi", "phi"])
def test_component_distance_flat_minimum_takes_smallest_t(name):
    # probes off the component in the fixed player's vector: the distance is
    # flat over every t whose varying vector is at least as close
    game = corpus.get(name)
    (comp,) = enumerate_nash(game).components
    lo, hi = comp.interval
    ts = np.linspace(lo, hi, 100_001)
    step = ts[1] - ts[0]
    fixed = next(i for i, d in enumerate(comp.direction) if not d.any())
    mid = comp.profile_at(game, 0.5 * (lo + hi))
    for shift in (0.02, 0.1, 0.25):
        vecs = [v.copy() for v in mid.vectors]
        top = int(np.argmax(vecs[fixed]))
        vecs[fixed][top] -= shift
        vecs[fixed][top - 1] += shift
        p = MixedProfile(game, vecs)
        d, t = comp.distance_to(game, p)
        vals = _grid_distances(comp, p, ts)
        assert d == pytest.approx(shift, abs=1e-12)
        flat = ts[vals <= d + 1e-12]
        assert flat[-1] - flat[0] > 0.01
        assert flat[0] - step <= t <= flat[0] + 1e-12


def _enumerated_points(game):
    """The isolated equilibria and the profiles at every segment breakpoint."""
    eq = enumerate_nash(game)
    points = list(eq.isolated)
    for comp in eq.components:
        points += [comp.profile_at(game, t) for t in segment_breakpoints(game, comp)]
    return points


def test_enumerated_points_pass_the_nash_test():
    # ties broken at the scale of TIE_TOL: segments cut by a player's own
    # utility gaps end inside the Nash test, which games 74 and 187 once
    # failed (defects 1.167e-9 and 1.154e-9)
    for game in noisy_integer_games(600) + [chained_tie_game()]:
        for p in _enumerated_points(game):
            nash._require_nash(game, p)


def test_chained_tie_segment_ends_at_the_nash_test():
    game = chained_tie_game()
    ends = [comp.profile_at(game, t) for comp in enumerate_nash(game).components
            for t in comp.interval]
    assert ends and all(is_nash(game, p) for p in ends)
    # a1 against b0 is 1.4e-9 below a2: the a0-a1 segment stops short of it
    a1 = MixedProfile.pure(game, {"P1": "a1", "P2": "b0"})
    assert not is_nash(game, a1)
    assert min(p.distance(a1) for p in ends) > 0.4


@pytest.mark.parametrize("alpha", [1e-10, 1e-6, 1e6, 1e10])
def test_nash_test_does_not_depend_on_payoff_scale(alpha):
    for game in corpus_games() + integer_games(40):
        scaled = Game(game.players, game.actions, game.payoffs * alpha)
        pure = [MixedProfile(game, [np.eye(k)[0], np.eye(k2)[-1]])
                for k, k2 in [game.action_counts]]
        points = _enumerated_points(game) + [MixedProfile.uniform(game)] + pure
        answers = [is_nash(game, p) for p in points]
        assert any(answers)
        assert [is_nash(scaled, MixedProfile(scaled, p.vectors)) for p in points] == answers
