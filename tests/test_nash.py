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
    nearest_nash,
    segment_breakpoints,
    undominated_flag,
)

from conftest import (
    corpus_games,
    integer_game,
    integer_games,
    per_pair_reference,
    random_game,
    recheck_mixed_dominance,
    reference_perfect_search,
    segment_grid,
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
    rng = np.random.default_rng(0)
    g = random_game(rng, (70, 70))
    with pytest.raises(UnsupportedGameError):
        enumerate_nash(g)


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
                assert undominated_flag(game, p) == e["undominated"]
                assert check_perfect(game, p).status == e["perfect"]
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


def test_refinement_rejects_non_nash(gamma1):
    p = MixedProfile.uniform(gamma1)
    with pytest.raises(ValueError):
        check_perfect(gamma1, p)
    with pytest.raises(ValueError):
        check_proper(gamma1, p)


BAD_SCHEDULES = [(np.nan,), (np.inf,), (-0.1,), (0.0,), (0.1, -1e-3), ()]


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
    for g in games:
        _assert_same_equilibria(enumerate_nash(g), per_pair_reference(g))
    # a side that is a point with infeasible x0 empties its pair's face, so
    # no `degenerate` diagnostic may hold one; 191 of the 400 games keep a
    # face of dimension >= 2
    with_face = 0
    for g in integer_games(400):
        faces = [d for d in enumerate_nash(g).diagnostics if d.status == "degenerate"]
        assert all(s.null.shape[1] or s.x0_feasible for d in faces for s in d.sides)
        with_face += bool(faces)
    assert with_face == 191


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


def _overdetermined_sides(game):
    """(own, opp_classes, opp_payoff) for each size p and player: the
    player's supports of size p, the opponent's larger size classes, and
    the payoffs that the own side equalizes."""
    m, k = game.action_counts
    classes1, classes2 = nash._support_classes(m), nash._support_classes(k)
    for p in range(1, min(m, k) + 1):
        yield classes1[p - 1], classes2[p:], game.payoffs[..., 1]
        yield classes2[p - 1], classes1[p:], game.payoffs[..., 0].T


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
    fired = 0
    for g in games:
        for own, opp_classes, opp_payoff in _overdetermined_sides(unit_view(g)):
            if not opp_classes:
                continue
            d = nash._d_blocks(own, opp_classes, opp_payoff)
            q = np.repeat([c.shape[1] for c in opp_classes],
                          [len(c) for c in opp_classes])
            logdet = np.linalg.slogdet(d)[1]
            cert = nash._certified_inconsistent(d, logdet, q)
            fired += int(cert.sum())
            opps = nash._flat_supports(opp_classes)
            for r, c in zip(*np.nonzero(cert)):
                assert nash._side(tuple(own[r]), opps[c], opp_payoff) is None
            # every unbalanced pair of a uniform game is certified
            if any(g is u for u in uniform):
                assert cert.all()
    assert fired > 10000


def test_single_sides_are_sound():
    # wherever the closed form drops a side of size 1, `_side` must return
    # None or a point with infeasible x0; the screens see the unit view
    rng = np.random.default_rng(7)
    games = [random_game(rng, (n, n), 0.0, 1.0) for n in (4, 5, 6)]
    games += [integer_game(rng, shape) for shape in ((3, 5), (5, 3))]
    games += integer_games(400)
    games += _near_degenerate_games((1e-13, 1e-10, 1e-9, 3e-9, 1e-8))
    dropped = 0
    for g in games:
        u = unit_view(g)
        m, k = g.action_counts
        for pay, n_opp in ((u.payoffs[..., 1], k), (u.payoffs[..., 0].T, m)):
            classes = nash._support_classes(n_opp)
            keep = nash._single_sides(pay, classes)
            opps = nash._flat_supports(classes)
            for a, c in zip(*np.nonzero(~keep)):
                assert nash._proves_empty(nash._side((a,), opps[c], pay))
            dropped += int((~keep).sum())
    assert dropped > 15000


def _square_sides(game):
    """(first, second) side stacks (own, opp, opp_payoff) of the balanced
    pairs of each size p >= 2, in the order the screen decides them."""
    m, k = game.action_counts
    classes1, classes2 = nash._support_classes(m), nash._support_classes(k)
    for p in range(2, min(m, k) + 1):
        c1, c2 = classes1[p - 1], classes2[p - 1]
        i, j = np.divmod(np.arange(len(c1) * len(c2)), len(c2))
        yield ((c2[j], c1[i], game.payoffs[..., 0].T),
               (c1[i], c2[j], game.payoffs[..., 1]))


def test_lu_screen_is_sound():
    # wherever the LU stage drops a square side, `_side` must return None
    # or a point with infeasible x0; the screens see the unit view
    rng = np.random.default_rng(8)
    games = [random_game(rng, (n, n), 0.0, 1.0) for n in (4, 5, 6)]
    games += integer_games(400)
    games += _near_degenerate_games((1e-13, 1e-10, 1e-9, 3e-9, 1e-8))
    unit = np.finfo(float).eps / 2
    dropped = 0
    for g in games:
        for sides in _square_sides(unit_view(g)):
            for own, opp, opp_payoff in sides:
                a = nash._equality_matrices(own, opp, opp_payoff)
                logdet = np.linalg.slogdet(a)[1]
                infeasible = nash._lu_screen(a, logdet, (own, opp, opp_payoff))
                dropped += int(infeasible.sum())
                for n in np.flatnonzero(infeasible):
                    assert nash._proves_empty(
                        nash._side(tuple(own[n]), tuple(opp[n]), opp_payoff))
                # the LAPACK property the stage relies on
                p = a.shape[-1]
                low, frob = nash._square_floor(a, logdet)
                s_min = np.linalg.svd(a, compute_uv=False)[:, -1]
                assert np.all(s_min >= low - 1e3 * p * unit * frob)
    assert dropped > 6000


@pytest.mark.parametrize("shape", [(6, 6), (4, 6)])
def test_only_balanced_pairs_reach_the_svd(monkeypatch, shape):
    # every unbalanced pair of a generic game is certified inconsistent and
    # every square side is decided by its LU factors, so the screen takes no
    # SVD, and the exact path factors square equality matrices only
    game = random_game(np.random.default_rng(6), shape, 0.0, 1.0)
    calls = _svd_calls(monkeypatch, enumerate_nash, game)
    assert calls
    assert all(a.ndim == 2 and a.shape[0] == a.shape[1] for a, *_ in calls)


@pytest.mark.parametrize("factor", [1.0, 1e-150, 1e150])
@pytest.mark.parametrize("n", range(3, 9))
def test_screen_leaves_only_equilibrium_pairs_to_exact_path(monkeypatch, n, factor):
    # payoffs in [0, 1] give small singular values; the screens' margins must
    # still be tight enough to decide every pair but the equilibria, at every
    # payoff scale
    pairs = []
    solve = nash._solve_pair

    def record(game, s1, s2, out):
        pairs.append((s1, s2))
        solve(game, s1, s2, out)

    monkeypatch.setattr(nash, "_solve_pair", record)
    for seed in range(3):
        g = random_game(np.random.default_rng(seed), (n, n), 0.0, 1.0)
        pairs.clear()
        eq = enumerate_nash(Game(g.players, g.actions, g.payoffs * factor))
        assert eq.components == eq.diagnostics == []
        supports = [tuple(tuple(np.flatnonzero(v)) for v in p.vectors)
                    for p in eq.isolated]
        assert sorted(pairs) == sorted(supports)


def test_empirical_does_no_label_work(monkeypatch):
    # the screen takes no SVD on this game.  Each size p >= 2 factors its
    # balanced first sides in one LU stack, together with the D blocks of
    # its unbalanced pairs, and the 36 pure pairs need no factorization.  A
    # pair whose first side is an infeasible point never has its second
    # side factored: fewer second sides than first sides reach the LU
    game = random_game(np.random.default_rng(0), (6, 6), 0.0, 1.0)
    calls = _lapack_calls(monkeypatch, enumerate_empirical, game)
    assert all(a.ndim == 2 for name, a, _ in calls if name == "svd")
    classes = nash._support_classes(6)
    first = second = 0
    for p in range(2, 7):
        stacks = [len(a) for name, a, _ in calls
                  if name == "slogdet" and a.shape[-1] == p]
        assert len(stacks) <= 2
        first += stacks[0] - 2 * len(classes[p - 1]) * sum(len(c) for c in classes[p:])
        second += sum(stacks[1:])
    assert first == 923 - 36
    assert second < first / 10
    eq = enumerate_nash(game)
    assert len(eq.isolated) == 5
    assert eq.components == eq.diagnostics == []


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
