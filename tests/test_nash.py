from itertools import combinations

import numpy as np
import pytest

from empeq import corpus, nash
from empeq.game import Game, MixedProfile, nash_defect
from empeq.nash import (
    EquilibriumSet,
    UnsupportedGameError,
    check_perfect,
    check_proper,
    enumerate_nash,
    filter_undominated,
    is_epsilon_perfect,
    is_epsilon_proper,
    nearest_nash,
    undominated_flag,
)

from conftest import random_game


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
    for t, prof in comp.grid(psi, 11):
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
    for _, prof in comp.grid(phi, 21):
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


def test_affine_invariance():
    rng = np.random.default_rng(5)
    for _ in range(10):
        g = random_game(rng, (3, 3))
        scale = float(rng.uniform(0.5, 3.0))
        shift = float(rng.uniform(-5, 5))
        payoffs = g.payoffs.copy()
        payoffs[..., 0] = scale * payoffs[..., 0] + shift
        g2 = Game(g.players, g.actions, payoffs)
        eq1 = enumerate_nash(g)
        eq2 = enumerate_nash(g2)
        assert len(eq1.isolated) == len(eq2.isolated)
        assert len(eq1.components) == len(eq2.components)
        for p, q in zip(eq1.isolated, eq2.isolated):
            assert p.distance(q) <= 1e-7


def test_enumerated_profiles_are_nash():
    rng = np.random.default_rng(9)
    for _ in range(25):
        g = random_game(rng)
        eq = enumerate_nash(g)
        assert eq.isolated or eq.components, "every finite game has an equilibrium"
        for p in eq.isolated:
            assert nash_defect(g, p) <= 1e-8
        for comp in eq.components:
            for _, prof in comp.grid(g, 7):
                assert nash_defect(g, prof) <= 1e-7


# -- refinements ---------------------------------------------------------


def test_undominated_gamma2c(gamma2c22):
    eq = enumerate_nash(gamma2c22)
    rep = filter_undominated(gamma2c22, eq)
    flagged = {
        _label(gamma2c22, p): f for p, f in zip(eq.isolated, rep.isolated_flags)
    }
    assert flagged == {
        ("a1", "b1"): True,
        ("a2", "b2"): True,
        ("a3", "b3"): False,
    }


def test_undominated_phi_unique(phi):
    eq = enumerate_nash(phi)
    rep = filter_undominated(phi, eq)
    flagged = [
        _label(phi, p) for p, f in zip(eq.isolated, rep.isolated_flags) if f
    ]
    assert flagged == [("10", "10")]
    # every point of the component plays the dominated bid 15
    assert rep.component_regions == [[]]


def test_undominated_no_dominance_all_pass():
    g = Game(
        ["P1", "P2"],
        {"P1": ["H", "T"], "P2": ["H", "T"]},
        np.array([[[1, -1], [-1, 1]], [[-1, 1], [1, -1]]], dtype=float),
    )
    eq = enumerate_nash(g)
    rep = filter_undominated(g, eq)
    assert all(rep.isolated_flags)


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
    for _, prof in full[0].grid(g, 11):
        assert nash_defect(g, prof) <= 1e-9


def _integer_games(count):
    # payoffs in {0, 1, 2}; sizes cycle through 2, 3, 3, 4
    rng = np.random.default_rng(11)
    out = []
    for i in range(count):
        n = (2, 3, 3, 4)[i % 4]
        pay = rng.integers(0, 3, size=(n, n, 2)).astype(float)
        out.append(Game(["P1", "P2"], {"P1": [f"a{j}" for j in range(n)],
                                       "P2": [f"b{j}" for j in range(n)]}, pay))
    return out


def _per_pair_reference(game):
    """Support enumeration without the batched screen: the exact decision
    for every support pair, in the order (|s1|, s1, |s2|, s2)."""
    def supports(n):
        return sorted((s for r in range(1, n + 1) for s in combinations(range(n), r)),
                      key=lambda s: (len(s), s))

    scale = float(np.max(np.abs(game.payoffs))) or 1.0
    out = EquilibriumSet([], [], [])
    m, k = game.action_counts
    for s1 in supports(m):
        for s2 in supports(k):
            nash._solve_pair(game, s1, s2, scale, out)
    out.isolated, out.components = nash._dedupe(game, out.isolated, out.components)
    return out


def test_enumeration_matches_per_pair_reference():
    rng = np.random.default_rng(4)
    games = [random_game(rng, (n, n)) for n in (4, 4, 4, 5, 5, 6, 6)]
    # the first 48 integer games hold five segments that a tolerance fault
    # once dropped; the 3x3 game below held another
    games += _integer_games(48)
    a = [[2, 2, 1], [2, 2, 0], [2, 2, 2]]
    b = [[2, 1, 1], [1, 0, 1], [0, 2, 1]]
    games.append(Game(["P1", "P2"], {"P1": ["a1", "a2", "a3"], "P2": ["b1", "b2", "b3"]},
                      np.stack([a, b], axis=-1).astype(float)))
    # the only equilibrium puts weight 1e-7/(1 + 1e-7) on a1
    games.append(Game(["P1", "P2"], {"P1": ["a1", "a2"], "P2": ["b1", "b2"]},
                      np.stack([[[1, 0], [0, 1]], [[0, 1], [1e-7, 0]]], axis=-1)))
    for g in games:
        got, ref = enumerate_nash(g), _per_pair_reference(g)
        assert ([(d.support, d.status, d.detail) for d in got.diagnostics]
                == [(d.support, d.status, d.detail) for d in ref.diagnostics])
        assert len(got.isolated) == len(ref.isolated)
        for p, q in zip(got.isolated, ref.isolated):
            assert p.distance(q) <= 1e-12
        assert [c.support for c in got.components] == [c.support for c in ref.components]
        for c, r in zip(got.components, ref.components):
            assert np.allclose(c.interval, r.interval, rtol=0, atol=1e-12)
            for u, v in zip(c.base + c.direction, r.base + r.direction):
                assert np.allclose(u, v, rtol=0, atol=1e-12)


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
