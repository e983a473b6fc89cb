import json
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from empeq.game import (
    Game,
    GameFormatError,
    MixedProfile,
    ProfileError,
    best_responses,
    expected_utility,
    unit_view,
    weak_dominance,
)
from empeq import corpus

from conftest import (corpus_games, integer_games, noisy_integer_games, random_game,
                      random_profile, reference_dominance_report)


def test_expected_utility_gamma1_half_half(gamma1):
    p = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 1.0}, "P2": {"b1": 0.5, "b2": 0.5}}
    )
    eu = expected_utility(gamma1, p, "P1")
    assert eu == pytest.approx([0.5, 0.0], abs=1e-15)


def test_expected_utility_degenerate_column():
    rng = np.random.default_rng(3)
    g = random_game(rng, (3, 4))
    p = MixedProfile.pure(g, {"P1": g.actions["P1"][0], "P2": g.actions["P2"][2]})
    eu = expected_utility(g, p, "P1")
    assert np.allclose(eu, g.payoffs[:, 2, 0])


def test_expected_utility_phi_column(phi):
    p = MixedProfile.pure(phi, {"U": "10", "T": "10"})
    eu = expected_utility(phi, p, "U")
    assert list(eu) == [10.0, 5.0, 0.0]


def test_best_responses_gamma1(gamma1):
    p = MixedProfile.from_dict(gamma1, {"P1": {"a1": 1.0}, "P2": {"b1": 1.0}})
    assert best_responses(gamma1, p, "P1", tol=0.0) == {"a1"}


def test_best_responses_psi_indifference(psi):
    p = MixedProfile.from_dict(psi, {"P1": {"a1": 1.0}, "P2": {"b1": 1.0}})
    assert best_responses(psi, p, "P1", tol=0.0) == {"a1", "a2"}


def test_best_responses_constant_game():
    g = Game(
        ["P1", "P2"],
        {"P1": ["x", "y"], "P2": ["u", "v"]},
        np.zeros((2, 2, 2)),
    )
    p = MixedProfile.uniform(g)
    assert best_responses(g, p, "P1", tol=0.0) == {"x", "y"}


def test_best_responses_rejects_negative_tol(gamma1):
    with pytest.raises(ValueError):
        best_responses(gamma1, MixedProfile.uniform(gamma1), 0, tol=-1.0)


def test_weak_dominance_gamma2c():
    for c in (0.5, 1.0, 2.0, 7.5):
        g = corpus.gamma2c(c, c)
        rep = weak_dominance(g)
        assert ("a3", "a2") in {(d.dominated, d.dominating) for d in rep.pairs["P1"]}
        assert ("b3", "b2") in {(d.dominated, d.dominating) for d in rep.pairs["P2"]}


def test_weak_dominance_psi(psi):
    rep = weak_dominance(psi)
    assert {(d.dominated, d.dominating) for d in rep.pairs["P1"]} == {("a2", "a1")}
    assert {(d.dominated, d.dominating) for d in rep.pairs["P2"]} == {("b2", "b1")}


def test_weak_dominance_constant_game_empty():
    g = Game(
        ["P1", "P2"],
        {"P1": ["x", "y"], "P2": ["u", "v"]},
        np.full((2, 2, 2), 3.0),
    )
    assert weak_dominance(g).pairs == {"P1": (), "P2": ()}


def test_weak_dominance_is_computed_once_per_game(phi):
    rep = weak_dominance(phi)
    assert weak_dominance(phi) is rep
    fresh = weak_dominance(Game(phi.players, phi.actions, phi.payoffs))
    assert fresh is not rep
    assert fresh.pairs == rep.pairs


def test_unit_view_maps_each_player_to_unit_range(phi):
    # P1's payoffs span more than the largest double; P2 is constant
    pay = np.stack([[[1e308, -1e308], [0.0, 1e308]], np.full((2, 2), 7.0)], axis=-1)
    g = Game(["P1", "P2"], {"P1": ["a1", "a2"], "P2": ["b1", "b2"]}, pay)
    assert np.array_equal(unit_view(g).payoffs[..., 0], [[1.0, 0.0], [0.5, 1.0]])
    assert np.array_equal(unit_view(g).payoffs[..., 1], np.zeros((2, 2)))
    assert unit_view(phi) is unit_view(phi)
    assert unit_view(phi).payoffs.min() == 0.0 and unit_view(phi).payoffs.max() == 1.0
    assert np.array_equal(unit_view(phi).payoffs, (phi.payoffs - [0, 15]) / [20, 15])


def test_weak_dominance_witness_is_strict(phi):
    rep = weak_dominance(phi)
    for p in phi.players:
        for pair in rep.pairs[p]:
            # p's utilities against the witness's pure opponent profile
            u = expected_utility(phi, MixedProfile.pure(phi, {**pair.witness, p: pair.dominated}), p)
            assert u[phi.action_index(p, pair.dominating)] > u[phi.action_index(p, pair.dominated)]


def _small_integer_games(seed, players, count):
    """Games with payoffs in {0, 1, 2} and 2 to 3 actions per player, so
    that ties and dominance pairs occur."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        shape = tuple(int(k) for k in rng.integers(2, 4, size=players))
        names = [f"P{i + 1}" for i in range(players)]
        out.append(Game(names, {p: [f"{p}x{j}" for j in range(k)] for p, k in zip(names, shape)},
                        rng.integers(0, 3, size=shape + (players,)).astype(float)))
    return out


def test_weak_dominance_matches_the_pair_loop():
    # pairs, their order and their witnesses
    games = (corpus_games() + integer_games(400) + noisy_integer_games(100)
             + _small_integer_games(17, 3, 60) + _small_integer_games(19, 1, 20))
    for g in games:
        assert weak_dominance(g).indexed == reference_dominance_report(g)


def test_weak_dominance_of_many_tied_actions_is_fast():
    # the pair loop took seconds here: a million pairs, none dominated
    g = Game(["P1"], {"P1": [f"a{j}" for j in range(1000)]}, np.zeros((1000, 1)))
    t0 = time.perf_counter()
    rep = weak_dominance(g)
    assert time.perf_counter() - t0 < 0.1
    assert rep.pairs == {"P1": ()}


def test_profile_rejects_negative(gamma1):
    with pytest.raises(ProfileError):
        MixedProfile(gamma1, [np.array([1.1, -0.1]), np.array([0.5, 0.5])])


def test_profile_clamps_and_renormalizes(gamma1):
    p = MixedProfile(gamma1, [np.array([1.0, -1e-13]), np.array([0.25, 0.25])])
    assert p.vectors[0][1] == 0.0
    assert p.vectors[1].sum() == pytest.approx(1.0, abs=1e-15)
    assert p.vectors[1][0] == pytest.approx(0.5)


def test_profile_interior_flag(gamma1):
    assert MixedProfile.uniform(gamma1).is_interior
    assert not MixedProfile.pure(gamma1, {"P1": "a1", "P2": "b1"}).is_interior


def test_profile_shape_mismatch(gamma1, phi):
    p = MixedProfile.uniform(phi)
    with pytest.raises(ProfileError):
        expected_utility(gamma1, p, 0)


def test_game_requires_actions():
    with pytest.raises(GameFormatError):
        Game(["P1"], {"P1": []}, np.zeros((0, 1)))


def test_game_rejects_nonfinite():
    with pytest.raises(GameFormatError):
        Game(["P1"], {"P1": ["x"]}, np.array([[np.inf]]))


# -- file format -------------------------------------------------------


def test_round_trip_corpus_files():
    for g in (corpus.gamma1(), corpus.psi(), corpus.gamma2c(2, 2), corpus.phi()):
        text = g.to_json()
        again = Game.from_json(text)
        assert again == g
        assert again.to_json() == text


def test_loader_accepts_decimal_strings(gamma1):
    doc = json.loads(gamma1.to_json())
    for rec in doc["payoffs"]:
        rec["u"] = {p: str(v) for p, v in rec["u"].items()}
    g = Game.from_json(json.dumps(doc))
    assert g == gamma1


def test_loader_rejects_duplicate_record(gamma1):
    doc = json.loads(gamma1.to_json())
    doc["payoffs"].append(doc["payoffs"][0])
    with pytest.raises(GameFormatError, match="duplicate"):
        Game.from_json(json.dumps(doc))


def test_loader_rejects_missing_record(gamma1):
    doc = json.loads(gamma1.to_json())
    doc["payoffs"].pop()
    with pytest.raises(GameFormatError, match="no payoff record"):
        Game.from_json(json.dumps(doc))


@pytest.mark.parametrize("player", ["P1", "P2"])
@pytest.mark.parametrize("value", [float("nan"), "nan", float("inf"), "-Infinity", "abc", None])
def test_loader_rejects_a_utility_that_is_not_a_finite_number(gamma1, value, player):
    # a NaN once passed as a missing record: "0 pure profiles have no
    # payoff record"
    doc = json.loads(gamma1.to_json())
    doc["payoffs"][2]["u"][player] = value
    message = f"^payoff record 2: utility .* for '{player}' is not a finite number$"
    with pytest.raises(GameFormatError, match=message):
        Game.from_json(json.dumps(doc))


def test_loader_rejects_unknown_action(gamma1):
    doc = json.loads(gamma1.to_json())
    doc["payoffs"][0]["profile"]["P1"] = "zz"
    with pytest.raises(GameFormatError):
        Game.from_json(json.dumps(doc))


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["payoffs"][0].pop("u"),
     "payoff record 0: needs 'profile' and 'u' objects"),
    (lambda doc: doc["payoffs"][1]["profile"].pop("P2"),
     "payoff record 1: no action for player 'P2'"),
    (lambda doc: doc["payoffs"][0]["profile"].update(P1="zz"),
     "payoff record 0: unknown action 'zz' for player 'P1'"),
    (lambda doc: doc["payoffs"][0]["profile"].update(P2=7),
     "payoff record 0: unknown action 7 for player 'P2'"),
    (lambda doc: doc["payoffs"].append(doc["payoffs"][3]),
     "payoff record 4: duplicate profile {'P1': 'a2', 'P2': 'b2'}"),
    (lambda doc: doc["payoffs"][2]["u"].pop("P2"),
     "payoff record 2: missing utility for 'P2'"),
    # float() of an integer past the largest double raises OverflowError
    (lambda doc: doc["payoffs"][3]["u"].update(P1=10**400),
     f"payoff record 3: utility {10**400!r} for 'P1' is not a finite number"),
    (lambda doc: doc["payoffs"].pop(), "1 pure profiles have no payoff record"),
], ids=["no-u", "no-player", "unknown-action", "non-string-action", "duplicate",
        "no-utility", "overflow", "missing-record"])
def test_loader_messages_name_the_record(gamma1, edit, message):
    doc = json.loads(gamma1.to_json())
    edit(doc)
    with pytest.raises(GameFormatError) as exc:
        Game.from_json(json.dumps(doc))
    assert str(exc.value) == message


@pytest.mark.parametrize("edit", [
    lambda doc: doc.update(actions=["a"]),
    lambda doc: doc["payoffs"].__setitem__(0, 3),
    lambda doc: doc.update(players="P1"),
    lambda doc: doc["payoffs"][0].update(profile="x"),
    lambda doc: doc["payoffs"][0].update(u=3),
    lambda doc: doc["actions"].update(P1="ab"),
    lambda doc: doc.update(players=["P1", "P3"]),
])
def test_loader_rejects_malformed_shapes(edit):
    # one-letter labels, so that the string "ab" reads as a valid action list
    game = Game(["P1", "P2"], {"P1": ["a", "b"], "P2": ["c", "d"]}, np.zeros((2, 2, 2)))
    doc = json.loads(game.to_json())
    edit(doc)
    with pytest.raises(GameFormatError):
        Game.from_json(json.dumps(doc))


def test_loader_rejects_a_file_that_is_not_an_object():
    with pytest.raises(GameFormatError):
        Game.from_json("3")


@pytest.mark.parametrize("mapping", [
    [1, 2], {"P1": [0.5, 0.5]}, {"P1": {"a1": None}, "P2": {"b1": 1.0}},
])
def test_profile_from_dict_rejects_malformed_shapes(mapping, gamma1):
    with pytest.raises(ProfileError):
        MixedProfile.from_dict(gamma1, mapping)


# -- properties --------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), alpha=st.sampled_from([0.0, 0.25, 0.5, 1.0]))
def test_expected_utility_linear_in_each_player(seed, alpha):
    rng = np.random.default_rng(seed)
    g = random_game(rng)
    p = random_profile(g, rng)
    q_vec = rng.dirichlet(np.ones(g.action_counts[1]))
    q = p.replace(1, q_vec)
    mix = p.replace(1, alpha * p.vectors[1] + (1 - alpha) * q_vec)
    for i in range(2):
        left = expected_utility(g, mix, i)
        right = alpha * expected_utility(g, p, i) + (1 - alpha) * expected_utility(
            g, q, i
        )
        assert np.allclose(left, right, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), lam=st.floats(0.1, 50.0))
def test_scaling_payoffs_scales_utilities(seed, lam):
    rng = np.random.default_rng(seed)
    g = random_game(rng)
    scaled_payoffs = g.payoffs.copy()
    scaled_payoffs[..., 0] *= lam
    g2 = Game(g.players, g.actions, scaled_payoffs)
    p = random_profile(g, rng)
    p2 = MixedProfile(g2, [v.copy() for v in p.vectors])
    assert np.allclose(
        expected_utility(g2, p2, 0), lam * expected_utility(g, p, 0), atol=1e-9
    )
    assert best_responses(g2, p2, 0, tol=1e-12) == best_responses(g, p, 0, tol=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_dominance_irreflexive_and_strict_transitive(seed):
    rng = np.random.default_rng(seed)
    # small integer payoffs so dominance pairs actually occur
    shape = tuple(rng.integers(2, 4, size=2))
    payoffs = rng.integers(0, 3, size=shape + (2,)).astype(float)
    g = Game(
        ["P1", "P2"],
        {"P1": [f"r{j}" for j in range(shape[0])],
         "P2": [f"c{j}" for j in range(shape[1])]},
        payoffs,
    )
    rep = weak_dominance(g)
    for p in g.players:
        pairs = {(d.dominated, d.dominating) for d in rep.pairs[p]}
        for dominated, dominating in pairs:
            assert dominated != dominating
        # strict part: dominance relations never form a 2-cycle
        for d, gting in pairs:
            assert (gting, d) not in pairs
        # and chains compose
        for d1, g1 in pairs:
            for d2, g2 in pairs:
                if g1 == d2:
                    assert (d1, g2) in pairs
