from itertools import combinations

import numpy as np
import pytest

from empeq import corpus, nash
from empeq.game import Game, MixedProfile
from empeq.qre import QreConvergenceError, logistic_profile, qre_fixed_point


@pytest.fixture
def gamma1():
    return corpus.gamma1()


@pytest.fixture
def psi():
    return corpus.psi()


@pytest.fixture
def gamma2c22():
    return corpus.gamma2c(2, 2)


@pytest.fixture
def phi():
    return corpus.phi()


def corpus_games():
    return [
        corpus.gamma1(),
        corpus.psi(),
        corpus.gamma2c(2, 2),
        corpus.gamma2c(0.5, 0.5),
        corpus.phi(),
    ]


def random_game(rng, shape=None, lo=-10.0, hi=10.0):
    if shape is None:
        shape = tuple(rng.integers(2, 5, size=2))
    players = [f"P{i + 1}" for i in range(len(shape))]
    actions = {p: [f"{p}x{j}" for j in range(k)] for p, k in zip(players, shape)}
    payoffs = rng.uniform(lo, hi, size=tuple(shape) + (len(shape),))
    return Game(players, actions, payoffs)


def random_monotone_profile(game, rng, max_tries=12):
    """Interior payoff-monotone profile: a logistic QRE at a random lambda."""
    for _ in range(max_tries):
        lam = float(rng.uniform(0.05, 2.5))
        try:
            pt = qre_fixed_point(game, logistic_profile(game, lam))
        except QreConvergenceError:
            continue
        from empeq.monotone import is_payoff_monotone

        if pt.profile.is_interior and is_payoff_monotone(game, pt.profile).satisfied:
            return pt.profile
    return None


def random_profile(game, rng):
    return MixedProfile(
        game, [rng.dirichlet(np.ones(k)) for k in game.action_counts]
    )


def per_pair_reference(game):
    """Support enumeration without the batched screen: the exact decision
    for every support pair, in the order (|s1|, s1, |s2|, s2)."""
    def supports(n):
        return sorted((s for r in range(1, n + 1) for s in combinations(range(n), r)),
                      key=lambda s: (len(s), s))

    scale = float(np.max(np.abs(game.payoffs))) or 1.0
    out = nash.EquilibriumSet([], [], [])
    m, k = game.action_counts
    for s1 in supports(m):
        for s2 in supports(k):
            nash._solve_pair(game, s1, s2, scale, out)
    out.isolated, out.components = nash._dedupe(game, out.isolated, out.components)
    return out
