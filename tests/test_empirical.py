import itertools

import numpy as np
import pytest

from empeq import corpus
from empeq.empirical import (
    DEFAULT_DELTAS,
    empirical_membership,
    enumerate_empirical,
    reverify_dominance,
)
from empeq.game import MixedProfile, nash_defect
from empeq.monotone import is_m_weakly_payoff_monotone, is_payoff_monotone

from conftest import random_game


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
    """Isolated equilibria, and component points at both ends and inside."""
    report = enumerate_empirical(game, component_grid=3)
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


@pytest.mark.parametrize("m", [1.0, 0.5])
def test_gamma1_verdicts_and_dominance_certificate(m):
    game = corpus.gamma1()
    top = MixedProfile.pure(game, {"P1": "a1", "P2": "b1"})
    bottom = MixedProfile.pure(game, {"P1": "a2", "P2": "b2"})
    _recheck_member(game, top, empirical_membership(game, top, m=m), m)
    verdict = empirical_membership(game, bottom, m=m)
    assert verdict.decision == "non-member"
    assert verdict.refutation.kind == "dominance"
    assert reverify_dominance(game, verdict.refutation) > 0


BAD_SCHEDULES = [(np.nan,), (np.inf,), (-0.1,), (0.0,), (0.1, -1e-3), (0.1, np.nan), ()]


@pytest.mark.parametrize("schedule", BAD_SCHEDULES)
def test_membership_rejects_meaningless_schedules(schedule):
    game = corpus.gamma1()
    top = MixedProfile.pure(game, {"P1": "a1", "P2": "b1"})
    with pytest.raises(ValueError, match="schedule"):
        empirical_membership(game, top, schedule)
    with pytest.raises(ValueError, match="schedule"):
        enumerate_empirical(game, schedule)


@pytest.mark.parametrize("points", [-1, 0, 1])
def test_enumerate_empirical_rejects_component_grid_below_two(points):
    with pytest.raises(ValueError, match="component grid"):
        enumerate_empirical(corpus.psi(), component_grid=points)
