from itertools import combinations

import numpy as np
import pytest

from empeq import corpus, empirical, nash, search
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


def segment_grid(game, comp, points=101):
    """(t, profile) at `points` evenly spaced parameters of a segment, its
    ends included."""
    lo, hi = comp.interval
    return [(float(t), comp.profile_at(game, float(t))) for t in np.linspace(lo, hi, points)]


def per_pair_reference(game):
    """Support enumeration without the batched screen: the exact decision
    for every support pair, on the game's unit view, in the order
    (|s1|, s1, |s2|, s2)."""
    def supports(n):
        return sorted((s for r in range(1, n + 1) for s in combinations(range(n), r)),
                      key=lambda s: (len(s), s))

    out = nash.EquilibriumSet([], [], [])
    m, k = game.action_counts
    for s1 in supports(m):
        for s2 in supports(k):
            nash._solve_pair(game, s1, s2, out)
    out.isolated, out.components = nash._dedupe(game, out.isolated, out.components)
    return out


def integer_game(rng, shape):
    """Two-player game with payoffs in {0, 1, 2}."""
    m, k = shape
    return Game(["P1", "P2"], {"P1": [f"a{j}" for j in range(m)],
                               "P2": [f"b{j}" for j in range(k)]},
                rng.integers(0, 3, size=(m, k, 2)).astype(float))


def integer_games(count):
    # payoffs in {0, 1, 2}; sizes cycle through 2, 3, 3, 4
    rng = np.random.default_rng(11)
    return [integer_game(rng, ((2, 3, 3, 4)[i % 4],) * 2) for i in range(count)]


# ---------------------------------------------------------------------------
# reference membership: the delta-box searches that the closure test replaced


def _forced_prob_pairs(candidate_vec, delta):
    """Pairs whose probability order cannot flip inside the max-norm ball."""
    v = np.asarray(candidate_vec)
    return {(a, b) for a in range(len(v)) for b in range(len(v))
            if a != b and v[a] - v[b] > 2 * delta}


def _add_cross_strict_rows(lp, levels, coefs=None):
    """Strict rows for every pair across distinct levels, no tie equalities:
    strictly-more-played pairs need strictly higher value."""
    for i in range(len(levels)):
        for j in range(i + 1, len(levels)):
            for a in levels[i]:
                for b in levels[j]:
                    lp.add_strict(search._vec_of(lp.n, coefs, a)
                                  - search._vec_of(lp.n, coefs, b))


def reference_pattern_search(game, candidate, delta, m=1.0, refute_mode=False):
    """Search for interior monotone profiles (m = 1: payoff-monotone; m < 1:
    m-weakly monotone) within `delta`; in refute mode, certify that not even
    boundary profiles of the matching monotonicity notion exist there.
    Weak orders are ranked per player, and only up to
    `search.MAX_EXHAUSTIVE_ACTIONS` actions."""
    s_feas = max(1e-12, min(1e-8, 1e-2 * delta))
    s_refute = s_feas * 1e-3
    pats = []
    for i in range(2):
        prob_forced = _forced_prob_pairs(candidate.vectors[i], delta)
        util_forced = search.forced_util_pairs(game, candidate, i, delta)
        dom = search.dominance_pairs(game, i)
        if m == 1.0 and not refute_mode:
            strict, weak = prob_forced | util_forced | dom, set()
        elif m == 1.0:
            strict, weak = prob_forced, util_forced | dom
        elif not refute_mode:
            strict, weak = util_forced | dom, set()
        else:
            strict, weak = util_forced, dom
        orders = search._sorted_orders(game, candidate, i, strict, weak)
        if orders is None:
            return search.PatternOutcome(search.OUTCOME_OPEN, None, 0)
        pats.append(orders)

    def build_lp(i, own, opp):
        lp = search._base_lp(candidate.vectors[i], delta)
        if refute_mode:
            lp.strict = []  # boundary profiles count as well
        if m == 1.0:
            search.add_order_rows(lp, own)
        else:
            search.add_m_fraction_rows(lp, own, m)
        coefs = search._util_coefs(game, i)
        if m == 1.0 and refute_mode:
            _add_cross_strict_rows(lp, opp, coefs=coefs)
        else:
            search.add_order_rows(lp, opp, coefs=coefs)
        return lp

    return search._run_patterns(game, candidate, pats[0], pats[1], build_lp,
                                s_feas, s_refute)


def reference_membership(game, profile, delta_schedule=empirical.DEFAULT_DELTAS,
                         m=1.0):
    """Two-player membership decided at the smallest delta: dominance, a
    witness search, then a refutation search.  Returns the decision."""
    delta = min(delta_schedule)
    if empirical._dominance_refutation(game, profile, m) is not None and m > 0.0:
        return empirical.NON_MEMBER
    out = reference_pattern_search(game, profile, delta, m=m)
    witness = out.witness if out.outcome == search.OUTCOME_FEASIBLE else None
    if search.witness_ok(game, witness, profile, delta, m):
        return empirical.MEMBER
    ref = reference_pattern_search(game, profile, delta, m=m, refute_mode=True)
    if ref.outcome == search.OUTCOME_REFUTED:
        return empirical.NON_MEMBER
    return empirical.INCONCLUSIVE


# ---------------------------------------------------------------------------
# reference perfection: the best-response-set search that the best-reply
# LPs replaced


def reference_perfect_search(game, candidate, eps, delta):
    """Interior profile within delta whose non-best-response actions all
    carry probability at most eps; best-response sets are enumerated, up to
    `search.MAX_EXHAUSTIVE_ACTIONS + 3` actions.  Exhaustion does not refute
    perfection, so it ends "open"."""
    s_feas = max(1e-12, min(1e-8, 1e-3 * eps))
    s_refute = s_feas * 1e-3
    pats = []
    for i in range(2):
        k = game.action_counts[i]
        if k > search.MAX_EXHAUSTIVE_ACTIONS + 3:
            return search.PatternOutcome(search.OUTCOME_OPEN, None, 0)
        core = set(np.flatnonzero(candidate.vectors[i] > eps + delta).tolist())
        subsets = (tuple(a for a in range(k) if mask >> a & 1) for mask in range(1, 1 << k))
        pats.append(sorted((b for b in subsets if core <= set(b)), key=len))

    def build_lp(i, own, opp):
        lp = search._base_lp(candidate.vectors[i], delta)
        for a, row in enumerate(np.eye(game.action_counts[i])):
            if a not in own:
                lp.add_weak(-row, eps)  # x[a] <= eps
        coefs = search._util_coefs(game, i)
        for b in range(game.action_counts[1 - i]):
            if b in opp[1:]:
                lp.add_eq(coefs[opp[0]] - coefs[b])
            elif b not in opp:
                lp.add_strict(coefs[opp[0]] - coefs[b])
        return lp

    out = search._run_patterns(game, candidate, pats[0], pats[1], build_lp,
                               s_feas, s_refute)
    if out.outcome == search.OUTCOME_REFUTED:
        return search.PatternOutcome(search.OUTCOME_OPEN, None, out.tried)
    return out


def recheck_mixed_dominance(game, candidate, cert):
    """Assert that a `mixed-dominance` certificate holds on the raw payoff
    table: its mixed strategy does at least as well as the candidate's
    against every opponent action, up to 1e-9, and better by more than 1e-9
    against one."""
    assert cert["kind"] == "mixed-dominance"
    i = game.player_index(cert["player"])
    mu = np.zeros(game.action_counts[i])
    for action, prob in cert["dominating"].items():
        mu[game.action_index(cert["player"], action)] = prob
    assert np.all(mu >= 0) and abs(mu.sum() - 1.0) <= 1e-9
    u = np.moveaxis(game.payoffs[..., i], i, 0).reshape(len(mu), -1)
    gain = mu @ u - candidate.vectors[i] @ u
    assert gain.min() >= -1e-9 and gain.max() > 1e-9
