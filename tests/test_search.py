import numpy as np
from scipy.optimize import linprog

from empeq import corpus, search
from empeq.empirical import DEFAULT_DELTAS
from empeq.nash import DEFAULT_EPS_SCHEDULE, DELTA_FACTOR, enumerate_nash

from conftest import random_game


def _ranked_orders_reference(k, forced_strict, forced_weak, values):
    """The per-order loop that search's array code replaces."""

    def distance(lv):
        score = 0.0
        for a in range(k):
            for b in range(a + 1, k):
                dv = float(values[a] - values[b])
                if lv[a] < lv[b]:
                    score += max(0.0, -dv) + (0.1 if dv == 0 else 0.0)
                elif lv[a] > lv[b]:
                    score += max(0.0, dv) + (0.1 if dv == 0 else 0.0)
                else:
                    score += abs(dv)
        return score

    out = []
    for levels in search.weak_orders(k):
        lv = search.level_of(levels)
        if all(lv[a] < lv[b] for a, b in forced_strict) and all(
            lv[a] <= lv[b] for a, b in forced_weak
        ):
            out.append(levels)
    out.sort(key=lambda levels: distance(search.level_of(levels)))
    return out


def test_ranked_orders_match_loop_reference():
    rng = np.random.default_rng(0)
    for trial in range(60):
        k = int(rng.integers(1, 6))
        pairs = [(a, b) for a in range(k) for b in range(k) if a != b]
        picks = rng.permutation(len(pairs))[: int(rng.integers(0, 3))]
        strict = {pairs[j] for j in picks[:1]}
        weak = {pairs[j] for j in picks[1:]}
        # coarse values, so many pairs tie in value
        values = rng.integers(0, 3, size=k) / 2.0 if trial % 2 else rng.uniform(size=k)
        got = search.ranked_orders(k, strict, weak, values)
        assert got == _ranked_orders_reference(k, strict, weak, values)


def _pattern_lps(monkeypatch, games):
    """Every slack LP that the closure test (m in (1, 0.5)) and the proper
    search (largest and smallest default eps) solve at each equilibrium of
    `games`."""
    lps = []
    solve = search.solve_player_lp

    def record(lp, solver=None):
        lps.append(lp)
        return solve(lp, solver)

    monkeypatch.setattr(search, "solve_player_lp", record)
    for game in games:
        for profile in enumerate_nash(game).isolated:
            for m in (1.0, 0.5):
                search.monotone_pattern_search(game, profile, min(DEFAULT_DELTAS), m=m)
            for eps in (max(DEFAULT_EPS_SCHEDULE), min(DEFAULT_EPS_SCHEDULE)):
                search.proper_pattern_search(game, profile, eps, DELTA_FACTOR * eps)
    monkeypatch.undo()
    return lps


def _solve_reference(lp):
    """The slack LP row by row through scipy's linprog."""
    n = lp.n
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for coef, const in lp.strict:
        a_ub.append(np.append(-coef, 1.0))
        b_ub.append(const)
    for coef, const in lp.weak:
        a_ub.append(np.append(-coef, 0.0))
        b_ub.append(const)
    for coef, const in lp.eq:
        a_eq.append(np.append(coef, 0.0))
        b_eq.append(-const)
    bounds = [(float(lo), float(hi)) for lo, hi in zip(lp.lo, lp.hi)] + [(-10.0, 10.0)]
    res = linprog(c, A_ub=np.array(a_ub) if a_ub else None, b_ub=np.array(b_ub) if b_ub else None,
                  A_eq=np.array(a_eq) if a_eq else None, b_eq=np.array(b_eq) if b_eq else None,
                  bounds=bounds, method="highs", options=search._HIGHS_OPTS)
    if not res.success:
        return float("-inf"), None
    return float(res.x[-1]), res.x[:-1]


def _assert_same(results, reference):
    for (s, x), (s_ref, x_ref) in zip(results, reference, strict=True):
        assert s == s_ref
        assert (x is None) == (x_ref is None)
        if x is not None:
            assert np.array_equal(x, x_ref)


def test_slack_lp_matches_linprog_reference(monkeypatch):
    """Both solver paths give linprog's slack and argmax to the bit: the
    direct HiGHS call, with one solver reused across all the LPs, and the
    linprog call kept for scipy builds without HiGHS bindings."""
    rng = np.random.default_rng(1)
    games = [random_game(rng, shape=(k, k)) for k in (3, 4, 5)]
    games.append(corpus.gamma2c(0.5, 0.5))  # closure LPs with slack <= 0
    lps = _pattern_lps(monkeypatch, games)
    reference = [_solve_reference(lp) for lp in lps]
    assert len(lps) > 100
    assert any(x is None for _, x in reference)
    assert any(s > 0 for s, _ in reference)
    assert any(s <= 0 and x is not None for s, x in reference)
    assert any(lp.weak for lp in lps)
    solver = search.new_solver()
    assert solver is not None
    _assert_same([search.solve_player_lp(lp, solver) for lp in lps], reference)
    monkeypatch.setattr(search, "_HIGHS", None)
    _assert_same([search.solve_player_lp(lp) for lp in lps], reference)
