"""Feasibility engine for witness searches near a candidate profile.

For two-player games every search used here decomposes per player: once each
player's comparison pattern (a weak order over actions, or a best-response
set) is fixed, the constraints on one player's vector are linear -- own
probability constraints plus the *opponent's* utility constraints, which are
linear in this player's probabilities.  Each pattern therefore reduces to a
pair of small "maximize the common slack" linear programs (HiGHS).

A pattern is feasible when both programs clear a positive margin on every
strict constraint; exhausting every pattern with nonpositive margins refutes
the search goal outright, because any real profile realizes some pattern.
Margins between the two thresholds leave the question open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog

from .game import MixedProfile, expected_utility, weak_dominance

MAX_EXHAUSTIVE_ACTIONS = 5

# 1e-10 is the tightest feasibility tolerance HiGHS accepts
_HIGHS_OPTS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-10,
    "dual_feasibility_tolerance": 1e-10,
}

OUTCOME_FEASIBLE = "feasible"
OUTCOME_REFUTED = "refuted"
OUTCOME_OPEN = "open"


# ---------------------------------------------------------------------------
# weak orders (ordered set partitions), best level first


@lru_cache(maxsize=None)
def weak_orders(k):
    items = tuple(range(k))

    def rec(rest):
        if not rest:
            yield ()
            return
        n = len(rest)
        for mask in range(1, 1 << n):
            level = tuple(rest[i] for i in range(n) if mask >> i & 1)
            remainder = tuple(rest[i] for i in range(n) if not mask >> i & 1)
            for tail in rec(remainder):
                yield (level,) + tail

    return tuple(rec(items))


def level_of(levels):
    lv = {}
    for d, level in enumerate(levels):
        for a in level:
            lv[a] = d
    return lv


@lru_cache(maxsize=None)
def _level_table(k):
    """Row r holds each action's level in weak_orders(k)[r], best level 0."""
    table = np.empty((len(weak_orders(k)), k), dtype=np.int64)
    for r, levels in enumerate(weak_orders(k)):
        for d, level in enumerate(levels):
            table[r, list(level)] = d
    table.setflags(write=False)
    return table


def ranked_orders(k, forced_strict, forced_weak, values):
    """Weak orders of k actions where forced_strict pairs (a,b) have a
    strictly above b and forced_weak pairs have a at least as high as b,
    closest to the value vector first, ties in weak_orders(k) order.

    The distance sums, over pairs a < b, the amount by which the values run
    against the order, plus 0.1 for a tie in value split across levels.
    """
    lv = _level_table(k)
    keep = np.ones(len(lv), dtype=bool)
    for a, b in forced_strict:
        keep &= lv[:, a] < lv[:, b]
    for a, b in forced_weak:
        keep &= lv[:, a] <= lv[:, b]
    score = np.zeros(len(lv))
    for a in range(k):
        for b in range(a + 1, k):
            dv = float(values[a] - values[b])
            tie = 0.1 if dv == 0 else 0.0
            score += np.where(lv[:, a] < lv[:, b], max(0.0, -dv) + tie,
                              np.where(lv[:, a] > lv[:, b], max(0.0, dv) + tie, abs(dv)))
    rows = np.flatnonzero(keep)
    orders = weak_orders(k)
    return [orders[r] for r in rows[np.argsort(score[rows], kind="stable")]]


# ---------------------------------------------------------------------------
# single-player slack LP


@dataclass
class PlayerLP:
    """max s subject to lo<=x<=hi, eq rows, weak rows >= 0, strict rows >= s."""

    n: int
    lo: np.ndarray
    hi: np.ndarray
    strict: list = field(default_factory=list)  # (coef, const): coef@x + const
    weak: list = field(default_factory=list)
    eq: list = field(default_factory=list)

    def add_strict(self, coef, const=0.0):
        self.strict.append((np.asarray(coef, dtype=float), float(const)))

    def add_weak(self, coef, const=0.0):
        self.weak.append((np.asarray(coef, dtype=float), float(const)))

    def add_eq(self, coef, const=0.0):
        self.eq.append((np.asarray(coef, dtype=float), float(const)))


def _direct_highs():
    """scipy's HiGHS bindings with the options `linprog(method="highs",
    options=_HIGHS_OPTS)` passes, or (None, None) where scipy has none.

    A pattern search solves up to hundreds of LPs of at most a dozen rows.
    `linprog` spends about three quarters of each call validating options
    and converting inputs, and a new solver instance costs about a third
    of what is left.  The model and options given here are the ones
    `linprog` hands to HiGHS, so the solutions are the same to the bit.
    """
    try:
        from scipy.optimize._highspy import _core
        opts = _core.HighsOptions()
        opts.presolve = "on" if _HIGHS_OPTS["presolve"] else "off"
        opts.primal_feasibility_tolerance = _HIGHS_OPTS["primal_feasibility_tolerance"]
        opts.dual_feasibility_tolerance = _HIGHS_OPTS["dual_feasibility_tolerance"]
        opts.highs_debug_level = _core.HighsDebugLevel.kHighsDebugLevelNone
        opts.simplex_strategy = _core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        opts.log_to_console = False
        opts.output_flag = False
    except (ImportError, AttributeError):
        return None, None
    return _core, opts


_HIGHS, _HIGHS_OPTIONS = _direct_highs()
# linprog rejects an "optimal" solution that misses a constraint by more
# than this (10 * sqrt of its default tol)
_LINPROG_CHECK_TOL = 10 * np.sqrt(1e-9)


def new_solver():
    """A HiGHS instance for `solve_player_lp` to reuse, or None where scipy
    has no direct bindings.  Each solve passes it a new model, which
    discards the previous model, basis and solution."""
    if _HIGHS is None:
        return None
    highs = _HIGHS._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    return highs


def _solve_highs(highs, c, a, lhs, rhs, lb, ub):
    """min c @ x subject to lhs <= a @ x <= rhs and lb <= x <= ub; returns
    the minimizer, or None unless HiGHS reports an optimum."""
    cols, rows = np.nonzero(a.T)  # column-wise, as linprog's CSC matrix
    model = _HIGHS.HighsLp()
    model.num_col_ = model.a_matrix_.num_col_ = a.shape[1]
    model.num_row_ = model.a_matrix_.num_row_ = a.shape[0]
    model.a_matrix_.format_ = _HIGHS.MatrixFormat.kColwise
    model.a_matrix_.start_ = np.searchsorted(cols, np.arange(a.shape[1] + 1)).astype(np.int32)
    model.a_matrix_.index_ = rows.astype(np.int32)
    model.a_matrix_.value_ = a.T[cols, rows]
    model.col_cost_ = c
    model.col_lower_ = lb
    model.col_upper_ = ub
    model.row_lower_ = lhs
    model.row_upper_ = rhs
    highs.passModel(model)
    highs.run()
    if highs.getModelStatus() != _HIGHS.HighsModelStatus.kOptimal:
        return None
    sol = highs.getSolution()
    x = np.array(sol.col_value)
    act = np.array(sol.row_value)
    miss = np.max(np.concatenate([lb - x, x - ub, act - rhs, lhs - act]))
    return x if miss <= _LINPROG_CHECK_TOL else None  # False for NaN


def solve_player_lp(lp, solver=None):
    """Return (max slack, argmax x); (-inf, None) when infeasible.

    Variables (x, s) with s in [-10, 10]; rows in linprog's order: strict,
    then weak as upper bounds, then equalities.  `solver` is an instance
    from `new_solver()` to reuse; without one the call makes its own.
    """
    n = lp.n
    rows = lp.strict + lp.weak + lp.eq
    n_ub = len(lp.strict) + len(lp.weak)
    a = np.zeros((len(rows), n + 1))
    const = np.zeros(len(rows))
    for r, (coef, k) in enumerate(rows):
        a[r, :n] = coef
        const[r] = k
    a[:n_ub, :n] *= -1.0
    a[:len(lp.strict), n] = 1.0
    rhs = np.concatenate([const[:n_ub], -const[n_ub:]])
    c = np.zeros(n + 1)
    c[-1] = -1.0
    lb = np.append(np.asarray(lp.lo, dtype=float), -10.0)
    ub = np.append(np.asarray(lp.hi, dtype=float), 10.0)
    if _HIGHS is not None:
        lhs = np.concatenate([np.full(n_ub, -np.inf), rhs[n_ub:]])
        x = _solve_highs(solver if solver is not None else new_solver(),
                         c, a, lhs, rhs, lb, ub)
    else:
        res = linprog(c, A_ub=a[:n_ub] if n_ub else None, b_ub=rhs[:n_ub] if n_ub else None,
                      A_eq=a[n_ub:] if len(lp.eq) else None,
                      b_eq=rhs[n_ub:] if len(lp.eq) else None,
                      bounds=list(zip(lb, ub)), method="highs", options=_HIGHS_OPTS)
        x = res.x if res.success else None
    if x is None:
        return float("-inf"), None
    return float(x[-1]), np.asarray(x[:-1], dtype=float)


# ---------------------------------------------------------------------------
# row builders


def _base_lp(candidate_vec, delta, interior):
    n = len(candidate_vec)
    lo = np.maximum(0.0, np.asarray(candidate_vec) - delta)
    hi = np.minimum(1.0, np.asarray(candidate_vec) + delta)
    lp = PlayerLP(n, lo, hi)
    lp.add_eq(np.ones(n), -1.0)
    if interior:
        for a in range(n):
            e = np.zeros(n)
            e[a] = 1.0
            lp.add_strict(e)
    return lp


def _vec_of(n, coefs, a):
    if coefs is None:
        row = np.zeros(n)
        row[a] = 1.0
        return row
    return np.asarray(coefs[a], dtype=float)


def add_order_rows(lp, levels, coefs=None):
    """Force `coefs @ x` (or x itself) to realize the weak order exactly:
    equal within levels, strictly decreasing across consecutive levels."""
    for level in levels:
        rep = level[0]
        for other in level[1:]:
            lp.add_eq(_vec_of(lp.n, coefs, rep) - _vec_of(lp.n, coefs, other))
    for up, down in zip(levels, levels[1:]):
        lp.add_strict(_vec_of(lp.n, coefs, up[0]) - _vec_of(lp.n, coefs, down[0]))


def add_cross_strict_rows(lp, levels, coefs=None):
    """Strict rows for every pair across distinct levels, no tie equalities.

    This is the weak-payoff-monotonicity shape: strictly-more-played pairs
    need strictly higher value, ties require nothing.
    """
    for i in range(len(levels)):
        for j in range(i + 1, len(levels)):
            for a in levels[i]:
                for b in levels[j]:
                    lp.add_strict(_vec_of(lp.n, coefs, a) - _vec_of(lp.n, coefs, b))


def add_ratio_rows(lp, levels, eps):
    """x[b] <= eps * x[a] across consecutive levels (chains downward)."""
    for up, down in zip(levels, levels[1:]):
        for a in up:
            for b in down:
                row = np.zeros(lp.n)
                row[a] = eps
                row[b] = -1.0
                lp.add_weak(row)


def add_m_fraction_rows(lp, levels, m):
    """x[a] >= m * x[b] whenever a's level is at or above b's."""
    lv = level_of(levels)
    for a in lv:
        for b in lv:
            if a != b and lv[a] <= lv[b]:
                row = np.zeros(lp.n)
                row[a] = 1.0
                row[b] = -m
                lp.add_weak(row)


# ---------------------------------------------------------------------------
# forcing sets derived from the candidate and the ball radius


def forced_prob_pairs(candidate_vec, delta):
    """Pairs whose probability order cannot flip inside the max-norm ball."""
    v = np.asarray(candidate_vec)
    n = len(v)
    return {
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and v[a] - v[b] > 2 * delta
    }


def forced_util_pairs(game, candidate, player, delta):
    """Pairs whose expected-utility order cannot flip inside the ball."""
    eu = expected_utility(game, candidate, player)
    ui = game.payoffs[..., player]
    span = float(ui.max() - ui.min())
    opp_size = int(
        np.prod([k for j, k in enumerate(game.action_counts) if j != player])
    )
    slack = span * min(2.0, opp_size * delta)
    n = len(eu)
    return {
        (a, b)
        for a in range(n)
        for b in range(n)
        if a != b and eu[a] - eu[b] > 2 * slack
    }


def dominance_pairs(game, player):
    """(dominating_index, dominated_index) pairs for one player."""
    report = weak_dominance(game)
    p = game.players[player]
    return {
        (game.action_index(p, d.dominating), game.action_index(p, d.dominated))
        for d in report.pairs[p]
    }


def _sorted_orders(game, candidate, player, forced_strict, forced_weak):
    k = game.action_counts[player]
    if k > MAX_EXHAUSTIVE_ACTIONS:
        return None
    eu = expected_utility(game, candidate, player)
    return ranked_orders(k, forced_strict, forced_weak, eu)


# ---------------------------------------------------------------------------
# pattern searches


@dataclass
class PatternOutcome:
    outcome: str  # feasible | refuted | open
    witness: MixedProfile | None
    tried: int
    table: list  # (pattern, slacks) diagnostics


def _util_coefs(game, for_player):
    """Rows c_b with U_opp(x_i, b) = c_b @ x_i (two-player games)."""
    if game.n_players != 2:
        raise ValueError("linear utility rows need a two-player game")
    uj = game.payoffs[..., 1 - for_player]
    if for_player == 0:
        return [uj[:, b] for b in range(uj.shape[1])]
    return [uj[a, :] for a in range(uj.shape[0])]


def _run_patterns(game, candidate, patterns0, patterns1, build_lp, s_feas, s_refute):
    """Shared driver: iterate pattern pairs, early-exit on a feasible one."""
    tried = 0
    table = []
    all_refuted = True
    solver = new_solver()
    for pat0 in patterns0:
        for pat1 in patterns1:
            tried += 1
            slacks, xs = [], []
            for i, (own, opp) in enumerate(((pat0, pat1), (pat1, pat0))):
                lp = build_lp(i, own, opp)
                s, x = solve_player_lp(lp, solver)
                slacks.append(s)
                xs.append(x)
                if s < s_feas:
                    break
            table.append(((pat0, pat1), tuple(slacks)))
            if min(slacks) > s_refute:
                all_refuted = False
            if len(slacks) == 2 and min(slacks) >= s_feas:
                witness = MixedProfile(game, [np.clip(x, 0.0, None) for x in xs])
                return PatternOutcome(OUTCOME_FEASIBLE, witness, tried, table)
    if all_refuted and tried > 0:
        return PatternOutcome(OUTCOME_REFUTED, None, tried, table)
    if tried == 0:
        # every pattern was pruned by geometry: nothing can realize the ball
        return PatternOutcome(OUTCOME_REFUTED, None, 0, table)
    return PatternOutcome(OUTCOME_OPEN, None, tried, table)


def monotone_pattern_search(game, candidate, delta, m=1.0, refute_mode=False):
    """Search for (m=1: interior payoff-monotone / m<1: interior m-weakly
    monotone) profiles within `delta`; in refute mode, certify that not even
    boundary profiles of the matching monotonicity notion exist there.
    """
    if game.n_players != 2:
        raise ValueError("pattern search requires a two-player game")
    s_feas = max(1e-12, min(1e-8, 1e-2 * delta))
    s_refute = s_feas * 1e-3

    pats = []
    for i in range(2):
        prob_forced = forced_prob_pairs(candidate.vectors[i], delta)
        util_forced = forced_util_pairs(game, candidate, i, delta)
        dom = dominance_pairs(game, i)
        if m == 1.0 and not refute_mode:
            strict, weak = prob_forced | util_forced | dom, set()
        elif m == 1.0:
            strict, weak = prob_forced, util_forced | dom
        elif not refute_mode:
            strict, weak = util_forced | dom, set()
        else:
            strict, weak = util_forced, dom
        orders = _sorted_orders(game, candidate, i, strict, weak)
        if orders is None:
            return PatternOutcome(OUTCOME_OPEN, None, 0, [("too many actions", ())])
        pats.append(orders)

    def build_lp(i, own, opp):
        lp = _base_lp(candidate.vectors[i], delta, interior=not refute_mode)
        if m == 1.0:
            add_order_rows(lp, own)
        else:
            add_m_fraction_rows(lp, own, m)
        coefs = _util_coefs(game, i)
        if m == 1.0 and refute_mode:
            add_cross_strict_rows(lp, opp, coefs=coefs)
        else:
            add_order_rows(lp, opp, coefs=coefs)
        return lp

    return _run_patterns(game, candidate, pats[0], pats[1], build_lp, s_feas, s_refute)


def perfect_pattern_search(game, candidate, eps, delta):
    """Interior profile within delta whose non-best-response actions all
    carry probability at most eps; best-response sets are enumerated."""
    if game.n_players != 2:
        raise ValueError("pattern search requires a two-player game")
    s_feas = max(1e-12, min(1e-8, 1e-3 * eps))
    s_refute = s_feas * 1e-3
    pats = []
    for i in range(2):
        k = game.action_counts[i]
        if k > MAX_EXHAUSTIVE_ACTIONS + 3:
            return PatternOutcome(OUTCOME_OPEN, None, 0, [("too many actions", ())])
        core = frozenset(
            int(a) for a in np.where(candidate.vectors[i] > eps + delta)[0]
        )
        patterns = []
        for mask in range(1, 1 << k):
            b = tuple(a for a in range(k) if mask >> a & 1)
            if core <= set(b):
                patterns.append(b)
        patterns.sort(key=len)
        pats.append(patterns)

    def build_lp(i, own, opp):
        lp = _base_lp(candidate.vectors[i], delta, interior=True)
        k = game.action_counts[i]
        for a in range(k):
            if a not in own:
                row = np.zeros(k)
                row[a] = -1.0
                lp.add_weak(row, eps)  # x[a] <= eps
        coefs = _util_coefs(game, i)
        rep = opp[0]
        for b in opp[1:]:
            lp.add_eq(np.asarray(coefs[rep], dtype=float) - np.asarray(coefs[b], dtype=float))
        for b in range(game.action_counts[1 - i]):
            if b not in opp:
                lp.add_strict(
                    np.asarray(coefs[rep], dtype=float) - np.asarray(coefs[b], dtype=float)
                )
        return lp

    out = _run_patterns(game, candidate, pats[0], pats[1], build_lp, s_feas, s_refute)
    if out.outcome == OUTCOME_REFUTED:
        # best-response enumeration is not an exhaustive class system for
        # perfection; failure to find a witness stays "open"
        return PatternOutcome(OUTCOME_OPEN, None, out.tried, out.table)
    return out


def proper_pattern_search(game, candidate, eps, delta):
    """Search / refute eps-proper interior profiles within delta.

    Patterns are weak orders of each player's utilities; strictly lower
    levels keep at most eps times the probability of any higher action.
    Exhaustion refutes every eps' <= eps as well, since those constraints
    only tighten.
    """
    if game.n_players != 2:
        raise ValueError("pattern search requires a two-player game")
    kmax = max(game.action_counts)
    s_feas = max(1e-13, min(1e-8, 1e-2 * eps ** max(1, kmax - 1)))
    s_refute = s_feas * 1e-3
    pats = []
    for i in range(2):
        util_forced = forced_util_pairs(game, candidate, i, delta)
        dom = dominance_pairs(game, i)
        orders = _sorted_orders(game, candidate, i, util_forced | dom, set())
        if orders is None:
            return PatternOutcome(OUTCOME_OPEN, None, 0, [("too many actions", ())])
        pats.append(orders)

    def build_lp(i, own, opp):
        lp = _base_lp(candidate.vectors[i], delta, interior=True)
        add_ratio_rows(lp, own, eps)
        coefs = _util_coefs(game, i)
        add_order_rows(lp, opp, coefs=coefs)
        return lp

    return _run_patterns(game, candidate, pats[0], pats[1], build_lp, s_feas, s_refute)
