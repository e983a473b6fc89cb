"""Feasibility engine for pattern searches near a candidate profile.

For two-player games every search used here decomposes per player: once each
player's comparison pattern (a weak order over actions, or a best-response
set) is fixed, the constraints on one player's vector are linear -- own
probability constraints plus the *opponent's* utility constraints, which are
linear in this player's probabilities.  So each pattern pair reduces to
small "maximize the common slack" linear programs (HiGHS).

Membership is a closure test with no distance box (`monotone_pattern_search`).
Where a candidate has a single compatible pattern pair, a strict order per
player, a closed-form point replaces its LP once every strict row checks out
at that point.
The proper search bounds the profile to a delta box, perfection's LPs do
not: a pattern is feasible when its slack clears a positive margin on every
strict row, exhausting every pattern with nonpositive margins refutes, and
margins between the two thresholds leave the question open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cmp_to_key, lru_cache
from itertools import product
from math import comb, prod

import numpy as np
from scipy.optimize import linprog

from .game import MixedProfile, expected_utility, unit_view, utility_vector, weak_dominance

MAX_EXHAUSTIVE_ACTIONS = 5
# the closure test gives up (outcome "open") past this many pattern pairs
MAX_PATTERN_PAIRS = 20000
# values closer than this count as tied when patterns are matched to a
# candidate; a closure LP whose slack does not exceed it counts as empty
TIE_TOL = 1e-9

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


@lru_cache(maxsize=None)
def n_weak_orders(k):
    """len(weak_orders(k)), without building them (the Fubini numbers)."""
    return 1 if k == 0 else sum(comb(k, j) * n_weak_orders(k - j) for j in range(1, k + 1))


def level_of(levels):
    return {a: d for d, level in enumerate(levels) for a in level}


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


def new_solver(presolve=True):
    """A HiGHS instance for `solve_player_lp` to reuse, or None where scipy
    has no direct bindings.  Each solve passes it a new model, which
    discards the previous model, basis and solution.  Presolve costs the
    closure test's small LPs more than it saves; the other searches keep
    it, as the witnesses they print depend on the vertex HiGHS returns."""
    if _HIGHS is None:
        return None
    highs = _HIGHS._Highs()
    highs.passOptions(_HIGHS_OPTIONS)
    if not presolve:
        highs.setOptionValue("presolve", "off")
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


def _base_lp(candidate_vec, delta):
    """Interior vectors summing to one, within delta of the candidate."""
    v = np.asarray(candidate_vec)
    lp = PlayerLP(len(v), np.maximum(0.0, v - delta), np.minimum(1.0, v + delta))
    lp.add_eq(np.ones(len(v)), -1.0)
    for row in np.eye(len(v)):
        lp.add_strict(row)
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


def add_ratio_rows(lp, levels, eps):
    """x[b] <= eps * x[a] across consecutive levels (chains downward)."""
    for up, down in zip(levels, levels[1:]):
        for a in up:
            for b in down:
                lp.add_weak(eps * _vec_of(lp.n, None, a) - _vec_of(lp.n, None, b))


def add_m_fraction_rows(lp, levels, m, coefs=None):
    """x[a] >= m * x[b] (or the same on `coefs @ x`) whenever a's level is
    at or above b's."""
    lv = level_of(levels)
    for a in lv:
        for b in lv:
            if a != b and lv[a] <= lv[b]:
                lp.add_weak(_vec_of(lp.n, coefs, a) - m * _vec_of(lp.n, coefs, b))


# ---------------------------------------------------------------------------
# forcing sets derived from the candidate and the ball radius


def forced_util_pairs(game, candidate, player, delta):
    """Pairs whose expected-utility order cannot flip inside the ball."""
    eu = expected_utility(game, candidate, player)
    ui = game.payoffs[..., player]
    opp_size = ui.size // game.action_counts[player]
    slack = float(ui.max() - ui.min()) * min(2.0, opp_size * delta)
    n = len(eu)
    return {(a, b) for a in range(n) for b in range(n) if a != b and eu[a] - eu[b] > 2 * slack}


def dominance_pairs(game, player):
    """(dominating_index, dominated_index) pairs for one player."""
    return {(g, d) for _, d, g in weak_dominance(game).indexed[player]}


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
    certificate: dict | None = None  # shipped with a refuted outcome
    note: str = ""  # replaces the verdict's default note


def _util_coefs(game, for_player):
    """Rows c_b with U_opp(x_i, b) = c_b @ x_i (two-player games)."""
    if game.n_players != 2:
        raise ValueError("linear utility rows need a two-player game")
    uj = game.payoffs[..., 1 - for_player]
    return uj.T if for_player == 0 else uj


def _run_patterns(game, candidate, patterns0, patterns1, build_lp, s_feas, s_refute):
    """Shared driver: iterate pattern pairs, early-exit on a feasible one."""
    tried = 0
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
            if min(slacks) > s_refute:
                all_refuted = False
            if len(slacks) == 2 and min(slacks) >= s_feas:
                witness = MixedProfile(game, [np.clip(x, 0.0, None) for x in xs])
                return PatternOutcome(OUTCOME_FEASIBLE, witness, tried)
    # with no pattern at all, geometry pruned every one: nothing can
    # realize the ball
    return PatternOutcome(OUTCOME_REFUTED if all_refuted else OUTCOME_OPEN, None, tried)


def _tie_blocks(sig, u, m):
    """One player's actions in blocks, best first: the blocks of actions
    tied in (sig, u) for m = 1, in u for m < 1.  Every compatible pattern
    keeps the blocks in this order and splits each by any weak order.
    None when the blocks do not run down in every value."""
    values = [v.tolist() for v in ((sig, u) if m == 1.0 else (u,))]

    def cmp(a, b):
        for v in values:
            if abs(v[a] - v[b]) > TIE_TOL:
                return -1 if v[a] > v[b] else 1
        return 0

    blocks = []
    for a in sorted(range(len(values[0])), key=cmp_to_key(cmp)):
        if blocks and cmp(blocks[-1][0], a) == 0:
            blocks[-1].append(a)
        else:
            blocks.append([a])
    for up, down in zip(blocks, blocks[1:]):
        if any(v[a] < v[b] - TIE_TOL for v in values for a in up for b in down):
            return None
    return blocks


def _ray_point(point, x, delta):
    """The point at max-norm distance delta from `point` toward `x`, or `x`
    itself when it is closer."""
    t = delta / max(delta, float(np.max(np.abs(x - point))))
    return (1 - t) * point + t * x


def _strict_rows(game, orders, vectors):
    """Every strict row of the pattern pair in which player i's actions run
    strictly down `orders[i]` in x_i and in u_i(., x_j), evaluated at
    `vectors`: the entries of x, then each player's consecutive steps."""
    rows = list(vectors)
    for i, order in enumerate(orders):
        for v in (vectors[i], utility_vector(game, i, vectors)):
            rows.append(v[order[:-1]] - v[order[1:]])
    return np.concatenate(rows)


def _strict_order_witness(game, candidate, orders, delta):
    """Witness for the one compatible pattern pair of an m = 1 candidate
    whose tie blocks are all singletons, `orders[i]` being player i's
    blocks, best first; None unless it clears every strict row.

    The witness is candidate + t * D.  On the support S_j, D_j is the d_j of
    [[A_i, -1], [1^T, 0]] [d_j; c] = [r_i; 0] with A_i = u_i[S_i, S_j] and
    r_i the ranks k, ..., 1 of sigma*_i along the order, so u_i(., x_j)
    falls by the same step per rank on S_i.  Off S_j, D_j puts a mass that
    falls along the order, small enough to move those steps by at most
    half, and takes it from sigma*_j pro rata; each D_j is scaled to max
    norm 1.  t is half the step at which a first row falls to TIE_TOL, cut
    to delta.
    """
    point = candidate.stacked()
    sig = candidate.vectors
    steps = [None, None]
    for i, j in ((0, 1), (1, 0)):
        sup_i, sup_j = (orders[p][sig[p][orders[p]] > TIE_TOL] for p in (i, j))
        off_j = orders[j][len(sup_j):]
        k = len(sup_i)
        if len(sup_j) != k:
            return None
        step = np.zeros(len(sig[j]))
        u = _util_coefs(game, j)[sup_i]  # u_i[S_i, .]
        if k > 1:
            border = np.zeros((k + 1, k + 1))
            border[:k, :k] = u[:, sup_j]
            border[:k, k] = -1.0
            border[k, :k] = 1.0
            try:
                step[sup_j] = np.linalg.solve(border, np.arange(k, -1, -1.0))[:k]
            except np.linalg.LinAlgError:
                return None
        if len(off_j):
            spread = float(np.max(u[:, off_j].max(axis=0) - u[:, off_j].min(axis=0)))
            mass = np.arange(len(off_j), 0, -1.0)
            step[off_j] = mass / (mass.sum() * (2 * spread if spread > 0 else 1.0))
            step -= step[off_j].sum() * sig[j]
        top = np.abs(step).max()
        steps[j] = step / top if top > 0 else step
    at_point = _strict_rows(game, orders, sig)
    along = _strict_rows(game, orders, steps)
    down = along < 0
    t = np.min((at_point[down] - TIE_TOL) / -along[down], initial=np.inf) / 2
    if not t > 0:
        return None
    x = _ray_point(point, point + min(t, 1.0) * np.concatenate(steps), delta)
    vectors = np.split(x, [len(sig[0])])
    if not x.min() > 0 or max(abs(v.sum() - 1.0) for v in vectors) > TIE_TOL:
        return None
    witness = MixedProfile(game, vectors)
    return witness if _strict_rows(game, orders, witness.vectors).min() > TIE_TOL else None


def monotone_pattern_search(game, candidate, delta, m=1.0):
    """Closure test: is the candidate a limit of interior payoff-monotone
    (m = 1) or m-weakly payoff-monotone (m < 1) profiles?

    Player i's pattern is a weak order realized by u_i(., x_j), and by x_i
    too for m = 1; for m < 1, x_i meets its m-fraction rows.  The interior
    profiles of a pattern pair form a relatively open polyhedron S, whose
    closure, if S is nonempty, is the same system with strict rows made
    weak.  So only pairs that the candidate meets weakly are tried, one
    stacked LP each with one slack on the strict rows and x > 0.
    feasible: some slack > TIE_TOL; the witness is on the ray from the
    candidate to the LP's point, at distance delta, inside S.  refuted: no
    such slack.  open: more than MAX_PATTERN_PAIRS pairs.

    For m = 1, when every tie block of both players is a singleton (as at
    the equilibria of games with generic payoffs), the one compatible pair
    is a strict order per player, and `_strict_order_witness` tries a point
    in closed form first: one bordered solve per player.  It is accepted
    only if every strict row of that pair, evaluated at the witness itself,
    exceeds TIE_TOL and each vector sums to one.  The witness is then in S,
    so `_witness_ok` holds, and the LP's slack is at least as large, so the
    LP would decide feasible too; the segment from the candidate to the
    witness lies in S, which puts the candidate in its closure.  Otherwise
    the LP runs as above.
    """
    if game.n_players != 2:
        raise ValueError("pattern search requires a two-player game")
    blocks = []
    for i in range(2):
        blocks.append(_tie_blocks(candidate.vectors[i],
                                  utility_vector(game, i, candidate.vectors), m))
        if blocks[i] is None:
            return PatternOutcome(OUTCOME_REFUTED, None, 0)
        if prod(n_weak_orders(len(b)) for b in blocks[i]) > MAX_PATTERN_PAIRS:
            return PatternOutcome(OUTCOME_OPEN, None, 0)
    if m == 1.0 and all(len(b) == 1 for player in blocks for b in player):
        orders = [np.array([b[0] for b in player]) for player in blocks]
        witness = _strict_order_witness(game, candidate, orders, delta)
        if witness is not None:
            return PatternOutcome(OUTCOME_FEASIBLE, witness, 1)
    k0, k1 = game.action_counts
    n = k0 + k1
    own = np.split(np.eye(n), [k0])  # x_i in the stacked variables (x_0, x_1)
    util = (np.hstack([np.zeros((k0, k0)), _util_coefs(game, 1)]),  # u_0(., x_1)
            np.hstack([_util_coefs(game, 0), np.zeros((k1, k1))]))  # u_1(., x_0)
    point = candidate.stacked()
    base = PlayerLP(n, np.zeros(n), np.ones(n), [(row, 0.0) for row in np.eye(n)])
    for i in range(2):
        base.add_eq(own[i].sum(axis=0), -1.0)

    def pattern_rows(i, levels):
        lp = PlayerLP(n, base.lo, base.hi)
        if m == 1.0:
            add_order_rows(lp, levels, own[i])
        else:
            add_m_fraction_rows(lp, levels, m, own[i])
            if any(coef @ point + const < -TIE_TOL for coef, const in lp.weak):
                return None
        add_order_rows(lp, levels, util[i])
        return lp

    pats = []
    for i in range(2):
        splits = [[tuple(tuple(b[j] for j in level) for level in levels)
                   for levels in sorted(weak_orders(len(b)), key=len)] for b in blocks[i]]
        rows = (pattern_rows(i, sum(parts, ())) for parts in product(*splits))
        pats.append([lp for lp in rows if lp is not None])
    count = len(pats[0]) * len(pats[1])
    if count > MAX_PATTERN_PAIRS:
        return PatternOutcome(OUTCOME_OPEN, None, 0)
    solver = new_solver(presolve=False)
    for tried, (lp0, lp1) in enumerate(product(*pats), start=1):
        lp = PlayerLP(n, base.lo, base.hi, base.strict + lp0.strict + lp1.strict,
                      lp0.weak + lp1.weak, base.eq + lp0.eq + lp1.eq)
        s, x = solve_player_lp(lp, solver)
        if s > TIE_TOL:
            x = _ray_point(point, np.clip(x, 0.0, None), delta)
            witness = MixedProfile(game, np.split(x, [k0]))
            return PatternOutcome(OUTCOME_FEASIBLE, witness, tried)
    return PatternOutcome(OUTCOME_REFUTED, None, count)


def perfect_pattern_search(game, candidate, eps, delta):
    """Exact two-player perfection (van Damme 1991, Thm 3.2.2): per player,
    one LP on the unit view maximizes t over tau_j >= t, sum tau_j = 1, with
    supp sigma_i (entries > TIE_TOL, nash's NASH_TOL) in the best replies.
    Both t > TIE_TOL: feasible, witness (1 - eps) sigma + eps tau.  Else
    refuted with a `_mixed_dominance` certificate, or open (`lp-numerics`)
    where none re-checks.  `tried` counts LPs solved."""
    if game.n_players != 2:
        raise ValueError("pattern search requires a two-player game")
    solver = new_solver()
    taus = [None, None]
    for i, j in ((0, 1), (1, 0)):
        coefs = _util_coefs(unit_view(game), j)  # u_i(a, .) over tau_j
        support = candidate.vectors[i] > TIE_TOL
        top = coefs[np.argmax(support)]
        lp = _base_lp(np.zeros(coefs.shape[1]), 1.0)  # tau_j's whole simplex
        for row, on in zip(coefs, support):
            (lp.add_eq if on else lp.add_weak)(top - row)
        t, taus[j] = solve_player_lp(lp, solver)
        if not t > TIE_TOL:
            cert = _mixed_dominance(game, candidate.vectors[i], i)
            if cert is None:
                return PatternOutcome(OUTCOME_OPEN, None, i + 2, note="lp-numerics")
            return PatternOutcome(OUTCOME_REFUTED, None, i + 2, cert)
    vectors = [(1 - eps) * sig + eps * tau for sig, tau in zip(candidate.vectors, taus)]
    return PatternOutcome(OUTCOME_FEASIBLE, MixedProfile(game, vectors), 2)


def _mixed_dominance(game, sig, i):
    """A `mixed-dominance` certificate for player i's strategy sig: the mu
    of greatest summed gain with no loss, if it loses at most 1e-9 to sig
    and gains over 1e-9 once, all on the unit view."""
    u = _util_coefs(unit_view(game), 1 - i)  # u_i[a, b]
    res = linprog(-u.sum(axis=1), A_ub=-u.T, b_ub=-(sig @ u), A_eq=np.ones((1, len(sig))),
                  b_eq=[1.0], bounds=(0.0, 1.0), method="highs", options=_HIGHS_OPTS)
    if not res.success:
        return None
    mu = np.clip(res.x, 0.0, None)
    mu /= mu.sum()
    gain = (mu - sig) @ u
    if gain.min() < -1e-9 or not gain.max() > 1e-9:
        return None
    player = game.players[i]
    return {"kind": "mixed-dominance", "player": player,
            "dominating": {game.actions[player][a]: float(mu[a]) for a in np.flatnonzero(mu)}}


def proper_pattern_search(game, candidate, eps, delta):
    """Search / refute eps-proper interior profiles within delta.

    Patterns are weak orders of each player's utilities; strictly lower
    levels keep at most eps times the probability of any higher action.
    Exhaustion refutes every eps' <= eps as well, since those constraints
    only tighten, and the outcome carries an `order-exhaustion` certificate.
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
            return PatternOutcome(OUTCOME_OPEN, None, 0)
        pats.append(orders)

    def build_lp(i, own, opp):
        lp = _base_lp(candidate.vectors[i], delta)
        add_ratio_rows(lp, own, eps)
        coefs = _util_coefs(game, i)
        add_order_rows(lp, opp, coefs=coefs)
        return lp

    out = _run_patterns(game, candidate, pats[0], pats[1], build_lp, s_feas, s_refute)
    if out.outcome == OUTCOME_REFUTED:
        out.certificate = {"kind": "order-exhaustion", "eps": float(eps),
                           "delta": float(delta), "patterns_tried": out.tried}
    return out
