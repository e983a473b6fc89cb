"""Feasibility engine for pattern searches near a candidate profile.

For two-player games every search used here decomposes per player: once each
player's comparison pattern (a weak order over actions, or a best-response
set) is fixed, the constraints on one player's vector are linear -- own
probability constraints plus the *opponent's* utility constraints, which are
linear in this player's probabilities.  So each pattern pair reduces to
small "maximize the common slack" linear programs (HiGHS).  Each LP is
three row blocks (strict, weak, eq), each an (r, n + 1) array [A | b] of the
rows A @ x + b; a pattern's blocks are built once and stacked per pair.

The closure test and the proper search try the same patterns: each
player's actions fall into tie blocks at the candidate (`_tie_blocks`, on
the game's `unit_view`, by single linkage at TIE_TOL), and a pattern keeps
the blocks in order and splits each by any weak order (`_block_orders`).
Either search gives up, outcome "open", past MAX_PATTERN_PAIRS patterns of
one player or pattern pairs.

Membership is a closure test with no distance box (`monotone_pattern_search`).
Where a candidate has a single compatible pattern pair, a strict order per
player, a closed-form point replaces its LP once every strict row checks out
at that point.  Membership runs the closure test and `witness_ok` on the
game's `unit_view`, under the tie rule stated there: values within TIE_TOL
tie, and a slack of at most TIE_TOL counts as empty.  The closure test
builds its witnesses on the candidate's game.
The proper search bounds the profile to a delta box, perfection's LPs do
not: a pattern is feasible when its slack clears a positive margin on every
strict row, exhausting every pattern with nonpositive margins refutes, and
margins between the two thresholds leave the question open.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import groupby, product
from math import comb, prod

import numpy as np

from .game import TIE_TOL, MixedProfile, unit_view, utility_vector, weak_dominance
from .monotone import is_m_weakly_payoff_monotone, is_payoff_monotone

# the closure test and the proper search give up (outcome "open") past this
# many patterns of one player, or pattern pairs
MAX_PATTERN_PAIRS = 20000

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


# ---------------------------------------------------------------------------
# single-player slack LP


# scipy.optimize takes about half a second to import, and most commands
# solve no LP, so the bindings load on the first LP (`_highs`)
_UNLOADED = object()
_HIGHS, _HIGHS_OPTIONS = _UNLOADED, None
# linprog rejects an "optimal" solution that misses a constraint by more
# than this (10 * sqrt of its default tol)
_LINPROG_CHECK_TOL = 10 * np.sqrt(1e-9)


def _highs():
    """scipy's HiGHS bindings, loaded on first use with the options
    `linprog(method="highs", options=_HIGHS_OPTS)` passes; None where scipy
    has none.

    A pattern search solves up to hundreds of LPs of at most a dozen rows.
    `linprog` spends about three quarters of each call validating options
    and converting inputs, and a new solver instance costs about a third
    of what is left, so each thread keeps its own (`_Solvers`).  The model
    and options given here are the ones `linprog` hands to HiGHS, so the
    solutions are the same to the bit.
    """
    global _HIGHS, _HIGHS_OPTIONS
    if _HIGHS is _UNLOADED:
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
            _HIGHS = None
        else:
            _HIGHS, _HIGHS_OPTIONS = _core, opts
    return _HIGHS


class _Solvers(threading.local):
    """This thread's HiGHS instances by presolve setting, each made on its
    first LP.  Each LP passes its whole model, which replaces the previous
    model, basis and solution, so an instance gives the bits of a new one."""

    def __init__(self):
        self.by_presolve = {}

    def get(self, presolve):
        highs = self.by_presolve.get(presolve)
        if highs is None:
            highs = self.by_presolve[presolve] = _HIGHS._Highs()
            highs.passOptions(_HIGHS_OPTIONS)
            if not presolve:
                highs.setOptionValue("presolve", "off")
        return highs


_SOLVERS = _Solvers()


def solve_lp(c, a, n_ub, rhs, lb, ub, presolve=True):
    """min c @ x subject to the first n_ub rows of a @ x <= rhs, the other
    rows == rhs, and lb <= x <= ub (infinite bounds allowed).  Returns the
    minimizer, or None unless HiGHS reports an optimum.

    Every LP goes as arrays to this thread's HiGHS instance for `presolve`,
    or to `linprog(method="highs")` where scipy has no direct bindings, with
    the same model and options.  Presolve costs the closure test's small
    LPs more than it saves; the other searches keep it, as the witnesses
    they print depend on the vertex HiGHS returns."""
    if _highs() is None:
        from scipy.optimize import linprog
        eq = len(a) > n_ub
        res = linprog(c, A_ub=a[:n_ub] if n_ub else None, b_ub=rhs[:n_ub] if n_ub else None,
                      A_eq=a[n_ub:] if eq else None, b_eq=rhs[n_ub:] if eq else None,
                      bounds=list(zip(lb, ub)), method="highs",
                      options=dict(_HIGHS_OPTS, presolve=presolve))
        return res.x if res.success else None
    num_row, num_col = a.shape
    lhs = np.concatenate([np.full(n_ub, -np.inf), rhs[n_ub:]])
    cols, rows = np.nonzero(a.T)  # column-wise, as linprog's CSC matrix
    highs = _SOLVERS.get(presolve)
    status = highs.passModel(
        num_col, num_row, len(rows), _HIGHS.MatrixFormat.kColwise, _HIGHS.ObjSense.kMinimize,
        0.0, c, lb, ub, lhs, rhs, np.searchsorted(cols, np.arange(num_col)).astype(np.int32),
        rows.astype(np.int32), a.T[cols, rows], np.zeros(num_col, dtype=np.int32))
    if status == _HIGHS.HighsStatus.kError:
        raise RuntimeError("HiGHS rejected an LP model")
    highs.run()
    if highs.getModelStatus() != _HIGHS.HighsModelStatus.kOptimal:
        return None
    sol = highs.getSolution()
    x = np.array(sol.col_value)
    act = np.array(sol.row_value)
    miss = np.max(np.concatenate([lb - x, x - ub, act - rhs, lhs - act]))
    return x if miss <= _LINPROG_CHECK_TOL else None  # False for NaN


def solve_player_lp(lo, hi, strict, weak, eq, presolve=True):
    """Return (max slack, argmax x); (-inf, None) when infeasible.

    Maximizes s over lo <= x <= hi with every strict row >= s, every weak
    row >= 0 and every eq row == 0.  Each block is an (r, n + 1) array
    [A | b] of the rows A @ x + b.  Variables (x, s) with s in [-10, 10];
    rows in linprog's order: strict, then weak as upper bounds, then
    equalities.  `presolve` is `solve_lp`'s.
    """
    n = len(lo)
    n_ub = len(strict) + len(weak)
    a = np.concatenate([strict, weak, eq])
    rhs = np.concatenate([a[:n_ub, n], -a[n_ub:, n]])
    a[:, n] = 0.0
    a[:n_ub, :n] *= -1.0
    a[:len(strict), n] = 1.0
    c = np.append(np.zeros(n), -1.0)
    x = solve_lp(c, a, n_ub, rhs, np.append(lo, -10.0), np.append(hi, 10.0), presolve)
    if x is None:
        return float("-inf"), None
    return float(x[-1]), np.asarray(x[:-1], dtype=float)


# ---------------------------------------------------------------------------
# row builders: each returns an (r, n + 1) block [A | b] of the rows A @ x + b


def _rows(coefs, const=0.0):
    """The block [coefs | const]."""
    rows = np.full((len(coefs), coefs.shape[1] + 1), const)
    rows[:, :-1] = coefs
    return rows


def _at(rows, x):
    """Every row of the block `rows` evaluated at x."""
    return rows[:, :-1] @ x + rows[:, -1]


def _simplex_rows(k):
    """(strict, eq): interior vectors of k entries summing to one."""
    return _rows(np.eye(k)), _rows(np.ones((1, k)), -1.0)


def _diff_rows(lead, trail, pairs):
    """lead[a] - trail[b] for each pair (a, b)."""
    a, b = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return _rows(lead[a] - trail[b])


def _order_rows(levels, coefs):
    """(strict, eq): `coefs @ x` realizes the weak order exactly, equal
    within levels and strictly decreasing across consecutive levels."""
    tops = [level[0] for level in levels]
    rows = _diff_rows(coefs, coefs, list(zip(tops, tops[1:]))
                      + [(level[0], a) for level in levels for a in level[1:]])
    return rows[:len(levels) - 1], rows[len(levels) - 1:]


def _ratio_rows(levels, eps):
    """Weak rows x[b] <= eps * x[a], b one level below a (chains downward)."""
    eye = np.eye(sum(map(len, levels)))
    return _diff_rows(eps * eye, eye,
                      [(a, b) for up, down in zip(levels, levels[1:]) for a in up for b in down])


def _m_fraction_rows(levels, m, coefs):
    """Weak rows coefs[a] @ x >= m * coefs[b] @ x, a's level at or above b's."""
    lv = level_of(levels)
    return _diff_rows(coefs, m * coefs,
                      [(a, b) for a in lv for b in lv if a != b and lv[a] <= lv[b]])


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


def _run_patterns(game, patterns0, patterns1, build_lp, s_feas, s_refute):
    """Shared driver: iterate pattern pairs, early-exit on a feasible one.
    `build_lp(i, own, opp)` gives player i's (lo, hi, strict, weak, eq)."""
    all_refuted = True
    for tried, (pat0, pat1) in enumerate(product(patterns0, patterns1), start=1):
        slacks, xs = [], []
        for i, (own, opp) in enumerate(((pat0, pat1), (pat1, pat0))):
            s, x = solve_player_lp(*build_lp(i, own, opp))
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
    return PatternOutcome(OUTCOME_REFUTED if all_refuted else OUTCOME_OPEN, None,
                          len(patterns0) * len(patterns1))


def _tie_blocks(values):
    """One player's actions in blocks, best first.  Each vector of `values`
    is sorted and cut at every gap above TIE_TOL (single linkage), which
    gives each action a cut rank in it, 0 at the top; a block is the set of
    actions that share their rank in every vector, in action order, and
    blocks run by their ranks, the first vector's first.  Every compatible
    pattern keeps the blocks in this order and splits each by any weak
    order."""
    ranks = []
    for v in values:
        v = v.tolist()
        down = sorted(range(len(v)), key=lambda a: -v[a])
        rank = [0] * len(v)
        for up, a in zip(down, down[1:]):
            rank[a] = rank[up] + (v[up] - v[a] > TIE_TOL)
        ranks.append(rank)
    keys = list(zip(*ranks))
    order = sorted(range(len(keys)), key=keys.__getitem__)
    return [list(block) for _, block in groupby(order, key=keys.__getitem__)]


def _block_orders(blocks):
    """The weak orders of one player's actions that keep `blocks` in order
    and split each block by a weak order, every block whole first; None
    past MAX_PATTERN_PAIRS of them."""
    if prod(n_weak_orders(len(b)) for b in blocks) > MAX_PATTERN_PAIRS:
        return None
    splits = [[tuple(tuple(b[j] for j in level) for level in levels)
               for levels in sorted(weak_orders(len(b)), key=len)] for b in blocks]
    return (sum(parts, ()) for parts in product(*splits))


def _ray_point(point, x, delta):
    """The point at max-norm distance delta from `point` toward `x`, or `x`
    itself when it is closer."""
    t = delta / max(delta, float(abs(x - point).max()))
    return (1 - t) * point + t * x


def _strict_order_witness(game, candidate, orders, utils, delta):
    """Witness for the one compatible pattern pair of an m = 1 candidate
    whose tie blocks are all singletons, `orders[i]` being player i's
    blocks, best first, and `utils[i]` u_i(., sigma*_j) on `game`; None
    unless the candidate meets the pair weakly (every strict row >=
    -TIE_TOL) and the witness clears every strict row.

    The witness is candidate + t * D.  On the support S_j, D_j is the d_j of
    [[A_i, -1], [1^T, 0]] [d_j; c] = [r_i; 0] with A_i = u_i[S_i, S_j] and
    r_i the ranks k, ..., 1 of sigma*_i along the order, so u_i(., x_j)
    falls by the same step per rank on S_i; both players' systems are
    solved in one stacked call.  Off S_j, D_j puts a mass that falls along
    the order, small enough to move those steps by at most half, and takes
    it from sigma*_j pro rata; each D_j is scaled to max norm 1.  t is half
    the step at which a first row falls to TIE_TOL, cut to delta.

    The strict rows of the pair at a profile x are the entries of x, then
    each player's consecutive steps in x_i and in u_i(., x_j) along the
    order.  They are read as differences z[lead] - z[trail] of z = (x_0,
    x_1, u_0, u_1, 0), whose index arrays are built once per call.
    """
    sig = candidate.vectors
    sup = [order[s[order] > TIE_TOL] for order, s in zip(orders, sig)]
    k = len(sup[0])
    if len(sup[1]) != k:
        return None
    n0 = len(sig[0])
    n = n0 + len(sig[1])
    r0, r1 = orders[0].tolist(), (orders[1] + n0).tolist()  # the orders in (x_0, x_1)
    pairs = [*zip(r0, r0[1:]), *zip(r1, r1[1:])]  # consecutive in an order
    lead, trail = np.array([(a, 2 * n) for a in range(n)] + pairs
                           + [(a + n, b + n) for a, b in pairs]).T

    def strict_rows(vectors, values):
        z = np.concatenate([*vectors, *values, [0.0]])
        return z, z[lead] - z[trail]

    z, at_point = strict_rows(sig, utils)
    if at_point.min() < -TIE_TOL:
        return None
    coefs = [_util_coefs(game, 1 - i)[sup[i]] for i in range(2)]  # u_i[S_i, .]
    steps = [np.zeros(n0), np.zeros(n - n0)]
    if k > 1:
        border = np.zeros((2, k + 1, k + 1))
        for i in range(2):
            border[i, :k, :k] = coefs[i][:, sup[1 - i]]
        border[:, :k, k] = -1.0
        border[:, k, :k] = 1.0
        try:
            solved = np.linalg.solve(border, np.arange(k, -1, -1.0)[None, :, None])
        except np.linalg.LinAlgError:
            return None
        for i in range(2):
            steps[1 - i][sup[1 - i]] = solved[i, :k, 0]
    for i in range(2):
        j = 1 - i
        off_j, step = orders[j][k:], steps[j]
        if len(off_j):
            block = coefs[i][:, off_j]
            spread = float((block.max(axis=0) - block.min(axis=0)).max())
            mass = np.arange(len(off_j), 0, -1.0)
            share = mass / (mass.sum() * (2 * spread if spread > 0 else 1.0))
            step[off_j] = share
            step -= share.sum() * sig[j]
        top = abs(step).max()
        if top > 0:
            steps[j] = step / top
    dz, along = strict_rows(steps, [utility_vector(game, i, steps) for i in range(2)])
    down = along < 0
    t = ((at_point[down] - TIE_TOL) / -along[down]).min(initial=np.inf) / 2
    if not t > 0:
        return None
    point = z[:n]
    x = _ray_point(point, point + min(t, 1.0) * dz[:n], delta)
    vectors = (x[:n0], x[n0:])
    if not x.min() > 0 or max(abs(v.sum() - 1.0) for v in vectors) > TIE_TOL:
        return None
    witness = MixedProfile(candidate.game, vectors)
    w = witness.vectors
    _, rows = strict_rows(w, [utility_vector(game, i, w) for i in range(2)])
    return witness if rows.min() > TIE_TOL else None


def monotone_pattern_search(game, candidate, delta, m=1.0):
    """Closure test: is the candidate a limit of interior payoff-monotone
    (m = 1) or m-weakly payoff-monotone (m < 1) profiles?

    Player i's pattern is a weak order realized by u_i(., x_j), and by x_i
    too for m = 1; for m < 1, x_i meets its m-fraction rows.  The interior
    profiles of a pattern pair form a relatively open polyhedron S, whose
    closure, if S is nonempty, is the same system with strict rows made
    weak.  So only pairs that the candidate meets weakly (every inequality
    >= -TIE_TOL and every equality within TIE_TOL) are tried, one stacked
    LP each with one slack on the strict rows and x > 0.
    feasible: some slack > TIE_TOL; the witness is on the ray from the
    candidate to the LP's point, at distance delta, inside S.  Moving onto
    the ray shrinks every strict row; where one falls to TIE_TOL and the
    point fails `witness_ok`, the pair's LP is solved once more inside the
    delta box, and its point is the witness if its slack exceeds TIE_TOL.
    The outcome stays feasible either way.  refuted: no such slack, also
    where the candidate meets no pair (for m = 1, x_i and u_i can order two
    tie blocks in opposite directions).  open: more than MAX_PATTERN_PAIRS
    patterns of one player or pattern pairs.

    For m = 1, when every tie block of both players is a singleton (as at
    the equilibria of games with generic payoffs), the one compatible pair
    is a strict order per player, and where the candidate meets it,
    `_strict_order_witness` tries a point in closed form first: one
    bordered solve per player.  It is accepted only if every strict row of
    that pair, evaluated at the witness itself, exceeds TIE_TOL and each
    vector sums to one.  The witness is then in S, so `witness_ok` holds,
    and the LP's slack is at least as large, so the LP would decide
    feasible too; the segment from the candidate to the witness lies in S,
    which puts the candidate in its closure.  Otherwise the LP runs as
    above.
    """
    if game.n_players != 2:
        raise ValueError("pattern search requires a two-player game")
    utils = [utility_vector(game, i, candidate.vectors) for i in range(2)]
    blocks = [_tie_blocks((x, u) if m == 1.0 else (u,)) for x, u in zip(candidate.vectors, utils)]
    if m == 1.0 and all(len(b) == 1 for player in blocks for b in player):
        orders = [np.array([b[0] for b in player]) for player in blocks]
        witness = _strict_order_witness(game, candidate, orders, utils, delta)
        if witness is not None:
            return PatternOutcome(OUTCOME_FEASIBLE, witness, 1)
    patterns = [_block_orders(b) for b in blocks]
    if any(p is None for p in patterns):
        return PatternOutcome(OUTCOME_OPEN, None, 0)
    k0, k1 = game.action_counts
    n = k0 + k1
    own = np.split(np.eye(n), [k0])  # x_i in the stacked variables (x_0, x_1)
    util = (np.hstack([np.zeros((k0, k0)), _util_coefs(game, 1)]),  # u_0(., x_1)
            np.hstack([_util_coefs(game, 0), np.zeros((k1, k1))]))  # u_1(., x_0)
    point = candidate.stacked()
    base_strict = _rows(np.eye(n))
    base_eq = _rows(np.array([own[0].sum(axis=0), own[1].sum(axis=0)]), -1.0)

    def pattern_rows(i, levels):  # None unless the candidate meets them weakly
        strict, eq = _order_rows(levels, util[i])
        if m == 1.0:
            own_strict, own_eq = _order_rows(levels, own[i])
            strict, eq = np.concatenate([own_strict, strict]), np.concatenate([own_eq, eq])
            weak = np.zeros((0, n + 1))
        else:
            weak = _m_fraction_rows(levels, m, own[i])
        if (_at(np.concatenate([strict, weak]), point).min(initial=0.0) < -TIE_TOL
                or np.abs(_at(eq, point)).max(initial=0.0) > TIE_TOL):
            return None
        return strict, weak, eq

    pats = [[rows for levels in patterns[0] if (rows := pattern_rows(0, levels)) is not None], []]
    # player 1's patterns are built only while they can still matter: none
    # when player 0 keeps none, and none past the pair cap
    for levels in patterns[1] if pats[0] else ():
        if (rows := pattern_rows(1, levels)) is not None:
            pats[1].append(rows)
            if len(pats[0]) * len(pats[1]) > MAX_PATTERN_PAIRS:
                return PatternOutcome(OUTCOME_OPEN, None, 0)
    count = len(pats[0]) * len(pats[1])
    for tried, ((s0, w0, e0), (s1, w1, e1)) in enumerate(product(*pats), start=1):
        strict = np.concatenate([base_strict, s0, s1])
        weak = np.concatenate([w0, w1])
        eq = np.concatenate([base_eq, e0, e1])
        s, x = solve_player_lp(np.zeros(n), np.ones(n), strict, weak, eq, presolve=False)
        if s > TIE_TOL:
            x = _ray_point(point, np.clip(x, 0.0, None), delta)
            witness = MixedProfile(candidate.game, np.split(x, [k0]))
            if (_at(strict, x).min() <= TIE_TOL
                    and not witness_ok(game, witness, candidate, delta, m)):
                # the ray shrinks every strict row by delta / |x - point|, so
                # a utility step can fall to TIE_TOL; inside the delta box
                # the same LP keeps its largest slack
                s, x = solve_player_lp(np.maximum(0.0, point - delta),
                                       np.minimum(1.0, point + delta),
                                       strict, weak, eq, presolve=False)
                if s > TIE_TOL:
                    x = _ray_point(point, np.clip(x, 0.0, None), delta)
                    witness = MixedProfile(candidate.game, np.split(x, [k0]))
            return PatternOutcome(OUTCOME_FEASIBLE, witness, tried)
    return PatternOutcome(OUTCOME_REFUTED, None, count)


def witness_ok(game, witness, candidate, delta, m):
    """The re-check of every membership witness: interior, within delta of
    the candidate, and payoff monotone (m = 1) or m-weakly payoff monotone
    at the predicates' default tolerance."""
    if witness is None or not witness.is_interior:
        return False
    if witness.distance(candidate) > delta * (1 + 1e-9):
        return False
    if m == 1.0:
        return is_payoff_monotone(game, witness).satisfied
    return is_m_weakly_payoff_monotone(game, witness, m).satisfied


def perfect_pattern_search(game, candidate, eps, delta):
    """Exact two-player perfection (van Damme 1991, Thm 3.2.2): per player,
    one LP on the unit view maximizes t over tau_j >= t, sum tau_j = 1, with
    supp sigma_i (entries > TIE_TOL) in the best replies.
    Both t > TIE_TOL: feasible, witness (1 - eps) sigma + eps tau.  Else
    refuted with a `_mixed_dominance` certificate, or open (`lp-numerics`)
    where none re-checks.  `tried` counts LPs solved."""
    if game.n_players != 2:
        raise ValueError("pattern search requires a two-player game")
    taus = [None, None]
    for i, j in ((0, 1), (1, 0)):
        coefs = _util_coefs(unit_view(game), j)  # u_i(a, .) over tau_j
        support = candidate.vectors[i] > TIE_TOL
        gaps = coefs[np.argmax(support)] - coefs
        k = coefs.shape[1]
        strict, eq = _simplex_rows(k)  # tau_j's whole simplex
        t, taus[j] = solve_player_lp(np.zeros(k), np.ones(k), strict, _rows(gaps[~support]),
                                     np.concatenate([eq, _rows(gaps[support])]))
        if not t > TIE_TOL:
            cert = _mixed_dominance(game, candidate.vectors[i], i)
            if cert is None:
                return PatternOutcome(OUTCOME_OPEN, None, i + 2, note="lp-numerics")
            return PatternOutcome(OUTCOME_REFUTED, None, i + 2, cert)
    vectors = [(1 - eps) * sig + eps * tau for sig, tau in zip(candidate.vectors, taus)]
    return PatternOutcome(OUTCOME_FEASIBLE, MixedProfile(game, vectors), 2)


def _mixed_dominance(game, sig, i):
    """A `mixed-dominance` certificate for player i's strategy sig: the mu
    of greatest summed gain with no loss, if it loses at most TIE_TOL to
    sig and gains over TIE_TOL once, all on the unit view."""
    u = _util_coefs(unit_view(game), 1 - i)  # u_i[a, b]
    k = len(sig)
    x = solve_lp(-u.sum(axis=1), np.vstack([-u.T, np.ones((1, k))]), u.shape[1],
                 np.append(-(sig @ u), 1.0), np.zeros(k), np.ones(k))
    if x is None:
        return None
    mu = np.clip(x, 0.0, None)
    mu /= mu.sum()
    gain = (mu - sig) @ u
    if gain.min() < -TIE_TOL or not gain.max() > TIE_TOL:
        return None
    player = game.players[i]
    return {"kind": "mixed-dominance", "player": player,
            "dominating": {game.actions[player][a]: float(mu[a]) for a in np.flatnonzero(mu)}}


def proper_pattern_search(game, candidate, eps, delta):
    """Search / refute eps-proper interior profiles within delta.

    Player i's pattern is a weak order of u_i(., x_j); strictly lower
    levels keep at most eps times the probability of any higher action.
    The patterns are those of the closure test: u_i's tie blocks at the
    candidate, on the unit view, each split by any weak order, less those
    that put a weakly dominated action at or above its dominator (at an
    interior profile the dominator earns strictly more).  Past
    MAX_PATTERN_PAIRS patterns of one player or pattern pairs the outcome
    is open.

    Exhaustion refutes properness in the limit: eps_n-proper profiles that
    converge to the candidate eventually keep its strict utility gaps, lie
    within delta and, once eps_n <= eps, are eps-proper, so one of them
    would meet a pattern tried here.  The outcome then carries an
    `order-exhaustion` certificate.  A pattern of L levels holds its lowest
    level to at most eps^(L-1), so no slack above that clears its LP.  Each
    player's patterns include one of k_i levels, every block split into
    single actions; so where eps^(kmax-1) falls below the feasibility
    margin, exhaustion is open with note `lp-numerics` instead.
    """
    if game.n_players != 2:
        raise ValueError("pattern search requires a two-player game")
    kmax = max(game.action_counts)
    s_feas = max(1e-13, min(1e-8, 1e-2 * eps ** max(1, kmax - 1)))
    s_refute = s_feas * 1e-3
    unit = unit_view(game)
    pats = []
    for i in range(2):
        orders = _block_orders(_tie_blocks((utility_vector(unit, i, candidate.vectors),)))
        if orders is None:
            return PatternOutcome(OUTCOME_OPEN, None, 0)
        dom = [(g, d) for _, d, g in weak_dominance(game).indexed[i]]
        pats.append([])
        for levels in orders:
            lv = level_of(levels)
            if all(lv[g] < lv[d] for g, d in dom):
                pats[i].append(levels)
    if len(pats[0]) * len(pats[1]) > MAX_PATTERN_PAIRS:
        return PatternOutcome(OUTCOME_OPEN, None, 0)
    simplex = [_simplex_rows(k) for k in game.action_counts]

    def pattern_rows(i, levels):
        """Player i's weak rows, and the opponent's strict and eq rows: its
        simplex, then the order rows of u_i(., x_j), linear in x_j."""
        strict, eq = simplex[1 - i]
        order_strict, order_eq = _order_rows(levels, _util_coefs(game, 1 - i))
        return (_ratio_rows(levels, eps), np.concatenate([strict, order_strict]),
                np.concatenate([eq, order_eq]))

    rows = [[pattern_rows(i, levels) for levels in pats[i]] for i in range(2)]
    boxes = [(np.maximum(0.0, v - delta), np.minimum(1.0, v + delta)) for v in candidate.vectors]
    out = _run_patterns(game, rows[0], rows[1],
                        lambda i, own, opp: (*boxes[i], opp[1], own[0], opp[2]),
                        s_feas, s_refute)
    if out.outcome == OUTCOME_REFUTED:
        if eps ** (kmax - 1) < s_feas:
            out.outcome, out.note = OUTCOME_OPEN, "lp-numerics"
        else:
            out.certificate = {"kind": "order-exhaustion", "eps": float(eps),
                               "delta": float(delta), "patterns_tried": out.tried}
    return out
