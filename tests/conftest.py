from dataclasses import dataclass
from itertools import combinations

import numpy as np
import pytest

from empeq import corpus, empirical, nash, search
from empeq.ccost import SplineError
from empeq.empirical import DEFAULT_DELTAS, MembershipVerdict, empirical_membership
from empeq.game import (SIMPLEX_TOL, TIE_TOL, DominancePair, Game, MixedProfile, ProfileError,
                        expected_utility, nash_defect, unit_view, weak_dominance)
from empeq.nash import UnsupportedGameError, nearest_nash
from empeq.qre import LogisticQRF, QreConvergenceError, qre_fixed_point, trace_logit_path


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
            pt = qre_fixed_point(game, [LogisticQRF(lam)] * game.n_players)
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


# ---------------------------------------------------------------------------
# reference enumeration: the per-pair exact decision that the array-level
# exact stage replaced, kept self-contained so that it shares no code with
# the stage it checks


def per_pair_reference(game):
    """Support enumeration without the screen or the exact stage: one
    `_ref_side` per side of every support pair, on the game's unit view, in
    the order (|s1|, s1, |s2|, s2)."""
    def supports(n):
        return sorted((s for r in range(1, n + 1) for s in combinations(range(n), r)),
                      key=lambda s: (len(s), s))

    out = nash.EquilibriumSet([], [], [])
    m, k = game.action_counts
    for s1 in supports(m):
        for s2 in supports(k):
            _ref_solve_pair(game, s1, s2, out)
    out.isolated, out.components = _ref_dedupe(game, out.isolated, out.components)
    return out


def _ref_side(own, opp, opp_payoff):
    """The `nash._Side` of actions `own` against opponent support `opp`, or
    None when its equalities are inconsistent.

    opp_payoff[own action, opponent action] is the opponent's payoff on the
    unit view, in [0, 1].  The equalities are sum(v) = 1 and equal opponent
    payoff across `opp`; one SVD of their matrix gives the minimum-norm
    solution x0 and the null space.  The rows of g are v_j >= -1e-10, then
    the payoff edge of opp[0] over each opponent action outside `opp`.
    """
    pay = opp_payoff[list(own)]
    block = pay[:, list(opp)]
    a = np.vstack([np.ones(len(own)), (block[:, :-1] - block[:, 1:]).T])
    u, s, vt = np.linalg.svd(a)
    # s[0] >= 1: the all-ones row has norm at least one
    rank = int(np.sum(s > max(a.shape) * np.finfo(float).eps * s[0]))
    x0 = vt[:rank].T @ (u[0, :rank] / s[:rank])
    rhs = np.zeros(len(a))
    rhs[0] = 1.0
    if np.max(np.abs(a @ x0 - rhs)) > TIE_TOL:
        return None
    outside = [b for b in range(pay.shape[1]) if b not in opp]
    g = np.vstack([np.eye(len(own)), (block[:, :1] - pay[:, outside]).T])
    tol = np.repeat([1e-10, TIE_TOL], [len(own), len(outside)])
    return nash._Side(tuple(own), x0, vt[rank:].T, g, tol)


def _ref_x0_feasible(side):
    return bool(np.all(side.g @ side.x0 >= -side.tol))


def _ref_proves_empty(side):
    """True when a pair with this side holds no equilibrium: its equalities
    are inconsistent (None), or it is a point with infeasible x0."""
    return side is None or (not side.null.shape[1] and not _ref_x0_feasible(side))


def face_proved_empty(side):
    """True when an LP over the side record proves that no v = x0 + null @ z
    meets g @ v >= -tol: the largest s with g @ v + tol >= s entrywise (s
    at most 1) is negative."""
    r = side.null.shape[1]
    a = np.hstack([-(side.g @ side.null), np.ones((len(side.g), 1))])
    rhs = side.g @ side.x0 + side.tol
    cost = np.zeros(r + 1)
    cost[-1] = -1.0
    ub = np.full(r + 1, np.inf)
    ub[-1] = 1.0
    x = search.solve_lp(cost, a, len(rhs), rhs, np.full(r + 1, -np.inf), ub)
    return x is not None and x[-1] < 0


def without_dropped_faces(listed, ref):
    """`ref` without the `degenerate` diagnostics whose support is not in
    `listed` and that `face_proved_empty` proves empty on one side; the rest
    of `ref` is kept as it is."""
    keep = [d for d in ref.diagnostics
            if d.support in listed or d.status != "degenerate"
            or not any(face_proved_empty(s) for s in d.sides)]
    return nash.EquilibriumSet(ref.isolated, ref.components, keep)


def _ref_interval_for(x0, d, g, tol):
    """[lo, hi] of the t with g @ (x0 + t d) >= -tol, or None when empty."""
    a = g @ d
    b = g @ x0 + tol
    flat = np.abs(a) <= 1e-12
    if np.any(b[flat] < 0):
        return None
    up, down = a > 1e-12, a < -1e-12
    lo = float(np.max(-b[up] / a[up], initial=-1e12))
    hi = float(np.min(-b[down] / a[down], initial=1e12))
    if lo > hi + 1e-12:
        return None
    if lo > hi:
        lo = hi = 0.5 * (lo + hi)
    return (lo, hi)


def _ref_snap_zero(v):
    return np.where(np.abs(v) <= 1e-15, 0.0, v)


def _ref_embed(n, support, values):
    v = np.zeros(n)
    v[list(support)] = values
    return v


def _ref_solve_pair(game, s1, s2, out):
    """The exact decision for the support pair (s1, s2), added to `out`.

    The sides and the Nash test of a candidate are taken on the game's
    `unit_view`; what is added is built on `game`.  A pair with a side that
    `_ref_proves_empty`, or a one-dimensional family with no feasible point,
    adds nothing.  Otherwise the pair adds an isolated equilibrium or a
    segment, or a diagnostic: `degenerate` for a solution set of dimension
    >= 2, with the side records `nearest_nash` projects onto, and
    `incentive-violation` for a candidate point that is not Nash.
    """
    m, k = game.action_counts
    unit = unit_view(game)
    # x over s1 equalizes player 2 across s2; y over s2 equalizes player 1
    # across s1
    xs = _ref_side(s1, s2, unit.payoffs[..., 1])
    if _ref_proves_empty(xs):
        return
    ys = _ref_side(s2, s1, unit.payoffs[..., 0].T)
    if _ref_proves_empty(ys):
        return
    dim = xs.null.shape[1] + ys.null.shape[1]
    if dim == 0:
        prof = MixedProfile(
            game, [_ref_embed(m, s1, np.clip(xs.x0, 0, None)),
                   _ref_embed(k, s2, np.clip(ys.x0, 0, None))]
        )
        if nash_defect(unit, prof) <= TIE_TOL:
            out.isolated.append(prof)
        else:
            out.diagnostics.append(
                nash.SupportDiagnostic((s1, s2), "incentive-violation")
            )
    elif dim == 1:
        comp = _ref_one_dim_component(game, xs, ys)
        if isinstance(comp, MixedProfile):
            if nash_defect(unit, comp) <= TIE_TOL:
                out.isolated.append(comp)
        elif comp is not None:
            out.components.append(comp)
    else:
        out.diagnostics.append(
            nash.SupportDiagnostic(
                (s1, s2),
                "degenerate",
                f"solution set of dimension {dim} not traced",
                sides=(xs, ys),
            )
        )


def _ref_profile_at(game, comp, t):
    vecs = [np.clip(b + t * d, 0.0, None) for b, d in zip(comp.base, comp.direction)]
    return MixedProfile(game, vecs)


def _ref_one_dim_component(game, xs, ys):
    """Segment of a support pair with one free dimension: a `Component`, a
    single `MixedProfile` when the segment has width <= 1e-9, or None.  The
    fixed side is a point with feasible x0.

    The segment keeps the t where the varying side is >= -1e-10 and every
    utility gap that `nash_defect` compares, against the fixed side's point
    normalized, is >= -TIE_TOL: the opponent's actions against the
    opponent's utility, then the varying player's against the player's."""
    player = 0 if xs.null.shape[1] == 1 else 1
    var, fixed = (xs, ys)[player], (ys, xs)[player]
    d = var.null[:, 0]
    mx = np.max(np.abs(d))
    if mx <= 1e-12:
        return None
    d = d / mx
    if d[np.flatnonzero(np.abs(d) > 1e-12)[0]] < 0:
        d = -d
    unit = unit_view(game)
    pays = (unit.payoffs[..., 1], unit.payoffs[..., 0].T)
    w = _ref_embed(game.action_counts[1 - player], fixed.own, np.clip(fixed.x0, 0, None))
    w = w / w.sum()
    own = list(var.own)
    opp_pay = pays[player][own]
    util = w @ pays[1 - player]
    g = np.vstack([np.eye(len(own)), (opp_pay @ w)[None, :] - opp_pay.T,
                   util[own][None, :] - util[:, None]])
    nash_row = np.arange(len(g)) >= len(own)
    own_row = np.arange(len(g)) >= len(g) - len(util)
    tol = np.where(nash_row, TIE_TOL, 1e-10)
    span = _ref_interval_for(var.x0, d, g, tol)
    if span is None:
        return None
    # tolerance fuzz inflates point solutions into hair-width intervals;
    # the geometry without it decides point vs genuine component.  Rows
    # flat along d cannot widen the interval, so they keep their tolerance
    # (a zero weight that rounds to -1e-17 must not empty the family); the
    # varying player's own gaps keep TIE_TOL, less 1e-12 for rounding
    flat = np.abs(g @ d) <= 1e-12
    exact = _ref_interval_for(var.x0, d, g,
                              np.where(flat, tol, np.where(own_row, TIE_TOL - 1e-12, 0.0)))
    if exact is None:
        mid = 0.5 * (span[0] + span[1])
        exact = (mid, mid)
    lo, hi = _ref_snap_zero(np.array(exact))
    sides = (xs, ys)
    base = tuple(
        _ref_snap_zero(_ref_embed(n, s.own, s.x0 if s is var else np.clip(s.x0, 0, None)))
        for n, s in zip(game.action_counts, sides)
    )
    direction = tuple(_ref_snap_zero(_ref_embed(n, s.own, d if s is var else 0.0))
                      for n, s in zip(game.action_counts, sides))
    support = tuple(tuple(game.actions[p][a] for a in s.own)
                    for p, s in zip(game.players, sides))
    comp = nash.Component(support, base, direction, (float(lo), float(hi)))
    if hi - lo <= 1e-9:
        return _ref_profile_at(game, comp, 0.5 * (lo + hi))
    return comp


def _ref_distance_to(game, comp, profile):
    """(distance, t): max-norm distance from `profile` to the component and
    the smallest t in the interval attaining it."""
    a = np.concatenate(comp.base) - profile.stacked()
    b = np.concatenate(comp.direction)
    alpha, beta = np.concatenate([a, -a]), np.concatenate([b, -b])
    i, j = np.triu_indices(len(alpha), 1)
    slope = beta[i] - beta[j]
    crossing = slope != 0
    cross = (alpha[j] - alpha[i])[crossing] / slope[crossing]
    lo, hi = comp.interval
    ts = np.concatenate([[lo, hi], cross[(cross > lo) & (cross < hi)]])
    vals = np.max(np.abs(a + ts[:, None] * b), axis=1)
    t = float(np.min(ts[vals <= vals.min() + 1e-14]))
    return _ref_profile_at(game, comp, t).distance(profile), t


def _ref_dedupe(game, isolated, components):
    components = _ref_merge_components(game, components)
    # the max-norm gap from a point to a segment's bounding box bounds its
    # distance to the segment from below
    boxes = []
    for c in components:
        ends = [np.concatenate(c.base) + t * np.concatenate(c.direction) for t in c.interval]
        boxes.append((np.minimum(*ends), np.maximum(*ends)))
    kept = []
    for p in isolated:
        x = p.stacked()
        if any(np.max(np.maximum(lo - x, x - hi)) <= 1e-9
               and _ref_distance_to(game, c, p)[0] <= 1e-9
               for c, (lo, hi) in zip(components, boxes)):
            continue
        if any(p.distance(q) <= 1e-9 for q in kept):
            continue
        kept.append(p)
    kept.sort(key=lambda p: tuple(p.stacked()))
    components.sort(key=lambda c: c.support)
    return kept, components


def _ref_merge_components(game, components):
    merged = []
    for comp in components:
        absorbed = False
        for i, other in enumerate(merged):
            joined = _ref_try_join(game, other, comp)
            if joined is not None:
                merged[i] = joined
                absorbed = True
                break
        if not absorbed:
            merged.append(comp)
    return merged


def _ref_try_join(game, a, b):
    da = np.concatenate(a.direction)
    db = np.concatenate(b.direction)
    na, nb = np.linalg.norm(da), np.linalg.norm(db)
    if na == 0 or nb == 0:
        return None
    cos = float(da @ db) / (na * nb)
    if abs(abs(cos) - 1.0) > 1e-9:
        return None
    delta = np.concatenate(b.base) - np.concatenate(a.base)
    # offset of b's base along a's line; must lie on the line
    t0 = float(delta @ da) / (na * na)
    if np.max(np.abs(delta - t0 * da)) > 1e-9:
        return None
    sgn = 1.0 if cos > 0 else -1.0
    ratio = nb / na * sgn
    blo, bhi = sorted((t0 + b.interval[0] * ratio, t0 + b.interval[1] * ratio))
    alo, ahi = a.interval
    if blo > ahi + 1e-9 or alo > bhi + 1e-9:
        return None
    return nash.Component(a.support, a.base, a.direction,
                          (min(alo, blo), max(ahi, bhi)))


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


def noisy_integer_games(count):
    """`integer_games(count)` with U(-1e-9, 1e-9) added to every payoff:
    ties broken at the scale of the tie tolerance."""
    rng = np.random.default_rng(5)
    return [Game(g.players, g.actions, g.payoffs + rng.uniform(-1e-9, 1e-9, size=g.payoffs.shape))
            for g in integer_games(count)]


def chained_tie_game():
    """P1 = [[1, 0], [1 - 1.6e-9, 0], [1 + 1.2e-9, 2]] over a0-a2 and b0-b1,
    P2 = 1 at b0 and 0 at b1.  Against b0, a0 ties a1 and a2 on the unit
    view while a1 and a2 differ by 1.4e-9, so the segment a0-a1 against b0
    is Nash only up to its middle."""
    p1 = np.array([[1, 0], [1 - 1.6e-9, 0], [1 + 1.2e-9, 2]])
    p2 = np.array([[1.0, 0.0]] * 3)
    return Game(["P1", "P2"], {"P1": ["a0", "a1", "a2"], "P2": ["b0", "b1"]},
                np.stack([p1, p2], axis=-1))


# ---------------------------------------------------------------------------
# reference ranked orders: the pattern sets of the delta-box searches, which
# ranked every weak order of up to REF_MAX_EXHAUSTIVE_ACTIONS actions

REF_MAX_EXHAUSTIVE_ACTIONS = 5


def _ref_ranked_orders(k, forced_strict, forced_weak, values):
    """Weak orders of k actions where forced_strict pairs (a,b) have a
    strictly above b and forced_weak pairs have a at least as high as b,
    closest to the value vector first, ties in `search.weak_orders(k)`
    order.

    The distance sums, over pairs a < b, the amount by which the values run
    against the order, plus 0.1 for a tie in value split across levels.
    """

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


def _ref_forced_util_pairs(game, candidate, player, delta):
    """Pairs whose expected-utility order cannot flip inside the ball."""
    eu = expected_utility(game, candidate, player)
    ui = game.payoffs[..., player]
    opp_size = ui.size // game.action_counts[player]
    slack = float(ui.max() - ui.min()) * min(2.0, opp_size * delta)
    n = len(eu)
    return {(a, b) for a in range(n) for b in range(n) if a != b and eu[a] - eu[b] > 2 * slack}


def _ref_sorted_orders(game, candidate, player, forced_strict, forced_weak):
    k = game.action_counts[player]
    if k > REF_MAX_EXHAUSTIVE_ACTIONS:
        return None
    eu = expected_utility(game, candidate, player)
    return _ref_ranked_orders(k, forced_strict, forced_weak, eu)


def reference_proper_search(game, candidate, eps, delta):
    """The ranked proper search that the tie-block patterns replaced: per
    player, the weak orders that keep the dominance pairs and the utility
    gaps the delta ball cannot close, closest to the candidate's utilities
    first.  Exhaustion refutes, with an `order-exhaustion` certificate."""
    kmax = max(game.action_counts)
    s_feas = max(1e-13, min(1e-8, 1e-2 * eps ** max(1, kmax - 1)))
    s_refute = s_feas * 1e-3
    pats = []
    for i in range(2):
        forced = _ref_forced_util_pairs(game, candidate, i, delta) | dominance_pairs(game, i)
        orders = _ref_sorted_orders(game, candidate, i, forced, set())
        if orders is None:
            return search.PatternOutcome(search.OUTCOME_OPEN, None, 0)
        pats.append(orders)

    def build_lp(i, own, opp):
        strict, eq = search._simplex_rows(len(candidate.vectors[i]))
        opp_strict, opp_eq = search._order_rows(opp, search._util_coefs(game, i))
        return (*_box(candidate.vectors[i], delta), np.concatenate([strict, opp_strict]),
                search._ratio_rows(own, eps), np.concatenate([eq, opp_eq]))

    out = search._run_patterns(game, pats[0], pats[1], build_lp, s_feas, s_refute)
    if out.outcome == search.OUTCOME_REFUTED:
        out.certificate = {"kind": "order-exhaustion", "eps": float(eps),
                           "delta": float(delta), "patterns_tried": out.tried}
    return out


# ---------------------------------------------------------------------------
# reference membership: the delta-box searches that the closure test replaced


def _forced_prob_pairs(candidate_vec, delta):
    """Pairs whose probability order cannot flip inside the max-norm ball."""
    v = np.asarray(candidate_vec)
    return {(a, b) for a in range(len(v)) for b in range(len(v))
            if a != b and v[a] - v[b] > 2 * delta}


def _box(v, delta):
    """(lo, hi): within delta of v, inside [0, 1]."""
    return np.maximum(0.0, v - delta), np.minimum(1.0, v + delta)


def _cross_strict_rows(levels, coefs):
    """Strict rows for every pair across distinct levels, no tie equalities:
    strictly-more-played pairs need strictly higher value."""
    return search._diff_rows(coefs, coefs, [(a, b) for i, up in enumerate(levels)
                                            for down in levels[i + 1:] for a in up for b in down])


def reference_pattern_search(game, candidate, delta, m=1.0, refute_mode=False):
    """Search for interior monotone profiles (m = 1: payoff-monotone; m < 1:
    m-weakly monotone) within `delta`; in refute mode, certify that not even
    boundary profiles of the matching monotonicity notion exist there.
    Weak orders are ranked per player, and only up to
    REF_MAX_EXHAUSTIVE_ACTIONS actions."""
    s_feas = max(1e-12, min(1e-8, 1e-2 * delta))
    s_refute = s_feas * 1e-3
    pats = []
    for i in range(2):
        prob_forced = _forced_prob_pairs(candidate.vectors[i], delta)
        util_forced = _ref_forced_util_pairs(game, candidate, i, delta)
        dom = dominance_pairs(game, i)
        if m == 1.0 and not refute_mode:
            strict, weak = prob_forced | util_forced | dom, set()
        elif m == 1.0:
            strict, weak = prob_forced, util_forced | dom
        elif not refute_mode:
            strict, weak = util_forced | dom, set()
        else:
            strict, weak = util_forced, dom
        orders = _ref_sorted_orders(game, candidate, i, strict, weak)
        if orders is None:
            return search.PatternOutcome(search.OUTCOME_OPEN, None, 0)
        pats.append(orders)

    def build_lp(i, own, opp):
        k = len(candidate.vectors[i])
        strict, eq = search._simplex_rows(k)
        if refute_mode:
            strict = strict[:0]  # boundary profiles count as well
        weak = np.zeros((0, k + 1))
        if m == 1.0:
            own_strict, own_eq = search._order_rows(own, np.eye(k))
            strict, eq = np.concatenate([strict, own_strict]), np.concatenate([eq, own_eq])
        else:
            weak = search._m_fraction_rows(own, m, np.eye(k))
        coefs = search._util_coefs(game, i)
        if m == 1.0 and refute_mode:
            opp_strict, opp_eq = _cross_strict_rows(opp, coefs), eq[:0]
        else:
            opp_strict, opp_eq = search._order_rows(opp, coefs)
        return (*_box(candidate.vectors[i], delta), np.concatenate([strict, opp_strict]),
                weak, np.concatenate([eq, opp_eq]))

    return search._run_patterns(game, pats[0], pats[1], build_lp, s_feas, s_refute)


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
    REF_MAX_EXHAUSTIVE_ACTIONS + 3 actions.  Exhaustion does not refute
    perfection, so it ends "open"."""
    s_feas = max(1e-12, min(1e-8, 1e-3 * eps))
    s_refute = s_feas * 1e-3
    pats = []
    for i in range(2):
        k = game.action_counts[i]
        if k > REF_MAX_EXHAUSTIVE_ACTIONS + 3:
            return search.PatternOutcome(search.OUTCOME_OPEN, None, 0)
        core = set(np.flatnonzero(candidate.vectors[i] > eps + delta).tolist())
        subsets = (tuple(a for a in range(k) if mask >> a & 1) for mask in range(1, 1 << k))
        pats.append(sorted((b for b in subsets if core <= set(b)), key=len))

    def build_lp(i, own, opp):
        strict, eq = search._simplex_rows(len(candidate.vectors[i]))
        off = [a for a in range(game.action_counts[i]) if a not in own]
        weak = search._rows(-np.eye(game.action_counts[i])[off], eps)  # x[a] <= eps
        coefs = search._util_coefs(game, i)
        others = range(game.action_counts[1 - i])
        tied = search._diff_rows(coefs, coefs, [(opp[0], b) for b in others if b in opp[1:]])
        worse = search._diff_rows(coefs, coefs, [(opp[0], b) for b in others if b not in opp])
        return (*_box(candidate.vectors[i], delta), np.concatenate([strict, worse]), weak,
                np.concatenate([eq, tied]))

    out = search._run_patterns(game, pats[0], pats[1], build_lp, s_feas, s_refute)
    if out.outcome == search.OUTCOME_REFUTED:
        return search.PatternOutcome(search.OUTCOME_OPEN, None, out.tried)
    return out


def reference_dominance_report(game):
    """`weak_dominance(game).indexed` by the pair loop that the array
    comparison replaced: per player, every dominated d and then every
    dominating g != d, a pair where u[g] - u[d] >= 0 everywhere and > 0
    somewhere, witnessed by the first opponent profile where it is > 0."""
    indexed = []
    for i, p in enumerate(game.players):
        k = len(game.actions[p])
        ui = np.moveaxis(game.payoffs[..., i], i, 0).reshape(k, -1)
        opp = [q for q in game.players if q != p]
        found = []
        for d in range(k):
            for g in range(k):
                diff = ui[g] - ui[d]
                if d == g or not (np.all(diff >= 0.0) and np.any(diff > 0.0)):
                    continue
                witness = {}
                if opp:
                    idx = np.unravel_index(int(np.argmax(diff > 0.0)),
                                           tuple(len(game.actions[q]) for q in opp))
                    witness = {q: game.actions[q][idx[t]] for t, q in enumerate(opp)}
                found.append((DominancePair(game.actions[p][d], game.actions[p][g], witness),
                              d, g))
        indexed.append(tuple(found))
    return tuple(indexed)


def dominance_pairs(game, player):
    """(dominating index, dominated index) pairs of one player's weak
    dominance."""
    return {(g, d) for _, d, g in weak_dominance(game).indexed[player]}


def undominated_flag(game, profile):
    """Oracle: no action played above TIE_TOL is weakly dominated by a pure
    action.  Mixed dominance is not tested: a point can read undominated
    and still be refuted by `check_perfect` with a `mixed-dominance`
    certificate."""
    return weak_dominance(game).first_violation(profile, lambda x_d, _: x_d > TIE_TOL) is None


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


def assert_regular_qrf(qrf, n_actions, samples, seed):
    """Assert the regularity of a quantal response function at sampled
    utility vectors: interior, monotone (a better-paid action is more
    likely), responsive (raising an action's utility raises its
    probability) and continuous (a wiggle of at most 1e-7 per utility moves
    no probability by more than 1e-3)."""
    rng = np.random.default_rng(seed)
    for _ in range(samples):
        x = rng.uniform(-5.0, 5.0, size=n_actions)
        p = np.asarray(qrf.evaluate(x))
        assert np.all(p > 0)
        assert all(p[a] > p[b] for a in range(n_actions) for b in range(n_actions)
                   if x[a] > x[b])
        a = int(rng.integers(n_actions))
        bump = x.copy()
        bump[a] += 0.1
        assert qrf.evaluate(bump)[a] > p[a]
        wiggle = x + rng.uniform(-1e-7, 1e-7, size=n_actions)
        assert np.max(np.abs(np.asarray(qrf.evaluate(wiggle)) - p)) <= 1e-3


def recheck_dominance(game, refutation):
    """Assert that a `dominance` refutation holds on the raw payoff table:
    its dominating action does at least as well as the dominated one
    against every opponent profile and better against one, so every
    interior (m-)weakly monotone profile gives it at least m times the
    dominated action's probability, and the candidate falls short of that
    by more than 1e-9."""
    assert refutation.kind == "dominance"
    data = refutation.data
    i = game.player_index(data["player"])
    u = np.moveaxis(game.payoffs[..., i], i, 0)
    diff = (u[game.action_index(i, data["dominating"])]
            - u[game.action_index(i, data["dominated"])])
    assert diff.min() >= 0 and diff.max() > 0
    x = data["candidate"]
    assert data["m"] * x[data["dominated"]] - x[data["dominating"]] > 1e-9


# ---------------------------------------------------------------------------
# reference spline evaluation and first-order audit: the per-branch masked
# assignments and the pair loop that one knot lookup with one np.where per
# formula, and one array expression per player, replaced


def _ref_spline_points(spline, y):
    y = np.asarray(y, dtype=float)
    scalar = y.ndim == 0
    y = np.atleast_1d(y)
    if np.any(y <= 0) or np.any(y > 1):
        raise SplineError("control costs are defined on (0, 1]")
    tail = y < spline.knots[0]
    body = ~tail
    j = np.clip(np.searchsorted(spline.knots, y[body], side="right") - 1,
                0, len(spline.knots) - 2)
    return y, scalar, tail, body, j


def reference_normalized(v, player):
    """`game.normalized` as five numpy calls: the finite test, the
    negative test, the clamp, the sum and the division."""
    if not np.isfinite(v).all():
        raise ProfileError(f"non-finite probability for player {player!r}")
    if (v < -SIMPLEX_TOL).any():
        raise ProfileError(f"negative probability for player {player!r}: {v.min()}")
    v = np.maximum(v, 0.0)
    total = v.sum()
    if not total > 0:
        raise ProfileError(f"probabilities for {player!r} sum to zero")
    return v / total


def reference_spline_value(spline, y):
    y, scalar, tail, body, j = _ref_spline_points(spline, y)
    out = np.empty_like(y)
    out[tail] = spline.tail_const - spline.tail_coef / y[tail]
    if np.any(body):
        kj, kj1 = spline.knots[j], spline.knots[j + 1]
        mj, mj1 = spline.slopes[j], spline.slopes[j + 1]
        dy = y[body] - kj1
        out[body] = (spline.values[j + 1] + mj1 * dy
                     + (mj1 - mj) / (2.0 * (kj1 - kj)) * dy**2)
    return float(out[0]) if scalar else out


def reference_spline_derivative(spline, y):
    y, scalar, tail, body, j = _ref_spline_points(spline, y)
    out = np.empty_like(y)
    out[tail] = spline.tail_coef / y[tail] ** 2
    if np.any(body):
        kj, kj1 = spline.knots[j], spline.knots[j + 1]
        mj, mj1 = spline.slopes[j], spline.slopes[j + 1]
        out[body] = mj1 + (mj1 - mj) / (kj1 - kj) * (y[body] - kj1)
    return float(out[0]) if scalar else out


def reference_foc_defects(ccg, profile):
    """Each player's largest |utility gap - derivative gap| over action
    pairs, and the largest over players."""
    worst = 0.0
    per_player = []
    for i in range(ccg.game.n_players):
        eu = expected_utility(ccg.game, profile, i)
        dv = reference_spline_derivative(ccg.splines[i], profile.vectors[i])
        defect = 0.0
        for a in range(len(eu)):
            for b in range(a + 1, len(eu)):
                defect = max(defect, abs((eu[a] - eu[b]) - (dv[a] - dv[b])))
        per_player.append(defect)
        worst = max(worst, defect)
    return worst, per_player


# ---------------------------------------------------------------------------
# sanity oracle: the logit path ends next to a member


@dataclass
class ProbeResult:
    profile: MixedProfile
    verdict: MembershipVerdict
    path: object


def nonemptiness_probe(game, delta_schedule=DEFAULT_DELTAS):
    """Sanity oracle: the logit-path terminal is an approachable equilibrium.

    The traced path itself is the witness sequence; the probe returns the
    Nash point nearest its terminal, or the terminal where enumeration is
    unsupported or finds none, with its membership verdict.
    """
    path = trace_logit_path(game)
    try:
        candidate = nearest_nash(game, path.terminal)[1] or path.terminal
    except UnsupportedGameError:
        candidate = path.terminal
    verdict = empirical_membership(game, candidate, delta_schedule)
    return ProbeResult(candidate, verdict, path)
