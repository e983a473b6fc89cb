"""Nash equilibrium enumeration and classical refinements.

Support enumeration runs over every support pair of a two-player game.  Each
side of a pair is one `_Side` record, built from one SVD of the opponent's
payoff block: the vectors v over the side's own support that sum to one and
make the opponent indifferent across the opponent's support are
x0 + null @ z, and v is feasible where g @ v >= -tol (nonnegative
probabilities, no opponent action outside its support doing better).  A pair
whose sides leave no freedom gives an isolated candidate, one free dimension
a segment (`Component`), and larger solution sets a `degenerate` diagnostic
that keeps its side records, so `nearest_nash` projects onto the face with
one LP per side.

Most pairs of a generic game fail their equalities or give an infeasible
point, so a screen decides those first, one size class (|s1|, |s2|) at a
time: one fancy-indexed slice builds every pair's equality matrix and one
stacked SVD gives each pair's rank, x0, residual and feasibility slack.
The screen only rejects a pair by a margin far above the rounding by which
its sums can differ from `_side`'s; every other pair gets the exact per-pair
decision, so the result is the same as deciding every pair exactly.

The max-norm distance from a profile to a segment is convex and piecewise
linear in the segment parameter, so `Component.distance_to` is exact: it
checks the interval ends and every crossing of two of the distance's lines.

Perfection and properness are decided by bounded searches for the
epsilon-constrained interior profiles of their definitions, so verdicts are
three-valued: verified (witness sequence in hand), refuted (structural
certificate), or inconclusive.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from .game import (
    MixedProfile,
    best_responses,
    expected_utility,
    nash_defect,
    weak_dominance,
)
from . import search

NASH_TOL = 1e-9
ENUMERATION_LIMIT = 4096
DEFAULT_EPS_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
DELTA_FACTOR = 10.0

VERIFIED = "verified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


class UnsupportedGameError(ValueError):
    """Game outside the enumeration limits of this module."""


@dataclass(frozen=True)
class Component:
    """One-dimensional connected set of equilibria.

    Profiles are base + t * direction for t in [lo, hi]; direction is one
    array per player (all but one typically zero).
    """

    support: tuple
    base: tuple  # per-player probability arrays
    direction: tuple
    interval: tuple

    def profile_at(self, game, t):
        vecs = [
            np.clip(b + t * d, 0.0, None) for b, d in zip(self.base, self.direction)
        ]
        return MixedProfile(game, vecs)

    def grid(self, game, points=101):
        lo, hi = self.interval
        ts = np.linspace(lo, hi, points)
        return [(float(t), self.profile_at(game, float(t))) for t in ts]

    def distance_to(self, game, profile):
        """(distance, t): max-norm distance from `profile` to the component
        and the smallest t in the interval attaining it.

        The distance max_i |a_i + t b_i|, with a = base - profile and
        b = direction, is convex and piecewise linear in t, so its minimum
        lies at an interval end or where two of the lines ±(a_i + t b_i)
        cross.
        """
        a = np.concatenate(self.base) - profile.stacked()
        b = np.concatenate(self.direction)
        alpha, beta = np.concatenate([a, -a]), np.concatenate([b, -b])
        i, j = np.triu_indices(len(alpha), 1)
        slope = beta[i] - beta[j]
        crossing = slope != 0
        cross = (alpha[j] - alpha[i])[crossing] / slope[crossing]
        lo, hi = self.interval
        ts = np.concatenate([[lo, hi], cross[(cross > lo) & (cross < hi)]])
        vals = np.max(np.abs(a + ts[:, None] * b), axis=1)
        t = float(np.min(ts[vals <= vals.min() + 1e-14]))
        return self.profile_at(game, t).distance(profile), t


@dataclass
class SupportDiagnostic:
    support: tuple
    status: str
    detail: str = ""
    # side records of a `degenerate` face, which `nearest_nash` projects onto
    sides: tuple = field(default=(), repr=False, compare=False)


@dataclass
class EquilibriumSet:
    isolated: list
    components: list
    diagnostics: list = field(default_factory=list)


def is_nash(game, profile, tol=NASH_TOL):
    return nash_defect(game, profile) <= tol


@dataclass(frozen=True)
class _Side:
    """One side of a support pair: the vectors v = x0 + null @ z over the
    actions `own`, feasible where g @ v >= -tol entrywise."""

    own: tuple
    x0: np.ndarray
    null: np.ndarray
    g: np.ndarray
    tol: np.ndarray

    @property
    def x0_feasible(self):
        return bool(np.all(self.g @ self.x0 >= -self.tol))


def _side(own, opp, opp_payoff, scale):
    """The `_Side` of actions `own` against opponent support `opp`, or None
    when its equalities are inconsistent.

    opp_payoff[own action, opponent action] is the opponent's payoff.  The
    equalities are sum(v) = 1 and equal opponent payoff across `opp`; one
    SVD of their matrix gives the minimum-norm solution x0 and the null
    space.  The rows of g are v_j >= -1e-10, then the payoff edge of opp[0]
    over each opponent action outside `opp`.
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
    if np.max(np.abs(a @ x0 - rhs)) > 1e-9 * max(1.0, scale):
        return None
    outside = [b for b in range(pay.shape[1]) if b not in opp]
    g = np.vstack([np.eye(len(own)), (block[:, :1] - pay[:, outside]).T])
    tol = np.repeat([1e-10, NASH_TOL], [len(own), len(outside)])
    return _Side(tuple(own), x0, vt[rank:].T, g, tol)


def _interval_for(x0, d, g, tol):
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


def _snap_zero(v):
    """`v` with entries of size <= 1e-15, rounding noise on structural zeros,
    set to exactly 0."""
    return np.where(np.abs(v) <= 1e-15, 0.0, v)


def _embed(n, support, values):
    v = np.zeros(n)
    v[list(support)] = values
    return v


def enumerate_nash(game):
    """Exhaustive support enumeration (one- and two-player games)."""
    if int(np.prod(game.action_counts)) > ENUMERATION_LIMIT:
        raise UnsupportedGameError(
            f"action-profile count exceeds the soft limit {ENUMERATION_LIMIT}"
        )
    if game.n_players == 1:
        return _enumerate_single(game)
    if game.n_players != 2:
        raise UnsupportedGameError(
            "support enumeration is implemented for 1- and 2-player games"
        )
    scale = float(np.max(np.abs(game.payoffs))) or 1.0
    m, k = game.action_counts
    if (2**m - 1) * (2**k - 1) > 1 << 20:
        raise UnsupportedGameError("too many support pairs to enumerate")
    classes1, classes2 = _support_classes(m), _support_classes(k)
    sup1 = [tuple(s) for c in classes1 for s in c.tolist()]
    sup2 = [tuple(s) for c in classes2 for s in c.tolist()]
    code = np.block([[_screen_class(game, c1, c2, scale) for c2 in classes2]
                     for c1 in classes1])
    out = EquilibriumSet([], [], [])
    # row-major order is the order of the pairs (s1 outer, s2 inner)
    for i, j in zip(*np.nonzero(code)):
        s1, s2 = sup1[i], sup2[j]
        if code[i, j] == _INCONSISTENT:
            out.diagnostics.append(SupportDiagnostic((s1, s2), "inconsistent"))
        else:
            _solve_pair(game, s1, s2, scale, out)
    out.isolated, out.components = _dedupe(game, out.isolated, out.components)
    return out


def _support_classes(n):
    """Supports over n actions as one index array per size 1..n, each in
    lexicographic order."""
    return [np.array(list(combinations(range(n), r))) for r in range(1, n + 1)]


# screen outcomes of a support pair
_REJECTED, _INCONSISTENT, _EXACT = 0, 1, 2


def _screen_class(game, s1, s2, scale):
    """Screen codes (len(s1), len(s2)) for every pair of one size class.

    `_REJECTED` pairs are isolated candidates that `_solve_pair` would drop
    silently, `_INCONSISTENT` pairs have a side whose equalities fail, and
    `_EXACT` pairs (consistent families, feasible or borderline candidates)
    go to `_solve_pair`.
    """
    i, j = np.divmod(np.arange(len(s1) * len(s2)), len(s2))
    x = (s1[i], s2[j], game.payoffs[..., 1])
    y = (s2[j], s1[i], game.payoffs[..., 0].T)
    # a side with more equalities than unknowns fails on almost every pair
    # of a generic game, so it is screened first and the other side only
    # where it passes
    first, second = (x, y) if s2.shape[1] > s1.shape[1] else (y, x)
    bad, point, infeasible = _screen_side(*first, scale)
    rest = ~bad
    bad2, point2, infeasible2 = _screen_side(second[0][rest], second[1][rest],
                                             second[2], scale)
    rejected = point[rest] & point2 & (infeasible[rest] | infeasible2)
    code = np.full(len(i), _INCONSISTENT, dtype=np.int8)
    code[rest] = np.where(bad2, _INCONSISTENT,
                          np.where(rejected, _REJECTED, _EXACT))
    return code.reshape(len(s1), len(s2))


def _screen_side(own, opp, opp_payoff, scale):
    """The `_side` decisions for the pairs (own[n], opp[n]) of a size class,
    from one stacked SVD: boolean arrays `bad` (inconsistent equalities),
    `point` (consistent, no free dimension) and `infeasible` (a point whose
    x0 fails `_Side.x0_feasible`).

    The screen is conservative: each decision needs a margin `err`, about a
    thousand times the rounding by which these sums can differ from
    `_side`'s, and no singular value may lie within a factor 4 of the rank
    cut.  Pairs that miss a margin are neither bad nor point.
    """
    p, q = own.shape[1], opp.shape[1]
    block = opp_payoff[own[:, :, None], opp[:, None, :]]
    diff = np.swapaxes(block[..., :-1] - block[..., 1:], -1, -2)
    a = np.concatenate([np.ones((len(own), 1, p)), diff], axis=-2)
    u, s, vt = np.linalg.svd(a)
    r = s.shape[-1]
    cut = max(q, p) * np.finfo(float).eps * s[:, :1]
    kept = s > cut
    clean = ~np.any((s > cut / 4) & (s <= 4 * cut), axis=-1)
    inv = np.divide(1.0, s, out=np.zeros_like(s), where=kept)
    x0 = np.einsum("nij,ni->nj", vt[:, :r], u[:, 0, :r] * inv)
    resid = np.einsum("nij,nj->ni", a, x0)
    resid[:, 0] -= 1.0
    resid = np.max(np.abs(resid), axis=-1)
    err = 1e-12 * p * (1.0 + 2.0 * scale) * (1.0 + inv.sum(axis=-1))
    thr = 1e-9 * max(1.0, scale)
    bad = clean & (resid > thr + err)
    point = clean & (resid < thr - err) & (kept.sum(axis=-1) == p)
    # the opponent's payoff of each action against x0; the best one outside
    # opp may not beat opp[0] by more than NASH_TOL
    vals = np.einsum("nj,njb->nb", x0, opp_payoff[own])
    outside = np.all(opp[:, :, None] != np.arange(opp_payoff.shape[1]), axis=1)
    best_out = np.max(vals, axis=-1, where=outside, initial=-np.inf)
    edge = vals[np.arange(len(opp)), opp[:, 0]] - best_out
    slack = np.minimum(x0.min(axis=-1) + 1e-10, edge + NASH_TOL)
    return bad, point, point & (slack < -err)


def _solve_pair(game, s1, s2, scale, out):
    """The exact decision for the support pair (s1, s2), added to `out`."""
    m, k = game.action_counts
    # x over s1 equalizes player 2 across s2; y over s2 equalizes player 1
    # across s1
    xs = _side(s1, s2, game.payoffs[..., 1], scale)
    ys = None if xs is None else _side(s2, s1, game.payoffs[..., 0].T, scale)
    if ys is None:
        out.diagnostics.append(SupportDiagnostic((s1, s2), "inconsistent"))
        return
    dim = xs.null.shape[1] + ys.null.shape[1]
    if dim == 0:
        if xs.x0_feasible and ys.x0_feasible:
            prof = MixedProfile(
                game, [_embed(m, s1, np.clip(xs.x0, 0, None)),
                       _embed(k, s2, np.clip(ys.x0, 0, None))]
            )
            if is_nash(game, prof, 1e-8):
                out.isolated.append(prof)
            else:
                out.diagnostics.append(
                    SupportDiagnostic((s1, s2), "incentive-violation")
                )
    elif dim == 1:
        comp = _one_dim_component(game, xs, ys)
        if comp is None:
            out.diagnostics.append(SupportDiagnostic((s1, s2), "empty-family"))
        elif isinstance(comp, MixedProfile):
            if is_nash(game, comp, 1e-8):
                out.isolated.append(comp)
        else:
            out.components.append(comp)
    else:
        out.diagnostics.append(
            SupportDiagnostic(
                (s1, s2),
                "degenerate",
                f"solution set of dimension {dim} not traced",
                sides=(xs, ys),
            )
        )


def _one_dim_component(game, xs, ys):
    """Segment of a support pair with one free dimension: a `Component`, a
    single `MixedProfile` when the segment has width <= 1e-9, or None."""
    var, fixed = (xs, ys) if xs.null.shape[1] == 1 else (ys, xs)
    if not fixed.x0_feasible:
        return None
    d = var.null[:, 0]
    mx = np.max(np.abs(d))
    if mx <= 1e-12:
        return None
    d = d / mx
    if d[np.flatnonzero(np.abs(d) > 1e-12)[0]] < 0:
        d = -d
    span = _interval_for(var.x0, d, var.g, var.tol)
    if span is None:
        return None
    # tolerance fuzz inflates point solutions into hair-width intervals;
    # the zero-tolerance geometry decides point vs genuine component.  Rows
    # flat along d cannot widen the interval, so they keep their tolerance
    # (a zero weight that rounds to -1e-17 must not empty the family)
    flat = np.abs(var.g @ d) <= 1e-12
    exact = _interval_for(var.x0, d, var.g, np.where(flat, var.tol, 0.0))
    if exact is None:
        mid = 0.5 * (span[0] + span[1])
        exact = (mid, mid)
    lo, hi = _snap_zero(np.array(exact))
    sides = (xs, ys)
    base = tuple(
        _snap_zero(_embed(n, s.own, s.x0 if s is var else np.clip(s.x0, 0, None)))
        for n, s in zip(game.action_counts, sides)
    )
    direction = tuple(_snap_zero(_embed(n, s.own, d if s is var else 0.0))
                      for n, s in zip(game.action_counts, sides))
    support = tuple(tuple(game.actions[p][a] for a in s.own)
                    for p, s in zip(game.players, sides))
    comp = Component(support, base, direction, (float(lo), float(hi)))
    if hi - lo <= 1e-9:
        return comp.profile_at(game, 0.5 * (lo + hi))
    return comp


def _enumerate_single(game):
    u = game.payoffs[..., 0]
    top = float(u.max())
    argmax = [a for a in range(len(u)) if u[a] == top]
    isolated, components, diags = [], [], []
    for a in argmax:
        v = np.zeros(len(u))
        v[a] = 1.0
        isolated.append(MixedProfile(game, [v]))
    if len(argmax) == 2:
        base = np.zeros(len(u))
        base[argmax[1]] = 1.0
        d = np.zeros(len(u))
        d[argmax[0]] = 1.0
        d[argmax[1]] = -1.0
        components.append(
            Component(
                (tuple(game.actions[game.players[0]][a] for a in argmax),),
                (base,),
                (d,),
                (0.0, 1.0),
            )
        )
        isolated = []
    elif len(argmax) > 2:
        # the face is the simplex over the argmax: a side with no opponent
        face = _side(tuple(argmax), (), np.zeros((len(u), 0)), 1.0)
        diags.append(
            SupportDiagnostic(
                (tuple(argmax),), "degenerate", "argmax face of dimension >= 2",
                sides=(face,),
            )
        )
    return EquilibriumSet(isolated, components, diags)


def _dedupe(game, isolated, components):
    components = _merge_components(game, components)
    kept = []
    for p in isolated:
        if any(c.distance_to(game, p)[0] <= 1e-9 for c in components):
            continue
        if any(p.distance(q) <= 1e-9 for q in kept):
            continue
        kept.append(p)
    kept.sort(key=lambda p: tuple(p.stacked()))
    components.sort(key=lambda c: c.support)
    return kept, components


def _merge_components(game, components):
    merged = []
    for comp in components:
        absorbed = False
        for i, other in enumerate(merged):
            joined = _try_join(game, other, comp)
            if joined is not None:
                merged[i] = joined
                absorbed = True
                break
        if not absorbed:
            merged.append(comp)
    return merged


def _try_join(game, a, b):
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
    return Component(a.support, a.base, a.direction,
                     (min(alo, blo), max(ahi, bhi)))


def _project_side(target, side):
    """Vector on the side's polytope closest to `target` in max norm:
    minimize s with |v - target| <= s entrywise, v = x0 + null @ z and
    g @ v >= 0.  Without the enumeration's slack `tol`, the projection is
    Nash up to the LP's own tolerance, well inside NASH_TOL."""
    own = list(side.own)
    x0, null = side.x0, side.null
    r = null.shape[1]
    p = target[own]
    off = np.delete(target, own)
    ones = np.ones((len(own), 1))
    a_ub = np.block([[null, -ones], [-null, -ones],
                     [-(side.g @ null), np.zeros((len(side.g), 1))]])
    b_ub = np.concatenate([p - x0, x0 - p, side.g @ x0])
    cost = np.zeros(r + 1)
    cost[-1] = 1.0
    s_lo = float(off.max()) if off.size else 0.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub,
                  bounds=[(None, None)] * r + [(s_lo, None)],
                  method="highs", options=search._HIGHS_OPTS)
    if not res.success:
        return None
    return _embed(len(target), own, np.clip(x0 + null @ res.x[:r], 0.0, None))


def _project_face(game, sides, profile):
    """Nash candidate on a degenerate face closest to `profile`, or None.

    The face is the product of its sides' polytopes and the max-norm
    distance is a max over players, so each side is projected by its own LP.
    """
    vecs = []
    for target, side in zip(profile.vectors, sides):
        v = _project_side(target, side)
        if v is None:
            return None
        vecs.append(v)
    return MixedProfile(game, vecs)


def nearest_nash(game, profile, eqset=None):
    """(distance, equilibrium profile) closest to `profile` in max norm.

    Candidates are the isolated points, the closest point of each
    component, and the projection onto each face that enumeration flags
    `degenerate` (solution sets of dimension >= 2).  A face projection is
    kept only if it passes `is_nash` and beats every enumerated candidate
    by more than 1e-9, the distance at which enumeration merges points.
    """
    if eqset is None:
        eqset = enumerate_nash(game)
    best = (float("inf"), None)
    for p in eqset.isolated:
        d = profile.distance(p)
        if d < best[0]:
            best = (d, p)
    for comp in eqset.components:
        d, t = comp.distance_to(game, profile)
        if d < best[0]:
            best = (d, comp.profile_at(game, t))
    for diag in eqset.diagnostics:
        if not diag.sides:
            continue
        p = _project_face(game, diag.sides, profile)
        if p is None or not is_nash(game, p):
            continue
        d = profile.distance(p)
        if d < best[0] - 1e-9:
            best = (d, p)
    return best


# ---------------------------------------------------------------------------
# refinements


@dataclass
class RefinementVerdict:
    status: str
    witnesses: list = field(default_factory=list)  # (eps, MixedProfile)
    certificate: dict | None = None
    notes: list = field(default_factory=list)


@dataclass
class RefinementTag:
    undominated: bool
    perfect: RefinementVerdict
    proper: RefinementVerdict


def undominated_flag(game, profile, tol=NASH_TOL):
    return _dominated_on_support(game, profile, tol) is None


@dataclass
class UndominatedReport:
    isolated_flags: list
    component_regions: list  # list of intervals [(lo, hi)] per component


def filter_undominated(game, eqset):
    """Exact undominated flags; components report the surviving subregion."""
    report = weak_dominance(game)
    flags = [undominated_flag(game, p) for p in eqset.isolated]
    regions = []
    for comp in eqset.components:
        lo, hi = comp.interval
        feasible = [(lo, hi)]
        for i, p in enumerate(game.players):
            for a in report.dominated_actions(p):
                j = game.action_index(p, a)
                b0 = comp.base[i][j]
                d0 = comp.direction[i][j]
                if abs(d0) <= 1e-12:
                    if b0 > NASH_TOL:
                        feasible = []
                else:
                    t_star = -b0 / d0
                    feasible = [
                        (max(l, t_star), min(h, t_star))
                        for l, h in feasible
                        if l - 1e-9 <= t_star <= h + 1e-9
                    ]
        regions.append([(l, h) for l, h in feasible if l <= h + 1e-9])
    return UndominatedReport(flags, regions)


def _require_nash(game, profile, tol=NASH_TOL):
    d = nash_defect(game, profile)
    if d > tol:
        raise ValueError(f"profile is not a Nash equilibrium (defect {d:.3e})")


def is_epsilon_perfect(game, profile, eps, util_tol=NASH_TOL):
    """Interior, and only best responses carry probability above eps."""
    if not profile.is_interior:
        return False
    for i, p in enumerate(game.players):
        br = best_responses(game, profile, i, tol=util_tol)
        for j, a in enumerate(game.actions[p]):
            if a not in br and profile.vectors[i][j] > eps * (1 + 1e-12) + 1e-15:
                return False
    return True


def is_epsilon_proper(game, profile, eps, util_tol=NASH_TOL):
    """Interior, with eps-bounded ratios down the utility ranking."""
    if not profile.is_interior:
        return False
    for i in range(game.n_players):
        eu = expected_utility(game, profile, i)
        sig = profile.vectors[i]
        for a in range(len(eu)):
            for b in range(len(eu)):
                if eu[a] > eu[b] + util_tol and sig[b] > eps * sig[a] * (1 + 1e-9):
                    return False
    return True


def _smoothed_perfect_witness(game, profile, eps):
    tau = eps
    vecs = [
        (1 - tau) * v + tau / len(v) for v in profile.vectors
    ]
    cand = MixedProfile(game, vecs)
    if is_epsilon_perfect(game, cand, eps):
        return cand
    return None


def _tiered_proper_witness(game, profile, eps):
    vecs = []
    for i in range(game.n_players):
        eu = expected_utility(game, profile, i)
        order = _order_from_values(eu, tol=NASH_TOL)
        k = len(eu)
        w = np.array(profile.vectors[i], dtype=float)
        for depth, level in enumerate(order):
            for a in level:
                if depth == 0:
                    w[a] += eps / k
                else:
                    w[a] += eps ** (depth + 1) / (k * 2.0**depth)
        vecs.append(w)
    cand = MixedProfile(game, vecs)
    if is_epsilon_proper(game, cand, eps):
        return cand
    return None


def _order_from_values(values, tol=0.0):
    idx = np.argsort(-np.asarray(values, dtype=float), kind="stable")
    levels = []
    current = [int(idx[0])]
    for j in idx[1:]:
        if values[current[-1]] - values[j] <= tol:
            current.append(int(j))
        else:
            levels.append(tuple(current))
            current = [int(j)]
    levels.append(tuple(current))
    return tuple(levels)


def _dominated_on_support(game, profile, tol=NASH_TOL):
    report = weak_dominance(game)
    for i, p in enumerate(game.players):
        for pair in report.pairs[p]:
            j = game.action_index(p, pair.dominated)
            if profile.vectors[i][j] > tol:
                return {
                    "kind": "dominated-on-support",
                    "player": p,
                    "action": pair.dominated,
                    "dominated_by": pair.dominating,
                    "probability": float(profile.vectors[i][j]),
                }
    return None


def check_perfect(game, profile, schedule=DEFAULT_EPS_SCHEDULE,
                  delta_factor=DELTA_FACTOR):
    """Three-valued perfection check with explicit witnesses.

    Refutation uses the two-player equivalence with undominated play: an
    on-support weakly dominated action rules perfection out.
    """
    _require_nash(game, profile)
    if game.n_players == 2:
        cert = _dominated_on_support(game, profile)
        if cert is not None:
            return RefinementVerdict(REFUTED, certificate=cert)
    witnesses = []
    notes = []
    for eps in sorted(schedule, reverse=True):
        delta = delta_factor * eps
        cand = _smoothed_perfect_witness(game, profile, eps)
        if cand is not None and cand.distance(profile) <= delta:
            witnesses.append((eps, cand))
            continue
        if game.n_players == 2:
            out = search.perfect_pattern_search(game, profile, eps, delta)
            if out.outcome == search.OUTCOME_FEASIBLE and is_epsilon_perfect(
                game, out.witness, eps
            ):
                witnesses.append((eps, out.witness))
                continue
            notes.append(f"eps={eps:g}: no witness found ({out.tried} patterns)")
        else:
            notes.append(f"eps={eps:g}: no witness found")
    if len(witnesses) == len(schedule):
        return RefinementVerdict(VERIFIED, witnesses)
    return RefinementVerdict(INCONCLUSIVE, witnesses, notes=notes)


def check_proper(game, profile, schedule=DEFAULT_EPS_SCHEDULE,
                 delta_factor=DELTA_FACTOR):
    """Three-valued properness check.

    Refutation: either an on-support dominated action (properness implies
    perfection), or exhaustion of every utility-order pattern at the
    smallest scheduled eps -- constraints only tighten for smaller eps, so
    pattern exhaustion rules out every tail of a would-be defining sequence.
    """
    _require_nash(game, profile)
    if game.n_players == 2:
        cert = _dominated_on_support(game, profile)
        if cert is not None:
            return RefinementVerdict(REFUTED, certificate=cert)
    witnesses = []
    notes = []
    smallest_refuted = None
    for eps in sorted(schedule, reverse=True):
        delta = delta_factor * eps
        cand = _tiered_proper_witness(game, profile, eps)
        if cand is not None and cand.distance(profile) <= delta:
            witnesses.append((eps, cand))
            continue
        if game.n_players != 2:
            notes.append(f"eps={eps:g}: no witness found")
            continue
        out = search.proper_pattern_search(game, profile, eps, delta)
        if out.outcome == search.OUTCOME_FEASIBLE and is_epsilon_proper(
            game, out.witness, eps
        ):
            witnesses.append((eps, out.witness))
        else:
            notes.append(f"eps={eps:g}: {out.outcome} ({out.tried} patterns)")
            if eps == min(schedule) and out.outcome == search.OUTCOME_REFUTED:
                smallest_refuted = out
    if len(witnesses) == len(schedule):
        return RefinementVerdict(VERIFIED, witnesses)
    if smallest_refuted is not None:
        cert = {
            "kind": "order-exhaustion",
            "eps": float(min(schedule)),
            "delta": float(delta_factor * min(schedule)),
            "patterns_tried": smallest_refuted.tried,
        }
        return RefinementVerdict(REFUTED, witnesses, certificate=cert, notes=notes)
    return RefinementVerdict(INCONCLUSIVE, witnesses, notes=notes)


def classify(game, eqset, schedule=DEFAULT_EPS_SCHEDULE, component_grid=101):
    """Refinement tags for isolated equilibria plus component summaries."""
    undom = filter_undominated(game, eqset)
    tags = []
    for flag, prof in zip(undom.isolated_flags, eqset.isolated):
        tags.append(
            RefinementTag(
                flag,
                check_perfect(game, prof, schedule=schedule),
                check_proper(game, prof, schedule=schedule),
            )
        )
    comp_summaries = []
    for comp, region in zip(eqset.components, undom.component_regions):
        lo, hi = comp.interval
        ts = np.linspace(lo, hi, component_grid)
        entries = []
        for t in ts:
            prof = comp.profile_at(game, float(t))
            entries.append(
                {
                    "t": float(t),
                    "undominated": undominated_flag(game, prof),
                    "perfect": check_perfect(game, prof, schedule=schedule).status,
                    "proper": check_proper(game, prof, schedule=schedule).status,
                }
            )
        comp_summaries.append({"undominated_region": region, "grid": entries})
    return tags, comp_summaries
