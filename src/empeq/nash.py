"""Nash equilibrium enumeration and classical refinements.

Support enumeration runs over every support pair of a two-player game, on
the game's `unit_view`: each player's payoffs mapped to [0, 1].  The map is
a positive affine one per player, so it keeps the Nash set, and every
tolerance below is absolute on payoffs of size at most 1, whatever the
game's units.  Profiles, components and diagnostics are built on the
caller's game.

Each side of a pair is one `_Side` record, built from one SVD of the
opponent's payoff block: the vectors v over the side's own support that sum
to one and make the opponent indifferent across the opponent's support are
x0 + null @ z, and v is feasible where g @ v >= -tol (nonnegative
probabilities, no opponent action outside its support doing better).  A pair
whose sides leave no freedom gives an isolated candidate, one free dimension
a segment (`Component`), and larger solution sets a `degenerate` diagnostic
that keeps its side records, so `nearest_nash` projects onto the face with
one LP per side.

A pair is proven empty when one of its sides has inconsistent equalities
or is a point with infeasible x0.  Most pairs of a generic game are, so
enumeration screens the pairs by the size p of their smaller support, in
three stages, and a pair drops at the first stage that proves it empty:
- Closed form (p = 1), with no LAPACK call.  A side of size 1 has the
  equality x0 = 1, so the payoff table decides whether it is consistent
  and feasible, in pure pairs and pairs (1, q) alike.  The other side of a
  pair (1, q >= 2) is one equality over q unknowns and never proves the
  pair empty.
- Certificate (p >= 2).  One `slogdet` per size factors every p x p matrix
  the size needs.  In an unbalanced pair (|s1| != |s2|) the side of the
  smaller support has more equalities than unknowns.  A lower bound on the
  residual of any solution `_side` could compute, from the determinant of a
  p x p block, proves that side inconsistent on most such pairs.  This is
  the balance condition of Porter, Nudelman & Shoham (GEB 2008), applied
  pair by pair, so degenerate games keep their unbalanced equilibria.
- LU decision (p >= 2).  On a balanced pair's square first side, the
  determinant and the Frobenius norm bound the smallest singular value from
  below.  Where that bound clears `_side`'s rank cut, one stacked `solve`
  gives a point close enough to any x0 `_side` could accept to prove x0
  infeasible by a margin.  The second side of each surviving pair is
  decided the same way.
Every pair left open goes to `_solve_pair`, the exact decision: unbalanced
pairs without a certificate, square sides that are singular or
ill-conditioned, as in degenerate games, and sides within the LU margin.
A dropped pair would be found empty by `_side` as well, so the result is
the same as when every pair is decided exactly.  Diagnostics report only
the pairs that may hold equilibria but gave none: `degenerate` faces of
dimension >= 2 and isolated candidates with an `incentive-violation`.

The max-norm distance from a profile to a segment is convex and piecewise
linear in the segment parameter, so `Component.distance_to` is exact: it
checks the interval ends and every crossing of two of the distance's lines.

Two-player perfection is decided exactly, by one best-reply LP per player;
properness by a bounded search for the eps-proper interior profiles of its
definition.  The Nash precondition of both and the eps-perfection test are
taken on the unit view.  Verdicts are three-valued: verified (witness
sequence in hand), refuted (certificate), or inconclusive.  The witness
conditions only loosen as eps grows, so each check is decided at the
smallest scheduled eps alone; only a verified verdict carries witnesses,
its smallest-eps witness listed at every scheduled eps.

A segment is decided at its `segment_breakpoints` (`decide_segment`): its
ends, every crossing inside it of two of one player's probabilities or
utilities, and one midpoint per open cell between them.  Both are linear
along the segment, so supports and utility orders are constant on an open
cell.  Pure dominance on the support and two-player perfection depend only
on the supports (van Damme 1991, Thm 3.2.2), so a cell's midpoint decides
the cell.  `classify` decides dominance, perfection and properness at these
points (its proper verdicts are checked against pointwise ones in the
tests), and `empirical.enumerate_empirical` decides membership there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, groupby

import numpy as np
from scipy.optimize import linprog

from .game import (
    MixedProfile,
    best_responses,
    expected_utility,
    nash_defect,
    unit_view,
    utility_vector,
    weak_dominance,
)
from . import search

NASH_TOL = 1e-9
ENUMERATION_LIMIT = 4096
DEFAULT_EPS_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
DELTA_FACTOR = 10.0
_UNIT = np.finfo(float).eps / 2  # unit roundoff
# `_side`'s bound on the residual of its equalities, on the unit view; the
# screens prove a side empty against this same threshold
_EQ_TOL = 1e-9

VERIFIED = "verified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


class UnsupportedGameError(ValueError):
    """Game outside the enumeration limits of this module."""


def check_schedule(schedule, name):
    """ValueError unless `schedule` is non-empty and every entry is finite
    and > 0: a NaN, infinite or non-positive eps or delta makes a verdict
    at that scale meaningless."""
    values = [float(v) for v in schedule]
    if not values:
        raise ValueError(f"the {name} schedule is empty")
    if not all(np.isfinite(v) and v > 0 for v in values):
        shown = ", ".join(f"{v:g}" for v in values)
        raise ValueError(f"{name} schedule entries must be finite and > 0, got {shown}")


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


def segment_breakpoints(game, comp, m=1.0):
    """The interval ends of a segment and the crossings inside it of
    sigma_a - sigma_b, sigma_a - m * sigma_b and (two players) u_a - u_b for
    one player's actions a, b, merged within 1e-12, with the midpoints
    between them.  All are linear in t, so supports, utility orders and
    the m-fraction orders are constant between two breakpoints."""
    lo, hi = comp.interval
    ts = [lo, hi]
    for i in range(game.n_players):
        lines = [(comp.base[i], comp.direction[i], w) for w in {1.0, m}]
        if game.n_players == 2:  # a one-player game's utilities are constant
            lines.append((utility_vector(game, i, comp.base),
                          utility_vector(game, i, comp.direction), 1.0))
        for value, slope, w in lines:
            v, s = value[:, None] - w * value, slope[:, None] - w * slope
            cross = -v[s != 0] / s[s != 0] + 0.0  # no -0.0
            ts += cross[(cross > lo) & (cross < hi)].tolist()
    points = [lo]
    for t in sorted(ts):
        if t - points[-1] > 1e-12:
            points.append(t)
    points[-1] = hi
    return sorted(points + [(a + b) / 2 for a, b in zip(points, points[1:])])


def decide_segment(game, comp, decide, passes, m=1.0):
    """(grid, runs): `grid` lists (t, decide(profile at t)) at every point
    of `segment_breakpoints(game, comp, m)`, and `runs` maps each name of
    `passes` to the (t_lo, t_hi) runs of consecutive grid points whose
    decision passes[name] accepts."""
    grid = [(t, decide(comp.profile_at(game, t)))
            for t in segment_breakpoints(game, comp, m)]
    runs = {}
    for name, accepts in passes.items():
        spans = (list(run) for ok, run in groupby(grid, lambda e: accepts(e[1])) if ok)
        runs[name] = [(run[0][0], run[-1][0]) for run in spans]
    return grid, runs


@dataclass
class SupportDiagnostic:
    support: tuple
    status: str
    detail: str = ""
    # side records of a `degenerate` face, which `nearest_nash` projects onto
    sides: tuple = field(default=(), repr=False, compare=False)


@dataclass
class EquilibriumSet:
    """The isolated equilibria and components of a game, and a diagnostic
    for each support pair that may hold equilibria but gave neither: an
    untraced `degenerate` face or an `incentive-violation`."""

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


def _side(own, opp, opp_payoff):
    """The `_Side` of actions `own` against opponent support `opp`, or None
    when its equalities are inconsistent.

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
    if np.max(np.abs(a @ x0 - rhs)) > _EQ_TOL:
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
    """Exhaustive support enumeration (one- and two-player games).

    Two-player games are decided on the game's `unit_view`, so the result
    is the same, up to rounding, when any player's payoffs are mapped by
    u_i -> alpha_i u_i + beta_i with alpha_i > 0.
    """
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
    m, k = game.action_counts
    if (2**m - 1) * (2**k - 1) > 1 << 20:
        raise UnsupportedGameError("too many support pairs to enumerate")
    classes1, classes2 = _support_classes(m), _support_classes(k)
    sup1, sup2 = _flat_supports(classes1), _flat_supports(classes2)
    may_hold = _screen_pairs(unit_view(game), classes1, classes2)
    found = EquilibriumSet([], [])
    # row-major order is the order of the pairs (s1 outer, s2 inner)
    for i, j in zip(*np.nonzero(may_hold)):
        _solve_pair(game, sup1[i], sup2[j], found)
    found.isolated, found.components = _dedupe(game, found.isolated,
                                                found.components)
    return found


def _support_classes(n):
    """Supports over n actions as one index array per size 1..n, each in
    lexicographic order."""
    return [np.array(list(combinations(range(n), r))) for r in range(1, n + 1)]


def _flat_supports(classes):
    """The supports of `classes` as one list of tuples, in class order."""
    return [tuple(s) for c in classes for s in c.tolist()]


def _screen_pairs(unit, classes1, classes2):
    """A boolean mask over every support pair (s1, s2), rows and columns in
    `_flat_supports` order: True where the pair may hold an equilibrium and
    goes to `_solve_pair`.

    `unit` is the game's unit view.  The pairs are screened by the size p
    of their smaller support; the stages are listed in the module
    docstring.  For each p >= 2 one `slogdet` factors every p x p matrix
    the size needs: the D blocks of `_certified_inconsistent` for the
    unbalanced pairs, and the equality matrix of each balanced pair's first
    side (player 2's, y).
    """
    a_t, b = unit.payoffs[..., 0].T, unit.payoffs[..., 1]
    m, k = len(classes1), len(classes2)
    start1 = np.cumsum([0] + [len(c) for c in classes1])
    start2 = np.cumsum([0] + [len(c) for c in classes2])
    may_hold = np.zeros((start1[-1], start2[-1]), dtype=bool)
    # pairs with a size-1 support: the other side of a pair (1, q >= 2) has
    # the one equality sum(v) = 1 over q unknowns, so it is consistent and
    # never a point
    single1 = _single_sides(b, classes2)
    single2 = _single_sides(a_t, classes1).T
    may_hold[:m] = single1
    may_hold[m:, :k] = single2[m:]
    may_hold[:m, :k] &= single2[:m]
    for p in range(2, min(m, k) + 1):
        own1, own2 = classes1[p - 1], classes2[p - 1]
        # the pairs of player 1's size-p supports with player 2's larger ones,
        # and of player 2's size-p supports with player 1's larger ones
        dx = _d_blocks(own1, classes2[p:], b)
        dy = _d_blocks(own2, classes1[p:], a_t)
        i, j = np.divmod(np.arange(len(own1) * len(own2)), len(own2))
        first = (own2[j], own1[i], a_t)
        a = _equality_matrices(*first)
        mats = [dx.reshape(-1, p, p), dy.reshape(-1, p, p), a]
        logdet = np.split(np.linalg.slogdet(np.concatenate(mats))[1],
                          np.cumsum([len(x) for x in mats[:-1]]))
        rows = slice(start1[p - 1], start1[p])
        cols = slice(start2[p - 1], start2[p])
        for view, d, log_d, opp_classes in (
                (may_hold[rows, start2[p]:], dx, logdet[0], classes2[p:]),
                (may_hold.T[cols, start1[p]:], dy, logdet[1], classes1[p:])):
            q = np.repeat([c.shape[1] for c in opp_classes],
                          [len(c) for c in opp_classes])
            view[:] = ~_certified_inconsistent(d, log_d.reshape(d.shape[:2]), q)
        keep = ~_lu_screen(a, logdet[2], first)
        live = np.flatnonzero(keep)
        if live.size:
            second = (own1[i[live]], own2[j[live]], b)
            a = _equality_matrices(*second)
            keep[live] = ~_lu_screen(a, np.linalg.slogdet(a)[1], second)
        may_hold[rows, cols] = keep.reshape(len(own1), len(own2))
    return may_hold


def _single_sides(pay, opp_classes):
    """A boolean mask over the sides of each own action a (rows of `pay`,
    the opponent's payoffs on the unit view) against each opponent support
    S of `opp_classes` (columns, in class order): False where `_side` is
    proven to return None or a point with infeasible x0.  No LAPACK call is
    made.

    The bound.  Let thr = _EQ_TOL, `_side`'s threshold.  The equalities of a
    size-1 side read x0 = 1 and d_i x0 = 0, with d_i = pay[a, S[i]] -
    pay[a, S[i + 1]] rounded as `_side` rounds it.  `_side`'s subtraction
    of 1 is exact for x0 in [0.5, 2], so any x0 it accepts has
    |x0 - 1| <= thr, and then |d_i| x0, rounded once, is <= thr as well.
    Its payoff edges are g x0, with g = pay[a, S[0]] - pay[a, c] rounded as
    `_side` rounds it, for each c outside S; the smallest g is pay[a, S[0]]
    minus the best payoff outside S.  So the side is empty where
    max |d_i| (1 - thr) > thr, or where g (1 - thr) < -NASH_TOL, each by a
    relative 8 eps, which covers the roundings of both products.
    """
    thr = _EQ_TOL
    n = sum(len(c) for c in opp_classes)
    inside = np.zeros((n, pay.shape[1]), dtype=bool)
    spread = np.zeros((len(pay), n))
    start = 0
    for c in opp_classes:
        rows = np.arange(start, start + len(c))
        inside[rows[:, None], c] = True
        if c.shape[1] > 1:
            d = pay[:, c[:, :-1]] - pay[:, c[:, 1:]]
            spread[:, rows] = np.abs(d).max(axis=-1)
        start += len(c)
    heads = np.concatenate([c[:, 0] for c in opp_classes])
    gap = pay[:, heads] - np.where(inside, -np.inf, pay[:, None, :]).max(axis=-1)
    return ((spread * (1.0 - thr) <= thr * (1.0 + 16 * _UNIT))
            & (gap * (1.0 - thr) >= -NASH_TOL * (1.0 + 16 * _UNIT)))


def _d_blocks(own, opp_classes, opp_payoff):
    """The D blocks of `_certified_inconsistent` (transposed, rounded as
    `_side` rounds its equality matrix) of every pair of a support in `own`
    (size p) with an opponent support in `opp_classes` (sizes > p), in
    class order: shape (len(own), opponent supports, p, p).  A block reads
    only the first p + 1 actions of the opponent support."""
    p = own.shape[1]
    head = np.concatenate([c[:, :p + 1] for c in opp_classes]
                          or [np.zeros((0, p + 1), dtype=int)])
    block = opp_payoff[own[:, None, :, None], head[None, :, None, :]]
    return block[..., :-1] - block[..., 1:]


def _lu_floor(logdet, frob, p, others, entry_max):
    """(log_floor, e): sigma_min(Z) >= exp(log_floor) - e for a matrix Z
    with others + 1 rows whose |det| is that of a p x p block M, given
    `logdet`, the log |det| that `slogdet` returns for M, and frob = |Z|_F.

    Let u be the unit roundoff and g_p = p u / (1 - p u).  `slogdet`
    factors M by LU with partial pivoting, which is exact for some M + E
    with |E|_F <= e = g_p p^2 2^(p-1) entry_max (multipliers at most 1,
    growth at most 2^(p-1), entries of M at most entry_max).  Putting E
    into Z's M block gives a Z' with |Z' - Z|_2 <= e, |Z'|_F <= frob + e and
    |det Z'| = |det(M + E)|.  The product of Z''s singular values is
    |det Z'| and none exceeds |Z'|_F, so
        sigma_min(Z) >= sigma_min(Z') - e >= |det(M + E)| / (frob + e)^others - e.
    The floor is a logarithm, so a singular M has log -inf and never clears
    a bound.
    """
    g_p = p * _UNIT / (1 - p * _UNIT)
    e = g_p * p * p * 2.0 ** (p - 1) * entry_max
    return logdet - others * np.log(frob + e), e


def _certified_inconsistent(d, logdet, q):
    """For pairs whose side has fewer unknowns p than equalities q, given
    that side's D blocks d (from `_d_blocks`, on the unit view), their
    log |det| and each pair's q: a boolean array, True where `_side` is
    proven to return None.  No SVD is taken.

    The bound.  Let a (q x p) be `_side`'s equality matrix, with right-hand
    side e1, and C the first p + 1 rows of [a | e1].  C's first row is all
    ones and its last column is e1, so |det C| = |det D| for the p x p block
    D of payoff differences under the first row.  For any x0, the one
    `_side` computes included, put z = (x0, -1) and M = max(1, |x0|_inf)
    <= |z|_2; then |a x0 - e1|_inf >= |a x0 - e1|_2 / sqrt(q)
    >= |C z|_2 / sqrt(q) >= sigma_min(C) M / sqrt(q).  Let u be the unit
    roundoff and g_n = n u / (1 - n u).  Payoffs lie in [0, 1], so entries
    of D are below 2 and each row of a has absolute sum at most R = 2p;
    the computed a @ x0 is off by at most g_p R M per entry, and the
    subtraction of e1 rounds by a factor 1 - u at worst: `_side`'s resid is
    at least (1 - u) M (sigma_min(C) / sqrt(q) - g_p R), with M >= 1, and
    exceeds thr = _EQ_TOL once
        sigma_min(C) > sqrt(q) (thr / (1 - u) + g_p R).
    `_lu_floor` bounds sigma_min(C) from below (Z = C, others = p, entries
    of D at most 2), with |C|_F^2 = p + 1 + |D|_F^2.  A slack of 1e-6 in
    the logarithm covers the rounding of the logarithms, of |C|_F and of
    the bound itself, and the 1 + O(p u) factors the growth picks up in
    floating point (all relative errors below 1e-10 for p <= 20).  The
    argument holds for every x0, so it needs no error constant of the SVD.
    """
    p = d.shape[-1]
    g_p = p * _UNIT / (1 - p * _UNIT)
    need = np.sqrt(q) * (_EQ_TOL / (1 - _UNIT) + g_p * p * 2.0)
    frob = np.sqrt(p + 1 + np.einsum("...ij,...ij->...", d, d))
    log_floor, e = _lu_floor(logdet, frob, p, p, 2.0)
    return log_floor > np.log(need + e) + 1e-6


# a square side is decided by its LU factors only where the floor on its
# smallest singular value exceeds this multiple of `_side`'s rank cut
_CLEARANCE = 1e6


def _square_floor(a, logdet):
    """(low, frob): a lower bound on the smallest singular value of each
    square equality matrix of a stack, from its log |det| (`_lu_floor`
    with Z = M = a, entries at most 2 on the unit view), and its Frobenius
    norm.  The 1e-6 in the logarithm covers the rounding of the floor."""
    p = a.shape[-1]
    frob = np.sqrt(np.einsum("nij,nij->n", a, a))
    log_floor, e = _lu_floor(logdet, frob, p, p - 1, 2.0)
    return np.exp(log_floor - 1e-6) - e, frob


def _lu_screen(a, logdet, side):
    """A boolean mask over square sides (p unknowns, p equalities, on the
    unit view), True where their LU factors prove that `_side` returns None
    or a point with infeasible x0.  The other sides go to `_solve_pair`.

    The bound.  Let u be the unit roundoff, x* = a^-1 e1 the exact solution,
    L the `_square_floor` of a (L <= sigma_min(a)) and F = |a|_F; each row
    of a has absolute sum at most R = sqrt(p) F.  A side is decided only
    where L > _CLEARANCE p 2u F.  The one LAPACK property this relies on:
    the SVD computes each singular value within 1e3 p u |a|_F of the exact
    one (LAPACK's SVD is backward stable with an error of a small multiple
    of p u |a|_2).  Then `_side`'s smallest computed singular value exceeds
    its rank cut p 2u s[0], so `_side` finds a point: its null space is
    empty.
    - `_side` returns a point x0 only if its computed resid is <= thr =
      _EQ_TOL.  A row of a @ x0 rounds by at most (2p + 4) u R |x0|_inf, and
      |x0|_inf <= |x*|_2 + D0 <= 1/L + D0 with
      D0 = |x0 - x*|_2 <= sqrt(p) |a x0 - e1|_inf / L, so
          D0 <= sqrt(p) (thr + (2p + 4) u R / L) / (L (1 - c)),
      c = sqrt(p) (2p + 4) u R / L <= (2p + 4) / (2 _CLEARANCE) < 1.
    - x^ = `np.linalg.solve(a, e1)` has computed residual r^, so
      D1 = |x^ - x*|_2 <= sqrt(p) (r^ + (2p + 4) u R |x^|_inf) / L.
    So |x0 - x^|_2 <= D = D0 + D1, times 1 + 1e-6 for the rounding of these
    sums.  `_side` takes x0 feasible where g_r @ x0 >= -tol_r for each row
    r of g: x0_j >= -1e-10 (computed exactly) and each payoff edge
    >= -NASH_TOL.  A row has |g_r|_2 <= 2 sqrt(p), so g_r @ (x0 - x^) is at
    most that times D.  The slacks of x^ (from `_slack`) and of x0 (in
    `_side`) round by at most (8p + 8) u (p (|x^|_inf + D) + 1) together.
    A side is infeasible where the slack of x^ is below minus the sum of
    these margins.
    """
    p = a.shape[-1]
    low, frob = _square_floor(a, logdet)
    n = np.flatnonzero(low > _CLEARANCE * p * 2 * _UNIT * frob)
    infeasible = np.zeros(len(a), dtype=bool)
    if not n.size:
        return infeasible
    a, low, frob = a[n], low[n], frob[n]
    rhs = np.zeros((len(n), p, 1))
    rhs[:, 0] = 1.0
    x = np.linalg.solve(a, rhs)[..., 0]
    resid = np.einsum("nij,nj->ni", a, x)
    resid[:, 0] -= 1.0
    resid = np.max(np.abs(resid), axis=-1)
    rnd = (2 * p + 4) * _UNIT * math.sqrt(p) * frob
    c = math.sqrt(p) * rnd / low
    x_max = np.max(np.abs(x), axis=-1)
    dist = math.sqrt(p) * ((_EQ_TOL + rnd / low) / (1 - c) + resid + rnd * x_max) / low
    dist *= 1.0 + 1e-6
    own, opp, opp_payoff = side
    slack = _slack(x, own[n], opp[n], opp_payoff)
    err = (2.0 * math.sqrt(p) * dist
           + (8 * p + 8) * _UNIT * (p * (x_max + dist) + 1.0))
    infeasible[n] = slack < -err
    return infeasible


def _equality_matrices(own, opp, opp_payoff):
    """`_side`'s equality matrix of each side (own[n], opp[n]), rounded as
    `_side` rounds it: shape (n, len(opp[n]), len(own[n]))."""
    p = own.shape[1]
    block = opp_payoff[own[:, :, None], opp[:, None, :]]
    diff = np.swapaxes(block[..., :-1] - block[..., 1:], -1, -2)
    return np.concatenate([np.ones((len(own), 1, p)), diff], axis=-2)


def _slack(x0, own, opp, opp_payoff):
    """The feasibility slack of each vector x0[n] over the side (own[n],
    opp[n]): the smaller of its least entry plus 1e-10 and NASH_TOL plus
    the opponent's payoff edge of opp[n][0] over the best opponent action
    outside opp[n].  x0 passes `_Side.x0_feasible` where it is >= 0, up to
    rounding."""
    vals = np.einsum("nj,njb->nb", x0, opp_payoff[own])
    outside = np.all(opp[:, :, None] != np.arange(opp_payoff.shape[1]), axis=1)
    best_out = np.max(vals, axis=-1, where=outside, initial=-np.inf)
    edge = vals[np.arange(len(opp)), opp[:, 0]] - best_out
    return np.minimum(x0.min(axis=-1) + 1e-10, edge + NASH_TOL)


def _proves_empty(side):
    """True when a pair with this side holds no equilibrium: its equalities
    are inconsistent (None), or it is a point with infeasible x0."""
    return side is None or (not side.null.shape[1] and not side.x0_feasible)


def _solve_pair(game, s1, s2, out):
    """The exact decision for the support pair (s1, s2), added to `out`.

    The sides and the Nash test of a candidate are taken on the game's
    `unit_view`; what is added is built on `game`.  A pair with a side that
    `_proves_empty`, or a one-dimensional family with no feasible point,
    adds nothing.  Otherwise the pair adds an isolated equilibrium or a
    segment, or a diagnostic: `degenerate` for a solution set of dimension
    >= 2, with the side records `nearest_nash` projects onto, and
    `incentive-violation` for a candidate point that is not Nash.
    """
    m, k = game.action_counts
    unit = unit_view(game)
    # x over s1 equalizes player 2 across s2; y over s2 equalizes player 1
    # across s1
    xs = _side(s1, s2, unit.payoffs[..., 1])
    if _proves_empty(xs):
        return
    ys = _side(s2, s1, unit.payoffs[..., 0].T)
    if _proves_empty(ys):
        return
    dim = xs.null.shape[1] + ys.null.shape[1]
    if dim == 0:
        prof = MixedProfile(
            game, [_embed(m, s1, np.clip(xs.x0, 0, None)),
                   _embed(k, s2, np.clip(ys.x0, 0, None))]
        )
        if is_nash(unit, prof, 1e-8):
            out.isolated.append(prof)
        else:
            out.diagnostics.append(
                SupportDiagnostic((s1, s2), "incentive-violation")
            )
    elif dim == 1:
        comp = _one_dim_component(game, xs, ys)
        if isinstance(comp, MixedProfile):
            if is_nash(unit, comp, 1e-8):
                out.isolated.append(comp)
        elif comp is not None:
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
    single `MixedProfile` when the segment has width <= 1e-9, or None.  The
    fixed side is a point with feasible x0."""
    var = xs if xs.null.shape[1] == 1 else ys
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
        face = _side(tuple(argmax), (), np.zeros((len(u), 0)))
        diags.append(
            SupportDiagnostic(
                (tuple(argmax),), "degenerate", "argmax face of dimension >= 2",
                sides=(face,),
            )
        )
    return EquilibriumSet(isolated, components, diags)


def _dedupe(game, isolated, components):
    components = _merge_components(game, components)
    # the max-norm gap from a point to a segment's bounding box bounds its
    # distance to the segment from below
    boxes = []
    for c in components:
        ends = [np.concatenate(c.base) + t * np.concatenate(c.direction) for t in c.interval]
        boxes.append((np.minimum(*ends), np.maximum(*ends)))
    kept = []
    for p in isolated:
        x = p.stacked()
        if any(np.max(np.maximum(lo - x, x - hi)) <= 1e-9 and c.distance_to(game, p)[0] <= 1e-9
               for c, (lo, hi) in zip(components, boxes)):
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
    kept only if it passes `is_nash` on the `unit_view`, as enumeration's
    points do, and beats every enumerated candidate by more than 1e-9, the
    distance at which enumeration merges points.
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
        # the face puts no mass off its sides' supports: a distance floor
        if not diag.sides or best[0] - 1e-9 <= max(
                np.delete(v, s.own).max(initial=0.0)
                for v, s in zip(profile.vectors, diag.sides)):
            continue
        p = _project_face(game, diag.sides, profile)
        if p is None or not is_nash(unit_view(game), p):
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
    """No action played above `tol` is weakly dominated by a pure action.
    Mixed dominance is not tested: a point can read undominated and still
    be refuted by `check_perfect` with a `mixed-dominance` certificate."""
    return _dominated_on_support(game, profile, tol) is None


def _require_nash(game, profile, tol=NASH_TOL):
    """ValueError unless `profile`'s Nash defect on the game's unit view is
    at most `tol`, so the test means the same at every payoff scale."""
    d = nash_defect(unit_view(game), profile)
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


def _unit_epsilon_perfect(game, profile, eps):
    """`is_epsilon_perfect` on the game's unit view."""
    return is_epsilon_perfect(unit_view(game), profile, eps)


def _smoothed_perfect_witness(game, profile, eps):
    """The best-reply LPs' witness form with tau uniform, if eps-perfect."""
    cand = MixedProfile(game, [(1 - eps) * v + eps / len(v) for v in profile.vectors])
    return cand if _unit_epsilon_perfect(game, cand, eps) else None


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
    hit = weak_dominance(game).first_violation(profile, lambda x_d, _: x_d > tol)
    if hit is None:
        return None
    player, pair, x_d, _ = hit
    return {
        "kind": "dominated-on-support",
        "player": player,
        "action": pair.dominated,
        "dominated_by": pair.dominating,
        "probability": float(x_d),
    }


def _check_refinement(game, profile, schedule, delta_factor, closed_form,
                      passes, pattern_search):
    """Decide a refinement at the smallest scheduled eps.

    The closed-form candidate is kept if it lies within delta_factor * eps,
    else the pattern search runs.  A witness found is listed at every
    scheduled eps, largest first; any other verdict carries no witnesses
    and one note for the smallest eps.  A refuted search outcome refutes,
    with the certificate it carries.
    """
    check_schedule(schedule, "eps")
    _require_nash(game, profile)
    if game.n_players == 2:
        cert = _dominated_on_support(game, profile)
        if cert is not None:
            return RefinementVerdict(REFUTED, certificate=cert)
    eps = min(schedule)
    delta = delta_factor * eps
    witness = closed_form(game, profile, eps)
    if witness is not None and witness.distance(profile) > delta:
        witness = None
    out = None
    if witness is None and game.n_players == 2:
        out = pattern_search(game, profile, eps, delta)
        if out.outcome == search.OUTCOME_FEASIBLE and passes(game, out.witness, eps):
            witness = out.witness
    if witness is not None:
        return RefinementVerdict(
            VERIFIED, [(e, witness) for e in sorted(schedule, reverse=True)]
        )
    if out is None:
        return RefinementVerdict(INCONCLUSIVE, notes=[f"eps={eps:g}: no witness found"])
    notes = [f"eps={eps:g}: " + (out.note or f"{out.outcome} ({out.tried} patterns)")]
    if out.outcome == search.OUTCOME_REFUTED:
        return RefinementVerdict(REFUTED, certificate=out.certificate, notes=notes)
    return RefinementVerdict(INCONCLUSIVE, notes=notes)


def check_perfect(game, profile, schedule=DEFAULT_EPS_SCHEDULE,
                  delta_factor=DELTA_FACTOR):
    """Three-valued perfection check, decided at the smallest scheduled eps.

    A two-player Nash point is perfect iff no mixed strategy weakly
    dominates a player's strategy.  Refutations carry `dominated-on-support`
    (a pure dominance, tried first) or `mixed-dominance`, whose `dominating`
    maps actions to the probabilities of a dominating mixed strategy (from
    the LPs of `search.perfect_pattern_search`, run where the smoothing
    fails).  With three or more players only the smoothing runs.

    An eps-perfect witness within delta_factor * eps is eps'-perfect and
    within delta_factor * eps' for every eps' >= eps: interior stays
    interior, the distance bound and "non-best responses <= eps" only grow.
    So only the smallest eps is searched, and `verified` lists its witness
    at every scheduled eps; refuted and inconclusive verdicts carry none.
    """
    return _check_refinement(game, profile, schedule, delta_factor,
                             _smoothed_perfect_witness, _unit_epsilon_perfect,
                             search.perfect_pattern_search)


def check_proper(game, profile, schedule=DEFAULT_EPS_SCHEDULE,
                 delta_factor=DELTA_FACTOR):
    """Three-valued properness check, decided at the smallest scheduled eps.

    Refutation: either an on-support dominated action (properness implies
    perfection), or exhaustion of every utility-order pattern at the
    smallest scheduled eps -- constraints only tighten for smaller eps, so
    pattern exhaustion rules out every tail of a would-be defining sequence.

    The same nesting runs the other way for witnesses: an eps-proper one
    within delta_factor * eps is eps'-proper and within delta_factor * eps'
    for every eps' >= eps, since "ratios <= eps" only loosens.  So only the
    smallest eps is searched, and `verified` lists its witness at every
    scheduled eps; refuted and inconclusive verdicts carry none.
    """
    return _check_refinement(game, profile, schedule, delta_factor,
                             _tiered_proper_witness, is_epsilon_proper,
                             search.proper_pattern_search)


def classify(game, eqset, schedule=DEFAULT_EPS_SCHEDULE):
    """Refinement tags for the isolated equilibria, and a summary per
    component.

    A component is decided at its `segment_breakpoints` (`decide_segment`).
    Its summary lists a `grid` entry {t, undominated, perfect, proper} at
    every breakpoint and midpoint, and the (t_lo, t_hi) runs of points that
    are undominated (`undominated_region`), perfect (`perfect_intervals`)
    and proper (`proper_intervals`), in the form of `empirical`'s
    `member_intervals`.
    """
    check_schedule(schedule, "eps")
    tags = [RefinementTag(undominated_flag(game, p),
                          check_perfect(game, p, schedule=schedule),
                          check_proper(game, p, schedule=schedule))
            for p in eqset.isolated]

    def decide(profile):
        return {"undominated": undominated_flag(game, profile),
                "perfect": check_perfect(game, profile, schedule=schedule).status,
                "proper": check_proper(game, profile, schedule=schedule).status}

    passes = {"undominated_region": lambda e: e["undominated"],
              "perfect_intervals": lambda e: e["perfect"] == VERIFIED,
              "proper_intervals": lambda e: e["proper"] == VERIFIED}
    summaries = []
    for comp in eqset.components:
        grid, runs = decide_segment(game, comp, decide, passes)
        summaries.append({"grid": [{"t": t, **e} for t, e in grid], **runs})
    return tags, summaries
