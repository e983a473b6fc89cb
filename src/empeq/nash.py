"""Nash equilibrium enumeration and classical refinements.

Support enumeration runs over every support pair of a two-player game, on
the game's `unit_view`: each player's payoffs mapped to [0, 1].  The map is
a positive affine one per player, so it keeps the Nash set, and every
tolerance below is absolute on payoffs of size at most 1, whatever the
game's units (the tie rule of `game.unit_view`, with `game.TIE_TOL`).
Profiles, components and diagnostics are built on the caller's game.

One Nash test serves every verdict: `is_nash`, a Nash defect of at most
TIE_TOL on the unit view.  Every point enumeration returns passes it
(`_nash_points`, `_lines`), and the refinements and membership raise on a
profile that fails it (`_require_nash`).

Each side of a pair is solved exactly by one SVD of its equality matrix:
the vectors v over the side's own support that sum to one and make the
opponent indifferent across the opponent's support are x0 + null @ z, with
x0 the minimum-norm solution, and the side is inconsistent where x0 leaves
a residual above TIE_TOL.  v is feasible where g @ v >= -tol (nonnegative
probabilities, no opponent action outside its support doing better), as the
side's `_Side` record states.  A pair whose sides leave no freedom gives an
isolated candidate, one free dimension a segment (`Component`), and larger
solution sets a `degenerate` diagnostic that keeps its side records, so
`nearest_nash` projects onto the face with one LP per side.

A pair holds nothing when one of its sides has inconsistent equalities, is
a point with infeasible x0, or is a line or face with no feasible point.
Most pairs of a generic game do, so enumeration screens the pairs in four
stages, and a pair drops at the first stage that proves it empty:
- Dominance (every pair), with no LAPACK call.  An action of one player
  is beaten against a support S of the other where another action of its
  player earns more than mu = 3e-8 against every action of S, on the unit
  view.  A pair whose support holds an action beaten against the other
  support is empty (conditional strict dominance, Porter, Nudelman &
  Shoham, GEB 2008): every y over S that meets the side's rows within
  their tolerances would give the beaten action a deficit both above mu -
  q 1e-10 and below p TIE_TOL, a contradiction once mu exceeds 20
  (TIE_TOL + 1e-10) + 20 (1e-10 + 1e-10) = 2.6e-8 for supports of at most
  20 actions (the pair cap), with 1e-10 for rounding (`_undominated`).
  One bitmask per support and player decides every pair.
- Closed form (p = 1, with p the size of the smaller support), with no
  LAPACK call.  A side of size 1 has the equality x0 = 1, so the payoff
  table decides whether it is consistent and feasible, in pure pairs and
  pairs (1, q) alike, exactly as its SVD would (`_single_sides`).  The
  other side of a pair (1, q >= 2) is one equality over q unknowns and
  never proves the pair empty.
- Certificate (p >= 2).  In an unbalanced pair (|s1| != |s2|) the side of
  the smaller support has more equalities than unknowns.  A lower bound on
  the residual of any solution the exact solve could compute, from the
  determinant of a p x p block, proves that side inconsistent on most such
  pairs.  This is the balance condition of Porter, Nudelman & Shoham,
  applied pair by pair, so degenerate games keep their unbalanced
  equilibria.
- LU decision (p >= 2).  On an undominated balanced pair's square first
  side, the determinant and the Frobenius norm bound the smallest singular
  value from below.  Where that bound clears the exact solve's rank cut, a
  stacked `solve` gives a point close enough to any x0 the exact solve
  could accept to prove x0 infeasible by a margin.  The second side of each
  surviving pair is decided the same way.
The last two stages run once per game over every size p: the D blocks of
the undominated unbalanced pairs and the first sides of the undominated
balanced pairs go into one stack of P x P matrices diag(M, I), P the
largest p among them, which one `slogdet`, one certificate evaluation and
one LU decision (one `solve`) decide; the surviving second sides take one
more `slogdet` and LU decision.  LAPACK factors diag(M, I) block by block,
so every bound holds with its row's own p, q and the norms of the unpadded
M (`_lu_floor`).
A dropped pair would give the exact solve no point and no segment: the
last three stages drop only pairs it finds empty, and a pair dropped by
dominance is at most a face of dimension >= 2 with no feasible point.  The
pairs left open (unbalanced pairs without a certificate, singular,
ill-conditioned or near-margin square sides, and the pairs that hold
equilibria) go to one exact stage, `_exact_stage`, which decides them all
on arrays and builds `MixedProfile`s and `Component`s only for what it
returns.  Its result is bit for bit that of one SVD per side and one
decision per pair (the tests' reference enumeration): x0, null spaces,
residuals and payoff edges are the same per-matrix products, so printed
interval ends do not move.  Diagnostics report only the pairs that may
hold equilibria but gave none: `degenerate` faces of dimension >= 2 that
dominance does not prove empty, and isolated candidates with an
`incentive-violation`.

The max-norm distance from a profile to a segment is convex and piecewise
linear in the segment parameter, so `Component.distance_to` is exact: it
checks the interval ends and every crossing of two of the distance's lines.

Perfection and properness first try one witness, the candidate plus the
refinement's tremble, with each two-player support mix re-solved so that
the opponent's best replies still tie (`_trembled_witness`).  It passes at
regular equilibria, so generic games solve no LP.  Where it fails,
two-player perfection is decided exactly, by one best-reply LP per player
on the unit view; properness by a search for the eps-proper interior
profiles of its definition, over the utility orders that keep the
candidate's tie blocks.  Both require `is_nash`, and are decided at the
smallest scheduled eps: verified (witness sequence in hand), refuted
(certificate), or inconclusive.

A segment is decided at its `segment_breakpoints` (`decide_segment`): its
ends, every crossing inside it of two of one player's probabilities or
utilities, and one midpoint per open cell between them.  Both are linear
along the segment, so supports and utility orders are constant on an open
cell.  Pure dominance on the support and two-player perfection depend only
on the supports (van Damme 1991, Thm 3.2.2), so a cell's midpoint decides
the cell; by the same theorem a two-player point is undominated iff it is
perfect.  `classify` decides dominance, perfection and properness at these
points (its proper verdicts are checked against pointwise ones in the
tests), and `empirical.enumerate_empirical` decides membership there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from itertools import chain, combinations, groupby

import numpy as np

from .game import (
    TIE_TOL,
    MixedProfile,
    expected_utility,
    nash_defect,
    normalized,
    unit_view,
    utility_vector,
    weak_dominance,
)
from . import search

DEFAULT_EPS_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
DELTA_FACTOR = 10.0
_UNIT = np.finfo(float).eps / 2  # unit roundoff

VERIFIED = "verified"
REFUTED = "refuted"
INCONCLUSIVE = "inconclusive"


class UnsupportedGameError(ValueError):
    """Game outside the enumeration limits of this module."""


def check_schedule(schedule, name, upper=math.inf):
    """ValueError unless `schedule` is non-empty and every entry is finite,
    > 0 and < `upper`: a NaN, infinite or non-positive eps or delta makes a
    verdict at that scale meaningless, and eps-perfection and eps-properness
    need eps < 1."""
    values = [float(v) for v in schedule]
    if not values:
        raise ValueError(f"the {name} schedule is empty")
    if not all(np.isfinite(v) and 0 < v < upper for v in values):
        shown = ", ".join(f"{v:g}" for v in values)
        bounds = "finite and > 0" if upper == math.inf else f"in (0, {upper:g})"
        raise ValueError(f"{name} schedule entries must be {bounds}, got {shown}")


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
        return MixedProfile(game, _segment_point(self.base, self.direction, t))

    def distance_to(self, game, profile):
        """(distance, t): max-norm distance from `profile` to the component
        and the smallest t in the interval attaining it."""
        return _segment_distance(game, self, profile.stacked())


def _segment_distance(game, seg, x):
    """(distance, t): max-norm distance from the stacked profile vectors x
    to a `Component` of `game` and the smallest t in its interval attaining
    it.

    The distance max_i |a_i + t b_i|, with a = base - x and b = direction,
    is convex and piecewise linear in t, so its minimum lies at an interval
    end or where two of the lines +-(a_i + t b_i) cross.  The distance is
    taken to the profile at t, as `Component.profile_at` normalizes it.
    """
    a = np.concatenate(seg.base) - x
    b = np.concatenate(seg.direction)
    alpha, beta = np.concatenate([a, -a]), np.concatenate([b, -b])
    i, j = np.triu_indices(len(alpha), 1)
    slope = beta[i] - beta[j]
    crossing = slope != 0
    cross = (alpha[j] - alpha[i])[crossing] / slope[crossing]
    lo, hi = seg.interval
    ts = np.concatenate([[lo, hi], cross[(cross > lo) & (cross < hi)]])
    vals = np.max(np.abs(a + ts[:, None] * b), axis=1)
    t = float(np.min(ts[vals <= vals.min() + 1e-14]))
    at = np.concatenate([normalized(v, p) for v, p in
                         zip(_segment_point(seg.base, seg.direction, t), game.players)])
    return float(np.max(np.abs(at - x))), t


def segment_breakpoints(game, comp, m=1.0):
    """The interval ends of a segment and the crossings inside it of
    sigma_a - sigma_b, sigma_a - m * sigma_b and (two players) u_a - u_b on
    the unit view for one player's actions a, b, merged within 1e-12, with
    the midpoints between them.  All are linear in t, so supports, utility
    orders and the m-fraction orders are constant between two breakpoints."""
    lo, hi = comp.interval
    ts = [lo, hi]
    unit = unit_view(game)
    for i in range(game.n_players):
        lines = [(comp.base[i], comp.direction[i], w) for w in {1.0, m}]
        if game.n_players == 2:  # a one-player game's utilities are constant
            lines.append((utility_vector(unit, i, comp.base),
                          utility_vector(unit, i, comp.direction), 1.0))
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
    """A support pair that may hold equilibria but gave none.  A face that
    the dominance stage proves empty gets no diagnostic."""

    support: tuple
    status: str
    detail: str = ""
    # side records of a `degenerate` face, which `nearest_nash` projects onto
    sides: tuple = field(default=(), repr=False, compare=False)


@dataclass
class EquilibriumSet:
    """The isolated equilibria and components of a game, and a diagnostic
    for each support pair that may hold equilibria but gave neither: an
    untraced `degenerate` face or an `incentive-violation`.  A face whose
    support holds a beaten action (the dominance stage) is proved empty
    and gets none."""

    isolated: list
    components: list
    diagnostics: list = field(default_factory=list)


def is_nash(game, profile):
    """The Nash test of every verdict: a Nash defect of at most TIE_TOL on
    the game's unit view, so the same at every payoff scale."""
    return nash_defect(unit_view(game), profile) <= TIE_TOL


@dataclass(frozen=True)
class _Side:
    """One side of a support pair: the vectors v = x0 + null @ z over the
    actions `own`, feasible where g @ v >= -tol entrywise."""

    own: tuple
    x0: np.ndarray
    null: np.ndarray
    g: np.ndarray
    tol: np.ndarray


def _side_record(own, opp, opp_payoff, x0, null):
    """The `_Side` of `own` against `opp` for x0 + null @ z, rows by `_g_stack`."""
    g, tol = _g_stack(np.array([own]), np.array([opp], dtype=np.intp), opp_payoff)
    return _Side(tuple(own), x0, null, g[0], tol)


def _ones_side(p):
    """(x0, null) of the equality sum(v) = 1 over p unknowns, the only
    equality of a side against one opponent action, from the SVD of its
    1 x p matrix.  Its rank is 1, and x0 sums to one up to rounding, so
    the side is always consistent."""
    u, s, vt = np.linalg.svd(np.ones((1, p)))
    return vt[:1].T @ (u[0, :1] / s[:1]), vt[1:].T


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

    Games are decided on the game's `unit_view`, so the result is the
    same, up to rounding, when any player's payoffs are mapped by
    u_i -> alpha_i u_i + beta_i with alpha_i > 0.  Two-player games are
    limited to 2^20 support pairs (so m k <= 100); one-player games have
    no limit.
    """
    if game.n_players == 1:
        return _enumerate_single(game)
    if game.n_players != 2:
        raise UnsupportedGameError(
            "support enumeration is implemented for 1- and 2-player games"
        )
    m, k = game.action_counts
    if (2**m - 1) * (2**k - 1) > 1 << 20:
        raise UnsupportedGameError("too many support pairs to enumerate")
    sup1, rows1, size1 = _support_table(m)
    sup2, rows2, size2 = _support_table(k)
    unit = unit_view(game)
    may_hold = _screen_pairs(unit, (rows1, size1), (rows2, size2))
    # row-major order is the order of the pairs (s1 outer, s2 inner)
    return _exact_stage(game, unit, [(sup1[i], sup2[j])
                                     for i, j in zip(*np.nonzero(may_hold))])


def _support_table(n):
    """(supports, rows, size): every support over n actions as a tuple, by
    size 1..n and in lexicographic order within a size; the same supports
    as rows of an index array, each padded to n entries by repeating its
    last action; and the size of each."""
    supports = [s for r in range(1, n + 1) for s in combinations(range(n), r)]
    size = np.repeat(np.arange(1, n + 1), [math.comb(n, r) for r in range(1, n + 1)])
    flat = np.fromiter(chain.from_iterable(supports), dtype=np.intp, count=int(size.sum()))
    start = np.cumsum(size) - size
    return supports, flat[start[:, None] + np.minimum(np.arange(n), size[:, None] - 1)], size


def _screen_pairs(unit, table1, table2):
    """A boolean mask over every support pair (s1, s2), rows and columns in
    `_support_table` order: True where the pair may hold an equilibrium and
    goes to `_exact_stage`.

    `unit` is the game's unit view, and table1 and table2 are the (rows,
    size) of each player's `_support_table`.  The stages are listed in the
    module docstring.  The pairs whose supports hold a beaten action
    (`_undominated`) are dropped first, then those with a size-1 side that
    the closed form decides (`_single_sides`).  The pairs of two supports
    of size >= 2 that are still alive are decided in one pass, whatever
    their sizes, on P x P matrices diag(M, I) (`_padded_stack`), with P the
    largest size p of a pair's smaller support: one `slogdet` factors the D
    blocks of the unbalanced pairs and the first sides (player 2's, y) of
    the balanced ones, which `_certified_inconsistent` and `_lu_screen`
    decide; one more `slogdet` factors the second sides of the balanced
    pairs that survive, which `_lu_screen` decides.
    """
    (rows1, size1), (rows2, size2) = table1, table2
    a_t, b = unit.payoffs[..., 0].T, unit.payoffs[..., 1]
    m, k = len(b), len(a_t)
    may_hold = _undominated(a_t.T, b.T, rows1, rows2)
    # pairs with a size-1 support, decided exactly: the other side of a pair
    # (1, q >= 2) has the one equality sum(v) = 1 over q unknowns, so it is
    # consistent and never a point
    may_hold[:m] &= np.logical_and(*_single_sides(b, rows2))
    may_hold[:, :k] &= np.logical_and(*_single_sides(a_t, rows1)).T
    r, c = np.nonzero(may_hold[m:, k:])
    if not r.size:
        return may_hold
    r, c = r + m, c + k
    p1, p2 = size1[r], size2[c]
    # player 1's overdetermined sides (x), then player 2's (y), then the
    # first sides of the balanced pairs (y)
    x, y, bal = (np.flatnonzero(f) for f in (p1 < p2, p1 > p2, p1 == p2))
    at = np.concatenate([x, y, bal])
    p, q = np.minimum(p1, p2)[at], np.maximum(p1, p2)[at]
    on_y = (rows2[c[at[len(x):]]], rows1[r[at[len(x):]]])
    mats, sq = _padded_stack((b, a_t), [(rows1[r[x]], rows2[c[x]]), on_y], p, q)
    logdet = np.linalg.slogdet(mats)[1]
    n_un = len(x) + len(y)
    keep = np.ones(len(at), dtype=bool)
    keep[:n_un] = ~_certified_inconsistent(sq[:n_un], logdet[:n_un], p[:n_un], q[:n_un])
    if bal.size:
        first = (on_y[0][len(y):], on_y[1][len(y):], a_t)
        open_ = ~_lu_screen(mats[n_un:], logdet[n_un:], sq[n_un:], p[n_un:], first)
        live = bal[open_]
        if live.size:
            second, size = (rows1[r[live]], rows2[c[live]]), p1[live]
            mats, sq = _padded_stack((b,), [second], size, size)
            open_[open_] = ~_lu_screen(mats, np.linalg.slogdet(mats)[1], sq, size,
                                       second + (b,))
        keep[n_un:] = open_
    may_hold[r[at], c[at]] = keep
    return may_hold


# an action is beaten against an opponent support where another action of
# its player earns more than this against every action of the support, on
# the unit view; the margin is derived in `_undominated`
_BEATEN = 3e-8


def _undominated(a, b, rows1, rows2):
    """A boolean mask over every support pair, as `_screen_pairs` returns
    it: False where one support holds an action that is beaten against the
    other (conditional strict dominance, Porter, Nudelman & Shoham, GEB
    2008).  a[i, j] and b[j, i] are player 1's and player 2's payoffs on
    the unit view at actions i of player 1 and j of player 2, and rows1 and
    rows2 the padded rows of each player's `_support_table`.

    Why a beaten action empties its pair.  Let i in s1 be beaten by i'
    against s2 (p = |s1|, q = |s2|): the computed a[i', j] - a[i, j]
    exceeds mu = _BEATEN for every j in s2, so its exact value d_j exceeds
    mu (1 - u), with u the unit roundoff.  Take any y over s2 that the exact
    stage could accept on the pair's y side (the side over s2 that makes
    player 1 indifferent across s1).  Its rows hold within their
    tolerances plus r: sum(y) >= 1 - TIE_TOL - r, each consecutive equality
    within TIE_TOL + r, y_j >= -1e-10 - r, and each payoff edge (of s1[0],
    or of x on a segment) over an action outside s1 >= -TIE_TOL - r.  Then
        E = sum_j y_j d_j >= mu (1 - u) (1 - TIE_TOL - r) - q (1e-10 + r),
    as d_j <= 1 on the unit view, while the equalities between i and i'
    (at most p - 1 of them, telescoped), or those between i and s1[0] (or
    each action x plays) and the edge over i' when i' is outside s1, give
    E <= p (TIE_TOL + r).
    Under the pair cap p, q <= 20, so r <= 1e-10 makes the two bounds
    contradict each other once mu > (20 (TIE_TOL + r) + 20 (1e-10 + r))
    / (1 - 2e-9) = 2.6e-8, and _BEATEN = 3e-8 clears that.  So the y side
    is inconsistent, an infeasible point, or a line or face with no
    feasible point, and the pair holds nothing; the same holds for a
    beaten j in s2 and the x side.
    The allowance r.  Rounding the side's products of at most 20 terms,
    entries at most 1 in size, costs below 1e-13.  On a line x0 + t d
    (`_lines`, d of max-norm 1) the null vector d meets the equalities
    within the exact solve's rank cut, below 2e-13; `_interval` keeps an
    interval empty by at most 1e-12 in t, and checks rows with |slope| <=
    1e-12 at t = 0 only.  Together these move a row by at most 1e-12 (q +
    |t|).  d is orthogonal to the minimum-norm x0, so |x0|_2 <= |y|_2 <= 1
    + O(q r); the entry of d of size 1 and one of the opposite sign (d
    sums to zero up to rounding, so one has size >= 1 / 19) then bound |t|
    by 19 (|x0|_inf + 1e-10) < 20, and r < 1e-12 (20 + 20) + 1e-13 < 1e-10.
    """
    bits1, bits2 = (np.bitwise_or.reduce(1 << rows, axis=1) for rows in (rows1, rows2))

    def beaten(pay, opp_bits):
        # beats[i', i]: the opponent actions against which i' earns more
        # than _BEATEN over i, as a bitmask; i is beaten against a support
        # inside it
        beats = (pay[:, None, :] - pay[None, :, :] > _BEATEN) @ (1 << np.arange(pay.shape[1]))
        inside = (opp_bits & ~beats[..., None]) == 0  # [i', i, opponent support]
        return (1 << np.arange(len(pay))) @ inside.any(axis=0)

    return (((bits1[:, None] & beaten(a, bits2)) == 0)
            & ((beaten(b, bits1)[:, None] & bits2) == 0))


def _single_sides(pay, opp_rows):
    """(consistent, feasible): boolean masks over the sides of each own
    action a (rows of `pay`, the opponent's payoffs on the unit view)
    against each opponent support S (columns, the padded rows of
    `_support_table`).  No LAPACK call is made.

    The closed form.  A size-1 side has the equality matrix (1, d_1, ...,
    d_{q-1}) as one column, with d_i = pay[a, S[i]] - pay[a, S[i + 1]].
    Where every |d_i| <= TIE_TOL, the sum of the d_i^2 is below the unit
    roundoff and the SVD's minimum-norm solution is exactly x0 = [1.0] (a
    test pins this), whose residual is max |d_i|: so the side is consistent
    iff max |d_i| <= TIE_TOL, and its record is `_side_record` with x0 =
    [1.0] and an empty null space.  The padding repeats S's last action, so
    it adds only differences of 0.  Its payoff edges g_c x0 are then g_c =
    pay[a, S[0]] - pay[a, c] for each c outside S, whose least is
    pay[a, S[0]] minus the best payoff outside S, as subtraction rounds
    monotonically: so x0 is feasible iff that least edge is >= -TIE_TOL.
    """
    inside = np.zeros((len(opp_rows), pay.shape[1]), dtype=bool)
    inside[np.arange(len(opp_rows))[:, None], opp_rows] = True
    spread = np.abs(pay[:, opp_rows[:, :-1]] - pay[:, opp_rows[:, 1:]]).max(axis=-1, initial=0.0)
    gap = pay[:, opp_rows[:, 0]] - np.where(inside, -np.inf, pay[:, None, :]).max(axis=-1)
    return spread <= TIE_TOL, gap >= -TIE_TOL


def _padded_stack(pays, sides, p, q):
    """(mats, sq) for the sides (own[n], opp[n]) of sides[i] = (own, opp),
    player i's, in player order: own and opp are padded rows of
    `_support_table` of sizes p[n] <= q[n], and pays[i][own action,
    opponent action] the opponent's payoffs on the unit view.

    Let C be the (p + 1) x p equality matrix of a side over the first p + 1
    actions of opp[n], as the exact solve rounds it: the all-ones row over
    the payoff differences of consecutive opponent actions.  M is its first
    p rows, the equality matrix of a balanced side, where q = p, and its
    last p rows, the D block of `_certified_inconsistent` (transposed),
    where q > p.  mats[n] = diag(M, I), P x P with P the largest p, and
    sq[n] = |M|_F^2.

    Each entry of M is one difference pay[a, c] - pay[a, c'], read from a
    table of every such difference of the payoffs bordered by a column of
    ones, a column of zeros and a row of zeros: the all-ones row takes c =
    ones, c' = zeros, and the padding takes the zero row and column, so it
    is exactly 0 until the identity goes onto its diagonal.
    """
    size = int(p.max())
    n = max(max(pay.shape) for pay in pays)
    # columns: the opponent actions, then ones (n) and zeros (n + 1)
    width = n + 2
    bordered = np.zeros((len(pays), n + 1, width))
    own, heads = [], []
    for i, (pay, (own_i, opp_i)) in enumerate(zip(pays, sides)):
        bordered[i, :len(pay), :pay.shape[1]] = pay
        bordered[i, :len(pay), n] = 1.0
        own.append(own_i[:, :size] + i * (n + 1))
        heads.append(opp_i[:, np.minimum(np.arange(size + 1), opp_i.shape[1] - 1)])
    own, heads = np.concatenate(own), np.concatenate(heads)
    diffs = bordered[..., :, None] - bordered[..., None, :]
    inner = np.arange(size) < p[:, None]
    # row r of M is the difference of the columns (c, c') at r, or at r + 1
    # where q > p, of ((ones, zeros), (heads[0], heads[1]), (heads[1],
    # heads[2]), ...)
    cols = np.concatenate([np.full((len(p), 1), n * width + n + 1),
                           heads[:, :-1] * width + heads[:, 1:]], axis=1)
    cols = np.where((q > p)[:, None], cols[:, 1:], cols[:, :-1])
    own = np.where(inner, own, n) * (width * width)
    cols = np.where(inner, cols, (n + 1) * (width + 1))
    mats = np.take(diffs, own[:, None, :] + cols[:, :, None])
    sq = np.einsum("nij,nij->n", mats, mats)
    mats.reshape(len(mats), -1)[:, ::size + 1] += ~inner
    return mats, sq


def _lu_floor(logdet, frob, p, others, entry_max):
    """(log_floor, e): sigma_min(Z) >= exp(log_floor) - e for a matrix Z
    with others + 1 rows whose |det| is that of a p x p block M, given
    `logdet`, the log |det| that `slogdet` returns for diag(M, I), and
    frob = |Z|_F.  Every argument may be an array, one entry per matrix.

    Let u be the unit roundoff and g_p = p u / (1 - p u).  `slogdet`
    factors diag(M, I) by LU with partial pivoting.  Its off-diagonal
    blocks are zero, so no pivot leaves M's rows (where a column of M is
    zero below the diagonal, the search takes the first row, inside M),
    every elimination step subtracts exact zeros from the identity block,
    and the factors are diag(L, I) and diag(U, I) with L U an LU of M with
    partial pivoting, each entry of which sums at most p nonzero products.
    So it is exact for some M + E with |E|_F <= e = g_p p^2 2^(p-1)
    entry_max (multipliers at most 1, growth at most 2^(p-1), entries of M
    at most entry_max), and the ones of the identity block add 0 to the
    log |det|.  Putting E into Z's M block gives a Z' with |Z' - Z|_2 <= e,
    |Z'|_F <= frob + e and |det Z'| = |det(M + E)|.  The product of Z''s
    singular values is |det Z'| and none exceeds |Z'|_F, so
        sigma_min(Z) >= sigma_min(Z') - e >= |det(M + E)| / (frob + e)^others - e.
    The floor is a logarithm, so a singular M has log -inf and never clears
    a bound.
    """
    g_p = p * _UNIT / (1 - p * _UNIT)
    e = g_p * p * p * 2.0 ** (p - 1) * entry_max
    return logdet - others * np.log(frob + e), e


def _certified_inconsistent(sq, logdet, p, q):
    """For sides with fewer unknowns p than equalities q, given |D|_F^2 and
    the log |det| of each side's padded D block (`_padded_stack`, on the
    unit view) and each side's p and q: a boolean array,
    True where the exact solve is proven to find that side inconsistent.
    No SVD is taken.  The sides may have any sizes, as each bound takes
    its own p and q.

    The bound.  Let a (q x p) be the side's equality matrix, with right-hand
    side e1, and C the first p + 1 rows of [a | e1].  C's first row is all
    ones and its last column is e1, so |det C| = |det D| for the p x p block
    D of payoff differences under the first row.  For any x0, the one
    the exact solve computes included, put z = (x0, -1) and M = max(1, |x0|_inf)
    <= |z|_2; then |a x0 - e1|_inf >= |a x0 - e1|_2 / sqrt(q)
    >= |C z|_2 / sqrt(q) >= sigma_min(C) M / sqrt(q).  Let u be the unit
    roundoff and g_n = n u / (1 - n u).  Payoffs lie in [0, 1], so entries
    of D are below 2 and each row of a has absolute sum at most R = 2p;
    the computed a @ x0 is off by at most g_p R M per entry, and the
    subtraction of e1 rounds by a factor 1 - u at worst: the solve's resid is
    at least (1 - u) M (sigma_min(C) / sqrt(q) - g_p R), with M >= 1, and
    exceeds thr = TIE_TOL once
        sigma_min(C) > sqrt(q) (thr / (1 - u) + g_p R).
    `_lu_floor` bounds sigma_min(C) from below (Z = C, others = p, entries
    of D at most 2), with |C|_F^2 = p + 1 + |D|_F^2.  A slack of 1e-6 in
    the logarithm covers the rounding of the logarithms, of |C|_F and of
    the bound itself, and the 1 + O(p u) factors the growth picks up in
    floating point (all relative errors below 1e-10 for p <= 20); the
    padded `slogdet` and the sum of |D|_F^2 over zero padding differ from
    unpadded ones only in such rounding.  The argument holds for every x0,
    so it needs no error constant of the SVD.
    """
    g_p = p * _UNIT / (1 - p * _UNIT)
    need = np.sqrt(q) * (TIE_TOL / (1 - _UNIT) + g_p * p * 2.0)
    log_floor, e = _lu_floor(logdet, np.sqrt(p + 1 + sq), p, p, 2.0)
    return log_floor > np.log(need + e) + 1e-6


# a square side is decided by its LU factors only where the floor on its
# smallest singular value exceeds this multiple of the exact solve's rank cut
_CLEARANCE = 1e6


def _square_floor(sq, logdet, p):
    """(low, frob): a lower bound on the smallest singular value of each
    square equality matrix M of size p, from |M|_F^2 and the log |det| of
    its padded diag(M, I) (`_lu_floor` with Z = M, entries at most 2 on the
    unit view), and its Frobenius norm.  The 1e-6 in the logarithm covers
    the rounding of the floor."""
    frob = np.sqrt(sq)
    log_floor, e = _lu_floor(logdet, frob, p, p - 1, 2.0)
    return np.exp(log_floor - 1e-6) - e, frob


def _lu_screen(a, logdet, sq, p, side):
    """A boolean mask over square sides (p[n] unknowns, p[n] equalities, on
    the unit view), True where their LU factors prove that the exact solve
    finds them inconsistent or a point with infeasible x0.  The other sides
    go to `_exact_stage`.

    a[n] is the padded diag(M, I) of `_padded_stack`, logdet its log |det|
    and sq |M|_F^2; side = (own, opp, opp_payoff) holds the sides' padded
    rows of `_support_table` and the opponent's payoffs.  One stacked
    `solve` serves every size: diag(M, I) x = e1 gives x = (M^-1 e1, 0)
    through the block-diagonal factors of `_lu_floor`, the zero tail
    computed exactly, and the bounds below take each side's own p and the
    norm of M.

    The bound.  Let u be the unit roundoff, x* = M^-1 e1 the exact solution,
    L the `_square_floor` of M (L <= sigma_min(M)) and F = |M|_F; each row
    of M has absolute sum at most R = sqrt(p) F.  A side is decided only
    where L > _CLEARANCE p 2u F.  The one LAPACK property this relies on:
    the SVD computes each singular value within 1e3 p u |M|_F of the exact
    one (LAPACK's SVD is backward stable with an error of a small multiple
    of p u |M|_2).  Then the solve's smallest computed singular value
    exceeds its rank cut p 2u s[0], so it finds a point: its null space is
    empty.
    - The solve returns a point x0 only if its computed resid is <= thr =
      TIE_TOL.  A row of M @ x0 rounds by at most (2p + 4) u R |x0|_inf, and
      |x0|_inf <= |x*|_2 + D0 <= 1/L + D0 with
      D0 = |x0 - x*|_2 <= sqrt(p) |M x0 - e1|_inf / L, so
          D0 <= sqrt(p) (thr + (2p + 4) u R / L) / (L (1 - c)),
      c = sqrt(p) (2p + 4) u R / L <= (2p + 4) / (2 _CLEARANCE) < 1.
    - x^, the head of `np.linalg.solve(a, e1)`, has computed residual r^, so
      D1 = |x^ - x*|_2 <= sqrt(p) (r^ + (2p + 4) u R |x^|_inf) / L.
      The padding adds exact zeros to each row's sum.
    So |x0 - x^|_2 <= D = D0 + D1, times 1 + 1e-6 for the rounding of these
    sums.  The solve takes x0 feasible where g_r @ x0 >= -tol_r for each row
    r of g: x0_j >= -1e-10 (computed exactly) and each payoff edge
    >= -TIE_TOL.  A row has |g_r|_2 <= 2 sqrt(p), so g_r @ (x0 - x^) is at
    most that times D.  The slacks of x^ (from `_slack`) and of x0 (in
    the solve) round by at most (8p + 8) u (p (|x^|_inf + D) + 1) together.
    A side is infeasible where the slack of x^ is below minus the sum of
    these margins.
    """
    low, frob = _square_floor(sq, logdet, p)
    n = np.flatnonzero(low > _CLEARANCE * p * 2 * _UNIT * frob)
    infeasible = np.zeros(len(a), dtype=bool)
    if not n.size:
        return infeasible
    own, opp, opp_payoff = side
    if n.size < len(a):
        a, low, frob, p, own, opp = a[n], low[n], frob[n], p[n], own[n], opp[n]
    rhs = np.zeros(a.shape[:2] + (1,))
    rhs[:, 0] = 1.0
    x = np.linalg.solve(a, rhs)[..., 0]
    resid = np.einsum("nij,nj->ni", a, x)
    resid[:, 0] -= 1.0
    resid = np.max(np.abs(resid), axis=-1)
    root = np.sqrt(p)
    rnd = (2 * p + 4) * _UNIT * root * frob
    c = root * rnd / low
    x_max = np.max(np.abs(x), axis=-1)
    dist = root * ((TIE_TOL + rnd / low) / (1 - c) + resid + rnd * x_max) / low
    dist *= 1.0 + 1e-6
    slack = _slack(x, p, own, opp, opp_payoff)
    err = 2.0 * root * dist + (8 * p + 8) * _UNIT * (p * (x_max + dist) + 1.0)
    infeasible[n] = slack < -err
    return infeasible


def _equality_matrices(own, opp, opp_payoff):
    """The equality matrix of each side (own[n], opp[n]), the all-ones row
    over the payoff differences of consecutive opponent actions, as the
    exact solve factors it: shape (n, len(opp[n]), len(own[n]))."""
    p = own.shape[1]
    block = opp_payoff[own[:, :, None], opp[:, None, :]]
    diff = np.swapaxes(block[..., :-1] - block[..., 1:], -1, -2)
    return np.concatenate([np.ones((len(own), 1, p)), diff], axis=-2)


def _slack(x0, p, own, opp, opp_payoff):
    """The feasibility slack of each vector x0[n] over the side (own[n],
    opp[n]) of size p[n], all padded as `_lu_screen` takes them: the smaller
    of its least entry plus 1e-10 and TIE_TOL plus the opponent's payoff
    edge of opp[n][0] over the best opponent action outside opp[n].  x0 is
    feasible (g @ x0 >= -tol) where it is >= 0, up to rounding.  The
    opponent's payoffs are x0 spread over all own actions, zero elsewhere,
    times opp_payoff: the zeros add exact zeros to each sum."""
    n, size = x0.shape
    n_own, n_opp = opp_payoff.shape
    at = np.arange(n)[:, None]
    inner = np.arange(size) < p[:, None]
    spread = np.zeros((n, n_own + 1))
    spread[at, np.where(inner, own[:, :size], n_own)] = x0
    vals = spread[:, :n_own] @ opp_payoff
    inside = np.zeros((n, n_opp), dtype=bool)
    inside[at, opp] = True
    best_out = np.max(vals, axis=-1, where=~inside, initial=-np.inf)
    edge = vals[at[:, 0], opp[:, 0]] - best_out
    least = np.min(x0, axis=-1, where=inner, initial=np.inf)
    return np.minimum(least + 1e-10, edge + TIE_TOL)


# a size-1 side of an open pair: the feasible point x0 = [1.0] (`_single_sides`)
_UNIT_POINT = (np.ones(1), np.zeros((1, 0)), True)


def _exact_stage(game, unit, pairs):
    """The `EquilibriumSet` of the open support pairs (s1, s2) of `pairs`,
    in pair order, with duplicates dropped.

    A pair holds nothing when a side is inconsistent or a point with
    infeasible x0 (`_solve_sides`).  Otherwise sides with no freedom give
    the point candidate of their x0, clipped at zero; one free dimension a
    segment (`_lines`), a point candidate when at most 1e-9 wide; more a
    `degenerate` diagnostic with the two `_Side` records.  A pair's point
    candidate that `_nash_points` rejects gives an `incentive-violation`.
    """
    m, k = game.action_counts
    pays = (unit.payoffs[..., 1], unit.payoffs[..., 0].T)
    # x over s1 equalizes player 2 across s2; y over s2 equalizes player 1
    # across s1
    sides = [(s1, s2, 0) for s1, s2 in pairs] + [(s2, s1, 1) for s1, s2 in pairs]
    solved = _solve_sides(sides, pays)
    points, lines, diagnostics = [], [], []
    for n, (s1, s2) in enumerate(pairs):
        xs, ys = solved[n], solved[len(pairs) + n]
        if any(s is None or not (s[1].shape[1] or s[2]) for s in (xs, ys)):
            continue
        dim = xs[1].shape[1] + ys[1].shape[1]
        if dim == 0:
            points.append((n, (_embed(m, s1, np.clip(xs[0], 0, None)),
                               _embed(k, s2, np.clip(ys[0], 0, None)))))
        elif dim == 1:
            x, y = n, len(pairs) + n
            lines.append((n, x, y) if xs[1].shape[1] else (n, y, x))
        else:
            diagnostics.append((n, SupportDiagnostic(
                (s1, s2), "degenerate", f"solution set of dimension {dim} not traced",
                sides=(_side_record(s1, s2, pays[0], *xs[:2]),
                       _side_record(s2, s1, pays[1], *ys[:2])))))
    segments, hair = _lines(game, pays, sides, solved, lines)
    # each pair gives at most one candidate, so pair order is a total order
    candidates = sorted(points + hair, key=lambda c: c[0])
    stacked = _nash_points(unit, [vecs for _, vecs in candidates])
    dim0 = {n for n, _ in points}
    kept = []
    for (n, vecs), x in zip(candidates, stacked):
        if x is not None:
            kept.append((vecs, x))
        elif n in dim0:
            diagnostics.append((n, SupportDiagnostic(pairs[n], "incentive-violation")))
    diagnostics.sort(key=lambda d: d[0])
    isolated, segments = _dedupe(game, kept, segments)
    return EquilibriumSet([MixedProfile(game, vecs) for vecs in isolated], segments,
                          [d for _, d in diagnostics])


def _solve_sides(sides, pays):
    """For each side (own, opp, player), against the opponent payoffs
    pays[player] on the unit view: None where its equalities are
    inconsistent, else (x0, null, feasible), `feasible` telling whether
    g @ x0 >= -tol where the null space is empty.

    Each is, bit for bit, what one SVD of the side's equality matrix gives.
    A side of size 1 is the screen's closed form; a side against one
    opponent action has the matrix ones((1, p)), one SVD per p; the others
    take one `np.linalg.svd` per matrix shape, and the per-matrix products
    of the stack, grouped by rank, for x0, residuals and payoff edges.
    """
    out = [None] * len(sides)
    shapes = {}
    for n, (own, opp, _) in enumerate(sides):
        shapes.setdefault((len(opp), len(own)), []).append(n)
    for (q, p), idx in shapes.items():
        if p == 1:
            for n in idx:
                out[n] = _UNIT_POINT
        elif q == 1:
            x0, null = _ones_side(p)
            for n in idx:
                out[n] = (x0, null, False)
        else:
            for n, side in zip(idx, _solve_stack([sides[n] for n in idx], pays)):
                out[n] = side
    return out


def _solve_stack(sides, pays):
    """`_solve_sides` for sides of one shape, p >= 2 unknowns and q >= 2
    equalities."""
    out = [None] * len(sides)
    groups = []  # (positions in `sides`, own array, opp array, opponent payoffs)
    for player, pay in enumerate(pays):
        at = [n for n, side in enumerate(sides) if side[2] == player]
        if at:
            groups.append((at, np.array([sides[n][0] for n in at]),
                           np.array([sides[n][1] for n in at]), pay))
    a = np.concatenate([_equality_matrices(*g[1:]) for g in groups])
    u, s, vt = np.linalg.svd(a)
    # s[:, 0] >= 1: the all-ones row has norm at least one
    rank = np.sum(s > max(a.shape[1:]) * np.finfo(float).eps * s[:, :1], axis=1)
    x0 = np.empty((len(a), a.shape[2]))
    for r in np.unique(rank):
        of = rank == r
        w = u[of, 0, :r] / s[of, :r]
        x0[of] = (vt[of, :r].swapaxes(1, 2) @ w[..., None])[..., 0]
    resid = (a @ x0[..., None])[..., 0]
    resid[:, 0] -= 1.0
    consistent = np.max(np.abs(resid), axis=1) <= TIE_TOL
    row = 0
    for at, own, opp, pay in groups:
        g, tol = _g_stack(own, opp, pay)
        feasible = np.all((g @ x0[row:row + len(at), :, None])[..., 0] >= -tol, axis=1)
        for n, r, ok in zip(at, range(row, row + len(at)), feasible):
            if consistent[r]:
                out[n] = (x0[r], vt[r, rank[r]:].T, ok)
        row += len(at)
    return out


def _g_stack(own, opp, opp_payoff):
    """(g, tol) for sides (own[n], opp[n]) of one shape, g stacked, with
    opp_payoff[own action, opponent action] the opponent's payoff on the
    unit view: the rows v_j >= -1e-10, then the payoff edge of opp[n][0]
    over each opponent action outside opp[n], in action order."""
    n, p = own.shape
    outside = np.ones((n, opp_payoff.shape[1]), dtype=bool)
    outside[np.arange(n)[:, None], opp] = False
    outside = np.nonzero(outside)[1].reshape(n, opp_payoff.shape[1] - opp.shape[1])
    edges = (opp_payoff[own[:, :, None], opp[:, None, :1]]
             - opp_payoff[own[:, :, None], outside[:, None, :]])
    g = np.concatenate([np.broadcast_to(np.eye(p), (n, p, p)), edges.swapaxes(1, 2)],
                       axis=1)
    return g, np.repeat([1e-10, TIE_TOL], [p, outside.shape[1]])


def _segment_point(base, direction, t):
    """The vectors of the profile at t on the segment base + t * direction,
    before normalization."""
    return [np.clip(b + t * d, 0.0, None) for b, d in zip(base, direction)]


def _lines(game, pays, sides, solved, lines):
    """(segments, points): the `Component`s of the pairs (pair, var, fixed)
    of `lines`, in pair order, and their hair-width ones as (pair, point
    candidate).  var and fixed index `sides` and `solved`: the side with a
    one-dimensional null space and the other, a feasible point.  One pass
    on arrays per shape of the varying side.

    Its null vector d, scaled to max-norm 1 with its first entry above
    1e-12 positive, spans x0 + t d, kept where x0 + t d >= -1e-10 and every
    utility gap of `nash_defect` >= -TIE_TOL (so it passes `is_nash`).
    Tolerance fuzz inflates points into hair-width intervals, so a second
    pass drops the tolerance of the probabilities and the opponent's gaps,
    except on rows flat along d, which cannot widen the interval (a zero
    weight that rounds to -1e-17 must not empty the family).  The player's
    own gaps keep TIE_TOL less 1e-12 for rounding: d sums to zero, so they
    move only by the ties the fixed side accepted.  A segment at most 1e-9
    wide is the point at its middle.
    """
    segments, points = [], []
    shapes = {}
    for line in lines:
        own, opp, player = sides[line[1]]
        counts = game.action_counts[player], game.action_counts[1 - player]
        shapes.setdefault((len(own), len(opp)) + counts, []).append(line)
    for (p, _, n_var, n_fixed), group in shapes.items():
        # the fixed side's actions are the varying side's opponent support
        own, opp, player = (np.array([sides[v][i] for _, v, _ in group]) for i in (0, 1, 2))
        x0 = np.array([solved[v][0] for _, v, _ in group])
        d = np.array([solved[v][1][:, 0] for _, v, _ in group])
        fixed = _embed_rows(n_fixed, opp, np.maximum([solved[f][0] for _, _, f in group], 0.0))
        n = len(group)
        at = np.arange(n)[:, None]
        mx = np.max(np.abs(d), axis=1)
        live = mx > 1e-12
        d = d / np.where(live, mx, 1.0)[:, None]
        first = np.argmax(np.abs(d) > 1e-12, axis=1)
        d = np.where((d[at[:, 0], first] < 0)[:, None], -d, d)
        w = fixed / fixed.sum(axis=1)[:, None]  # as `MixedProfile` normalizes it
        # rows over v = x0 + t d: the probabilities, then the utility gaps
        # that `nash_defect` compares, u_opp(v, w) - u_opp(v, b) for each
        # opponent action b and u(v, w) - u(a, w) for each own action a;
        # both players' lines share a shape only in square games
        g = np.zeros((n, p + n_fixed + n_var, p))
        g[:, range(p), range(p)] = 1.0
        for pl in set(player.tolist()):
            r = player == pl
            opp_pay = pays[pl][own[r]]  # [line, own action, opponent action]
            util = w[r] @ pays[1 - pl]  # the player's utilities against w
            g[r, p:p + n_fixed] = (opp_pay @ w[r][..., None] - opp_pay).swapaxes(1, 2)
            g[r, p + n_fixed:] = util[at[:len(util)], own[r]][:, None, :] - util[:, :, None]
        tol = np.repeat([1e-10, TIE_TOL, TIE_TOL], [p, n_fixed, n_var])
        slope = (g @ d[..., None])[..., 0]
        at_x0 = (g @ x0[..., None])[..., 0]
        flat = np.abs(slope) <= 1e-12
        exact = np.where(flat, tol, np.repeat([0.0, 0.0, TIE_TOL - 1e-12], [p, n_fixed, n_var]))
        # the interval with the tolerance, then the one without fuzz
        lo, hi, ok = _interval(np.concatenate([slope, slope]),
                               np.concatenate([at_x0 + tol, at_x0 + exact]),
                               np.concatenate([flat, flat]))
        mid = 0.5 * (lo[:n] + hi[:n])
        ends = _snap_zero(np.where(ok[n:], [lo[n:], hi[n:]], mid))
        base = (_snap_zero(_embed_rows(n_var, own, x0)), _snap_zero(fixed))
        direction = (_snap_zero(_embed_rows(n_var, own, d)), np.zeros((n, n_fixed)))
        for r in np.flatnonzero(live & ok[:n]):
            pair, lo, hi = group[r][0], float(ends[0, r]), float(ends[1, r])
            # the varying side is player[r]'s; list the sides in player order
            order = slice(None, None, -1 if player[r] else 1)
            base_r = (base[0][r], base[1][r])[order]
            direction_r = (direction[0][r], direction[1][r])[order]
            if hi - lo <= 1e-9:
                points.append((pair, _segment_point(base_r, direction_r, 0.5 * (lo + hi))))
            else:
                support = tuple(tuple(game.actions[pl][a] for a in s) for pl, s in
                                zip(game.players, (own[r], opp[r])[order]))
                segments.append((pair, Component(support, base_r, direction_r, (lo, hi))))
    segments.sort(key=lambda e: e[0])
    return [seg for _, seg in segments], points


def _interval(slope, rhs, flat):
    """(lo, hi, ok) per row: the t with rhs + t * slope >= 0 entrywise, ok
    False where there are none.  Flat rows (|slope| <= 1e-12) only check
    rhs >= 0.  An interval empty by at most 1e-12 is its middle point."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cut = -rhs / slope
    lo = np.max(np.where(slope > 1e-12, cut, -np.inf), axis=1, initial=-1e12)
    hi = np.min(np.where(slope < -1e-12, cut, np.inf), axis=1, initial=1e12)
    ok = ~np.any(flat & (rhs < 0), axis=1) & ~(lo > hi + 1e-12)
    mid = 0.5 * (lo + hi)
    pinch = lo > hi
    return np.where(pinch, mid, lo), np.where(pinch, mid, hi), ok


def _embed_rows(n, support, values):
    """`_embed` of each row of `values` at the columns of `support`."""
    out = np.zeros((len(values), n))
    out[np.arange(len(values))[:, None], support] = values
    return out


def _nash_points(unit, candidates):
    """For each point candidate (x, y), unnormalized: the stacked vectors
    of its `MixedProfile`, or None where it fails `is_nash`; the
    normalization and the defect are `normalized`'s and `nash_defect`'s on
    the unit view, with the same per-candidate products."""
    if not candidates:
        return []
    normed = []
    for vecs in zip(*candidates):
        v = np.maximum(np.array(vecs), 0.0)
        normed.append((v / v.sum(axis=1)[:, None])[..., None])
    defect = 0.0
    for i in range(2):
        # one column of utilities per candidate
        eu = utility_vector(unit, i, normed)
        gain = eu.max(axis=1)[:, 0] - (eu.swapaxes(1, 2) @ normed[i])[:, 0, 0]
        defect = np.maximum(defect, gain)
    x = np.concatenate(normed, axis=1)[..., 0]
    return [x[r] if defect[r] <= TIE_TOL else None for r in range(len(x))]


def _enumerate_single(game):
    """One player: each pure maximizer, an action `is_nash` accepts (within
    TIE_TOL of the best on the unit view); two of them give their segment
    instead, and more also give a `degenerate` face, the simplex over them."""
    u = unit_view(game).payoffs[..., 0]
    argmax = np.flatnonzero(u.max() - u <= TIE_TOL).tolist()
    if len(argmax) == 2:
        support = (tuple(game.actions[game.players[0]][a] for a in argmax),)
        return EquilibriumSet([], [Component(support, (_embed(len(u), argmax[1:], 1.0),),
                                             (_embed(len(u), argmax, [1.0, -1.0]),), (0.0, 1.0))])
    isolated = [MixedProfile(game, [_embed(len(u), [a], 1.0)]) for a in argmax]
    diags = []
    if len(argmax) > 2:
        # the face is the simplex over the argmax: a side with no opponent
        face = _side_record(tuple(argmax), (), np.zeros((len(u), 0)), *_ones_side(len(argmax)))
        diags.append(SupportDiagnostic((tuple(argmax),), "degenerate",
                                       "argmax face of dimension >= 2", sides=(face,)))
    return EquilibriumSet(isolated, [], diags)


def _dedupe(game, points, segments):
    """(vecs of the kept points, merged segments), from the (vecs, stacked
    profile vectors) of `points` and the `Component`s of `segments`, each in
    pair order.  A point within 1e-9 of a segment, or of a point kept
    before it, is dropped; the kept points are sorted by their profile
    vectors and the segments by support."""
    segments = _merge_segments(segments)
    kept = []
    if points:
        x = np.array([y for _, y in points])
        # the max-norm gap from a point to a segment's bounding box bounds its
        # distance to the segment from below
        near = np.zeros(len(x), dtype=bool)
        for seg in segments:
            ends = [np.concatenate(seg.base) + t * np.concatenate(seg.direction)
                    for t in seg.interval]
            lo, hi = np.minimum(*ends), np.maximum(*ends)
            for n in np.flatnonzero(np.max(np.maximum(lo - x, x - hi), axis=1) <= 1e-9):
                near[n] = near[n] or _segment_distance(game, seg, x[n])[0] <= 1e-9
        close = (np.max(np.abs(x[:, None] - x), axis=2) <= 1e-9).tolist()
        for n in np.flatnonzero(~near).tolist():
            if not any(close[n][j] for j in kept):
                kept.append(n)
        kept.sort(key=lambda n: tuple(x[n]))
    segments.sort(key=lambda seg: seg.support)
    return [points[n][0] for n in kept], segments


def _merge_segments(segments):
    merged = []
    for seg in segments:
        for i, other in enumerate(merged):
            joined = _try_join(other, seg)
            if joined is not None:
                merged[i] = joined
                break
        else:
            merged.append(seg)
    return merged


def _try_join(a, b):
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
    return replace(a, interval=(min(alo, blo), max(ahi, bhi)))


def _project_side(target, side):
    """Vector on the side's polytope closest to `target` in max norm:
    minimize s with |v - target| <= s entrywise, v = x0 + null @ z and
    g @ v >= 0.  Without the enumeration's slack `tol`, the projection is
    Nash up to the LP's own tolerance, well inside TIE_TOL."""
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
    lb = np.full(r + 1, -np.inf)
    lb[-1] = float(off.max()) if off.size else 0.0
    x = search.solve_lp(cost, a_ub, len(b_ub), b_ub, lb, np.full(r + 1, np.inf))
    if x is None:
        return None
    return _embed(len(target), own, np.clip(x0 + null @ x[:r], 0.0, None))


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
    kept only if it passes `is_nash`, as enumeration's points do, and
    beats every enumerated candidate by more than 1e-9, the distance at
    which enumeration merges points.
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


def _require_nash(game, profile):
    """ValueError unless `profile` passes `is_nash`."""
    if not is_nash(game, profile):
        d = nash_defect(unit_view(game), profile)
        raise ValueError(f"profile is not a Nash equilibrium (defect {d:.3e})")


def is_epsilon_perfect(game, profile, eps):
    """Interior, and only unit-view best responses carry probability above eps."""
    if not profile.is_interior:
        return False
    for i in range(game.n_players):
        eu = expected_utility(unit_view(game), profile, i)
        if np.any(profile.vectors[i][eu < eu.max() - TIE_TOL] > eps * (1 + 1e-12) + 1e-15):
            return False
    return True


def is_epsilon_proper(game, profile, eps):
    """Interior, with eps-bounded ratios down the utility ranking."""
    if not profile.is_interior:
        return False
    for i in range(game.n_players):
        eu, sig = expected_utility(game, profile, i), profile.vectors[i]
        # [a, b]: b earns less than a and has more than eps times its probability
        if np.any((eu[:, None] > eu + TIE_TOL) & (sig > eps * sig[:, None] * (1 + 1e-9))):
            return False
    return True


def _perfect_tremble(game, sig, i, eps):
    """(1 - eps) sigma_i + eps / k."""
    return (1 - eps) * sig[i] + eps / len(sig[i])


def _proper_tremble(game, sig, i, eps):
    """sigma_i plus eps^(d + 1) / (k 2^d) per action d tie blocks down, cut
    on the unit view and on the raw payoffs `is_epsilon_proper` reads; renormalized."""
    w = sig[i].copy()
    eus = (utility_vector(unit_view(game), i, sig), utility_vector(game, i, sig))
    for depth, block in enumerate(search._tie_blocks(eus)):
        w[block] += eps ** (depth + 1) / (len(w) * 2.0**depth)
    return w / w.sum()


def _trembled_witness(game, profile, eps, tremble):
    """The candidate with each player's vector trembled by `tremble`.  With
    two players, where |S_i| > 1 is the number of the opponent's best
    replies b_0 < b_1 < ... (its first tie block on the unit view), S_i's
    mass is re-solved from [1^T; u_j(., b) - u_j(., b_0) over S_i] so those
    replies tie again exactly, and kept if positive.  At a regular
    equilibrium every support action then stays a best reply."""
    unit, sig = unit_view(game), profile.vectors
    vecs = [tremble(game, sig, i, eps) for i in range(len(sig))]
    for i in range(2) if len(sig) == 2 else ():
        on, w = sig[i] > TIE_TOL, vecs[i]
        best = search._tie_blocks((utility_vector(unit, 1 - i, sig),))[0]
        if len(best) == on.sum() > 1:
            u = search._util_coefs(unit, i).T  # u_j[a, b]
            d = u[:, best[1:]] - u[:, best[:1]]
            try:
                x = np.linalg.solve(np.vstack([np.ones(len(best)), d[on].T]),
                                    np.append(1 - w[~on].sum(), -(w[~on] @ d[~on])))
            except np.linalg.LinAlgError:
                continue
            if x.min() > 0:
                w[on] = x
    return MixedProfile(game, vecs)


def _dominated_on_support(game, profile):
    """A `dominated-on-support` certificate for the first action played
    above TIE_TOL that a pure action weakly dominates, or None.  It refutes
    perfection, and so properness, for any number of players: against
    completely mixed trembles the dominator earns strictly more, so the
    dominated action gets probability 0 in the limit."""
    hit = weak_dominance(game).first_violation(profile, lambda x_d, _: x_d > TIE_TOL)
    if hit is None:
        return None
    player, pair, x_d, _ = hit
    return {"kind": "dominated-on-support", "player": player, "action": pair.dominated,
            "dominated_by": pair.dominating, "probability": float(x_d)}


def _check_refinement(game, profile, schedule, tremble, passes, pattern_search):
    """Decide a refinement at the smallest scheduled eps.

    Pure dominance on the support refutes first (`_dominated_on_support`).
    The candidate trembled by the refinement's rule (`_trembled_witness`)
    is kept if it passes the refinement's test within DELTA_FACTOR * eps,
    else the pattern search runs.  Witnesses nest: interior stays interior,
    and the distance bound, "non-best responses <= eps" and "ratios <= eps"
    only loosen as eps grows.  So a witness found is listed at every
    scheduled eps, largest first; any other verdict carries no witnesses
    and one note for the smallest eps.  A refuted search refutes, with the
    certificate it carries.
    """
    check_schedule(schedule, "eps", upper=1.0)
    _require_nash(game, profile)
    cert = _dominated_on_support(game, profile)
    if cert is not None:
        return RefinementVerdict(REFUTED, certificate=cert)
    eps = min(schedule)
    delta = DELTA_FACTOR * eps
    witness = _trembled_witness(game, profile, eps, tremble)
    if witness.distance(profile) > delta or not passes(game, witness, eps):
        witness = None
    out = None
    if witness is None and game.n_players == 2:
        out = pattern_search(game, profile, eps, delta)
        if out.outcome == search.OUTCOME_FEASIBLE and passes(game, out.witness, eps):
            witness = out.witness
    if witness is not None:
        return RefinementVerdict(VERIFIED, [(e, witness) for e in sorted(schedule, reverse=True)])
    if out is None:
        return RefinementVerdict(INCONCLUSIVE, notes=[f"eps={eps:g}: no witness found"])
    notes = [f"eps={eps:g}: " + (out.note or f"{out.outcome} ({out.tried} patterns)")]
    if out.outcome == search.OUTCOME_REFUTED:
        return RefinementVerdict(REFUTED, certificate=out.certificate, notes=notes)
    return RefinementVerdict(INCONCLUSIVE, notes=notes)


def check_perfect(game, profile, schedule=DEFAULT_EPS_SCHEDULE):
    """Three-valued perfection check, decided at the smallest scheduled eps.

    The witness tried first trembles the candidate to (1 - eps) sigma +
    eps / k (`_trembled_witness`).  Where it fails, a two-player point is
    perfect iff no mixed strategy weakly dominates a player's strategy, which
    the LPs of `search.perfect_pattern_search` decide.  Refutations carry
    `dominated-on-support` (a pure dominance, tried first) or
    `mixed-dominance`, whose `dominating` maps actions to the probabilities
    of a dominating mixed strategy.  With three or more players pure
    dominance on the support refutes, and otherwise only the witness runs.

    `verified` lists the smallest eps's witness at every scheduled eps
    (`_check_refinement`); refuted and inconclusive verdicts carry none.
    """
    return _check_refinement(game, profile, schedule, _perfect_tremble, is_epsilon_perfect,
                             search.perfect_pattern_search)


def check_proper(game, profile, schedule=DEFAULT_EPS_SCHEDULE):
    """Three-valued properness check, decided at the smallest scheduled eps.

    The witness tried first adds eps^(d + 1) / (k 2^d) to each action d tie
    blocks below the best replies (`_trembled_witness`).  Where it fails,
    the float LPs of `search.proper_pattern_search` run.  Refutation: either
    an on-support dominated action (properness implies perfection), or
    exhaustion of the utility-order patterns that keep the candidate's tie
    blocks at the smallest scheduled eps, within DELTA_FACTOR * eps.  Every
    tail of a would-be defining sequence keeps the candidate's strict
    utility gaps, lies in that box and is eps-proper, so exhaustion rules
    the sequence out.  Exhaustion over a pattern deeper than the LPs can
    resolve, eps^(L-1) for L levels under the search's feasibility margin,
    is inconclusive with note `lp-numerics`; so is a search past
    MAX_PATTERN_PAIRS.

    `verified` lists the smallest eps's witness at every scheduled eps
    (`_check_refinement`); refuted and inconclusive verdicts carry none.
    """
    return _check_refinement(game, profile, schedule, _proper_tremble, is_epsilon_proper,
                             search.proper_pattern_search)


def classify(game, eqset, schedule=DEFAULT_EPS_SCHEDULE):
    """Refinement tags for the isolated equilibria, and a summary per
    component.

    A point is tagged undominated unless its perfection is refuted.  For
    two players no mixed strategy weakly dominates either player's strategy
    exactly when the point is perfect (van Damme 1991, Thm 3.2.2); with
    more players the tag reads "perfection not refuted", and pure dominance
    on the support refutes it.

    A component is decided at its `segment_breakpoints` (`decide_segment`).
    Its summary lists a `grid` entry {t, undominated, perfect, proper} at
    every breakpoint and midpoint, and the (t_lo, t_hi) runs of points that
    are undominated (`undominated_region`), perfect (`perfect_intervals`)
    and proper (`proper_intervals`), in the form of `empirical`'s
    `member_intervals`.
    """
    check_schedule(schedule, "eps", upper=1.0)

    def tag(profile):
        perfect = check_perfect(game, profile, schedule=schedule)
        return RefinementTag(perfect.status != REFUTED, perfect,
                             check_proper(game, profile, schedule=schedule))

    tags = [tag(p) for p in eqset.isolated]

    def decide(profile):
        t = tag(profile)
        return {"undominated": t.undominated, "perfect": t.perfect.status,
                "proper": t.proper.status}

    passes = {"undominated_region": lambda e: e["undominated"],
              "perfect_intervals": lambda e: e["perfect"] == VERIFIED,
              "proper_intervals": lambda e: e["proper"] == VERIFIED}
    summaries = []
    for comp in eqset.components:
        grid, runs = decide_segment(game, comp, decide, passes)
        summaries.append({"grid": [{"t": t, **e} for t, e in grid], **runs})
    return tags, summaries
