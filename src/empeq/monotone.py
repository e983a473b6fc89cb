"""Monotonicity predicates linking play frequencies to expected payoffs.

All predicates are pure functions over immutable inputs.  Strictness at
exact equality resolves as "not greater": `x` beats `y` only when
``x > y + tol``.  The default `tol` is `game.TIE_TOL`, applied to the game
a predicate is given: the membership engine gives them the unit view, the
CLI the caller's game (see `game.unit_view` for the tie rule).  `tol` must
be finite and >= 0; the predicates and `sample_monotone_region` raise
ValueError otherwise, since a negative or NaN tolerance turns every tie
and every verdict into an artifact of the input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .game import TIE_TOL, expected_utility, normalized, utility_vector


@dataclass(frozen=True)
class Violation:
    player: str
    actions: tuple
    probs: tuple
    utils: tuple
    note: str


@dataclass(frozen=True)
class MonotonicityVerdict:
    satisfied: bool
    violations: tuple

    def __bool__(self):
        return self.satisfied


# Each rule is written once, as a mask over action pairs.  `sig` and `eu` are
# probabilities and expected utilities of shape (..., k) that broadcast
# against each other; the mask has shape (..., k, k) and is True at [a, b]
# where the pair (a, b) violates the rule.  Its row-major order is the pair
# order of `itertools.permutations` (ordered rules, diagonal False) or of
# `itertools.combinations` (the symmetric strict rule, upper triangle only).


def _pairwise(x):
    return x[..., :, None], x[..., None, :]


@lru_cache(maxsize=None)
def _pair_mask(k, upper):
    """The read-only (k, k) mask of the pairs a rule may mark: a < b when
    `upper`, else a != b."""
    mask = ~(np.tri if upper else np.eye)(k, dtype=bool)
    mask.flags.writeable = False
    return mask


def weak_violations(sig, eu, tol):
    """a is played more than b by over tol, but a's payoff is not more than
    tol above b's."""
    sa, sb = _pairwise(sig)
    ua, ub = _pairwise(eu)
    return (sa > sb + tol) & ~(ua > ub + tol) & _pair_mask(sig.shape[-1], False)


def strict_violations(sig, eu, tol):
    """Payoffs within tol of each other but probabilities not, or payoffs
    apart by more than tol but the better-paid action not strictly more
    played.  Only pairs a < b are marked.

    Both tests read the differences d = x[a] - x[b], whose sign is that of
    the comparison x[a] > x[b] (floating-point subtraction of finite
    numbers is 0 only between equal ones)."""
    ds = np.subtract(*_pairwise(sig))
    du = np.subtract(*_pairwise(eu))
    bad = np.where(np.abs(du) <= tol, np.abs(ds) > tol,
                   np.where(du > 0, ~(ds > 0), ~(ds < 0)))
    return bad & _pair_mask(sig.shape[-1], True)


def m_weak_violations(sig, eu, m, tol):
    """a's payoff is at least b's (within tol), but a keeps less than
    fraction m of b's probability (within tol)."""
    sa, sb = _pairwise(sig)
    ua, ub = _pairwise(eu)
    return (ua >= ub - tol) & ~(sa >= m * sb - tol) & _pair_mask(sig.shape[-1], False)


def _marked_pairs(game, profile, rule):
    """Per player: (player, sig, eu, pairs the rule's mask marks, in order)."""
    for i, p in enumerate(game.players):
        sig = profile.vectors[i]
        eu = expected_utility(game, profile, i)
        yield p, sig, eu, zip(*np.nonzero(rule(sig, eu)))


def _violation(game, p, sig, eu, a, b, note):
    a, b = int(a), int(b)
    return Violation(
        p,
        (game.actions[p][a], game.actions[p][b]),
        (float(sig[a]), float(sig[b])),
        (float(eu[a]), float(eu[b])),
        note,
    )


def _check_tol(tol):
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and >= 0, got {tol:g}")


def is_weakly_payoff_monotone(game, profile, tol=TIE_TOL):
    """Strictly-more-played actions must earn strictly more.

    Probability ties impose nothing; a pair violates when the probability
    gap exceeds `tol` but the utility gap does not.
    """
    _check_tol(tol)
    note = "played strictly more without strictly higher payoff"
    bad = [
        _violation(game, p, sig, eu, a, b, note)
        for p, sig, eu, pairs in _marked_pairs(
            game, profile, lambda s, u: weak_violations(s, u, tol))
        for a, b in pairs
    ]
    return MonotonicityVerdict(not bad, tuple(bad))


def is_payoff_monotone(game, profile, tol=TIE_TOL):
    """Probabilities and expected utilities are ordinally equivalent.

    Utility ties (within tol) force probability ties (within tol).  When
    utilities are clearly ordered, the probabilities must realize that order
    exactly: sharper quantal responses legitimately separate actions by far
    less than tol, so the direction of the gap decides, not its size.
    """
    _check_tol(tol)
    bad = []
    for p, sig, eu, pairs in _marked_pairs(
            game, profile, lambda s, u: strict_violations(s, u, tol)):
        for a, b in pairs:
            du = eu[a] - eu[b]
            if abs(du) <= tol:
                bad.append(_violation(game, p, sig, eu, a, b,
                                      "utility tie without probability tie"))
            else:  # reported best-paid first
                hi, lo = (a, b) if du > 0 else (b, a)
                bad.append(_violation(game, p, sig, eu, hi, lo,
                                      "higher payoff without strictly higher probability"))
    return MonotonicityVerdict(not bad, tuple(bad))


def is_m_weakly_payoff_monotone(game, profile, m, tol=TIE_TOL):
    """Weakly-better actions keep at least fraction `m` of the worse one's mass."""
    _check_tol(tol)
    if not 0.0 <= m <= 1.0:
        raise ValueError("m must lie in [0, 1]")
    note = f"sigma(a) < {m} * sigma(b) despite weakly higher payoff"
    bad = [
        _violation(game, p, sig, eu, a, b, note)
        for p, sig, eu, pairs in _marked_pairs(
            game, profile, lambda s, u: m_weak_violations(s, u, m, tol))
        for a, b in pairs
    ]
    return MonotonicityVerdict(not bad, tuple(bad))


def sample_monotone_region(game, resolution, kind="weak", tol=TIE_TOL):
    """Grid verdicts over the unit cube for games with two actions per player.

    Coordinates are sigma_i(first action).  Rows come out in lexicographic
    coordinate order (first player's coordinate slowest).  Each verdict is
    the rule's mask applied to the whole grid at once; a point's
    probabilities and utilities are those of the `MixedProfile` at its
    coordinates, bit for bit.
    """
    _check_tol(tol)
    if any(k != 2 for k in game.action_counts):
        raise ValueError("region sampling requires exactly 2 actions per player")
    resolution = int(resolution)
    if resolution < 1:
        raise ValueError("resolution must be a positive integer")
    rules = {"weak": weak_violations, "strict": strict_violations}
    if kind not in rules:
        raise ValueError("kind must be 'weak' or 'strict'")
    violated = rules[kind]
    axis = np.linspace(0.0, 1.0, resolution + 1)
    n, size = game.n_players, len(axis)
    # the profile vector at each coordinate, the same for every player
    vecs = [normalized(np.array([c, 1.0 - c]), game.players[0]) for c in axis]
    probs = np.array(vecs)
    satisfied = np.ones((size,) * n, dtype=bool)
    for i in range(n):
        own = [1] * n + [2]
        own[i] = size
        sig = probs.reshape(own)
        # i's utilities depend on the opponents' coordinates only
        opp = [size] * n + [2]
        opp[i] = 1
        eu = np.empty(opp)
        for idx in itertools.product(range(size), repeat=n - 1):
            idx = idx[:i] + (0,) + idx[i:]
            eu[idx] = utility_vector(game, i, [vecs[r] for r in idx])
        satisfied &= ~violated(sig, eu, tol).any(axis=(-2, -1))
    coords = itertools.product([float(c) for c in axis], repeat=n)
    return list(zip(coords, satisfied.ravel().tolist()))


def region_csv(rows):
    """CSV text for region rows: coord_1,...,coord_k,satisfied (0/1).

    Each coordinate prints as its `repr`, formatted once per coordinate
    object: `sample_monotone_region` gives every row of an axis position
    the same float object.  The texts are keyed by identity, not by value,
    so 0.0 and -0.0, which are equal keys, keep their own texts.
    """
    if not rows:
        return ""
    k = len(rows[0][0])
    lines = [",".join(f"coord_{j + 1}" for j in range(k)) + ",satisfied"]
    texts = {}  # id -> repr; `rows` keeps every coordinate alive
    for coords, ok in rows:
        row = []
        for c in coords:
            text = texts.get(id(c))
            if text is None:
                text = texts[id(c)] = repr(c)
            row.append(text)
        row.append("1" if ok else "0")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
