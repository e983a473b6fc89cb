"""Finite normal-form games: payoff tensors, mixed profiles, and dominance.

The payoff tensor is dense, shape ``(|A_1|, ..., |A_n|, n)``; the trailing
axis indexes players.  Games are immutable after construction and safe to
share across concurrent workers; profiles are value types.

Each game keeps, built once in its constructor, every player's utility view
``np.moveaxis(payoffs[..., i], i, 0)`` (own actions first), and, each
computed on first use, the weak-dominance report and the game on unit-range
payoffs (`unit_view`).  `utility_vector` contracts a view with plain
probability vectors; `expected_utility` is the same contraction behind the
`MixedProfile` check, for callers at the API boundary.  Hot loops (the QRE
iteration, the region grid) call `utility_vector` and `normalized` on plain
arrays and build a `MixedProfile` only for what they return.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass

import numpy as np

# Entries below -SIMPLEX_TOL are rejected; entries in [-SIMPLEX_TOL, 0) are
# clamped to zero before renormalization.
SIMPLEX_TOL = 1e-12


class GameFormatError(ValueError):
    """Malformed game description (constructor arguments or game file)."""


class ProfileError(ValueError):
    """A probability profile that does not fit the game it is used with."""


class Game:
    """Immutable finite normal-form game (players, named actions, payoffs)."""

    __slots__ = ("players", "actions", "action_counts", "payoffs", "_pidx", "_aidx",
                 "_views", "_dominance", "_unit")

    def __init__(self, players, actions, payoffs):
        players, acts = _checked_labels(players, actions)
        arr = np.array(payoffs, dtype=float)
        shape = tuple(len(acts[p]) for p in players) + (len(players),)
        if arr.shape != shape:
            raise GameFormatError(
                f"payoff tensor has shape {arr.shape}, expected {shape}"
            )
        if not np.all(np.isfinite(arr)):
            raise GameFormatError("payoff entries must be finite reals")
        arr.flags.writeable = False
        self.players = players
        self.actions = acts
        self.action_counts = shape[:-1]
        self.payoffs = arr
        self._pidx = {p: i for i, p in enumerate(players)}
        self._aidx = {p: {a: j for j, a in enumerate(acts[p])} for p in players}
        # read-only views of `arr`, indexed (own action, opponents in order)
        self._views = tuple(np.moveaxis(arr[..., i], i, 0) for i in range(len(players)))
        self._dominance = None  # weak_dominance(self), computed on first use
        self._unit = None  # unit_view(self), computed on first use

    # -- basic geometry -------------------------------------------------

    @property
    def n_players(self):
        return len(self.players)

    def player_index(self, player):
        if isinstance(player, (int, np.integer)):
            if not 0 <= int(player) < self.n_players:
                raise ProfileError(f"player index {player} out of range")
            return int(player)
        try:
            return self._pidx[player]
        except KeyError:
            raise ProfileError(f"unknown player {player!r}") from None

    def action_index(self, player, action):
        p = self.players[self.player_index(player)]
        try:
            return self._aidx[p][str(action)]
        except KeyError:
            raise ProfileError(f"unknown action {action!r} for player {p!r}") from None

    def __eq__(self, other):
        if not isinstance(other, Game):
            return NotImplemented
        return (
            self.players == other.players
            and self.actions == other.actions
            and np.array_equal(self.payoffs, other.payoffs)
        )

    def __hash__(self):
        return hash((self.players, tuple(self.actions.items()), self.payoffs.tobytes()))

    def __repr__(self):
        sizes = "x".join(str(k) for k in self.action_counts)
        return f"Game({len(self.players)} players, {sizes})"

    # -- file format ------------------------------------------------------
    #
    # { "players": [...], "actions": {player: [...]},
    #   "payoffs": [ {"profile": {player: action}, "u": {player: value}}, ... ] }
    # with exactly one payoff record per pure profile.

    @classmethod
    def from_json(cls, text):
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GameFormatError(f"invalid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise GameFormatError("a game file holds one JSON object")
        for key in ("players", "actions", "payoffs"):
            if key not in doc:
                raise GameFormatError(f"missing top-level field {key!r}")
        if not isinstance(doc["players"], list) or not isinstance(doc["payoffs"], list):
            raise GameFormatError("'players' and 'payoffs' must be JSON arrays")
        if not isinstance(doc["actions"], dict) or not all(
                isinstance(labels, list) for labels in doc["actions"].values()):
            raise GameFormatError("'actions' must map each player to a JSON array")
        players, actions = _checked_labels(doc["players"], doc["actions"])
        aidx = [{a: j for j, a in enumerate(actions[p])} for p in players]
        tensor = np.full(tuple(map(len, aidx)) + (len(players),), np.nan)
        seen = set()
        for k, rec in enumerate(doc["payoffs"]):
            if not (isinstance(rec, dict) and isinstance(rec.get("profile"), dict)
                    and isinstance(rec.get("u"), dict)):
                raise GameFormatError(f"payoff record {k}: needs 'profile' and 'u' objects")
            prof, u = rec["profile"], rec["u"]
            idx = []
            for p, labels in zip(players, aidx):
                if p not in prof:
                    raise GameFormatError(f"payoff record {k}: no action for player {p!r}")
                j = labels.get(str(prof[p]))
                if j is None:
                    raise GameFormatError(f"payoff record {k}: unknown action "
                                          f"{prof[p]!r} for player {p!r}")
                idx.append(j)
            idx = tuple(idx)
            if idx in seen:
                raise GameFormatError(f"payoff record {k}: duplicate profile {prof}")
            seen.add(idx)
            for i, p in enumerate(players):
                if p not in u:
                    raise GameFormatError(f"payoff record {k}: missing utility for {p!r}")
                try:
                    # decimal strings are accepted and stored as doubles
                    value = float(u[p])
                except (TypeError, ValueError, OverflowError):
                    value = math.nan
                if not math.isfinite(value):
                    raise GameFormatError(f"payoff record {k}: utility {u[p]!r} for "
                                          f"{p!r} is not a finite number")
                tensor[idx + (i,)] = value
        missing = tensor[..., 0].size - len(seen)
        if missing:
            raise GameFormatError(f"{missing} pure profiles have no payoff record")
        return cls(players, actions, tensor)

    @classmethod
    def from_file(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(fh.read())

    def to_json(self):
        """Canonical emission: records in row-major action-index order."""
        records = []
        for idx in itertools.product(*(range(k) for k in self.action_counts)):
            prof = {p: self.actions[p][idx[i]] for i, p in enumerate(self.players)}
            u = {p: _json_number(self.payoffs[idx + (i,)]) for i, p in enumerate(self.players)}
            records.append({"profile": prof, "u": u})
        doc = {
            "players": list(self.players),
            "actions": {p: list(self.actions[p]) for p in self.players},
            "payoffs": records,
        }
        return json.dumps(doc, indent=2) + "\n"

    def to_file(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_json())


def _checked_labels(players, actions):
    """Players and each one's action labels as tuples of strings, checked."""
    players = tuple(str(p) for p in players)
    if not players:
        raise GameFormatError("a game needs at least one player")
    if len(set(players)) != len(players):
        raise GameFormatError("duplicate player identifiers")
    acts = {}
    for p in players:
        if p not in actions:
            raise GameFormatError(f"no action list for player {p!r}")
        labels = tuple(str(a) for a in actions[p])
        if not labels:
            raise GameFormatError(f"player {p!r} has an empty action set")
        if len(set(labels)) != len(labels):
            raise GameFormatError(f"duplicate action labels for player {p!r}")
        acts[p] = labels
    return players, acts


def _json_number(v):
    v = float(v)
    if v == int(v) and abs(v) < 1e15:
        return int(v)
    return v


class MixedProfile:
    """One probability vector per player over that player's actions.

    Entries below -1e-12 are rejected; small negatives are clamped and the
    vector is renormalized, so constructed profiles always sum to one.
    """

    __slots__ = ("game", "vectors")

    def __init__(self, game, vectors):
        vectors = tuple(np.asarray(v, dtype=float) for v in vectors)
        if len(vectors) != game.n_players:
            raise ProfileError(
                f"{len(vectors)} vectors for a {game.n_players}-player game"
            )
        cleaned = []
        for p, v in zip(game.players, vectors):
            if v.shape != (len(game.actions[p]),):
                raise ProfileError(
                    f"vector for {p!r} has shape {v.shape}, expected ({len(game.actions[p])},)"
                )
            v = normalized(v, p)
            v.flags.writeable = False
            cleaned.append(v)
        self.game = game
        self.vectors = tuple(cleaned)

    @classmethod
    def uniform(cls, game):
        return cls(game, [np.full(k, 1.0 / k) for k in game.action_counts])

    @classmethod
    def pure(cls, game, assignment):
        """Degenerate profile; `assignment` maps player -> action label."""
        vecs = []
        for p, k in zip(game.players, game.action_counts):
            v = np.zeros(k)
            v[game.action_index(p, assignment[p])] = 1.0
            vecs.append(v)
        return cls(game, vecs)

    @classmethod
    def from_dict(cls, game, mapping):
        """Build from {player: {action: prob}}; omitted actions get zero."""
        if not isinstance(mapping, dict):
            raise ProfileError("a profile maps each player to an object of probabilities")
        vecs = []
        for p in game.players:
            if p not in mapping:
                raise ProfileError(f"profile is missing player {p!r}")
            if not isinstance(mapping[p], dict):
                raise ProfileError(f"probabilities for {p!r} must map actions to numbers")
            v = np.zeros(len(game.actions[p]))
            for a, prob in mapping[p].items():
                j = game.action_index(p, a)
                try:
                    v[j] = float(prob)
                except (TypeError, ValueError):
                    raise ProfileError(f"non-numeric probability {prob!r} for {p!r}") from None
            vecs.append(v)
        return cls(game, vecs)

    @property
    def is_interior(self):
        return all(v.min() > 0 for v in self.vectors)

    def replace(self, player, vector):
        i = self.game.player_index(player)
        vecs = list(self.vectors)
        vecs[i] = np.asarray(vector, dtype=float)
        return MixedProfile(self.game, vecs)

    def distance(self, other):
        """Max norm over all probability entries."""
        return max(
            float(abs(a - b).max()) for a, b in zip(self.vectors, other.vectors)
        )

    def as_dict(self):
        return {
            p: {a: float(v[j]) for j, a in enumerate(self.game.actions[p])}
            for p, v in zip(self.game.players, self.vectors)
        }

    def stacked(self):
        return np.concatenate(self.vectors)

    def __eq__(self, other):
        if not isinstance(other, MixedProfile):
            return NotImplemented
        return all(np.array_equal(a, b) for a, b in zip(self.vectors, other.vectors))

    def __repr__(self):
        parts = [
            f"{p}:({', '.join(f'{x:.4g}' for x in v)})"
            for p, v in zip(self.game.players, self.vectors)
        ]
        return "MixedProfile(" + "; ".join(parts) + ")"


def normalized(v, player):
    """The cleaning rule of every profile vector, for a float array `v`.

    Rejects non-finite entries and entries below -SIMPLEX_TOL, clamps the
    rest at zero and divides by the sum.  `MixedProfile` applies it to each
    player's vector; loops on plain arrays apply it to their iterates, so a
    profile later built from the same input holds the same bits.
    """
    low = v.min()
    if not low > 0:  # also NaN
        if not np.isfinite(v).all():
            raise ProfileError(f"non-finite probability for player {player!r}")
        if low < -SIMPLEX_TOL:
            raise ProfileError(f"negative probability for player {player!r}: {low}")
        v = np.maximum(v, 0.0)  # what np.clip(v, 0.0, None) computes
    total = v.sum()
    if total == np.inf and not np.isfinite(v).all():  # not an overflowing sum
        raise ProfileError(f"non-finite probability for player {player!r}")
    if not total > 0:
        raise ProfileError(f"probabilities for {player!r} sum to zero")
    return v / total


def _check_profile(game, profile):
    if not isinstance(profile, MixedProfile):
        raise ProfileError("expected a MixedProfile")
    if profile.game.action_counts != game.action_counts:
        raise ProfileError("profile shape does not match game")
    return profile


def utility_vector(game, i, vectors):
    """Vector over A_i of U_i(sigma_{-i}, a_i) for plain probability vectors.

    `i` is a player index and `vectors` one array per player; nothing is
    checked.  Opponents are contracted from the last to the first.
    """
    u = game._views[i]
    for j in range(game.n_players - 1, -1, -1):
        if j != i:
            u = u @ vectors[j]
    return u


def expected_utility(game, profile, player):
    """Vector over A_i of U_i(sigma_{-i}, a_i)."""
    i = game.player_index(player)
    _check_profile(game, profile)
    return utility_vector(game, i, profile.vectors)


def best_responses(game, profile, player, tol=0.0):
    """Actions within `tol` of the maximal expected-utility component."""
    if tol < 0:
        raise ValueError("tol must be nonnegative")
    i = game.player_index(player)
    eu = expected_utility(game, profile, i)
    cut = eu.max() - tol
    p = game.players[i]
    return {a for j, a in enumerate(game.actions[p]) if eu[j] >= cut}


# The one tie tolerance: absolute, on unit-view payoffs and on probabilities
# (see `unit_view`).
TIE_TOL = 1e-9


def unit_view(game):
    """The game with each player's payoffs mapped to [0, 1] by
    u_i -> (u_i - min u_i) / (max u_i - min u_i); a constant player maps
    to 0.  The view is built on first use and kept on the game.

    The map is a positive affine one per player, so it keeps best
    responses, Nash equilibria and weak dominance, and a test with an
    absolute tolerance on the view means the same at every payoff scale.

    The tie rule: two utilities of the view, or two probabilities, tie
    when they differ by at most TIE_TOL.  Enumeration, the Nash test of
    every candidate, perfection, both trembled witnesses, properness's tie
    blocks and membership (its closure test, three-player witness
    heuristic, witness re-check and segment breakpoints) decide on the view
    and return profiles of the caller's game, so printed profiles and
    utilities keep its units.  Raw payoffs stay where units matter or the
    rule does not reach yet: `qre` and `ccost` (lambda and costs are in
    payoff units), properness's LP rows and eps-proper test, the
    `monotone` predicates, which apply the `tol` they are given (TIE_TOL
    unless the CLI's `--tol` says otherwise) to the game they are given,
    and pure weak dominance (`weak_dominance`), which is exact.
    """
    if game._unit is None:
        axes = tuple(range(game.n_players))
        # halving is exact, and keeps a span beyond the largest double finite
        half = 0.5 * game.payoffs
        lo = half.min(axis=axes)
        span = half.max(axis=axes) - lo
        unit = (half - lo) / np.where(span > 0, span, 1.0)
        game._unit = Game(game.players, game.actions, unit)
    return game._unit


def nash_defect(game, profile):
    """Largest unilateral improvement any player can gain; 0 at a Nash point."""
    worst = 0.0
    for i in range(game.n_players):
        eu = expected_utility(game, profile, i)
        worst = max(worst, float(eu.max() - eu @ profile.vectors[i]))
    return worst


@dataclass(frozen=True)
class DominancePair:
    dominated: str
    dominating: str
    witness: dict  # opponent pure profile where the inequality is strict


class DominanceReport:
    """Weak-dominance pairs per player, with strict-somewhere witnesses.

    `indexed[i]` holds the pairs of the i-th player as (pair, dominated
    index, dominating index) triples, and `pairs[player]` the same pairs
    alone, both in the order they were found.
    """

    def __init__(self, players, indexed):
        self.indexed = tuple(tuple(lst) for lst in indexed)
        self.pairs = {p: tuple(t[0] for t in lst)
                      for p, lst in zip(players, self.indexed)}

    def first_violation(self, profile, violates):
        """(player, pair, dominated probability, dominating probability) of
        the first pair, players in order, whose probabilities in `profile`
        satisfy violates(dominated, dominating); None when no pair does."""
        for player, found, vec in zip(self.pairs, self.indexed, profile.vectors):
            for pair, d, g in found:
                if violates(vec[d], vec[g]):
                    return player, pair, vec[d], vec[g]
        return None

    def __repr__(self):
        n = sum(len(v) for v in self.pairs.values())
        return f"DominanceReport({n} pairs)"


def weak_dominance(game):
    """Exhaustive weak-dominance report, exact comparisons of raw payoffs.

    The one report that every pure-dominance refutation reads, always of
    the caller's game and never of its unit view.  It is computed on first
    use and kept on the game, so every caller shares it and none may mutate it.
    """
    if game._dominance is None:
        game._dominance = _dominance_report(game)
    return game._dominance


def _dominance_report(game):
    indexed = []
    for i, p in enumerate(game.players):
        ui = game._views[i].reshape(len(game.actions[p]), -1)
        # [d, g, opponent profile]: row g against row d, all pairs at once
        above = ui[None] > ui[:, None]
        dom = (ui[None] >= ui[:, None]).all(axis=-1) & above.any(axis=-1)
        ds, gs = np.nonzero(dom)  # d major, as a loop over d then g finds them
        opp = [q for q in game.players if q != p]
        # the first opponent profile where the dominator does strictly better;
        # with no opponents ui has one column and the witness is {}
        idx = np.unravel_index(above[ds, gs].argmax(axis=-1),
                               tuple(len(game.actions[q]) for q in opp) or (1,))
        indexed.append([
            (DominancePair(game.actions[p][d], game.actions[p][g],
                           {q: game.actions[q][idx[t][n]] for t, q in enumerate(opp)}),
             int(d), int(g))
            for n, (d, g) in enumerate(zip(ds, gs))])
    return DominanceReport(game.players, indexed)
