"""Empirical-equilibrium membership: witnesses and refutations.

An empirical equilibrium is a limit of interior payoff-monotone play, so
membership is a closure question.  A weak-dominance forcing that the
candidate violates refutes it first.  For two players the closure test of
`search.monotone_pattern_search` then decides exactly: the candidate is a
member iff it lies in the closure of the interior monotone profiles of some
comparison pattern pair, and a non-member by pattern exhaustion otherwise.
At a candidate whose actions all differ in probability or utility (the
equilibria of games with generic payoffs) the one compatible pair is a
strict order per player, and a closed-form witness, checked row by row,
decides member without an LP.
With three or more players a witness heuristic runs, and only dominance
refutes.  No decision depends on a distance: the delta schedule only places
the witness a member verdict lists at every scheduled delta.  Nor does one
depend on payoff units: dominance reads the caller's exact `weak_dominance`
report, and every later step decides on `unit_view` under its tie rule.
`nash.check_proper` still decides at the smallest eps, since "ratios <= eps"
only loosens as eps grows; `nash.check_perfect` decides two-player
perfection exactly, one best-reply LP per player, whatever the eps.

With the fraction parameter m < 1 the same machinery decides m-empirical
membership, where weakly-better actions only need fraction m of the
weakly-worse action's probability.  Along a two-player Nash segment,
probabilities and utilities are linear in the segment parameter, so its
decisions can change only at their crossings: a segment is decided at its
`nash.segment_breakpoints`, by `nash.decide_segment`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import search
from .game import TIE_TOL, MixedProfile, unit_view, weak_dominance
from .monotone import is_weakly_payoff_monotone
from .nash import _require_nash, check_schedule, decide_segment, enumerate_nash
from .qre import QreConvergenceError, perturbed_monotone_point

DEFAULT_DELTAS = (1e-1, 1e-2, 1e-3, 1e-4)

MEMBER = "member"
NON_MEMBER = "non-member"
INCONCLUSIVE = "inconclusive"


@dataclass
class Refutation:
    kind: str  # "dominance" | "pattern-exhaustion"
    data: dict


@dataclass
class MembershipVerdict:
    decision: str
    witnesses: list  # member only: (delta, MixedProfile) per scheduled delta,
    # largest first; one witness within the smallest delta, repeated
    refutation: Refutation | None = None
    diagnostics: dict = field(default_factory=dict)


def _dominance_refutation(game, profile, m):
    """Forced inequality sigma(dominating) >= m * sigma(dominated) holds in
    every (m-)weakly monotone profile; a candidate violating it in the limit
    cannot be approached."""
    hit = weak_dominance(game).first_violation(
        profile, lambda x_d, x_g: m * x_d - x_g > TIE_TOL)
    if hit is None:
        return None
    player, pair, x_d, x_g = hit
    return Refutation(
        "dominance",
        {
            "player": player,
            "dominated": pair.dominated,
            "dominating": pair.dominating,
            "m": m,
            "forced": f"sigma({pair.dominating}) >= "
                      f"{m:g} * sigma({pair.dominated})",
            "candidate": {
                pair.dominated: float(x_d),
                pair.dominating: float(x_g),
            },
        },
    )


def empirical_membership(game, profile, delta_schedule=DEFAULT_DELTAS, m=1.0):
    """Decide (m-)empirical membership of a Nash candidate.

    member: an interior monotone witness within the smallest scheduled
    distance passes `search.witness_ok`.  It is one within every larger
    distance (interior and monotone do not depend on delta), so it is
    listed at every scheduled distance, largest first.
    non-member: a dominance forcing is violated, or (two players) the
    closure test finds no compatible pattern pair with interior monotone
    profiles, so no sequence of them converges to the candidate.
    inconclusive: too many compatible pattern pairs, a witness that fails
    its re-check, or no witness for three or more players.  Non-member and
    inconclusive verdicts carry no witnesses.  A candidate whose Nash defect
    on the game's unit view exceeds `game.TIE_TOL` raises ValueError.

    Dominance reads `weak_dominance(game)`, later steps `unit_view(game)`, so
    the verdict does not depend on payoff units; witnesses are profiles of `game`.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError("m must lie in [0, 1]")
    check_schedule(delta_schedule, "delta")
    _require_nash(game, profile)
    unit = unit_view(game)
    deltas = sorted((float(d) for d in delta_schedule), reverse=True)
    delta = deltas[-1]
    t0 = time.perf_counter()
    stages = {}
    diagnostics = {"stage_seconds": stages}

    cert = _dominance_refutation(game, profile, m)
    stages["dominance"] = time.perf_counter() - t0
    if cert is not None and m > 0.0:
        return MembershipVerdict(NON_MEMBER, [], cert, diagnostics)

    t1 = time.perf_counter()
    if game.n_players == 2:
        out = search.monotone_pattern_search(unit, profile, delta, m=m)
        stages["closure-test"] = time.perf_counter() - t1
        if out.outcome == search.OUTCOME_REFUTED:
            cert = Refutation("pattern-exhaustion", {
                "m": m, "patterns_tried": out.tried,
                "note": "no compatible pattern pair has interior monotone profiles"})
            return MembershipVerdict(NON_MEMBER, [], cert, diagnostics)
        witness = out.witness
    else:
        witness = _generic_witness(game, profile, delta, m)
        stages["witness-search"] = time.perf_counter() - t1

    if search.witness_ok(unit, witness, profile, delta, m):
        witnesses = [(d, witness) for d in deltas]
        return MembershipVerdict(MEMBER, witnesses, None, diagnostics)
    return MembershipVerdict(INCONCLUSIVE, [], None, diagnostics)


def _generic_witness(game, profile, delta, m):
    """Witness construction for games outside the two-player engine.

    Smooth the candidate toward uniform, keep the smoothing weakly monotone,
    then pull it to an interior payoff-monotone point with the
    logit-perturbation fixed point.  Every step runs on the unit view, so
    the fixed point's lambda = 1 means the same at every payoff scale.
    """
    unit = unit_view(game)
    rng = np.random.default_rng(0)
    taus = [delta / 4, delta / 8, delta / 16]
    seeds = []
    for tau in taus:
        vecs = [(1 - tau) * v + tau / len(v) for v in profile.vectors]
        seeds.append(MixedProfile(game, vecs))
    for _ in range(8):
        tau = delta / 4
        vecs = []
        for v in profile.vectors:
            noise = rng.uniform(0.5, 1.5, size=len(v))
            vecs.append((1 - tau) * v + tau * noise / noise.sum())
        seeds.append(MixedProfile(game, vecs))
    for mu in seeds:
        if not is_weakly_payoff_monotone(unit, mu).satisfied:
            continue
        try:
            pt = perturbed_monotone_point(unit, mu, zeta=min(0.25, delta / 4))
        except (QreConvergenceError, ValueError):
            continue
        if search.witness_ok(unit, pt.profile, profile, delta, m):
            return MixedProfile(game, pt.profile.vectors)
    return None


# ---------------------------------------------------------------------------
# whole-game reports


@dataclass
class ComponentMembership:
    component: object
    grid: list  # (t, decision) at the segment breakpoints and between them
    member_intervals: list  # (t_lo, t_hi) runs of member verdicts


@dataclass
class EmpiricalReport:
    eqset: object
    isolated: list  # (profile, MembershipVerdict)
    components: list  # ComponentMembership


def enumerate_empirical(game, delta_schedule=DEFAULT_DELTAS, m=1.0):
    """Membership verdicts for every enumerated equilibrium.

    Isolated equilibria are decided directly, components at their
    `nash.segment_breakpoints`; runs of member verdicts give the member
    subintervals.
    """
    check_schedule(delta_schedule, "delta")
    eqset = enumerate_nash(game)
    isolated = [
        (p, empirical_membership(game, p, delta_schedule, m=m))
        for p in eqset.isolated
    ]

    def decide(profile):
        return empirical_membership(game, profile, delta_schedule, m=m).decision

    comps = []
    for comp in eqset.components:
        grid, runs = decide_segment(game, comp, decide, {MEMBER: lambda d: d == MEMBER}, m)
        comps.append(ComponentMembership(comp, grid, runs[MEMBER]))
    return EmpiricalReport(eqset, isolated, comps)
