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
the witness a member verdict lists at every scheduled delta.
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
from .game import MixedProfile, weak_dominance
from .monotone import is_m_weakly_payoff_monotone, is_weakly_payoff_monotone
from .nash import (
    NASH_TOL,
    UnsupportedGameError,
    _require_nash,
    check_schedule,
    decide_segment,
    enumerate_nash,
    nearest_nash,
)
from .qre import QreConvergenceError, perturbed_monotone_point, trace_logit_path

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
        profile, lambda x_d, x_g: m * x_d - x_g > NASH_TOL)
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


def empirical_membership(game, profile, delta_schedule=DEFAULT_DELTAS, m=1.0,
                         nash_tol=NASH_TOL, seed=0):
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
    on the game's unit view exceeds `nash_tol` raises ValueError.
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError("m must lie in [0, 1]")
    check_schedule(delta_schedule, "delta")
    _require_nash(game, profile, nash_tol)
    deltas = sorted((float(d) for d in delta_schedule), reverse=True)
    delta = deltas[-1]
    t0 = time.perf_counter()
    diagnostics = {"m": m, "stage_seconds": {}}

    cert = _dominance_refutation(game, profile, m)
    diagnostics["stage_seconds"]["dominance"] = time.perf_counter() - t0
    if cert is not None and m > 0.0:
        return MembershipVerdict(NON_MEMBER, [], cert, diagnostics)

    t1 = time.perf_counter()
    if game.n_players == 2:
        out = search.monotone_pattern_search(game, profile, delta, m=m)
        diagnostics["stage_seconds"]["closure-test"] = time.perf_counter() - t1
        diagnostics["patterns_tried"] = out.tried
        if out.outcome == search.OUTCOME_REFUTED:
            cert = Refutation("pattern-exhaustion", {
                "m": m, "patterns_tried": out.tried,
                "note": "no compatible pattern pair has interior monotone profiles"})
            return MembershipVerdict(NON_MEMBER, [], cert, diagnostics)
        witness = out.witness
    else:
        witness = _generic_witness(game, profile, delta, m, seed)
        diagnostics["stage_seconds"]["witness-search"] = time.perf_counter() - t1

    if search.witness_ok(game, witness, profile, delta, m):
        witnesses = [(d, witness) for d in deltas]
        return MembershipVerdict(MEMBER, witnesses, None, diagnostics)
    return MembershipVerdict(INCONCLUSIVE, [], None, diagnostics)


def _generic_witness(game, profile, delta, m, seed):
    """Witness construction for games outside the two-player engine.

    Smooth the candidate toward uniform, keep the smoothing weakly monotone,
    then pull it to an interior payoff-monotone point with the
    logit-perturbation fixed point.
    """
    rng = np.random.default_rng(seed)
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
        if not is_weakly_payoff_monotone(game, mu).satisfied:
            continue
        try:
            pt = perturbed_monotone_point(game, mu, zeta=min(0.25, delta / 4))
        except (QreConvergenceError, ValueError):
            continue
        if search.witness_ok(game, pt.profile, profile, delta, m):
            return pt.profile
    return None


def reverify_dominance(game, refutation, samples=1000, seed=0):
    """Check a dominance certificate against sampled monotone profiles.

    Returns the number of sampled (m-)weakly monotone profiles; every one of
    them must satisfy the forced inequality (AssertionError otherwise).
    """
    if refutation.kind != "dominance":
        raise ValueError("not a dominance certificate")
    data = refutation.data
    m = data["m"]
    i = game.player_index(data["player"])
    d = game.action_index(data["player"], data["dominated"])
    g = game.action_index(data["player"], data["dominating"])
    rng = np.random.default_rng(seed)
    checked = 0
    for _ in range(samples):
        prof = MixedProfile(
            game, [rng.dirichlet(np.ones(k)) for k in game.action_counts]
        )
        if m == 1.0:
            ok = is_weakly_payoff_monotone(game, prof).satisfied
        else:
            ok = is_m_weakly_payoff_monotone(game, prof, m).satisfied
        if not ok:
            continue
        checked += 1
        assert prof.vectors[i][g] >= m * prof.vectors[i][d] - 1e-9, (
            "dominance certificate failed to re-verify"
        )
    return checked


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


def enumerate_empirical(game, delta_schedule=DEFAULT_DELTAS, m=1.0, seed=0):
    """Membership verdicts for every enumerated equilibrium.

    Isolated equilibria are decided directly, components at their
    `nash.segment_breakpoints`; runs of member verdicts give the member
    subintervals.
    """
    check_schedule(delta_schedule, "delta")
    eqset = enumerate_nash(game)
    isolated = [
        (p, empirical_membership(game, p, delta_schedule, m=m, seed=seed))
        for p in eqset.isolated
    ]

    def decide(profile):
        return empirical_membership(game, profile, delta_schedule, m=m, seed=seed).decision

    comps = []
    for comp in eqset.components:
        grid, runs = decide_segment(game, comp, decide, {MEMBER: lambda d: d == MEMBER}, m)
        comps.append(ComponentMembership(comp, grid, runs[MEMBER]))
    return EmpiricalReport(eqset, isolated, comps)


@dataclass
class ProbeResult:
    profile: MixedProfile
    verdict: MembershipVerdict
    path: object


def nonemptiness_probe(game, delta_schedule=DEFAULT_DELTAS, seed=0):
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
    verdict = empirical_membership(game, candidate, delta_schedule, seed=seed)
    return ProbeResult(candidate, verdict, path)
