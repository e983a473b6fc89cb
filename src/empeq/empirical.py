"""Empirical-equilibrium membership: witnesses and refutations.

A Nash equilibrium is a member when interior payoff-monotone profiles exist
arbitrarily close to it (the interior characterization of approachability by
weakly payoff-monotone play).  Membership is certified numerically: one
interior monotone witness per scheduled distance.  Non-membership is
certified structurally, either through a weak-dominance forcing the limit
violates, or by exhausting every comparison pattern at the smallest
scheduled distance.  Everything else stays inconclusive.

With the fraction parameter m < 1 the same machinery decides m-empirical
membership, where weakly-better actions only need fraction m of the
weakly-worse action's probability.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import search
from .game import MixedProfile, weak_dominance
from .monotone import (
    is_m_weakly_payoff_monotone,
    is_payoff_monotone,
    is_weakly_payoff_monotone,
)
from .nash import NASH_TOL, _require_nash, enumerate_nash
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
    witnesses: list  # (delta, MixedProfile), delta decreasing
    refutation: Refutation | None = None
    diagnostics: dict = field(default_factory=dict)


def _dominance_refutation(game, profile, m):
    """Forced inequality sigma(dominating) >= m * sigma(dominated) holds in
    every (m-)weakly monotone profile; a candidate violating it in the limit
    cannot be approached."""
    report = weak_dominance(game)
    for i, p in enumerate(game.players):
        for pair in report.pairs[p]:
            d = game.action_index(p, pair.dominated)
            g = game.action_index(p, pair.dominating)
            lhs = m * profile.vectors[i][d]
            rhs = profile.vectors[i][g]
            if lhs - rhs > NASH_TOL:
                return Refutation(
                    "dominance",
                    {
                        "player": p,
                        "dominated": pair.dominated,
                        "dominating": pair.dominating,
                        "m": m,
                        "forced": f"sigma({pair.dominating}) >= "
                                  f"{m:g} * sigma({pair.dominated})",
                        "candidate": {
                            pair.dominated: float(profile.vectors[i][d]),
                            pair.dominating: float(profile.vectors[i][g]),
                        },
                    },
                )
    return None


def _witness_ok(game, witness, candidate, delta, m):
    if witness is None or not witness.is_interior:
        return False
    if witness.distance(candidate) > delta * (1 + 1e-9):
        return False
    if m == 1.0:
        return is_payoff_monotone(game, witness).satisfied
    return is_m_weakly_payoff_monotone(game, witness, m).satisfied


def empirical_membership(game, profile, delta_schedule=DEFAULT_DELTAS, m=1.0,
                         nash_tol=NASH_TOL, seed=0):
    """Decide (m-)empirical membership of a Nash candidate.

    member: an interior monotone witness exists at every scheduled distance.
    non-member: a dominance forcing is violated, or every pattern at the
    smallest distance is infeasible (then no monotone profile of the tested
    kind exists that close, so no sequence can converge to the candidate).
    """
    if not 0.0 <= m <= 1.0:
        raise ValueError("m must lie in [0, 1]")
    _require_nash(game, profile, nash_tol)
    deltas = sorted(float(d) for d in delta_schedule)
    if not deltas or deltas[0] <= 0:
        raise ValueError("delta schedule must be positive")
    t0 = time.perf_counter()
    diagnostics = {"m": m, "stage_seconds": {}}

    cert = _dominance_refutation(game, profile, m)
    diagnostics["stage_seconds"]["dominance"] = time.perf_counter() - t0
    if cert is not None and m > 0.0:
        return MembershipVerdict(NON_MEMBER, [], cert, diagnostics)

    witnesses = []
    missing = []
    t1 = time.perf_counter()
    if game.n_players == 2:
        for delta in sorted(deltas, reverse=True):
            out = search.monotone_pattern_search(game, profile, delta, m=m)
            if out.outcome == search.OUTCOME_FEASIBLE and _witness_ok(
                game, out.witness, profile, delta, m
            ):
                witnesses.append((delta, out.witness))
            else:
                missing.append(delta)
    else:
        for delta in sorted(deltas, reverse=True):
            w = _generic_witness(game, profile, delta, m, seed)
            if _witness_ok(game, w, profile, delta, m):
                witnesses.append((delta, w))
            else:
                missing.append(delta)
    diagnostics["stage_seconds"]["witness-search"] = time.perf_counter() - t1

    if not missing:
        return MembershipVerdict(MEMBER, witnesses, None, diagnostics)

    t2 = time.perf_counter()
    if game.n_players == 2:
        ref = search.monotone_pattern_search(
            game, profile, deltas[0], m=m, refute_mode=True
        )
        diagnostics["stage_seconds"]["refutation"] = time.perf_counter() - t2
        diagnostics["patterns_tried"] = ref.tried
        if ref.outcome == search.OUTCOME_REFUTED:
            cert = Refutation(
                "pattern-exhaustion",
                {
                    "delta": deltas[0],
                    "m": m,
                    "patterns_tried": ref.tried,
                    "note": "no monotone profile of the tested kind exists "
                            "within delta of the candidate",
                },
            )
            return MembershipVerdict(NON_MEMBER, witnesses, cert, diagnostics)
    diagnostics["missing_deltas"] = missing
    return MembershipVerdict(INCONCLUSIVE, witnesses, None, diagnostics)


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
        if _witness_ok(game, pt.profile, profile, delta, m):
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
    grid: list  # (t, decision)
    member_intervals: list  # (t_lo, t_hi) runs of member verdicts


@dataclass
class EmpiricalReport:
    eqset: object
    isolated: list  # (profile, MembershipVerdict)
    components: list  # ComponentMembership


def enumerate_empirical(game, delta_schedule=DEFAULT_DELTAS, m=1.0,
                        component_grid=101, seed=0):
    """Membership verdicts for every enumerated equilibrium.

    Isolated equilibria are decided directly; components on a parameter
    grid, reported as member subintervals.
    """
    eqset = enumerate_nash(game)
    isolated = [
        (p, empirical_membership(game, p, delta_schedule, m=m, seed=seed))
        for p in eqset.isolated
    ]
    comps = []
    for comp in eqset.components:
        lo, hi = comp.interval
        ts = np.linspace(lo, hi, component_grid)
        grid = []
        for t in ts:
            prof = comp.profile_at(game, float(t))
            verdict = empirical_membership(
                game, prof, delta_schedule, m=m, seed=seed
            )
            grid.append((float(t), verdict.decision))
        intervals = []
        run_start = None
        for t, dec in grid:
            if dec == MEMBER and run_start is None:
                run_start = t
            elif dec != MEMBER and run_start is not None:
                intervals.append((run_start, prev_t))
                run_start = None
            prev_t = t
        if run_start is not None:
            intervals.append((run_start, grid[-1][0]))
        comps.append(ComponentMembership(comp, grid, intervals))
    return EmpiricalReport(eqset, isolated, comps)


@dataclass
class ProbeResult:
    profile: MixedProfile
    verdict: MembershipVerdict
    path: object


def nonemptiness_probe(game, delta_schedule=DEFAULT_DELTAS, seed=0):
    """Sanity oracle: the logit-path terminal is an approachable equilibrium.

    The traced path itself is the witness sequence; the probe returns the
    nearest enumerated Nash point with its membership verdict.
    """
    path = trace_logit_path(game)
    candidate = path.nearest_nash if path.nearest_nash is not None else path.terminal
    verdict = empirical_membership(game, candidate, delta_schedule, seed=seed)
    return ProbeResult(candidate, verdict, path)
