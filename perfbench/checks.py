"""Output checks that do not use the code under test.

Every check works from the raw payoff tensor the benchmark generated
itself and from the op's printed output.  A check raises `CheckFailed`
with a reason, or returns a tally of the verdicts the op issued.  The CLI
prints probabilities with 12 significant digits, so comparisons that the
program makes exactly get a slack of `OUT_SLACK` here.
"""

from __future__ import annotations

import json
from collections import Counter

import numpy as np

NASH_TOL = 1e-7  # on profiles rounded to 12 significant digits
UTIL_TOL = 1e-9  # the program's utility tie tolerance
OUT_SLACK = 1e-11
DELTA_FACTOR = 10.0  # witness radius per epsilon in the refinement checks
DEFAULT_SCHEDULE = (1e-1, 1e-2, 1e-3, 1e-4)
QRE_TOL = 1e-6
FOC_TOL = 1e-7

DECIDED = {"verified", "refuted", "member", "non-member"}


class CheckFailed(Exception):
    """An op's output does not pass its independent check."""


def fail(reason):
    raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# game arithmetic


def action_values(payoffs, vectors, i):
    """u_i(a, sigma_-i) for every action a of player i."""
    n = len(vectors)
    letters = "abcdefghijklmnop"[:n]
    others = [j for j in range(n) if j != i]
    spec = letters + "".join("," + letters[j] for j in others) + "->" + letters[i]
    return np.einsum(spec, payoffs[..., i], *[vectors[j] for j in others])


def nash_defect(payoffs, vectors):
    worst = 0.0
    for i, v in enumerate(vectors):
        u = action_values(payoffs, vectors, i)
        worst = max(worst, float(u.max() - u @ v))
    return worst


def dominates(payoffs, i, g, d):
    """Action g of player i weakly dominates action d on the raw tensor."""
    diff = np.take(payoffs[..., i], g, axis=i) - np.take(payoffs[..., i], d, axis=i)
    return bool(np.all(diff >= 0.0) and np.any(diff > 0.0))


def softmax(x, lam):
    z = lam * (x - x.max())
    e = np.exp(z)
    return e / e.sum()


def logit_residual(payoffs, vectors, lam):
    return max(
        float(np.max(np.abs(v - softmax(action_values(payoffs, vectors, i), lam))))
        for i, v in enumerate(vectors)
    )


def max_distance(vectors, others):
    return max(float(np.max(np.abs(a - b))) for a, b in zip(vectors, others))


def profile_vectors(spec, doc):
    """Vectors from a {player: {action: prob}} document."""
    out = []
    for p in spec.players:
        if p not in doc:
            fail(f"profile misses player {p}")
        labels = spec.actions[p]
        unknown = set(doc[p]) - set(labels)
        if unknown:
            fail(f"profile names unknown actions {sorted(unknown)}")
        out.append(np.array([float(doc[p].get(a, 0.0)) for a in labels]))
    return out


def require_nash(spec, vectors, what):
    for v in vectors:
        if np.any(v < -OUT_SLACK) or abs(v.sum() - 1.0) > 1e-9:
            fail(f"{what} is not a probability profile")
    defect = nash_defect(spec.payoffs, vectors)
    if defect > NASH_TOL:
        fail(f"{what} has Nash defect {defect:.3e}")


def monotone_violation(payoffs, vectors, m):
    """None when the profile is payoff monotone (m = 1) or m-weakly payoff
    monotone (m < 1) in the program's sense, else a description."""
    for i, sig in enumerate(vectors):
        eu = action_values(payoffs, vectors, i)
        k = len(sig)
        for a in range(k):
            for b in range(k):
                if a == b:
                    continue
                if m == 1.0:
                    du = eu[a] - eu[b]
                    if abs(du) <= UTIL_TOL:
                        if abs(sig[a] - sig[b]) > UTIL_TOL + OUT_SLACK:
                            return f"player {i}: utility tie {a},{b} without probability tie"
                    elif du > 0 and not sig[a] > sig[b] - OUT_SLACK * max(sig[a], sig[b]):
                        return f"player {i}: action {a} pays more than {b} but is played less"
                elif eu[a] >= eu[b] - UTIL_TOL and sig[a] < m * sig[b] - UTIL_TOL - OUT_SLACK:
                    return f"player {i}: action {a} keeps less than {m} of {b}'s mass"
    return None


def weak_monotone(payoffs, vectors, tol=UTIL_TOL):
    """Weak payoff monotonicity; None when a comparison sits within rounding
    of the tolerance boundary and the answer is not well defined."""
    ok = True
    for i, sig in enumerate(vectors):
        eu = action_values(payoffs, vectors, i)
        for a in range(len(sig)):
            for b in range(len(sig)):
                if a == b:
                    continue
                gp = sig[a] - sig[b] - tol
                gu = eu[a] - eu[b] - tol
                if abs(gp) < 1e-12 or abs(gu) < 1e-12:
                    return None
                if gp > 0 and not gu > 0:
                    ok = False
    return ok


# ---------------------------------------------------------------------------
# control-cost splines


def spline_derivative(spline, y):
    knots = np.asarray(spline["knots"], dtype=float)
    slopes = np.asarray(spline["slopes"], dtype=float)
    y = np.asarray(y, dtype=float)
    tail = slopes[0] * knots[0] ** 2 / y**2
    return np.where(y < knots[0], tail, np.interp(y, knots, slopes))


def spline_shape_problem(spline):
    knots = np.asarray(spline["knots"], dtype=float)
    slopes = np.asarray(spline["slopes"], dtype=float)
    if knots.shape != slopes.shape or len(knots) < 2:
        return "knots and slopes differ in length"
    if not (knots[0] > 0 and knots[-1] == 1.0 and np.all(np.diff(knots) > 0)):
        return "knots are not increasing in (0, 1]"
    if not (slopes[-1] == 0.0 and np.all(np.diff(slopes) > 0)):
        return "slopes are not increasing to 0"
    return None


def foc_defect(payoffs, vectors, splines):
    """Largest first-order-condition gap: u_a - f'(sigma_a) must not depend on a."""
    worst = 0.0
    for i, (sig, spline) in enumerate(zip(vectors, splines)):
        r = action_values(payoffs, vectors, i) - spline_derivative(spline, sig)
        worst = max(worst, float(r.max() - r.min()))
    return worst


def foc_scale(payoffs):
    return FOC_TOL * (1.0 + float(np.max(np.abs(payoffs))))


def _derivative_inverse(spline, v):
    knots = np.asarray(spline["knots"], dtype=float)
    slopes = np.asarray(spline["slopes"], dtype=float)
    v = np.asarray(v, dtype=float)
    body = np.interp(v, slopes, knots)
    with np.errstate(divide="ignore", invalid="ignore"):
        tail = np.sqrt(slopes[0] * knots[0] ** 2 / np.minimum(v, slopes[0]))
    out = np.where(v <= slopes[0], tail, body)
    return np.where(v >= 0.0, 1.0, out)


def induced_response(spline, utilities):
    """The cost-adjusted best response, by bisection on the multiplier."""
    x = np.asarray(utilities, dtype=float)
    lo, hi = float(x.max()), float(x.max()) + 1.0
    while _derivative_inverse(spline, x - hi).sum() >= 1.0:
        hi = lo + 2.0 * (hi - lo)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if _derivative_inverse(spline, x - mid).sum() > 1.0:
            lo = mid
        else:
            hi = mid
    probs = _derivative_inverse(spline, x - 0.5 * (lo + hi))
    return probs / probs.sum()


def spline_fixed_point_residual(payoffs, vectors, splines):
    return max(
        float(np.max(np.abs(v - induced_response(s, action_values(payoffs, vectors, i)))))
        for i, (v, s) in enumerate(zip(vectors, splines))
    )


# ---------------------------------------------------------------------------
# per-op checks


def _exit_code(code, inconclusive):
    if code not in (0, 1):
        fail(f"exit code {code}")
    if code != (1 if inconclusive else 0):
        fail(f"exit code {code} disagrees with the verdicts")


def _check_refinement(spec, vectors, kind, verdict, tally):
    status = verdict["status"]
    tally[f"{kind}.{status}"] += 1
    if status == "verified":
        eps_seen = sorted(w["eps"] for w in verdict.get("witnesses", []))
        if eps_seen != sorted(DEFAULT_SCHEDULE):
            fail(f"{kind} verified without one witness per epsilon")
        for w in verdict["witnesses"]:
            _check_refinement_witness(spec, vectors, kind, w)
    elif status == "refuted":
        cert = verdict.get("certificate") or fail(f"{kind} refuted without certificate")
        if cert["kind"] == "dominated-on-support":
            _check_dominance(spec, cert["player"], cert["dominated_by"], cert["action"])
            i = spec.players.index(cert["player"])
            if vectors[i][spec.actions[cert["player"]].index(cert["action"])] <= UTIL_TOL:
                fail(f"{kind} certificate names an action off the support")
            tally["refuted.dominance"] += 1
        else:
            tally[f"refuted.{cert['kind']}"] += 1
    elif status != "inconclusive":
        fail(f"unknown {kind} status {status!r}")


def _check_refinement_witness(spec, vectors, kind, witness):
    eps = float(witness["eps"])
    w = profile_vectors(spec, witness["profile"])
    if not all(np.all(v > 0) for v in w):
        fail(f"{kind} witness at eps={eps:g} is not interior")
    if max_distance(w, vectors) > DELTA_FACTOR * eps * (1 + 1e-9) + OUT_SLACK:
        fail(f"{kind} witness at eps={eps:g} is too far from the equilibrium")
    for i, sig in enumerate(w):
        eu = action_values(spec.payoffs, w, i)
        if kind == "perfect":
            worse = eu < eu.max() - UTIL_TOL
            if np.any(sig[worse] > eps * (1 + 1e-12) + 1e-15 + OUT_SLACK):
                fail(f"perfect witness at eps={eps:g} overplays a non-best response")
        else:
            for a in range(len(sig)):
                for b in range(len(sig)):
                    if eu[a] > eu[b] + UTIL_TOL and sig[b] > eps * sig[a] * (1 + 1e-9) + OUT_SLACK:
                        fail(f"proper witness at eps={eps:g} breaks the eps ratio")


def _check_dominance(spec, player, dominating, dominated):
    i = spec.players.index(player)
    labels = spec.actions[player]
    if not dominates(spec.payoffs, i, labels.index(dominating), labels.index(dominated)):
        fail(f"{dominating} does not weakly dominate {dominated} for {player}")


def _component_points(spec, comp):
    lo, hi = comp["interval"]
    out = []
    for t in (lo, 0.5 * (lo + hi), hi):
        vecs = [np.clip(np.array(b) + t * np.array(d), 0.0, None)
                for b, d in zip(comp["base"], comp["direction"])]
        out.append([v / v.sum() for v in vecs])
    return out


def check_nash(spec, text, code):
    doc = json.loads(text)
    tally = Counter()
    inconclusive = False
    for entry in doc["isolated"]:
        vectors = profile_vectors(spec, entry["profile"])
        require_nash(spec, vectors, "isolated equilibrium")
        for kind in ("perfect", "proper"):
            _check_refinement(spec, vectors, kind, entry[kind], tally)
            inconclusive |= entry[kind]["status"] == "inconclusive"
    for comp in doc["components"]:
        for vectors in _component_points(spec, comp):
            require_nash(spec, vectors, "component point")
        for g in comp["grid"]:
            for kind in ("perfect", "proper"):
                tally[f"{kind}.{g[kind]}"] += 1
                inconclusive |= g[kind] == "inconclusive"
    tally["degenerate"] += sum(d["status"] == "degenerate" for d in doc["diagnostics"])
    _exit_code(code, inconclusive)
    return tally


def check_membership(spec, vectors, verdict, m, tally):
    """One membership verdict: `verdict` has decision, witnesses, refutation."""
    decision = verdict["decision"]
    tally[f"membership.{decision}"] += 1
    if decision == "member":
        deltas = sorted(float(d) for d, _ in verdict["witnesses"])
        if deltas != sorted(DEFAULT_SCHEDULE):
            fail("member without one witness per delta")
        for delta, w in verdict["witnesses"]:
            if not all(np.all(v > 0) for v in w):
                fail(f"member witness at delta={delta:g} is not interior")
            if max_distance(w, vectors) > delta * (1 + 1e-9) + OUT_SLACK:
                fail(f"member witness at delta={delta:g} is too far")
            bad = monotone_violation(spec.payoffs, w, m)
            if bad:
                fail(f"member witness at delta={delta:g} is not monotone: {bad}")
    elif decision == "non-member":
        ref = verdict.get("refutation") or fail("non-member without refutation")
        if ref["kind"] == "dominance":
            data = ref["data"]
            _check_dominance(spec, data["player"], data["dominating"], data["dominated"])
            i = spec.players.index(data["player"])
            labels = spec.actions[data["player"]]
            d = vectors[i][labels.index(data["dominated"])]
            g = vectors[i][labels.index(data["dominating"])]
            if not m * d - g > UTIL_TOL - OUT_SLACK:
                fail("dominance refutation: the candidate meets the forced inequality")
            tally["refuted.dominance"] += 1
        else:
            tally[f"refuted.{ref['kind']}"] += 1
    elif decision != "inconclusive":
        fail(f"unknown decision {decision!r}")


def check_empirical(spec, text, code, m):
    doc = json.loads(text)
    if doc["m"] != m:
        fail(f"output is for m={doc['m']}, asked {m}")
    tally = Counter()
    inconclusive = False
    for entry in doc["isolated"]:
        vectors = profile_vectors(spec, entry["profile"])
        require_nash(spec, vectors, "isolated equilibrium")
        verdict = dict(entry)
        verdict["witnesses"] = [
            (w["delta"], profile_vectors(spec, w["profile"]))
            for w in entry.get("witnesses", [])
        ]
        check_membership(spec, vectors, verdict, m, tally)
        inconclusive |= entry["decision"] == "inconclusive"
    for comp in doc["components"]:  # printed without base and direction
        for g in comp["grid"]:
            tally[f"membership.{g['decision']}"] += 1
            inconclusive |= g["decision"] == "inconclusive"
    _exit_code(code, inconclusive)
    return tally


def parse_trace(spec, text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    width = sum(len(spec.actions[p]) for p in spec.players)
    if len(header) != width + 2 or header[0] != "lambda" or header[-1] != "residual":
        fail("trace header does not match the game")
    points = []
    for line in lines[1:]:
        cells = [float(c) for c in line.split(",")]
        vectors, pos = [], 1
        for p in spec.players:
            k = len(spec.actions[p])
            vectors.append(np.array(cells[pos:pos + k]))
            pos += k
        points.append((cells[0], vectors))
    return points


def check_trace(spec, text, code, lam_max=1e3, steps=40):
    if code != 0:
        fail(f"exit code {code}")
    points = parse_trace(spec, text)
    lams = [lam for lam, _ in points]
    if len(points) != steps + 1 or lams[0] != 0.0 or abs(lams[-1] / lam_max - 1) > 1e-9:
        fail("trace does not follow the requested schedule")
    if any(b <= a for a, b in zip(lams, lams[1:])):
        fail("trace lambdas are not increasing")
    for lam, vectors in points:
        for v in vectors:
            if np.any(v < 0) or abs(v.sum() - 1.0) > 1e-9:
                fail(f"trace point at lambda={lam:g} is not a profile")
        res = logit_residual(spec.payoffs, vectors, lam)
        if res > QRE_TOL:
            fail(f"trace point at lambda={lam:g} is not a logit QRE (residual {res:.2e})")
    return Counter()


def check_region(spec, text, code, resolution=200, tol=UTIL_TOL):
    if code != 0:
        fail(f"exit code {code}")
    lines = text.strip().split("\n")
    axis = np.linspace(0.0, 1.0, resolution + 1)
    if len(lines) != 1 + len(axis) ** 2:
        fail("region grid has the wrong number of rows")
    rows = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    c1, c2 = np.meshgrid(axis, axis, indexing="ij")
    if not (np.array_equal(rows[:, 0], c1.ravel()) and np.array_equal(rows[:, 1], c2.ravel())):
        fail("region grid coordinates differ from the requested grid")
    x = np.stack([c1.ravel(), 1.0 - c1.ravel()])  # player 1 vectors, one per column
    y = np.stack([c2.ravel(), 1.0 - c2.ravel()])
    eu1 = spec.payoffs[..., 0] @ y
    eu2 = spec.payoffs[..., 1].T @ x
    ok = np.ones(x.shape[1], dtype=bool)
    ambiguous = np.zeros(x.shape[1], dtype=bool)
    for sig, eu in ((x, eu1), (y, eu2)):
        for a, b in ((0, 1), (1, 0)):
            gp = sig[a] - sig[b] - tol
            gu = eu[a] - eu[b] - tol
            ambiguous |= (np.abs(gp) < 1e-12) | (np.abs(gu) < 1e-12)
            ok &= ~((gp > 0) & ~(gu > 0))
    flags = rows[:, 2] == 1
    wrong = (flags != ok) & ~ambiguous
    if np.any(wrong):
        fail(f"{int(wrong.sum())} region verdicts disagree with the recomputation")
    return Counter()


def check_wpm(spec, text, code, vectors, m):
    if code != 0:
        fail(f"exit code {code}")
    doc = json.loads(text)
    weak = weak_monotone(spec.payoffs, vectors)
    if weak is not None and doc["weak"]["satisfied"] != weak:
        fail("weak monotonicity verdict disagrees with the recomputation")
    payoff = monotone_violation(spec.payoffs, vectors, 1.0) is None
    if doc["payoff"]["satisfied"] != payoff:
        fail("payoff monotonicity verdict disagrees with the recomputation")
    m_weak = monotone_violation(spec.payoffs, vectors, m) is None
    if doc["m_weak"]["satisfied"] != m_weak:
        fail("m-weak monotonicity verdict disagrees with the recomputation")
    return Counter()


def check_splines(spec, splines, vectors):
    for i, s in enumerate(splines):
        problem = spline_shape_problem(s)
        if problem:
            fail(f"spline {i}: {problem}")
    defect = foc_defect(spec.payoffs, vectors, splines)
    if defect > foc_scale(spec.payoffs):
        fail(f"splines miss the first-order conditions by {defect:.3e}")


def check_ccost_build(spec, text, code, vectors):
    if code != 0:
        fail(f"exit code {code}")
    doc = json.loads(text)
    splines = [doc["splines"][p] for p in spec.players]
    check_splines(spec, splines, vectors)
    return Counter()


def check_equilibrium_claim(spec, vectors, splines, claimed):
    defect = foc_defect(spec.payoffs, vectors, splines)
    if claimed and defect > 1e-8:
        fail(f"claimed control-cost equilibrium has defect {defect:.3e}")
    if not claimed and defect < 1e-10:
        fail("denied control-cost equilibrium meets its first-order conditions")


def check_ccost_check(spec, text, code, vectors, splines):
    if code != 0:
        fail(f"exit code {code}")
    doc = json.loads(text)
    check_equilibrium_claim(spec, vectors, splines, bool(doc["equilibrium"]))
    return Counter()


def decided_counts(tally):
    """(decided, issued) over perfect, proper and membership verdicts."""
    issued = decided = 0
    for key, n in tally.items():
        kind, _, status = key.partition(".")
        if kind in ("perfect", "proper", "membership"):
            issued += n
            decided += n if status in DECIDED else 0
    return decided, issued
