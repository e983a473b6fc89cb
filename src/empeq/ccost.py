"""Control-cost games built from stitched quadratic splines.

Each player's cost of playing probability y on an action is a strictly
decreasing, strictly convex function f with f(1) = 0 and an asymptote at 0:
quadratic pieces between breakpoints whose slopes encode expected-utility
gaps (the first-order conditions of the cost-adjusted best response), and a
hyperbola tail below the lowest breakpoint.  Interior equilibria of the
cost-adjusted game are exactly the profiles satisfying, for every action
pair, utility difference = derivative difference at the played
probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .game import MixedProfile, expected_utility, nash_defect
from .monotone import is_payoff_monotone
from .qre import QRF

FOC_TOL = 1e-9
LEVEL_TIE_TOL = 1e-12
SUM_TOL = 1e-13


class SplineError(ValueError):
    """Invalid control-cost spline construction inputs."""


class CalibrationError(SplineError):
    """The requested calibration point cannot be honored."""


class RootFindError(RuntimeError):
    """Best-response root finding failed; carries bracket diagnostics."""


def _same_level(y, y2):
    """Probabilities tie when they agree to LEVEL_TIE_TOL relative to the
    larger one: sharp quantal responses put clearly ordered actions at
    1e-15 and 1e-21, which an absolute tolerance would merge."""
    return abs(y - y2) <= LEVEL_TIE_TOL * max(y, y2)


class ControlCostSpline:
    """Piecewise control cost: hyperbola tail + quadratic pieces.

    knots: y_0 < ... < 1 (probability levels plus auxiliary knots).
    slopes: derivative at each knot, strictly increasing, final slope 0.
    The piece on [knots[j], knots[j+1]] interpolates the two knot slopes
    linearly, so derivative continuity at knots is exact by construction.
    Below knots[0] the tail  A - B/y  matches value and slope at y_0.
    """

    def __init__(self, knots, slopes, epsilon, levels, ystar=None,
                 calibration=None):
        knots = np.asarray(knots, dtype=float)
        slopes = np.asarray(slopes, dtype=float)
        if knots.shape != slopes.shape or knots.ndim != 1 or len(knots) < 2:
            raise SplineError("knots and slopes must be matching 1-d arrays")
        if np.any(np.diff(knots) <= 0):
            raise SplineError("knots must be strictly increasing")
        if knots[-1] != 1.0:
            raise SplineError("the last knot must be 1")
        if not knots[0] > 0:
            raise SplineError("the first knot must be positive")
        if np.any(np.diff(slopes) <= 0):
            raise SplineError("slopes must be strictly increasing (strict convexity)")
        if slopes[-1] != 0.0:
            raise SplineError("the slope at 1 must be 0")
        self.knots = knots
        self.slopes = slopes
        self.epsilon = float(epsilon)
        self.levels = tuple((float(y), float(u)) for y, u in levels)
        self.ystar = None if ystar is None else float(ystar)
        self.calibration = calibration
        # values by trapezoid accumulation downward from f(1) = 0
        vals = np.zeros_like(knots)
        for j in range(len(knots) - 2, -1, -1):
            dy = knots[j + 1] - knots[j]
            vals[j] = vals[j + 1] + dy * (slopes[j] + slopes[j + 1]) / 2.0 * -1.0
        self.values = vals
        self.tail_coef = float(slopes[0] * knots[0] ** 2)  # B < 0
        if not self.tail_coef < 0:
            raise SplineError(
                f"tail coefficient {self.tail_coef} is not negative: the first "
                f"knot {knots[0]:.3e} squared underflows"
            )
        self.tail_const = float(vals[0] + slopes[0] * knots[0])  # A

    # -- evaluation -----------------------------------------------------

    def value(self, y):
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        if np.any(y <= 0) or np.any(y > 1):
            raise SplineError("control costs are defined on (0, 1]")
        out = np.empty_like(y)
        tail = y < self.knots[0]
        out[tail] = self.tail_const - self.tail_coef / y[tail]
        body = ~tail
        if np.any(body):
            j = np.clip(np.searchsorted(self.knots, y[body], side="right") - 1,
                        0, len(self.knots) - 2)
            kj, kj1 = self.knots[j], self.knots[j + 1]
            mj, mj1 = self.slopes[j], self.slopes[j + 1]
            dy = y[body] - kj1
            out[body] = (self.values[j + 1] + mj1 * dy
                         + (mj1 - mj) / (2.0 * (kj1 - kj)) * dy**2)
        return float(out[0]) if scalar else out

    def derivative(self, y):
        y = np.asarray(y, dtype=float)
        scalar = y.ndim == 0
        y = np.atleast_1d(y)
        if np.any(y <= 0) or np.any(y > 1):
            raise SplineError("control costs are defined on (0, 1]")
        out = np.empty_like(y)
        tail = y < self.knots[0]
        out[tail] = self.tail_coef / y[tail] ** 2
        body = ~tail
        if np.any(body):
            j = np.clip(np.searchsorted(self.knots, y[body], side="right") - 1,
                        0, len(self.knots) - 2)
            kj, kj1 = self.knots[j], self.knots[j + 1]
            mj, mj1 = self.slopes[j], self.slopes[j + 1]
            out[body] = mj1 + (mj1 - mj) / (kj1 - kj) * (y[body] - kj1)
        return float(out[0]) if scalar else out

    def derivative_inverse(self, v):
        """The y in (0, 1] with f'(y) = v, for v <= 0."""
        v = float(v)
        if v >= self.slopes[-1]:
            return 1.0
        if v <= self.slopes[0]:
            return float(np.sqrt(self.tail_coef / v))
        j = int(np.searchsorted(self.slopes, v, side="right") - 1)
        kj, kj1 = self.knots[j], self.knots[j + 1]
        mj, mj1 = self.slopes[j], self.slopes[j + 1]
        return float(kj1 + (v - mj1) * (kj1 - kj) / (mj1 - mj))

    # -- serialization ---------------------------------------------------

    def to_dict(self):
        doc = {
            "knots": [float(x) for x in self.knots],
            "slopes": [float(x) for x in self.slopes],
            "values": [float(x) for x in self.values],
            "tail_coef": self.tail_coef,
            "tail_const": self.tail_const,
            "epsilon": self.epsilon,
            "levels": [[y, u] for y, u in self.levels],
            "ystar": self.ystar,
        }
        if self.calibration is not None:
            doc["calibration"] = self.calibration
        return doc

    @classmethod
    def from_dict(cls, doc):
        return cls(
            doc["knots"],
            doc["slopes"],
            doc["epsilon"],
            [tuple(pair) for pair in doc["levels"]],
            ystar=doc.get("ystar"),
            calibration=doc.get("calibration"),
        )

    def __repr__(self):
        return (f"ControlCostSpline({len(self.knots)} knots, "
                f"eps={self.epsilon:g})")


def build_spline(sigma, utils, epsilon, y0=None, ystar=None, ystar_slope=None,
                 clamp_ystar_slope=False):
    """Construct the cost spline calibrated by an interior vector and its
    ordinally matching utilities.

    Distinct probability values become breakpoints; slope differences across
    breakpoints equal the utility gaps, which is exactly the first-order
    condition making `sigma` a cost-adjusted best response to `utils`.
    Probability ties must come with utility ties (they collapse into one
    level); any other order mismatch is rejected.  Two probabilities tie
    when |y - y'| <= LEVEL_TIE_TOL * max(y, y'), so entries many orders of
    magnitude apart stay separate levels however small they are; the same
    relative rule decides collisions of `ystar` with the levels and knots.
    """
    sigma = np.asarray(sigma, dtype=float)
    utils = np.asarray(utils, dtype=float)
    if sigma.shape != utils.shape or sigma.ndim != 1 or len(sigma) == 0:
        raise SplineError("sigma and utils must be matching 1-d vectors")
    if np.any(sigma <= 0):
        raise SplineError("sigma must be interior (all entries positive)")
    if abs(sigma.sum() - 1.0) > 1e-9:
        raise SplineError("sigma must sum to one")
    epsilon = float(epsilon)
    if not epsilon > 0:
        raise SplineError("epsilon must be positive")

    order = np.lexsort((utils, sigma))
    levels = []  # (y, u)
    for idx in order:
        y, u = float(sigma[idx]), float(utils[idx])
        if levels and _same_level(y, levels[-1][0]):
            if abs(u - levels[-1][1]) > FOC_TOL:
                raise SplineError(
                    "equal probabilities with unequal utilities: input is not "
                    "payoff monotone"
                )
            continue
        if levels and u - levels[-1][1] <= 0:
            raise SplineError(
                "probability and utility orders disagree: input is not "
                "payoff monotone"
            )
        levels.append((y, u))

    level_ys = [y for y, _ in levels]
    level_us = [u for _, u in levels]
    merged_top_u = None
    if level_ys[-1] >= 1.0 - 1e-12:
        # the top probability saturates at 1 in double precision; merge its
        # breakpoint into the f(1) = 0 endpoint, whose slope 0 then carries
        # the first-order conditions exactly
        top_u = level_us.pop()
        level_ys.pop()
        merged_top_u = top_u

    nlev = len(level_ys)
    slopes_lv = np.zeros(nlev)
    if nlev:
        if merged_top_u is not None:
            slopes_lv[-1] = -(merged_top_u - level_us[-1])
        else:
            slopes_lv[-1] = -epsilon
        for l in range(nlev - 2, -1, -1):
            slopes_lv[l] = slopes_lv[l + 1] - (level_us[l + 1] - level_us[l])
    m0 = (slopes_lv[0] if nlev else 0.0) - epsilon

    if y0 is None:
        y0 = (level_ys[0] if nlev else 1.0) / 2.0
    y0 = float(y0)
    lowest = level_ys[0] if nlev else 1.0
    if not 0 < y0 < lowest:
        raise SplineError(f"y0 must lie in (0, {lowest}); got {y0}")

    knots = [y0] + level_ys + [1.0]
    slopes = [m0] + list(slopes_lv) + [0.0]
    calibration = None
    if ystar is not None:
        ystar = float(ystar)
        if not 0 < ystar < 1:
            raise CalibrationError("ystar must lie in (0, 1)")
        if any(_same_level(ystar, y) for y in level_ys):
            raise CalibrationError("ystar collides with a probability level")
        if ystar <= y0:
            # keep the hyperbola tail below the calibration knot
            y0 = ystar / 2.0
            knots[0] = y0
        if _same_level(ystar, y0):
            raise CalibrationError("ystar collides with the tail knot")
        pos = int(np.searchsorted(knots, ystar))
        m_lo, m_hi = slopes[pos - 1], slopes[pos]
        above = [y for y in level_ys if y > ystar]
        target = above[0] if above else None
        if ystar_slope is not None:
            m_star = float(ystar_slope)
            if not m_lo < m_star < m_hi:
                if clamp_ystar_slope:
                    m_star = 0.5 * (m_lo + m_hi)
                else:
                    raise CalibrationError(
                        f"ystar slope {m_star} breaks the increasing slope "
                        f"sequence ({m_lo}, {m_hi})"
                    )
        else:
            # pick the slope meeting f(ystar) < f(next level above) + epsilon
            if target is not None and _same_level(knots[pos], target):
                gap = target - ystar
                cap = 2.0 * epsilon / gap + m_hi  # |m*| below this
                if cap <= -m_hi:
                    raise CalibrationError(
                        "epsilon calibration target unreachable at this ystar"
                    )
                hi_mag = min(-m_lo, cap)
                m_star = -0.5 * (-m_hi + hi_mag)
                if not m_lo < m_star < m_hi:
                    m_star = 0.5 * (m_lo + m_hi)
            else:
                m_star = 0.5 * (m_lo + m_hi)
        knots.insert(pos, ystar)
        slopes.insert(pos, m_star)
        calibration = {"ystar": ystar, "slope": float(m_star),
                       "target_level": target, "bound": epsilon}

    spline = ControlCostSpline(knots, slopes, epsilon,
                               list(zip(level_ys, level_us)),
                               ystar=ystar, calibration=calibration)
    if calibration is not None and calibration["target_level"] is not None:
        achieved = spline.value(ystar) - spline.value(calibration["target_level"])
        calibration["achieved_gap"] = float(achieved)
        if ystar_slope is None and not achieved < epsilon:
            raise CalibrationError(
                f"calibration gap {achieved} does not beat epsilon {epsilon}"
            )
    return spline


@dataclass(frozen=True)
class ControlCostGame:
    """Base game plus one cost spline per player; payoffs are
    U_i(sigma) - sum_a f_i(sigma_i(a))."""

    game: object
    splines: tuple

    def __post_init__(self):
        if len(self.splines) != self.game.n_players:
            raise SplineError("one spline per player required")

    def payoff(self, profile, player):
        i = self.game.player_index(player)
        eu = expected_utility(self.game, profile, i)
        cost = float(np.sum(self.splines[i].value(profile.vectors[i])))
        return float(eu @ profile.vectors[i]) - cost


def cc_equilibrium_check(ccg, profile, tol=FOC_TOL):
    """First-order-condition audit: utility gaps equal derivative gaps.

    Returns (is_equilibrium, max_defect, per_player_defects).  Boundary
    profiles are rejected: the asymptote at zero keeps equilibria interior.
    """
    if not profile.is_interior:
        raise SplineError("control-cost equilibria are interior; boundary "
                          "profile rejected")
    game = ccg.game
    worst = 0.0
    per_player = []
    for i in range(game.n_players):
        eu = expected_utility(game, profile, i)
        dv = ccg.splines[i].derivative(profile.vectors[i])
        k = len(eu)
        defect = 0.0
        for a in range(k):
            for b in range(a + 1, k):
                defect = max(defect, abs((eu[a] - eu[b]) - (dv[a] - dv[b])))
        per_player.append(defect)
        worst = max(worst, defect)
    return worst < tol, worst, per_player


def induced_qrf(spline, utilities, sum_tol=SUM_TOL):
    """Unique cost-adjusted best response to a utility vector.

    Solves the strictly concave problem max <sigma, x> - sum f(sigma_a) on
    the simplex through its Lagrange condition x_a - f'(sigma_a) = mu, by
    bisection on mu (f' is continuous and strictly increasing).
    """
    x = np.asarray(utilities, dtype=float)
    if x.ndim != 1 or len(x) == 0:
        raise SplineError("utilities must be a 1-d vector")
    if len(x) == 1:
        return np.array([1.0])

    def mass(mu):
        return sum(spline.derivative_inverse(xa - mu) for xa in x)

    lo = float(x.max())  # f'(1) = 0, so the argmax coordinate hits 1 here
    hi = lo + 1.0
    for _ in range(200):
        if mass(hi) < 1.0:
            break
        hi = lo + 2.0 * (hi - lo)
    else:
        raise RootFindError(
            f"no upper bracket for the multiplier: mass({hi}) = {mass(hi)}"
        )
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        m = mass(mid)
        if abs(m - 1.0) <= sum_tol:
            lo = hi = mid
            break
        if m > 1.0:
            lo = mid
        else:
            hi = mid
    mu = 0.5 * (lo + hi)
    probs = np.array([spline.derivative_inverse(xa - mu) for xa in x])
    total = probs.sum()
    if abs(total - 1.0) > 1e-9:
        raise RootFindError(
            f"bisection left simplex defect {total - 1.0:.3e} "
            f"(bracket [{lo}, {hi}])"
        )
    return probs / total


class SplineQRF(QRF):
    """Regular quantal response induced by a control-cost spline."""

    kind = "control-cost"

    def __init__(self, spline):
        self.spline = spline

    def evaluate(self, utilities):
        return induced_qrf(self.spline, utilities)


# ---------------------------------------------------------------------------
# vanishing sequences


@dataclass
class VanishingEntry:
    source_index: int
    epsilon: float
    cc_game: ControlCostGame
    sup_norms: np.ndarray  # per player, max f_i over the reporting grid
    cases: tuple  # per player: 1, 2, or 3
    foc_defect: float


@dataclass
class VanishingSequence:
    """Calibrated entries plus the Nash point they converge to.

    `limit` is the Nash equilibrium nearest (in max norm) to the terminal
    input profile, over enumerated points, components and degenerate faces
    (`nash.nearest_nash`).  Where enumeration is unsupported it is the
    terminal with entries at or below 1e-6 set to zero.  The per-player
    cases are read off this limit.
    """

    entries: list
    limit: MixedProfile
    grid: np.ndarray


def _limit_profile(game, terminal):
    from .nash import UnsupportedGameError, nearest_nash

    try:
        _, prof = nearest_nash(game, terminal)
        if prof is not None:
            return prof
    except UnsupportedGameError:
        pass
    vecs = [np.where(v > 1e-6, v, 0.0) for v in terminal.vectors]
    return MixedProfile(game, vecs)


def _player_case(game, limit, player):
    """Sorted action order (ascending limit probability, utility tiebreak)
    plus the case of the lowest-ranked limit-best-response action."""
    eu = expected_utility(game, limit, player)
    sig = limit.vectors[player]
    order = np.lexsort((eu, sig))
    top = eu.max()
    k_pos = None
    for pos, a in enumerate(order):
        if eu[a] >= top - FOC_TOL:
            k_pos = pos
            break
    a_k = int(order[k_pos])
    if sig[a_k] <= FOC_TOL:
        case = 1
    elif k_pos == 0:
        case = 3
    else:
        case = 2
    return order, k_pos, case


def vanishing_sequence(game, profiles, nash_tol=1e-6, grid_step=0.01):
    """Retain a subsequence and calibrate cost splines that vanish along it.

    Every input profile must be an interior payoff-monotone profile for the
    base game; the final one must be a Nash point up to `nash_tol`.  Each
    retained profile is an exact cost-adjusted equilibrium of its spline
    game (first-order conditions hold by construction), the cost parameters
    shrink like 1/t, and per-index sup-norms over a fixed grid let callers
    verify pointwise vanishing.
    """
    if not profiles:
        raise ValueError("empty profile sequence")
    for j, prof in enumerate(profiles):
        if not prof.is_interior:
            raise ValueError(f"profile {j} is not interior")
        if not is_payoff_monotone(game, prof).satisfied:
            raise ValueError(f"profile {j} is not payoff monotone")
    terminal = profiles[-1]
    defect = nash_defect(game, terminal)
    if defect > nash_tol:
        raise ValueError(
            f"terminal profile has Nash defect {defect:.3e} > {nash_tol:g}"
        )
    limit = _limit_profile(game, terminal)
    per_player = [_player_case(game, limit, i) for i in range(game.n_players)]
    grid = np.round(np.arange(grid_step, 1.0 + grid_step / 2, grid_step), 12)

    entries = []
    j_start = 0
    for t in range(1, len(profiles) + 50):
        found = None
        for j in range(j_start, len(profiles)):
            if _retention_ok(game, profiles[j], per_player, limit, t):
                found = j
                break
        if found is None:
            continue
        entry = _build_entry(game, profiles[found], per_player, found, t, grid)
        entries.append(entry)
        j_start = found + 1
        if j_start >= len(profiles):
            break
    return VanishingSequence(entries, limit, grid)


def _retention_ok(game, prof, per_player, limit, t):
    budget = 1.0 / t
    for i in range(game.n_players):
        order, k_pos, case = per_player[i]
        eu = expected_utility(game, prof, i)
        eu_lim = expected_utility(game, limit, i)
        best = [a for a in range(len(eu_lim)) if eu_lim[a] >= eu_lim.max() - FOC_TOL]
        spread = float(max(eu[a] for a in best) - min(eu[a] for a in best))
        if spread > budget:
            return False
        sig = prof.vectors[i]
        if case == 1:
            zeros = [a for a in range(len(sig)) if limit.vectors[i][a] <= FOC_TOL]
            if zeros and max(sig[a] for a in zeros) >= budget:
                return False
        elif case == 2:
            below = [int(order[p]) for p in range(k_pos)]
            a_k = int(order[k_pos])
            if below and max(sig[a] for a in below) >= budget:
                return False
            if not sig[a_k] > budget:
                return False
    return True


def _build_entry(game, prof, per_player, source_index, t, grid):
    eps = 0.5 / t
    splines = []
    cases = []
    for i in range(game.n_players):
        order, k_pos, case = per_player[i]
        cases.append(case)
        sig = prof.vectors[i]
        eu = expected_utility(game, prof, i)
        y0 = min(0.5 / t, float(sig.min()) / 2.0)
        ystar = None
        ystar_slope = None
        if case == 2:
            ystar = 1.0 / t
            ystar_slope = -3.0 / t
        spline = build_spline(
            sig, eu, eps, y0=y0, ystar=ystar, ystar_slope=ystar_slope,
            clamp_ystar_slope=True,
        )
        splines.append(spline)
    ccg = ControlCostGame(game, tuple(splines))
    ok, worst, _ = cc_equilibrium_check(ccg, prof, tol=1e-9)
    if not ok:
        raise RuntimeError(
            f"internal error: calibrated profile fails its own first-order "
            f"conditions (defect {worst:.3e})"
        )
    sup = np.array([float(np.max(s.value(grid))) for s in splines])
    return VanishingEntry(source_index, eps, ccg, sup, tuple(cases), worst)
