"""Quantal response functions, QRE fixed points, and logit path tracing.

A quantal response function maps a player's utility vector to an interior
distribution over that player's actions.  Fixed points of the composition
with the expected-payoff operator are quantal response equilibria.

`qre_fixed_point` finds one for any list of QRFs (logit, or the spline
QRFs of `ccost`) by damped fixed-point iteration on plain vectors, one
array per player: `utility_vector` gives the utilities and `normalized`
cleans each iterate exactly as `MixedProfile` would.  Only the returned
point becomes a `MixedProfile`, built from the raw vectors that the last
iterate was cleaned from, so it holds the iterate's bits without a second
normalization.

`trace_logit_path` follows the principal branch of logit QRE from the
centroid at lambda = 0 (McKelvey and Palfrey 1995; Turocy 2005).  It
continues the zero set of H(y, lambda) = y - log logit_lambda(U(exp y)) in
the log-probabilities y by pseudo-arclength predictor-corrector steps with
an analytic Jacobian, so it passes folds where the branch turns back in
lambda.  Each scheduled lambda is reported where the branch first reaches
it, with its residual max |sigma - logit_lambda(U(sigma))|.  The terminal
point is the limit candidate; the trace enumerates no Nash equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .game import MixedProfile, _check_profile, normalized, utility_vector
from .monotone import is_payoff_monotone, is_weakly_payoff_monotone

FIXED_POINT_TOL = 1e-10
MAX_ITER = 100_000


class QreConvergenceError(RuntimeError):
    def __init__(self, message, residual):
        super().__init__(message)
        self.residual = residual


class QRF:
    """Evaluable map from utility vectors to interior probability vectors."""

    kind = "generic"

    def evaluate(self, utilities):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, utilities):
        return self.evaluate(utilities)


class LogisticQRF(QRF):
    """Softmax with inverse temperature lam, numerically stabilized.

    Note: for lam * (utility gap) beyond ~700 the low branch underflows to
    exactly zero in double precision; outputs are interior whenever they are
    representable.
    """

    kind = "logistic"

    def __init__(self, lam):
        if not np.isfinite(lam):
            raise ValueError("lambda must be finite")
        self.lam = float(lam)

    def evaluate(self, utilities):
        x = np.asarray(utilities, dtype=float)
        z = self.lam * (x - x.max())
        e = np.exp(z)
        return e / e.sum()

    def __repr__(self):
        return f"LogisticQRF(lam={self.lam:g})"


def logistic_qrf(lam):
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    return LogisticQRF(lam)


def logistic_profile(game, lam):
    return [LogisticQRF(lam) for _ in range(game.n_players)]


@dataclass
class QrePoint:
    lam: float | None
    profile: MixedProfile
    residual: float

    @property
    def interior(self):
        return self.profile.is_interior


def _apply_qrfs(game, qrfs, vectors):
    return [
        np.asarray(q.evaluate(utility_vector(game, i, vectors)), dtype=float)
        for i, q in enumerate(qrfs)
    ]


def _residual(vectors, target_vectors):
    return max(float(np.abs(v - t).max()) for v, t in zip(vectors, target_vectors))


def _normalized(game, vectors):
    return [normalized(np.asarray(v, dtype=float), p)
            for p, v in zip(game.players, vectors)]


def qre_fixed_point(game, qrfs, start=None, tol=FIXED_POINT_TOL,
                    max_iter=MAX_ITER, lam=None):
    """Damped fixed-point iteration for sigma = p(U(sigma)).

    The damping factor halves on residual increases; a finite-difference
    Newton step on the defect map kicks in when plain iteration stalls.
    Raises QreConvergenceError with the last residual on failure.
    """
    if len(qrfs) != game.n_players:
        raise ValueError("one quantal response function per player required")
    start = _check_profile(game, start) if start is not None else MixedProfile.uniform(game)
    # the current point: its vectors, and the raw vectors they were cleaned
    # from (None while it is `start` itself)
    vecs, raw = start.vectors, None
    alpha = 1.0
    target = _apply_qrfs(game, qrfs, vecs)
    res = _residual(vecs, target)
    stall = 0
    for _ in range(max_iter):
        if res < tol:
            return _accept(game, qrfs, start, raw, target, res, lam, tol)
        step = [(1 - alpha) * v + alpha * t for v, t in zip(vecs, target)]
        cand = _normalized(game, step)
        cand_target = _apply_qrfs(game, qrfs, cand)
        cand_res = _residual(cand, cand_target)
        if cand_res <= res or alpha <= 1e-3:
            if res - cand_res < 1e-3 * res:
                stall += 1
            else:
                stall = 0
            vecs, raw, target, res = cand, step, cand_target, cand_res
            alpha = min(1.0, alpha * 1.25)
        else:
            alpha *= 0.5
        if stall >= 60:
            newton = _newton_polish(game, qrfs, vecs, tol)
            if newton is not None:
                raw = newton
                vecs = _normalized(game, raw)
                target = _apply_qrfs(game, qrfs, vecs)
                res = _residual(vecs, target)
                if res < tol:
                    return _accept(game, qrfs, start, raw, target, res, lam, tol)
            stall = 0
    raise QreConvergenceError(
        f"fixed point not reached (last residual {res:.3e})", res
    )


def _accept(game, qrfs, start, raw, target, res, lam, tol):
    """Prefer landing on the QRF image: it is interior by construction,
    which heals exact zeros left by clipped Newton steps."""
    imaged = _normalized(game, target)
    imaged_res = _residual(imaged, _apply_qrfs(game, qrfs, imaged))
    if imaged_res < tol:
        return QrePoint(lam, MixedProfile(game, target), imaged_res)
    return QrePoint(lam, start if raw is None else MixedProfile(game, raw), res)


def _stack_reduced(vectors):
    return np.concatenate([v[:-1] for v in vectors])


def _unstack_reduced(game, z):
    """Raw vectors for reduced coordinates z; `_normalized` cleans them."""
    vecs = []
    pos = 0
    for k in game.action_counts:
        head = np.clip(z[pos : pos + k - 1], 0.0, 1.0)
        pos += k - 1
        tail = max(0.0, 1.0 - head.sum())
        vecs.append(np.concatenate([head, [tail]]))
    return vecs


def _newton_polish(game, qrfs, vectors, tol, steps=40):
    """Raw vectors of a polished point, or None when Newton fails."""
    def defect(z):
        vecs = _normalized(game, _unstack_reduced(game, z))
        target = _apply_qrfs(game, qrfs, vecs)
        return _stack_reduced(vecs) - _stack_reduced(target)

    z = _stack_reduced(vectors)
    n = len(z)
    for _ in range(steps):
        f = defect(z)
        if np.max(np.abs(f)) < tol / 4:
            return _unstack_reduced(game, z)
        jac = np.empty((n, n))
        h = 1e-7
        for j in range(n):
            zp = z.copy()
            zp[j] += h
            jac[:, j] = (defect(zp) - f) / h
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        scale = 1.0
        base = np.max(np.abs(f))
        for _ in range(20):
            trial = z + scale * step
            if np.max(np.abs(defect(trial))) < base:
                z = trial
                break
            scale *= 0.5
        else:
            return None
    return None


def default_lambda_schedule(lam_max=1e3, steps=40, lam_min=1e-2):
    """0, then `steps` log-spaced values from lam_min to lam_max.

    ValueError unless steps >= 2: fewer points cannot reach lam_max from
    lam_min."""
    if steps < 2:
        raise ValueError(f"the lambda schedule needs steps >= 2, got steps={steps}")
    if not (np.isfinite(lam_min) and np.isfinite(lam_max) and 0 < lam_min < lam_max):
        raise ValueError(
            "the lambda schedule needs finite 0 < lam_min < lam_max, "
            f"got lam_min={lam_min:g}, lam_max={lam_max:g}"
        )
    return [0.0] + list(np.logspace(np.log10(lam_min), np.log10(lam_max), steps))


@dataclass
class LogitPath:
    points: list  # QrePoints, one per schedule entry
    terminal: MixedProfile  # the last point's profile, the limit candidate


MAX_JUMP = 0.35  # largest change of any probability over one accepted step
MIN_STEP = 1e-12  # arclength floor, relative to the size of the current point
MAX_STEPS = 20_000  # continuation steps per trace
MAX_NEWTON = 8  # corrector iterations per step
BRANCH_TOL = 1e-9  # probability error of the points between scheduled lambdas


def trace_logit_path(game, lam_schedule=None, tol=FIXED_POINT_TOL):
    """The principal branch of logit QRE, read off at each scheduled lambda.

    The branch is the curve H(y, lambda) = 0 that leaves the centroid at
    lambda = 0, where y = log sigma is stacked over the players and
    H_i = y_i - log logit_lambda(U_i(sigma)).  It is followed by
    pseudo-arclength continuation: an Euler predictor along the tangent
    (the null vector of [dH/dy | dH/dlambda], oriented by the previous
    tangent), then Newton on H together with the constraint that the point
    moves orthogonally to that tangent.  Since the arclength, not lambda,
    parametrizes the curve, the branch may turn back in lambda at a fold
    and forward again.  A step that Newton cannot correct, or that moves
    any probability by more than MAX_JUMP, is halved; below MIN_STEP the
    trace raises QreConvergenceError.

    Each scheduled lambda is reported where the branch first reaches it: a
    step that would pass it is shortened to end there, and Newton corrects
    it at that fixed lambda.  The reported profile is sigma = exp(y) there,
    and its `residual` is the largest |sigma - logit_lambda(U(sigma))| over
    all entries, computed as in `qre_fixed_point`; a point is reported
    only if that residual is below `tol`.  Newton stops once no probability
    differs from its logit response by more than tol / 10, so the residual
    column mostly shows rounding.  The terminal point is the limit candidate;
    `nash.nearest_nash` finds the equilibrium next to it.
    """
    if lam_schedule is None:
        lam_schedule = default_lambda_schedule()
    lam_schedule = [float(l) for l in lam_schedule]
    if not lam_schedule or lam_schedule[0] != 0.0:
        raise ValueError("the lambda schedule must start at 0")
    if any(b <= a for a, b in zip(lam_schedule, lam_schedule[1:])):
        raise ValueError("the lambda schedule must be strictly increasing")
    points = _LogitHomotopy(game).trace(lam_schedule, tol)
    return LogitPath(points, points[-1].profile)


class _LogitHomotopy:
    """H(y, lambda) = y - log logit_lambda(U(exp y)) and its continuation.

    Points are vectors w = (y, lambda) with y stacked over the players.
    """

    def __init__(self, game):
        self.game = game
        bounds = np.cumsum((0,) + game.action_counts)
        self.slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.size = int(bounds[-1])
        self.starts = bounds[:-1]
        self.counts = np.diff(bounds)
        self.eye = np.eye(self.size)
        # with two players dU/dsigma holds the payoff matrices, whatever sigma
        self.fixed_du = self._du(None) if game.n_players <= 2 else None

    def _du(self, vectors):
        """dU/dsigma, stacked: block (i, j) is du_i/dsigma_j, zero for i == j.

        Block (i, j) contracts player i's view with every player's vector
        but i's and j's own."""
        game = self.game
        n = game.n_players
        du = np.zeros((self.size, self.size))
        for i in range(n):
            for j in range(n):
                if j == i:
                    continue
                # the view's axes: i's actions, then every other player in order
                block = np.moveaxis(game._views[i], j + (j < i), 1)
                for m in range(n - 1, -1, -1):
                    if m != i and m != j:
                        block = block @ vectors[m]
                du[self.slices[i], self.slices[j]] = block
        return du

    def evaluate(self, w):
        """H at w, its Jacobian [dH/dy | dH/dlambda], and sigma = exp(y).

        dH_i/dy = I - lambda (D_i - 1 p_i^T D_i) diag(sigma), where D_i is
        player i's rows of dU/dsigma and p_i = logit_lambda(u_i), and
        dH_i/dlambda = (p_i . u_i) 1 - u_i."""
        y, lam = w[:-1], w[-1]
        sigma = np.exp(y)
        n = self.game.n_players
        if self.fixed_du is not None:
            du = self.fixed_du
        else:
            du = self._du([sigma[s] for s in self.slices])
        # U is multilinear, so u_i = du_i/dsigma_j sigma_j for every j != i
        u = du @ sigma / (n - 1) if n > 1 else self.game._views[0]
        z = lam * u
        z -= np.repeat(np.maximum.reduceat(z, self.starts), self.counts)
        e = np.exp(z)
        total = np.repeat(np.add.reduceat(e, self.starts), self.counts)
        p = e / total
        h = y - z + np.log(total)
        jac = np.empty((self.size, self.size + 1))
        jac[:, :-1] = du - np.repeat(np.add.reduceat(p[:, None] * du, self.starts),
                                     self.counts, axis=0)
        jac[:, :-1] *= -lam * sigma
        jac[:, :-1] += self.eye
        jac[:, -1] = np.repeat(np.add.reduceat(p * u, self.starts), self.counts) - u
        return h, jac, sigma

    def correct(self, trial, row, goal):
        """Newton on [H(w); row . (w - trial)] = 0 from `trial`.

        `row` is the unit lambda vector for a solve at fixed lambda, and the
        predictor's tangent for an arclength step.  Returns the corrected w,
        once every probability is within `goal` of its logit response,
        with a tangent there: the solution x of [dH; row] x = (0, 1) at the
        last Newton iterate.  None when that error fails to halve at some
        iteration."""
        rhs = np.zeros((self.size + 1, 2))
        rhs[-1, 1] = 1.0
        w, x = trial, None
        last = np.inf
        for _ in range(MAX_NEWTON):
            h, jac, sigma = self.evaluate(w)
            error = float(np.max(sigma * np.abs(np.expm1(-h))))
            done = error <= goal
            if not (done or error <= 0.5 * last):  # also when error is nan
                return None
            if done and x is not None:
                return w, x
            rhs[:-1, 0] = -h
            rhs[-1, 0] = -row @ (w - trial)
            try:
                delta, x = np.linalg.solve(np.vstack([jac, row]), rhs).T
            except np.linalg.LinAlgError:
                return None
            if done:
                return w, x
            last = error
            w = w + delta
        return None

    def point(self, w):
        """The QrePoint at w: the profile exp(y) and its residual."""
        game, lam = self.game, float(w[-1])
        profile = MixedProfile(game, [np.exp(w[s]) for s in self.slices])
        target = _apply_qrfs(game, logistic_profile(game, lam), profile.vectors)
        return QrePoint(lam, profile, _residual(profile.vectors, target))

    def trace(self, schedule, tol):
        """QrePoints at every lambda of `schedule`, which starts at 0."""
        goal = 0.1 * tol
        lam_axis = np.eye(self.size + 1)[-1]
        start = np.append(np.concatenate(
            [np.full(k, -np.log(k)) for k in self.game.action_counts]), 0.0)
        w, t = self.correct(start, lam_axis, goal)  # H vanishes at start
        t /= np.linalg.norm(t)
        points = [self.point(w)]
        length = 0.1
        for _ in range(MAX_STEPS):
            if len(points) == len(schedule):
                return points
            lam = schedule[len(points)]
            # a step that would pass lam ends at lam and is corrected there
            clipped = t[-1] > 0 and w[-1] + length * t[-1] >= lam
            step = (lam - w[-1]) / t[-1] if clipped else length
            trial = w + step * t
            if clipped:
                trial[-1] = lam
                found = self.correct(trial, lam_axis, goal)
            else:
                found = self.correct(trial, t, BRANCH_TOL)
            # an arclength step that ends past lam would skip where the
            # branch first reaches it
            if found is not None and (clipped or found[0][-1] < lam):
                moved = np.max(np.abs(np.exp(found[0][:-1]) - np.exp(w[:-1])))
                point = self.point(found[0]) if clipped else None
                if moved <= MAX_JUMP and (point is None or point.residual < tol):
                    w, x = found
                    t = x / np.copysign(np.linalg.norm(x), x @ t)
                    if clipped:
                        points.append(point)
                    length = max(length, 2.0 * step)
                    continue
            length = 0.5 * step
            if length < MIN_STEP * (1.0 + np.max(np.abs(w))):
                break
        residual = self.point(w).residual
        raise QreConvergenceError(
            f"logit branch lost at lambda = {w[-1]:.6g} before reaching "
            f"{schedule[len(points)]:.6g} (residual {residual:.3e})", residual)


@dataclass
class PerturbedPoint:
    profile: MixedProfile
    distance: float
    verdict: object  # MonotonicityVerdict of the payoff-monotone test


def perturbed_monotone_point(game, mu, zeta, lam=1.0, tol=1e-12,
                             max_iter=MAX_ITER):
    """Fixed point of beta -> (1 - zeta) * mu + zeta * logit(U(beta)).

    For small zeta the output is an interior payoff-monotone profile within
    about zeta of mu (convex-combination structure bounds the distance).
    """
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must lie in (0, 1)")
    check = is_weakly_payoff_monotone(game, mu)
    if not check.satisfied:
        raise ValueError("mu is not weakly payoff monotone")
    logit = LogisticQRF(lam)
    vecs = mu.vectors
    res = np.inf
    for _ in range(max_iter):
        target = [
            (1 - zeta) * m + zeta * logit.evaluate(utility_vector(game, i, vecs))
            for i, m in enumerate(mu.vectors)
        ]
        res = _residual(vecs, target)
        vecs = _normalized(game, target)
        if res < tol:
            break
    else:
        raise QreConvergenceError(
            f"perturbation fixed point not reached (residual {res:.3e})", res
        )
    profile = MixedProfile(game, target)
    return PerturbedPoint(
        profile, profile.distance(mu), is_payoff_monotone(game, profile)
    )


@dataclass
class AuditReport:
    passed: bool
    axioms: dict  # axiom -> bool
    counterexamples: list

    def __bool__(self):
        return self.passed


def qrf_regularity_audit(qrf, n_actions, sample_count=200, seed=0,
                         eta=0.1, continuity_step=1e-7):
    """Sampled check of the four regularity axioms.

    Interiority and monotonicity are checked at each sampled utility
    vector; responsiveness via a bump of size eta on one coordinate;
    continuity via the output delta under a small perturbation.
    """
    rng = np.random.default_rng(seed)
    axioms = {
        "interiority": True,
        "continuity": True,
        "responsiveness": True,
        "monotonicity": True,
    }
    bad = []
    for _ in range(int(sample_count)):
        x = rng.uniform(-5.0, 5.0, size=n_actions)
        p = np.asarray(qrf.evaluate(x), dtype=float)
        if not np.all(p > 0.0):
            axioms["interiority"] = False
            bad.append(("interiority", x.copy()))
        a = int(rng.integers(n_actions))
        bump = x.copy()
        bump[a] += eta
        if not qrf.evaluate(bump)[a] > p[a]:
            axioms["responsiveness"] = False
            bad.append(("responsiveness", x.copy()))
        for i in range(n_actions):
            for j in range(n_actions):
                if x[i] > x[j] and not p[i] > p[j]:
                    axioms["monotonicity"] = False
                    bad.append(("monotonicity", x.copy()))
        wiggle = x + rng.uniform(-continuity_step, continuity_step, size=n_actions)
        dp = np.max(np.abs(np.asarray(qrf.evaluate(wiggle)) - p))
        if dp > 1e-3:
            axioms["continuity"] = False
            bad.append(("continuity", x.copy()))
    return AuditReport(all(axioms.values()), axioms, bad)
