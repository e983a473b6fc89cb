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
lambda.  Each Newton iterate evaluates H, its Jacobian and sigma = exp(y)
once, into arrays allocated once per trace, with per-player sums taken by
one block-ones product.  Each scheduled lambda is reported where the branch
first reaches it: its profile is built from the sigma of the corrector's
last iterate, and its residual max |sigma - logit_lambda(U(sigma))| is
taken over that profile's own vectors in one vectorized logit pass.  The
terminal point is the limit candidate; the trace enumerates no Nash
equilibrium.
"""

from __future__ import annotations

import math
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

    def evaluate(self, utilities):  # pragma: no cover - abstract
        raise NotImplementedError


class LogisticQRF(QRF):
    """Softmax with inverse temperature lam, numerically stabilized.

    Note: for lam * (utility gap) beyond ~700 the low branch underflows to
    exactly zero in double precision; outputs are interior whenever they are
    representable.
    """

    def __init__(self, lam):
        if not (np.isfinite(lam) and lam >= 0):
            raise ValueError("lambda must be finite and nonnegative")
        self.lam = float(lam)

    def evaluate(self, utilities):
        x = np.asarray(utilities, dtype=float)
        z = self.lam * (x - x.max())
        e = np.exp(z)
        return e / e.sum()

    def __repr__(self):
        return f"LogisticQRF(lam={self.lam:g})"


@dataclass
class QrePoint:
    lam: float | None
    profile: MixedProfile
    residual: float


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


def qre_fixed_point(game, qrfs, start=None, lam=None):
    """Damped fixed-point iteration for sigma = p(U(sigma)), to a residual
    below FIXED_POINT_TOL in at most MAX_ITER steps; `lam` only labels the
    returned point.

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
    for _ in range(MAX_ITER):
        if res < FIXED_POINT_TOL:
            return _accept(game, qrfs, start, raw, target, res, lam)
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
            newton = _newton_polish(game, qrfs, vecs)
            if newton is not None:
                raw = newton
                vecs = _normalized(game, raw)
                target = _apply_qrfs(game, qrfs, vecs)
                res = _residual(vecs, target)
                if res < FIXED_POINT_TOL:
                    return _accept(game, qrfs, start, raw, target, res, lam)
            stall = 0
    raise QreConvergenceError(
        f"fixed point not reached (last residual {res:.3e})", res
    )


def _accept(game, qrfs, start, raw, target, res, lam):
    """Prefer landing on the QRF image: it is interior by construction,
    which heals exact zeros left by clipped Newton steps."""
    imaged = _normalized(game, target)
    imaged_res = _residual(imaged, _apply_qrfs(game, qrfs, imaged))
    if imaged_res < FIXED_POINT_TOL:
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


def _newton_polish(game, qrfs, vectors, steps=40):
    """Raw vectors of a polished point, or None when Newton fails."""
    def defect(z):
        vecs = _normalized(game, _unstack_reduced(game, z))
        target = _apply_qrfs(game, qrfs, vecs)
        return _stack_reduced(vecs) - _stack_reduced(target)

    z = _stack_reduced(vectors)
    n = len(z)
    for _ in range(steps):
        f = defect(z)
        if np.max(np.abs(f)) < FIXED_POINT_TOL / 4:
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


LAM_MIN = 1e-2  # the first positive lambda of every schedule


def default_lambda_schedule(lam_max=1e3, steps=40):
    """0, then `steps` log-spaced values from LAM_MIN to lam_max.

    ValueError unless steps >= 2: fewer points cannot reach lam_max from
    LAM_MIN."""
    if steps < 2:
        raise ValueError(f"the lambda schedule needs steps >= 2, got steps={steps}")
    if not (np.isfinite(lam_max) and LAM_MIN < lam_max):
        raise ValueError(
            f"the lambda schedule needs a finite lam_max > {LAM_MIN:g}, got {lam_max:g}")
    return [0.0] + list(np.logspace(np.log10(LAM_MIN), np.log10(lam_max), steps))


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
    it at that fixed lambda.  The reported profile is the `MixedProfile` of
    sigma = exp(y) at the corrector's last iterate, and its `residual` is
    the largest |sigma - logit_lambda(U(sigma))| over the profile's own
    (normalized) vectors, with logit_lambda(u) = exp(lambda (u - max u)) /
    sum per player; a point is reported only if that residual is below
    `tol`.  Newton stops once no probability differs from its logit response
    by more than tol / 10, so the residual column mostly shows rounding.
    The terminal point is the limit candidate; `nash.nearest_nash` finds the
    equilibrium next to it.
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

    Points are vectors w = (y, lambda) with y stacked over the players.  The
    arrays that each Newton iterate fills are allocated once per trace.
    """

    def __init__(self, game):
        self.game = game
        self.n = n = game.n_players
        counts = game.action_counts
        bounds = np.cumsum((0,) + counts)
        self.slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self.size = size = int(bounds[-1])
        self.starts = bounds[:-1]
        # each entry's player, and ones where two entries share a player:
        # `blocks @ v` puts each player's sum of v at each of its entries
        self.owner = np.repeat(np.arange(n), counts)
        self.blocks = (self.owner[:, None] == self.owner).astype(float)
        self.eye = np.eye(size)
        # [dU/dsigma | U]; with two players dU/dsigma holds the payoff
        # matrices, whatever sigma, and only the last column changes
        self.du_u = np.zeros((size, size + 1))
        self.du = self.du_u[:, :-1]
        if n <= 2:
            self.du[:] = self._du(None)
        # [dH/dy | dH/dlambda], above the constraint row that `correct` sets,
        # and the right-hand sides [(-H, constraint), (0, 1)] of its solves
        self.bordered = np.empty((size + 1, size + 1))
        self.jac = self.bordered[:-1]
        self.jac_y = self.bordered[:-1, :-1]
        self.rhs = np.zeros((size + 1, 2))
        self.rhs[-1, 1] = 1.0

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
        """H at w and sigma = exp(y); writes the Jacobian [dH/dy | dH/dlambda]
        into the first rows of `bordered`.

        dH_i/dy = I - lambda (D_i - 1 p_i^T D_i) diag(sigma), where D_i is
        player i's rows of dU/dsigma and p_i = logit_lambda(u_i), and
        dH_i/dlambda = (p_i . u_i) 1 - u_i."""
        y, lam = w[:-1], w[-1]
        sigma = np.exp(y)
        n, du_u, jac = self.n, self.du_u, self.jac
        if n > 2:
            self.du[:] = self._du([sigma[s] for s in self.slices])
        # U is multilinear, so u_i = du_i/dsigma_j sigma_j for every j != i
        if n == 1:
            u = self.game._views[0]
        else:
            u = self.du @ sigma
            if n > 2:
                u /= n - 1
        du_u[:, -1] = u
        z = lam * u
        z -= np.maximum.reduceat(z, self.starts)[self.owner]
        e = np.exp(z)
        total = self.blocks @ e
        # [1 p^T D - D | 1 p.u - u] per player, in one product
        np.subtract(self.blocks @ ((e / total)[:, None] * du_u), du_u, out=jac)
        self.jac_y *= lam * sigma
        self.jac_y += self.eye
        return y - z + np.log(total), sigma

    def correct(self, trial, row, goal):
        """Newton on [H(w); row . (w - trial)] = 0 from `trial`.

        `row` is the unit lambda vector for a solve at fixed lambda, and the
        predictor's tangent for an arclength step.  Returns the corrected w,
        once every probability is within `goal` of its logit response,
        with a tangent there, the solution x of [dH; row] x = (0, 1) at the
        last Newton iterate, and sigma = exp(y) at w.  None when that error
        fails to halve at some iteration."""
        rhs = self.rhs
        self.bordered[-1] = row
        w, x = trial, None
        last = np.inf
        for _ in range(MAX_NEWTON):
            h, sigma = self.evaluate(w)
            error = float((sigma * np.abs(np.expm1(-h))).max())
            done = error <= goal
            if not (done or error <= 0.5 * last):  # also when error is nan
                return None
            if done and x is not None:
                return w, x, sigma
            rhs[:-1, 0] = -h
            rhs[-1, 0] = -row @ (w - trial)
            try:
                delta, x = np.linalg.solve(self.bordered, rhs).T
            except np.linalg.LinAlgError:
                return None
            if done:
                return w, x, sigma
            last = error
            w = w + delta
        return None

    def point(self, w, sigma):
        """The QrePoint at w, given sigma = exp(y) there: the profile built
        from sigma, and its residual, taken with one logit pass over the
        profile's own vectors."""
        game, lam = self.game, float(w[-1])
        profile = MixedProfile(game, [sigma[s] for s in self.slices])
        v = np.concatenate(profile.vectors)
        if self.n == 2:
            u = self.du @ v
        else:
            u = np.concatenate([utility_vector(game, i, profile.vectors)
                                for i in range(game.n_players)])
        e = np.exp(lam * (u - np.maximum.reduceat(u, self.starts)[self.owner]))
        residual = float(np.abs(v - e / (self.blocks @ e)).max())
        return QrePoint(lam, profile, residual)

    def trace(self, schedule, tol):
        """QrePoints at every lambda of `schedule`, which starts at 0."""
        goal = 0.1 * tol
        lam_axis = np.eye(self.size + 1)[-1]
        start = np.append(np.concatenate(
            [np.full(k, -np.log(k)) for k in self.game.action_counts]), 0.0)
        w, t, sigma = self.correct(start, lam_axis, goal)  # H vanishes at start
        t /= math.sqrt(t @ t)
        points = [self.point(w, sigma)]
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
                if np.abs(found[2] - sigma).max() <= MAX_JUMP:
                    point = self.point(found[0], found[2]) if clipped else None
                    if point is None or point.residual < tol:
                        w, x, sigma = found
                        t = x / math.copysign(math.sqrt(x @ x), x @ t)
                        if clipped:
                            points.append(point)
                        length = max(length, 2.0 * step)
                        continue
            length = 0.5 * step
            if length < MIN_STEP * (1.0 + np.max(np.abs(w))):
                break
        residual = self.point(w, sigma).residual
        raise QreConvergenceError(
            f"logit branch lost at lambda = {w[-1]:.6g} before reaching "
            f"{schedule[len(points)]:.6g} (residual {residual:.3e})", residual)


@dataclass
class PerturbedPoint:
    profile: MixedProfile
    distance: float
    verdict: object  # MonotonicityVerdict of the payoff-monotone test


def perturbed_monotone_point(game, mu, zeta):
    """Fixed point of beta -> (1 - zeta) * mu + zeta * logit_1(U(beta)), to
    a residual below 1e-12 in at most MAX_ITER steps.

    For small zeta the output is an interior payoff-monotone profile within
    about zeta of mu (convex-combination structure bounds the distance).
    """
    if not 0.0 < zeta < 1.0:
        raise ValueError("zeta must lie in (0, 1)")
    check = is_weakly_payoff_monotone(game, mu)
    if not check.satisfied:
        raise ValueError("mu is not weakly payoff monotone")
    logit = LogisticQRF(1.0)
    vecs = mu.vectors
    res = np.inf
    for _ in range(MAX_ITER):
        target = [
            (1 - zeta) * m + zeta * logit.evaluate(utility_vector(game, i, vecs))
            for i, m in enumerate(mu.vectors)
        ]
        res = _residual(vecs, target)
        vecs = _normalized(game, target)
        if res < 1e-12:
            break
    else:
        raise QreConvergenceError(
            f"perturbation fixed point not reached (residual {res:.3e})", res
        )
    profile = MixedProfile(game, target)
    return PerturbedPoint(
        profile, profile.distance(mu), is_payoff_monotone(game, profile)
    )
