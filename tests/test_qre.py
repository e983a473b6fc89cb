import numpy as np
import pytest

from empeq import corpus
from empeq.game import Game, MixedProfile, ProfileError, expected_utility
from empeq.monotone import is_payoff_monotone
from empeq.nash import nearest_nash
from empeq.qre import (
    FIXED_POINT_TOL,
    QRF,
    LogisticQRF,
    QreConvergenceError,
    default_lambda_schedule,
    logistic_profile,
    logistic_qrf,
    perturbed_monotone_point,
    qre_fixed_point,
    qrf_regularity_audit,
    trace_logit_path,
)

from conftest import corpus_games, random_game


def test_logistic_lambda_zero_uniform():
    q = logistic_qrf(0.0)
    out = q.evaluate(np.array([3.0, -1.0, 17.0]))
    assert np.allclose(out, 1 / 3)


def test_logistic_lambda_one_two_actions():
    q = logistic_qrf(1.0)
    out = q.evaluate(np.array([1.0, 0.0]))
    e = np.exp(1.0)
    assert out[0] == pytest.approx(e / (e + 1), abs=1e-12)
    assert out[1] == pytest.approx(1 / (e + 1), abs=1e-12)
    assert out[0] == pytest.approx(0.73106, abs=1e-5)
    assert out[1] == pytest.approx(0.26894, abs=1e-5)


def test_logistic_shift_invariance():
    q = logistic_qrf(2.5)
    x = np.array([0.4, -1.2, 3.0])
    assert np.allclose(q.evaluate(x), q.evaluate(x + 17.3), atol=1e-12)


def test_logistic_rejects_bad_lambda():
    with pytest.raises(ValueError):
        logistic_qrf(-1.0)
    with pytest.raises(ValueError):
        LogisticQRF(np.inf)


def test_fixed_point_lambda_zero_uniform(gamma2c22):
    pt = qre_fixed_point(gamma2c22, logistic_profile(gamma2c22, 0.0))
    assert np.allclose(pt.profile.stacked(), 1 / 3, atol=1e-12)
    assert pt.residual <= 1e-10


def test_fixed_point_gamma1_tilts_to_top(gamma1):
    pt = qre_fixed_point(gamma1, logistic_profile(gamma1, 10.0))
    assert pt.profile.is_interior
    assert pt.profile.vectors[0][0] > 0.5


def test_fixed_point_constant_game_uniform():
    g = Game(
        ["P1", "P2"],
        {"P1": ["x", "y", "z"], "P2": ["u", "v"]},
        np.full((3, 2, 2), 2.0),
    )
    for qrfs in (logistic_profile(g, 5.0), logistic_profile(g, 0.7)):
        pt = qre_fixed_point(g, qrfs)
        assert np.allclose(pt.profile.vectors[0], 1 / 3, atol=1e-10)
        assert np.allclose(pt.profile.vectors[1], 1 / 2, atol=1e-10)


def test_fixed_point_requires_one_qrf_per_player(gamma1):
    with pytest.raises(ValueError):
        qre_fixed_point(gamma1, [logistic_qrf(1.0)])


def test_qre_points_payoff_monotone():
    for g in corpus_games():
        for lam in (0.5, 1, 2, 5, 10):
            pt = qre_fixed_point(g, logistic_profile(g, lam))
            assert pt.residual < 1e-10
            assert is_payoff_monotone(g, pt.profile).satisfied


def test_trace_gamma1_reaches_top_avoids_bottom(gamma1):
    path = trace_logit_path(gamma1)
    top = MixedProfile.pure(gamma1, {"P1": "a1", "P2": "b1"})
    bottom = MixedProfile.pure(gamma1, {"P1": "a2", "P2": "b2"})
    assert path.terminal.distance(top) <= 1e-3
    assert nearest_nash(gamma1, path.terminal)[0] <= 1e-3
    assert min(pt.profile.distance(bottom) for pt in path.points) > 0.25


def test_trace_gamma2c_small_costs():
    g = corpus.gamma2c(0.5, 0.5)
    path = trace_logit_path(g)
    top = MixedProfile.pure(g, {"P1": "a1", "P2": "b1"})
    assert path.terminal.distance(top) <= 1e-3


def test_trace_schedule_zero_only(gamma1):
    path = trace_logit_path(gamma1, [0.0])
    assert len(path.points) == 1
    assert np.allclose(path.points[0].profile.stacked(), 0.5)


def test_trace_rejects_bad_schedule(gamma1):
    with pytest.raises(ValueError):
        trace_logit_path(gamma1, [0.1, 1.0])
    with pytest.raises(ValueError):
        trace_logit_path(gamma1, [0.0, 1.0, 0.5])


def test_trace_raises_when_no_point_meets_tol(gamma1):
    with pytest.raises(QreConvergenceError, match="before reaching 0.01"):
        trace_logit_path(gamma1, tol=1e-30)


def test_trace_endpoints_near_nash_on_corpus():
    for g in corpus_games():
        path = trace_logit_path(g)
        assert nearest_nash(g, path.terminal)[0] <= 1e-3


def test_perturbed_uniform_fixed_on_flat_game():
    g = Game(
        ["P1", "P2"],
        {"P1": ["x", "y"], "P2": ["u", "v"]},
        np.full((2, 2, 2), 1.0),
    )
    mu = MixedProfile.uniform(g)
    pt = perturbed_monotone_point(g, mu, zeta=0.3)
    assert np.allclose(pt.profile.stacked(), 0.5, atol=1e-10)
    assert pt.distance <= 1e-10


def test_perturbed_gamma1_example(gamma1):
    mu = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.75, "a2": 0.25}, "P2": {"b1": 0.75, "b2": 0.25}}
    )
    pt = perturbed_monotone_point(gamma1, mu, zeta=0.01, lam=1.0)
    assert pt.profile.is_interior
    assert pt.verdict.satisfied
    assert pt.distance <= 0.02


def test_perturbed_distance_shrinks_with_zeta(gamma1):
    mu = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.6, "a2": 0.4}, "P2": {"b1": 0.8, "b2": 0.2}}
    )
    bounds = {0.1: 0.2, 0.01: 0.02, 0.001: 0.002}
    last = np.inf
    for zeta, cap in bounds.items():
        pt = perturbed_monotone_point(gamma1, mu, zeta=zeta)
        assert pt.distance <= cap
        assert pt.distance <= last + 1e-12
        last = pt.distance


def test_perturbed_rejects_non_monotone_mu(gamma1):
    mu = MixedProfile.pure(gamma1, {"P1": "a2", "P2": "b2"})
    with pytest.raises(ValueError):
        perturbed_monotone_point(gamma1, mu, zeta=0.1)


def test_audit_logistic_clean():
    rep = qrf_regularity_audit(logistic_qrf(2.0), 3, sample_count=150, seed=1)
    assert rep.passed
    assert all(rep.axioms.values())


def test_audit_lambda_zero_not_responsive():
    rep = qrf_regularity_audit(logistic_qrf(0.0), 3, sample_count=50, seed=1)
    assert not rep.axioms["responsiveness"]
    assert any(kind == "responsiveness" for kind, _ in rep.counterexamples)


def test_newton_fallback_high_lambda():
    # a high-precision logit point on an asymmetric game
    rng = np.random.default_rng(4)
    g = random_game(rng, (3, 3))
    pt = qre_fixed_point(g, logistic_profile(g, 40.0))
    assert pt.residual < 1e-10


def test_default_lambda_schedule_rejects_meaningless_ranges():
    assert len(default_lambda_schedule()) == 41
    for kwargs in ({"lam_max": np.inf}, {"lam_max": np.nan}, {"lam_min": 0.0},
                   {"lam_min": -1.0}, {"lam_max": 1e-3}, {"lam_max": 1e-2},
                   {"lam_min": -np.inf}, {"steps": 1}, {"steps": 0},
                   {"steps": -3}):
        with pytest.raises(ValueError, match="lambda schedule"):
            default_lambda_schedule(**kwargs)


class _NanQRF(QRF):
    def evaluate(self, utilities):
        return np.full(len(utilities), np.nan)


def test_nan_returning_qrf_raises_profile_error(gamma1):
    with pytest.raises(ProfileError, match="non-finite"):
        qre_fixed_point(gamma1, [_NanQRF(), _NanQRF()])


# MixedProfile-based reference: the iteration as it was written before it ran
# on plain vectors.  Every vector goes through a validated profile and every
# utility through expected_utility.


def _ref_apply(game, qrfs, profile):
    return [np.asarray(q.evaluate(expected_utility(game, profile, i)), dtype=float)
            for i, q in enumerate(qrfs)]


def _ref_residual(profile, target):
    return max(float(np.max(np.abs(v - t))) for v, t in zip(profile.vectors, target))


def _ref_accept(game, qrfs, profile, target, res, lam, tol):
    imaged = MixedProfile(game, target)
    imaged_res = _ref_residual(imaged, _ref_apply(game, qrfs, imaged))
    if imaged_res < tol:
        return imaged, imaged_res
    return profile, res


def _ref_unstack(game, z):
    vecs, pos = [], 0
    for k in game.action_counts:
        head = np.clip(z[pos : pos + k - 1], 0.0, 1.0)
        pos += k - 1
        vecs.append(np.concatenate([head, [max(0.0, 1.0 - head.sum())]]))
    return MixedProfile(game, vecs)


def _ref_stack(vectors):
    return np.concatenate([v[:-1] for v in vectors])


def _ref_newton(game, qrfs, profile, tol, steps=40):
    def defect(z):
        prof = _ref_unstack(game, z)
        return _ref_stack(prof.vectors) - _ref_stack(_ref_apply(game, qrfs, prof))

    z = _ref_stack(profile.vectors)
    n = len(z)
    for _ in range(steps):
        f = defect(z)
        if np.max(np.abs(f)) < tol / 4:
            return _ref_unstack(game, z)
        jac = np.empty((n, n))
        for j in range(n):
            zp = z.copy()
            zp[j] += 1e-7
            jac[:, j] = (defect(zp) - f) / 1e-7
        try:
            step = np.linalg.solve(jac, -f)
        except np.linalg.LinAlgError:
            return None
        scale, base = 1.0, np.max(np.abs(f))
        for _ in range(20):
            trial = z + scale * step
            if np.max(np.abs(defect(trial))) < base:
                z = trial
                break
            scale *= 0.5
        else:
            return None
    return None


def _ref_fixed_point(game, qrfs, start=None, tol=1e-10, max_iter=100_000, lam=None):
    profile = start if start is not None else MixedProfile.uniform(game)
    alpha, stall = 1.0, 0
    target = _ref_apply(game, qrfs, profile)
    res = _ref_residual(profile, target)
    for _ in range(max_iter):
        if res < tol:
            return _ref_accept(game, qrfs, profile, target, res, lam, tol)
        cand = MixedProfile(game, [(1 - alpha) * v + alpha * t
                                   for v, t in zip(profile.vectors, target)])
        cand_target = _ref_apply(game, qrfs, cand)
        cand_res = _ref_residual(cand, cand_target)
        if cand_res <= res or alpha <= 1e-3:
            stall = stall + 1 if res - cand_res < 1e-3 * res else 0
            profile, target, res = cand, cand_target, cand_res
            alpha = min(1.0, alpha * 1.25)
        else:
            alpha *= 0.5
        if stall >= 60:
            newton = _ref_newton(game, qrfs, profile, tol)
            if newton is not None:
                profile = newton
                target = _ref_apply(game, qrfs, profile)
                res = _ref_residual(profile, target)
                if res < tol:
                    return _ref_accept(game, qrfs, profile, target, res, lam, tol)
            stall = 0
    raise QreConvergenceError("reference did not converge", res)


def _ref_trace_step(game, lam_lo, lam_hi, profile, depth):
    try:
        point = _ref_fixed_point(game, logistic_profile(game, lam_hi), start=profile)
        if point[0].distance(profile) <= 0.35 or depth >= 6:
            return point
    except QreConvergenceError:
        if depth >= 6:
            raise
    mid = 0.5 * (lam_lo + lam_hi)
    bridge = _ref_trace_step(game, lam_lo, mid, profile, depth + 1)
    return _ref_trace_step(game, mid, lam_hi, bridge[0], depth + 1)


def _ref_trace(game, schedule):
    profile, prev, points = MixedProfile.uniform(game), 0.0, []
    for lam in schedule:
        points.append(_ref_trace_step(game, prev, lam, profile, 0))
        profile, prev = points[-1][0], lam
    return points


def _ref_perturbed(game, mu, zeta, lam=1.0, tol=1e-12, max_iter=100_000):
    logit, profile = LogisticQRF(lam), mu
    for _ in range(max_iter):
        target = [(1 - zeta) * m + zeta * logit.evaluate(expected_utility(game, profile, i))
                  for i, m in enumerate(mu.vectors)]
        res = max(float(np.max(np.abs(v - t))) for v, t in zip(profile.vectors, target))
        profile = MixedProfile(game, target)
        if res < tol:
            return profile
    raise QreConvergenceError("reference did not converge", res)


def _same_bits(p, q):
    return all(a.tobytes() == b.tobytes() for a, b in zip(p.vectors, q.vectors))


def _differential_games():
    games = corpus_games()
    games.append(random_game(np.random.default_rng(9), (3, 3)))
    games.append(random_game(np.random.default_rng(5), (2, 2, 2), lo=-3.0, hi=3.0))
    return games


@pytest.mark.parametrize("index", range(7))
def test_logit_iteration_matches_profile_reference(index):
    # psi, phi and the 2x2x2 game reach the Newton polish along the
    # reference trace; the continuation lands within 1e-8 of its points
    g = _differential_games()[index]
    schedule = default_lambda_schedule()
    path = trace_logit_path(g, schedule)
    ref = _ref_trace(g, schedule)
    assert [point.lam for point in path.points] == schedule
    assert len(ref) == len(schedule)
    for point, (profile, _) in zip(path.points, ref):
        assert point.residual < FIXED_POINT_TOL
        assert point.profile.distance(profile) < 1e-8
    start = path.points[10].profile
    for lam in (0.3, 4.0, 40.0):
        for begin in (None, start):
            got = qre_fixed_point(g, logistic_profile(g, lam), start=begin, lam=lam)
            profile, res = _ref_fixed_point(g, logistic_profile(g, lam), start=begin)
            assert _same_bits(got.profile, profile)
            assert got.residual == res
    for mu in (MixedProfile.uniform(g), path.points[5].profile):
        for zeta in (0.25, 0.01):
            got = perturbed_monotone_point(g, mu, zeta=zeta)
            assert _same_bits(got.profile, _ref_perturbed(g, mu, zeta))


def _seeded_game(index):
    """Game `index` of 24 seeded two-player games, n x n with n = 4 + index % 3:
    payoffs uniform in [-10, 10) at even indices, integers 0..3 at odd ones."""
    rng = np.random.default_rng(2026)
    for j in range(index + 1):
        n = 4 + j % 3
        if j % 2:
            payoffs = rng.integers(0, 4, size=(n, n, 2)).astype(float)
        else:
            payoffs = rng.uniform(-10, 10, size=(n, n, 2))
    actions = {"P1": [f"a{k}" for k in range(n)], "P2": [f"b{k}" for k in range(n)]}
    return Game(["P1", "P2"], actions, payoffs)


def _softmax_residual(game, point):
    x, y = point.profile.vectors
    a, b = game.payoffs[..., 0], game.payoffs[..., 1]
    worst = 0.0
    for sigma, u in ((x, a @ y), (y, b.T @ x)):
        e = np.exp(point.lam * (u - u.max()))
        worst = max(worst, float(np.max(np.abs(sigma - e / e.sum()))))
    return worst


@pytest.mark.parametrize("index", [1, 2, 7, 16])
def test_trace_reaches_every_lambda_on_seeded_games(index):
    # the branches of games 1 and 16 fold back in lambda near 12.1 and 2.0,
    # where dH/dy is nearly singular and continuation in lambda alone stalls
    g = _seeded_game(index)
    schedule = default_lambda_schedule()
    path = trace_logit_path(g, schedule)
    lams = [point.lam for point in path.points]
    assert lams == schedule
    assert all(b > a for a, b in zip(lams, lams[1:]))
    for point in path.points:
        assert _softmax_residual(g, point) < FIXED_POINT_TOL
