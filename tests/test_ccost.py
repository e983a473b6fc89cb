import json

import numpy as np
import pytest

from empeq import corpus
from empeq.ccost import (
    CalibrationError,
    ControlCostGame,
    ControlCostSpline,
    SplineError,
    SplineQRF,
    build_spline,
    cc_equilibrium_check,
    induced_qrf,
    vanishing_sequence,
)
from empeq.game import Game, MixedProfile, expected_utility, nash_defect
from empeq.monotone import is_payoff_monotone
from empeq.qre import LogisticQRF, default_lambda_schedule, qre_fixed_point, trace_logit_path

from conftest import (assert_regular_qrf, random_game, random_monotone_profile,
                      reference_foc_defects, reference_spline_derivative,
                      reference_spline_value)


def _profile_splines(game, profile, eps=0.1):
    return tuple(
        build_spline(profile.vectors[i], expected_utility(game, profile, i), eps)
        for i in range(game.n_players)
    )


def test_single_level_equal_utilities():
    sp = build_spline(np.array([0.5, 0.5]), np.array([1.0, 1.0]), 0.1)
    assert sp.derivative(0.5) - sp.derivative(0.5) == 0.0
    assert len(sp.levels) == 1


def test_gamma1_worked_example(gamma1):
    prof = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.7, "a2": 0.3}, "P2": {"b1": 0.7, "b2": 0.3}}
    )
    eu = expected_utility(gamma1, prof, 0)
    assert list(eu) == [0.7, 0.0]
    sp = build_spline(prof.vectors[0], eu, 0.1, y0=0.1)
    assert list(sp.slopes) == pytest.approx([-0.9, -0.8, -0.1, 0.0], abs=1e-12)
    assert sp.derivative(0.7) - sp.derivative(0.3) == pytest.approx(0.7, abs=1e-12)


def test_value_one_is_zero_and_asymptote():
    sp = build_spline(np.array([0.3, 0.7]), np.array([0.0, 0.7]), 0.1, y0=0.1)
    assert sp.value(1.0) == 0.0
    m0, y0 = sp.slopes[0], sp.knots[0]
    bound = sp.value(y0) + abs(m0) * y0**2 * (1e9 - 1 / y0)
    assert sp.value(1e-9) >= bound * (1 - 1e-12)
    assert sp.value(1e-9) > 1e6


def test_derivative_continuity_and_convexity():
    rng = np.random.default_rng(2)
    g = random_game(rng, (3, 4))
    prof = random_monotone_profile(g, rng)
    sp = build_spline(prof.vectors[1], expected_utility(g, prof, 1), 0.2)
    for k in sp.knots[:-1]:
        left = sp.derivative(k * (1 - 1e-12))
        right = sp.derivative(min(1.0, k * (1 + 1e-12)))
        assert abs(left - right) <= 1e-9 * max(1.0, abs(left))
    ys = np.linspace(1e-3, 1.0, 1000)
    vals = sp.value(ys)
    second = np.diff(vals, 2)
    assert np.all(second > -1e-12)
    assert np.all(np.diff(vals) < 0)  # strictly decreasing


def test_round_trip_foc(gamma1):
    prof = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.7, "a2": 0.3}, "P2": {"b1": 0.6, "b2": 0.4}}
    )
    ccg = ControlCostGame(gamma1, _profile_splines(gamma1, prof))
    ok, defect, _ = cc_equilibrium_check(ccg, prof)
    assert ok
    assert defect < 1e-12


def test_perturbation_breaks_foc(gamma1):
    prof = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.7, "a2": 0.3}, "P2": {"b1": 0.6, "b2": 0.4}}
    )
    ccg = ControlCostGame(gamma1, _profile_splines(gamma1, prof))
    moved = prof.replace(0, np.array([0.75, 0.25]))
    ok, defect, _ = cc_equilibrium_check(ccg, moved)
    assert not ok
    assert defect > 1e-3


def test_one_action_player_trivial_equilibrium():
    from empeq.game import Game

    g = Game(["P1", "P2"], {"P1": ["only"], "P2": ["l", "r"]},
             np.array([[[1.0, 2.0], [1.0, 0.0]]]))
    prof = MixedProfile(g, [np.array([1.0]), np.array([0.8, 0.2])])
    ccg = ControlCostGame(g, _profile_splines(g, prof))
    ok, defect, _ = cc_equilibrium_check(ccg, prof)
    assert ok


def test_boundary_profile_rejected(gamma1):
    interior = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.7, "a2": 0.3}, "P2": {"b1": 0.6, "b2": 0.4}}
    )
    ccg = ControlCostGame(gamma1, _profile_splines(gamma1, interior))
    pure = MixedProfile.pure(gamma1, {"P1": "a1", "P2": "b1"})
    with pytest.raises(SplineError):
        cc_equilibrium_check(ccg, pure)


def test_build_spline_input_validation():
    with pytest.raises(SplineError):
        build_spline(np.array([0.5, 0.5]), np.array([1.0, 0.0]), 0.1)  # tie/mismatch
    with pytest.raises(SplineError):
        build_spline(np.array([0.7, 0.3]), np.array([0.0, 1.0]), 0.1)  # wrong order
    with pytest.raises(SplineError):
        build_spline(np.array([0.3, 0.7]), np.array([0.0, 1.0]), 0.1, y0=0.4)
    with pytest.raises(SplineError):
        build_spline(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.1)  # boundary
    with pytest.raises(SplineError):
        build_spline(np.array([0.3, 0.7]), np.array([0.0, 1.0]), -0.5)


def test_tiny_probabilities_are_separate_levels():
    # a sharp logit response: the two small entries are 6 orders of
    # magnitude apart and their utilities are clearly ordered
    sigma = np.array([1.69e-15, 2.32e-21, 0.728, 0.272])
    utils = np.array([-4.43, -9.91, 9.26, 8.86])
    sp = build_spline(sigma, utils, 0.1)
    assert len(sp.levels) == 4
    du = utils[:, None] - utils[None, :]
    dv = sp.derivative(sigma)[:, None] - sp.derivative(sigma)[None, :]
    assert np.max(np.abs(du - dv)) < 1e-9


def test_underflowing_tail_rejected():
    with pytest.raises(SplineError, match="tail"):
        ControlCostSpline([1e-170, 0.5, 1.0], [-1.0, -0.5, 0.0], 0.1, [])


def _random_splines(rng, count):
    """Splines at random interior vectors with matching utility orders; some
    have entries down to 1e-100, a tie or a calibration knot."""
    out = []
    while len(out) < count:
        k = int(rng.integers(1, 7))
        sigma = rng.dirichlet(np.ones(k))
        if k > 1 and rng.random() < 0.2:
            sigma[0] = rng.choice([1e-12, 1e-40, 1e-100])
        if k > 2 and rng.random() < 0.2:
            sigma[2] = sigma[1]
        sigma /= sigma.sum()
        utils = np.sort(rng.uniform(-5, 5, k))[np.argsort(np.argsort(sigma))]
        ystar = float(rng.uniform(0.001, 0.999)) if rng.random() < 0.3 else None
        try:
            out.append(build_spline(sigma, utils, float(rng.uniform(0.01, 1.0)),
                                    ystar=ystar))
        except SplineError:
            continue
    return out


def _same(a, b):
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.dtype == b.dtype and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return type(a) is type(b) and np.array_equal(a, b, equal_nan=True)


def test_spline_evaluation_matches_the_reference_bit_for_bit():
    rng = np.random.default_rng(34)
    for sp in _random_splines(rng, 300):
        k0 = sp.knots[0]
        ys = np.concatenate([rng.uniform(0, 1, 10), sp.knots, [1.0],
                             k0 * rng.uniform(0, 1, 4), [k0 * 1e-9],
                             np.nextafter(sp.knots, 0), np.nextafter(sp.knots[:-1], 1)])
        ys = ys[ys > 0]
        cases = [ys, ys.reshape(-1, 1), list(ys[:3]), np.array([]), np.asarray(0.5),
                 np.float64(k0 / 2), 1.0, 1, k0, float(ys[0])]
        for f, ref in ((sp.value, reference_spline_value),
                       (sp.derivative, reference_spline_derivative)):
            for y in cases:
                assert _same(f(y), ref(sp, y)), (sp.to_dict(), y)


@pytest.mark.parametrize("y", [0.0, -0.5, 1.5, [0.5, 0.0], np.array([2.0]), [0.3, 1.0000001]])
def test_spline_evaluation_outside_the_domain_matches_the_reference(y):
    sp = build_spline(np.array([0.3, 0.7]), np.array([0.0, 0.7]), 0.1, ystar=0.5)
    for f, ref in ((sp.value, reference_spline_value),
                   (sp.derivative, reference_spline_derivative)):
        with pytest.raises(SplineError) as exc:
            f(y)
        with pytest.raises(SplineError) as ref_exc:
            ref(sp, y)
        assert str(exc.value) == str(ref_exc.value) == "control costs are defined on (0, 1]"


def test_equilibrium_check_matches_the_pair_loop():
    rng = np.random.default_rng(35)
    for _ in range(150):
        shape = tuple(int(k) for k in rng.integers(1, 6, size=int(rng.integers(2, 4))))
        g = random_game(rng, shape)
        prof = MixedProfile(g, [rng.dirichlet(np.ones(k)) for k in shape])
        splines = []
        for i, k in enumerate(shape):
            # half the players get the profile's own splines (defects near
            # 0), half a spline of another vector (defects of order 1)
            own = rng.random() < 0.5
            sig = prof.vectors[i] if own else rng.dirichlet(np.ones(k))
            eu = expected_utility(g, prof, i) if own else rng.uniform(-3, 3, k)
            eu = np.sort(eu)[np.argsort(np.argsort(sig))]
            splines.append(build_spline(sig, eu, 0.1))
        ccg = ControlCostGame(g, tuple(splines))
        ok, worst, per_player = cc_equilibrium_check(ccg, prof)
        ref_worst, ref_per_player = reference_foc_defects(ccg, prof)
        assert type(ok) is bool and type(worst) is float
        assert all(type(d) is float for d in per_player)
        assert worst.hex() == float(ref_worst).hex()
        assert [d.hex() for d in per_player] == [float(d).hex() for d in ref_per_player]
        assert ok == (ref_worst < 1e-9)


@pytest.mark.parametrize("p2", [[1e-170, 1.0], [1e-170, 0.5, 0.5], [1.0, 1e-170, 1e-170]])
def test_equilibrium_check_keeps_an_infinite_defect(p2):
    # 1e-170 squares to 0 in the tail, so its slope is -inf: its gaps
    # against finite slopes are inf, and a NaN from -inf - -inf (two such
    # entries, or one against itself) must not hide them
    k = len(p2)
    g = Game(["P1", "P2"], {"P1": ["a1", "a2"], "P2": [f"b{j}" for j in range(k)]},
             np.stack(np.broadcast_arrays([[1.0], [0.0]], np.linspace(1, 0, k)), axis=-1))
    prof = MixedProfile(g, [np.array([0.6, 0.4]), np.linspace(2, 1, k) / np.linspace(2, 1, k).sum()])
    ccg = ControlCostGame(g, _profile_splines(g, prof))
    at = MixedProfile(g, [prof.vectors[0], np.array(p2)])
    # the check itself warns of neither (RuntimeWarnings are errors here)
    ok, worst, per_player = cc_equilibrium_check(ccg, at)
    with pytest.warns(RuntimeWarning):  # the zero square, and the NaN gap
        ref_worst, ref_per_player = reference_foc_defects(ccg, at)
    assert (ok, worst, per_player[1]) == (False, np.inf, np.inf)
    assert per_player[0] < 1e-9
    assert [d.hex() for d in per_player] == [float(d).hex() for d in ref_per_player]
    assert worst == ref_worst


@pytest.mark.parametrize("field,index,bad", [
    ("knots", 1, np.nan), ("knots", 0, -np.inf), ("slopes", 0, -np.inf), ("slopes", 1, np.nan),
])
def test_non_finite_spline_rejected(field, index, bad):
    doc = build_spline(np.array([0.4, 0.6]), np.array([0.0, 0.6]), 0.1).to_dict()
    doc[field][index] = bad
    with pytest.raises(SplineError, match=f"^{field} must be finite$"):
        ControlCostSpline.from_dict(doc)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_underflowing_square_gives_an_infinite_slope_without_a_warning():
    sp = build_spline(np.array([0.4, 0.6]), np.array([0.0, 0.6]), 0.1)
    assert sp.derivative(1e-170) == -np.inf
    out = sp.derivative(np.array([1e-170, 1e-100, 0.5]))
    assert out[0] == -np.inf and np.isfinite(out[1:]).all()
    assert out[1:].tobytes() == reference_spline_derivative(sp, np.array([1e-100, 0.5])).tobytes()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_overflowing_tail_gives_an_infinite_cost_without_a_warning():
    """B / y overflows to -inf for y below about |B| / 1.8e308, so the tail
    A - B / y is +inf, as the derivative's B / y**2 is -inf once y**2
    underflows."""
    sp = build_spline([0.6, 0.4], [1.0, 0.5], 0.1)
    for y in (1e-310, 5e-324):
        assert sp.value(y) == np.inf
    out = sp.value(np.array([1e-310, 5e-324, 1e-100, 0.5]))
    assert (out[:2] == np.inf).all() and np.isfinite(out[2:]).all()
    assert out[2:].tobytes() == reference_spline_value(sp, np.array([1e-100, 0.5])).tobytes()


@pytest.mark.parametrize("y", [np.nan, [0.5, np.nan], np.array([[np.nan]])])
def test_nan_point_rejected(y):
    sp = build_spline(np.array([0.4, 0.6]), np.array([0.0, 0.6]), 0.1)
    for f in (sp.value, sp.derivative):
        with pytest.raises(SplineError, match=r"^control costs are defined on \(0, 1\]$"):
            f(y)


@pytest.mark.parametrize("utilities", [[np.nan, 0.0], [0.0, np.nan, 1.0], [np.inf, 0.0],
                                       [-np.inf, -np.inf]])
def test_induced_qrf_rejects_utilities_without_a_finite_maximum(utilities):
    sp = build_spline(np.array([0.4, 0.6]), np.array([0.0, 0.6]), 0.1)
    with pytest.raises(SplineError, match="finite maximum"):
        induced_qrf(sp, utilities)


def test_derivative_inverse_rejects_nan_and_gives_minus_inf_no_mass():
    sp = build_spline(np.array([0.4, 0.6]), np.array([0.0, 0.6]), 0.1)
    with pytest.raises(SplineError, match="NaN"):
        sp.derivative_inverse(np.nan)
    assert sp.derivative_inverse(-np.inf) == 0.0
    assert induced_qrf(sp, [-np.inf, 0.0]).tolist() == [0.0, 1.0]


def test_induced_qrf_equal_utilities_uniform():
    sp = build_spline(np.array([0.25, 0.75]), np.array([0.0, 1.0]), 0.1)
    out = induced_qrf(sp, np.array([2.0, 2.0, 2.0]))
    assert np.allclose(out, 1 / 3, atol=1e-9)


def test_induced_qrf_round_trip(gamma1):
    prof = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.7, "a2": 0.3}, "P2": {"b1": 0.6, "b2": 0.4}}
    )
    for i in range(2):
        eu = expected_utility(gamma1, prof, i)
        sp = build_spline(prof.vectors[i], eu, 0.1)
        out = induced_qrf(sp, eu)
        assert np.max(np.abs(out - prof.vectors[i])) < 1e-9


def test_induced_qrf_matches_grid_maximization():
    rng = np.random.default_rng(8)
    for _ in range(5):
        g = random_game(rng, (2, 3))
        prof = random_monotone_profile(g, rng)
        if prof is None:
            continue
        sp = build_spline(prof.vectors[0], expected_utility(g, prof, 0), 0.3)
        x = rng.uniform(-2, 2, size=2)
        best = induced_qrf(sp, x)

        def objective(p0):
            p = np.array([p0, 1 - p0])
            return x @ p - sp.value(p).sum()

        grid = np.linspace(1e-9, 1 - 1e-9, 200_001)
        vals = x[0] * grid + x[1] * (1 - grid) - (sp.value(grid) + sp.value(1 - grid))
        p_star = grid[int(np.argmax(vals))]
        assert abs(best[0] - p_star) < 1e-4
        assert objective(best[0]) >= max(vals) - 1e-9


def test_spline_qrf_regular():
    sp = build_spline(np.array([0.2, 0.35, 0.45]), np.array([0.0, 0.5, 1.3]), 0.15)
    assert_regular_qrf(SplineQRF(sp), 3, samples=80, seed=5)


def test_serialization_round_trip():
    sp = build_spline(np.array([0.3, 0.7]), np.array([0.0, 0.7]), 0.1,
                      y0=0.1, ystar=0.5)
    doc = sp.to_dict()
    text = json.dumps(doc, sort_keys=True)
    sp2 = ControlCostSpline.from_dict(json.loads(text))
    assert json.dumps(sp2.to_dict(), sort_keys=True) == text
    ys = np.linspace(0.01, 1.0, 57)
    assert np.array_equal(sp.value(ys), sp2.value(ys))


def test_ystar_calibration_guarantee():
    sp = build_spline(np.array([0.3, 0.7]), np.array([0.0, 0.7]), 0.1,
                      y0=0.05, ystar=0.2)
    assert sp.ystar == 0.2
    # value at the calibration point undercuts the next level up by < eps
    assert sp.value(0.2) < sp.value(0.3) + 0.1
    assert np.all(np.diff(sp.slopes) > 0)
    # ystar = 0.15 is out of reach for every strictly convex f: the
    # first-order condition gives f'(0.3) = f'(0.7) - 0.7 < -0.7, so
    # f' < -0.7 on [0.15, 0.3] and f(0.15) - f(0.3) > 0.7 * 0.15 > eps.
    # This construction sets f'(0.7) = -eps, so f' < -0.8 below 0.3 and the
    # bound is feasible only for ystar > 0.3 - eps / 0.8 = 0.175.
    with pytest.raises(CalibrationError):
        build_spline(np.array([0.3, 0.7]), np.array([0.0, 0.7]), 0.1,
                     y0=0.05, ystar=0.15)


def test_ystar_collision_rejected():
    with pytest.raises(CalibrationError):
        build_spline(np.array([0.3, 0.7]), np.array([0.0, 0.7]), 0.1, ystar=0.3)


def test_ystar_slope_validation():
    # the slopes next to ystar = 0.15 are m0 = -0.9 and -0.8, so a slope of
    # 5.0 would break convexity and takes their midpoint instead
    sp = build_spline(np.array([0.3, 0.7]), np.array([0.0, 0.7]), 0.1,
                      y0=0.05, ystar=0.15, ystar_slope=5.0)
    pos = int(np.searchsorted(sp.knots, 0.15))
    assert sp.knots[pos] == 0.15
    assert sp.slopes[pos] == 0.5 * (sp.slopes[pos - 1] + sp.slopes[pos + 1])
    assert sp.calibration["slope"] == sp.slopes[pos]
    assert np.all(np.diff(sp.slopes) > 0)


def test_random_round_trip_property():
    rng = np.random.default_rng(13)
    done = 0
    while done < 60:
        g = random_game(rng)
        prof = random_monotone_profile(g, rng)
        if prof is None:
            continue
        ccg = ControlCostGame(g, _profile_splines(g, prof, eps=float(rng.uniform(0.01, 1.0))))
        ok, defect, _ = cc_equilibrium_check(ccg, prof)
        assert ok, f"defect {defect}"
        done += 1


def test_vanishing_sequence_gamma1(gamma1):
    profs = [
        qre_fixed_point(gamma1, [LogisticQRF(lam)] * 2).profile
        # at lam = 1000, sigma(a2) ~ e^-1000 is below the smallest double;
        # past lam ~ 350 the spline tail m0 * y0^2 underflows as well
        for lam in (1, 10, 100, 300)
    ]
    vs = vanishing_sequence(gamma1, profs)
    assert len(vs.entries) >= 3
    sups = [e.sup_norms.max() for e in vs.entries]
    assert all(b <= a * (1 + 1e-9) + 1e-12 for a, b in zip(sups, sups[1:]))
    for e in vs.entries:
        assert e.foc_defect < 1e-9
    assert nash_defect(gamma1, profs[-1]) < 1e-6


def test_vanishing_sequence_skips_profiles_over_the_budget(gamma1):
    """Gamma1's logit path to lambda = 300 tends to (a1, b1), where a2 and b2
    sit below the best reply (case 2): a profile kept at step t plays them
    with probability below 1/t.  Profile 0 is kept at t = 2; at t = 3,
    profiles 1-17 still play a2 with probability 1/3 or more and are
    skipped, and every later profile is kept, one per step."""
    path = trace_logit_path(gamma1, default_lambda_schedule(lam_max=300))
    profs = [p.profile for p in path.points if p.lam > 0]
    assert len(profs) == 40
    assert all(p.vectors[0][1] >= 1 / 3 for p in profs[1:18])
    assert profs[18].vectors[0][1] < 1 / 3
    vs = vanishing_sequence(gamma1, profs)
    assert [e.source_index for e in vs.entries] == [0] + list(range(18, 40))
    assert all(e.cases == (2, 2) for e in vs.entries)
    eps = [e.epsilon for e in vs.entries]
    assert eps[:2] == [0.5 / 2, 0.5 / 3]
    assert all(b < a for a, b in zip(eps, eps[1:]))
    for e in vs.entries:
        assert cc_equilibrium_check(e.cc_game, profs[e.source_index])[0]
    sups = [e.sup_norms.max() for e in vs.entries]
    assert all(b < a for a, b in zip(sups, sups[1:]))


def test_vanishing_sequence_skips_profiles_over_the_spread_budget():
    """The battle of the sexes' mixed equilibrium makes both actions best
    replies of both players (case 3).  Along x = (2/3 - s, 1/3 + s),
    y = (1/3 + s, 2/3 - s) each player's utility spread is 3s, and a
    profile kept at step t needs 3s <= 1/t.  Profiles 0-2 (s near 0.1) are
    kept at t = 1-3; at t = 4 profiles 3-15 are skipped and 16 is the first
    with s <= 1/12; at t = 5 no s near 0.08 is within 0.2, so the next is
    profile 20."""
    payoffs = np.stack([[[2.0, 0.0], [0.0, 1.0]], [[1.0, 0.0], [0.0, 2.0]]], axis=-1)
    bos = Game(["P1", "P2"], {"P1": ["a1", "a2"], "P2": ["b1", "b2"]}, payoffs)
    ss = list(np.linspace(0.1, 0.08, 20)) + [1e-3, 1e-5, 1e-7, 1e-8]
    profs = [MixedProfile(bos, [np.array([2 / 3 - s, 1 / 3 + s]),
                                np.array([1 / 3 + s, 2 / 3 - s])]) for s in ss]
    vs = vanishing_sequence(bos, profs)
    assert [e.source_index for e in vs.entries] == [0, 1, 2, 16, 20, 21, 22, 23]
    assert all(e.cases == (3, 3) for e in vs.entries)
    for e in vs.entries:
        assert cc_equilibrium_check(e.cc_game, profs[e.source_index])[0]


def test_vanishing_sequence_skips_profiles_over_the_zero_budget(gamma2c22):
    """Along v = (1.5t, 1 - 2.5t, t) Gamma2(2,2) tends to (a2, b2), whose
    best reply is the only action played (case 1): a profile kept at step T
    plays the limit's zero-probability actions with probability below 1/T.
    With t from 0.12 down to 0.09, profiles 0-4 are kept at T = 1-5, then
    profile 8 (1.5t < 1/6) and profile 20 (1.5t < 1/7); no t near 0.09
    gives 1.5t < 1/8, so the next is profile 25."""
    ts = list(np.linspace(0.12, 0.09, 25)) + [1e-3, 1e-5, 1e-7]
    profs = [MixedProfile(gamma2c22, [v, v])
             for v in (np.array([1.5 * t, 1 - 2.5 * t, t]) for t in ts)]
    vs = vanishing_sequence(gamma2c22, profs)
    assert [e.source_index for e in vs.entries] == [0, 1, 2, 3, 4, 8, 20, 25, 26, 27]
    assert all(e.cases == (1, 1) for e in vs.entries)
    for e in vs.entries:
        assert cc_equilibrium_check(e.cc_game, profs[e.source_index])[0]


def test_vanishing_sequence_gamma2c_to_a2b2(gamma2c22):
    seq = []
    for t in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6, 1e-7):
        v = np.array([1.5 * t, 1 - 2.5 * t, t])
        prof = MixedProfile(gamma2c22, [v, v])
        assert is_payoff_monotone(gamma2c22, prof).satisfied
        seq.append(prof)
    vs = vanishing_sequence(gamma2c22, seq)
    assert len(vs.entries) >= 4
    # the certified limit is the middle equilibrium
    assert vs.limit.vectors[0][1] == pytest.approx(1.0, abs=1e-9)
    sups = [e.sup_norms.max() for e in vs.entries]
    assert all(b <= a * (1 + 1e-9) for a, b in zip(sups, sups[1:]))
    assert sups[-1] < 0.1


def test_vanishing_rejects_boundary_profiles(gamma1):
    pure = MixedProfile.pure(gamma1, {"P1": "a1", "P2": "b1"})
    with pytest.raises(ValueError, match="interior"):
        vanishing_sequence(gamma1, [pure])


def test_vanishing_rejects_non_nash_terminal(gamma1):
    prof = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.75, "a2": 0.25}, "P2": {"b1": 0.75, "b2": 0.25}}
    )
    with pytest.raises(ValueError, match="defect"):
        vanishing_sequence(gamma1, [prof])


def test_vanishing_rejects_non_monotone(gamma1):
    bad = MixedProfile.from_dict(
        gamma1, {"P1": {"a1": 0.25, "a2": 0.75}, "P2": {"b1": 0.9, "b2": 0.1}}
    )
    with pytest.raises(ValueError, match="monotone"):
        vanishing_sequence(gamma1, [bad])


def test_vanishing_case3_flat_game():
    from empeq.game import Game

    g = Game(["P1", "P2"], {"P1": ["x", "y"], "P2": ["u", "v"]},
             np.full((2, 2, 2), 1.0))
    profs = [MixedProfile.uniform(g) for _ in range(4)]
    vs = vanishing_sequence(g, profs)
    assert vs.entries
    assert all(case == 3 for e in vs.entries for case in e.cases)
