import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.optimize import linprog

from empeq import corpus, nash, search
from empeq.cli import _fmt12
from empeq.empirical import DEFAULT_DELTAS
from empeq.game import Game, MixedProfile, unit_view, utility_vector
from empeq.monotone import is_payoff_monotone
from empeq.nash import DEFAULT_EPS_SCHEDULE, DELTA_FACTOR, enumerate_nash

from conftest import corpus_games, integer_games, random_game


def _pattern_lps(monkeypatch, games):
    """Every slack LP that the closure test (m in (1, 0.5)) and the proper
    search (largest and smallest default eps) solve at each equilibrium of
    `games`, each with its presolve setting, and the searches that solved
    at least one."""
    lps, sources = [], set()
    solve = search.solve_player_lp

    def record(lo, hi, strict, weak, eq, presolve=True):
        lps.append((lo, hi, strict, weak, eq, presolve))
        sources.add(source)
        return solve(lo, hi, strict, weak, eq, presolve)

    monkeypatch.setattr(search, "solve_player_lp", record)
    for game in games:
        for profile in enumerate_nash(game).isolated:
            for m in (1.0, 0.5):
                source = f"closure m={m:g}"
                search.monotone_pattern_search(game, profile, min(DEFAULT_DELTAS), m=m)
            for eps in (max(DEFAULT_EPS_SCHEDULE), min(DEFAULT_EPS_SCHEDULE)):
                source = "proper"
                search.proper_pattern_search(game, profile, eps, DELTA_FACTOR * eps)
    monkeypatch.undo()
    return lps, sources


def _solve_reference(lo, hi, strict, weak, eq, presolve):
    """The slack LP through scipy's linprog, its blocks split by hand."""
    n = len(lo)
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.concatenate([np.column_stack([-strict[:, :n], np.ones(len(strict))]),
                           np.column_stack([-weak[:, :n], np.zeros(len(weak))])])
    b_ub = np.concatenate([strict[:, n], weak[:, n]])
    a_eq = np.column_stack([eq[:, :n], np.zeros(len(eq))])
    bounds = [(float(l), float(h)) for l, h in zip(lo, hi)] + [(-10.0, 10.0)]
    res = linprog(c, A_ub=a_ub if len(a_ub) else None, b_ub=b_ub if len(b_ub) else None,
                  A_eq=a_eq if len(a_eq) else None, b_eq=-eq[:, n] if len(a_eq) else None,
                  bounds=bounds, method="highs",
                  options=dict(search._HIGHS_OPTS, presolve=presolve))
    if not res.success:
        return float("-inf"), None
    return float(res.x[-1]), res.x[:-1]


def _assert_same(results, reference):
    for (s, x), (s_ref, x_ref) in zip(results, reference, strict=True):
        assert s == s_ref
        assert (x is None) == (x_ref is None)
        if x is not None:
            assert np.array_equal(x, x_ref)


def test_slack_lp_matches_linprog_reference(monkeypatch):
    """Both solver paths give linprog's slack and argmax to the bit, with
    presolve on and off: the direct HiGHS call, on the thread's shared
    instances, and the linprog call kept for scipy builds without HiGHS
    bindings."""
    rng = np.random.default_rng(1)
    games = [random_game(rng, shape=(k, k)) for k in (3, 4, 5)]
    games.append(corpus.gamma2c(0.5, 0.5))  # closure LPs with slack <= 0
    # the proper search tries only the tie-block patterns, so games with
    # ties and components keep the LP count up
    games += [corpus.phi()] + integer_games(8)
    lps, sources = _pattern_lps(monkeypatch, games)
    reference = [_solve_reference(*lp) for lp in lps]
    assert len(lps) > 100
    # generic candidates skip the m = 1 closure LP (_strict_order_witness)
    assert {"closure m=0.5", "proper"} <= sources
    assert any(x is None for _, x in reference)
    assert any(s > 0 for s, _ in reference)
    assert any(s <= 0 and x is not None for s, x in reference)
    assert any(len(weak) for _, _, _, weak, _, _ in lps)
    assert {presolve for *_, presolve in lps} == {False, True}
    assert search._highs() is not None
    _assert_same([search.solve_player_lp(*lp) for lp in lps], reference)
    monkeypatch.setattr(search, "_HIGHS", None)
    _assert_same([search.solve_player_lp(*lp) for lp in lps], reference)


def test_shared_solver_gives_the_bits_of_a_new_instance(monkeypatch):
    """Each LP passes its whole model, so the thread's shared instance
    gives the slack and argmax of a new one whatever it solved before: the
    pattern LPs in a shuffled order against one new instance each."""
    games = [corpus.phi(), corpus.gamma2c(2, 2)] + integer_games(8)
    lps, _ = _pattern_lps(monkeypatch, games)
    assert len(lps) > 100
    order = np.random.default_rng(7).permutation(len(lps))
    fresh = []
    for k in order:
        monkeypatch.setattr(search, "_SOLVERS", search._Solvers())
        fresh.append(search.solve_player_lp(*lps[k]))
    monkeypatch.undo()
    _assert_same([search.solve_player_lp(*lps[k]) for k in order], fresh)


def test_a_rejected_model_raises_instead_of_solving_the_last_one():
    a, rhs, ub = np.array([[1.0, 1.0]]), np.array([1.0]), np.ones(2)
    assert search.solve_lp(np.array([-1.0, 0.0]), a, 1, rhs, np.zeros(2), ub).tolist() == [1.0, 0.0]
    # HiGHS refuses a NaN bound; the shared instance still holds the LP above
    with pytest.raises(RuntimeError, match="HiGHS rejected an LP model"):
        search.solve_lp(np.array([-1.0, 0.0]), a, 1, rhs, np.array([np.nan, 0.0]), ub)


def _summary(verdict, closure):
    """The proper verdict and the closure outcomes, witnesses as bytes."""
    def vectors(profile):
        return None if profile is None else [v.tobytes() for v in profile.vectors]
    return ((verdict.status, [(eps, vectors(w)) for eps, w in verdict.witnesses],
             verdict.certificate, verdict.notes),
            [(out.outcome, out.tried, vectors(out.witness)) for out in closure])


def test_threads_solve_on_their_own_instances():
    """Threads running the proper check and the closure test at once, in
    different orders and more of them than cores, get one thread's
    results, each on its own HiGHS instances."""
    games = [corpus.phi(), corpus.gamma2c(2, 2), corpus.gamma2c(0.5, 0.5)] + integer_games(12)
    jobs = [(game, p) for game in games for p in enumerate_nash(game).isolated]
    delta = min(DEFAULT_DELTAS)

    def run(jobs, start=None):
        if start is not None:
            start.wait(timeout=60)
        out = [_summary(nash.check_proper(game, p),
                        [search.monotone_pattern_search(game, p, delta, m=m) for m in (1.0, 0.5)])
               for game, p in jobs]
        return out, dict(search._SOLVERS.by_presolve)

    alone, main_solvers = run(jobs)
    orders = [list(range(len(jobs))), list(range(len(jobs)))[::-1]]
    orders += [np.random.default_rng(k).permutation(len(jobs)).tolist() for k in range(2)]
    start = threading.Barrier(len(orders))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads between HiGHS calls
    try:
        with ThreadPoolExecutor(max_workers=len(orders)) as pool:
            futures = [pool.submit(run, [jobs[k] for k in order], start) for order in orders]
            results = [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    solvers = [main_solvers]
    for order, (got, by_presolve) in zip(orders, results):
        assert got == [alone[k] for k in order]
        assert set(by_presolve) == {False, True}
        solvers.append(by_presolve)
    ids = [id(highs) for by_presolve in solvers for highs in by_presolve.values()]
    assert len(set(ids)) == len(ids)



def _project_side_reference(target, side):
    """`nash._project_side` through scipy's linprog."""
    own = list(side.own)
    x0, null = side.x0, side.null
    r = null.shape[1]
    p = target[own]
    off = np.delete(target, own)
    ones = np.ones((len(own), 1))
    a_ub = np.block([[null, -ones], [-null, -ones],
                     [-(side.g @ null), np.zeros((len(side.g), 1))]])
    b_ub = np.concatenate([p - x0, x0 - p, side.g @ x0])
    cost = np.zeros(r + 1)
    cost[-1] = 1.0
    s_lo = float(off.max()) if off.size else 0.0
    res = linprog(cost, A_ub=a_ub, b_ub=b_ub, bounds=[(None, None)] * r + [(s_lo, None)],
                  method="highs", options=search._HIGHS_OPTS)
    if not res.success:
        return None
    return nash._embed(len(target), own, np.clip(x0 + null @ res.x[:r], 0.0, None))


def _mixed_dominance_reference(game, sig, i):
    """`search._mixed_dominance` through scipy's linprog."""
    u = search._util_coefs(unit_view(game), 1 - i)
    res = linprog(-u.sum(axis=1), A_ub=-u.T, b_ub=-(sig @ u), A_eq=np.ones((1, len(sig))),
                  b_eq=[1.0], bounds=(0.0, 1.0), method="highs", options=search._HIGHS_OPTS)
    if not res.success:
        return None
    mu = np.clip(res.x, 0.0, None)
    mu /= mu.sum()
    gain = (mu - sig) @ u
    if gain.min() < -1e-9 or not gain.max() > 1e-9:
        return None
    player = game.players[i]
    return {"kind": "mixed-dominance", "player": player,
            "dominating": {game.actions[player][a]: float(mu[a]) for a in np.flatnonzero(mu)}}


def test_projection_and_dominance_lps_match_linprog_reference(monkeypatch):
    """Face projections and mixed-dominance certificates come out of the
    direct HiGHS call, and out of the linprog fallback, as they came out of
    linprog, to the bit."""
    rng = np.random.default_rng(3)
    projections, dominance = [], []
    for game in integer_games(30):
        eq = enumerate_nash(game)
        for diag in eq.diagnostics:
            for k, side in zip(game.action_counts, diag.sides or ()):
                projections.append((rng.dirichlet(np.ones(k) * 0.5), side))
        for i, k in enumerate(game.action_counts):
            strategies = [p.vectors[i] for p in eq.isolated] + [rng.dirichlet(np.ones(k))]
            dominance += [(game, sig, i) for sig in strategies + list(np.eye(k))]
    ref_proj = [_project_side_reference(*args) for args in projections]
    ref_dom = [_mixed_dominance_reference(*args) for args in dominance]
    assert len(projections) > 50 and any(v is not None for v in ref_proj)
    assert any(c is None for c in ref_dom) and any(c is not None for c in ref_dom)
    for _ in range(2):
        got = [nash._project_side(*args) for args in projections]
        assert all((v is None) == (r is None) for v, r in zip(got, ref_proj, strict=True))
        assert all(np.array_equal(v, r) for v, r in zip(got, ref_proj) if v is not None)
        assert [search._mixed_dominance(*args) for args in dominance] == ref_dom
        monkeypatch.setattr(search, "_HIGHS", None)  # then the linprog fallback


def _all_singleton_blocks(game, profile):
    blocks = [search._tie_blocks((profile.vectors[i], utility_vector(game, i, profile.vectors)))
              for i in range(2)]
    return all(len(b) == 1 for player in blocks for b in player)


def test_closed_form_witness_agrees_with_closure_lp(monkeypatch):
    """The m = 1 closed form and the closure LP give every isolated
    equilibrium the same outcome and pattern count.  The closed form runs
    only when every tie block is a singleton, never for m < 1, and each of
    its witnesses stays payoff monotone as the CLI prints it, rounded to 12
    significant digits."""
    rng = np.random.default_rng(5)
    games = [random_game(rng, shape=(k, k)) for k in (4, 5, 6, 7, 8) for _ in range(2)]
    games += integer_games(400) + corpus_games()
    delta = min(DEFAULT_DELTAS)
    closed_form = search._strict_order_witness
    calls, taken = [], 0

    def counted(*args):
        calls.append(closed_form(*args))
        return calls[-1]

    for game in games:
        for profile in enumerate_nash(game).isolated:
            for m in (1.0, 0.5):
                calls.clear()
                monkeypatch.setattr(search, "_strict_order_witness", counted)
                fast = search.monotone_pattern_search(game, profile, delta, m=m)
                assert len(calls) == (m == 1.0 and _all_singleton_blocks(game, profile))
                if not calls:
                    continue
                monkeypatch.setattr(search, "_strict_order_witness", lambda *args: None)
                lp = search.monotone_pattern_search(game, profile, delta, m=m)
                assert (fast.outcome, fast.tried) == (lp.outcome, lp.tried)
                if calls[0] is None:
                    continue
                taken += 1
                assert fast.witness is calls[0]
                assert search.witness_ok(game, fast.witness, profile, delta, m)
                printed = MixedProfile(game, [[_fmt12(x) for x in v] for v in fast.witness.vectors])
                assert is_payoff_monotone(game, printed).satisfied
    assert taken > 40


# Payoff tables (P1, P2) of two uniform [0, 1) games, random4x4-70 of the
# benchmark's random-generic workload at seed 508 and random6x6-45 at seed
# 509.  At one equilibrium of each, the closure LP's point moved onto the ray
# at distance delta has a utility step under TIE_TOL.
_RAY_RECHECK_PAYOFFS = (
    (
        [
            [0.8012077674157795, 0.7514991457318858, 0.1455945351872615,
             0.4261920485561169],
            [0.46252872408535084, 0.43459292380612746, 0.4339261356325126,
             0.7299837077361565],
            [0.29358939471624457, 0.08862826792590695, 0.1372141470386401,
             0.8430242525399012],
            [0.5197888057142609, 0.6050087481737259, 0.9341428809233088,
             0.678604109492342],
        ],
        [
            [0.47254278185950904, 0.2534611175919693, 0.42155364655860406,
             0.8833498964829208],
            [0.7127068074850905, 0.03346649607382968, 0.4772909069450456,
             0.1933974651454775],
            [0.49189522860857904, 0.3359922373753905, 0.18841665696652155,
             0.2180370938066617],
            [0.7575045213915582, 0.29238426873689083, 0.8070420638798563,
             0.8674331324783184],
        ],
    ),
    (
        [
            [0.7893776820202258, 0.7551921608106319, 0.7842029228546048,
             0.5380790447507894, 0.15969849513022039, 0.9115678359631403],
            [0.8332440074505337, 0.5826303726831977, 0.4225658244780043,
             0.9124650865435401, 0.9317307050365736, 0.6446627404264303],
            [0.912890588046825, 0.21603563553685268, 0.724273858662369,
             0.5774588204742408, 0.4151777586096409, 0.8643832031313528],
            [0.3214251689428297, 0.6800708545798319, 0.5947252240398633,
             0.4588476727389683, 0.8230580691231066, 0.3404614468726441],
            [0.4801605639238732, 0.6684453951736529, 0.2522985439045783,
             0.2433943060858169, 0.070230953747343, 0.9408527332719268],
            [0.6900425374139351, 0.25868050026922884, 0.46785617758254416,
             0.998046455634594, 0.45918593405588826, 0.6031813480995925],
        ],
        [
            [0.6934430261278489, 0.6489976257952981, 0.8101640302421348,
             0.7352005740685731, 0.6802745260308695, 0.059493316777188054],
            [0.9569970764407855, 0.2676710342794032, 0.4974554657838416,
             0.13660931051978908, 0.8179496993213964, 0.4910039280904033],
            [0.3537202373661855, 0.47908320526191994, 0.5647870754411296,
             0.30810923071750174, 0.931108204842768, 0.837664131891203],
            [0.6711767605592562, 0.5797514212910995, 0.6834324527209445,
             0.44298025899195714, 0.9435421626939972, 0.46200103141475346],
            [0.5296659965360444, 0.30710113434315867, 0.19590681675226418,
             0.7218783846349236, 0.7546628163524541, 0.4290757781273735],
            [0.9029104124185031, 0.5006501034193315, 0.7904903353842565,
             0.33634499114684246, 0.7116368708121837, 0.6863468836237736],
        ],
    ),
)


def test_closure_witness_passes_its_recheck(monkeypatch):
    """With the closed form off, every equilibrium of these games is
    feasible for the closure test, with a witness that passes `witness_ok`.
    For one equilibrium of each the ray point fails the re-check, and
    the same pattern's LP, solved once more inside the delta box, gives the
    witness: one LP beyond the patterns tried."""
    monkeypatch.setattr(search, "_strict_order_witness", lambda *args: None)
    solve, solved = search.solve_player_lp, []

    def counted(*lp, **options):
        solved.append(lp)
        return solve(*lp, **options)

    monkeypatch.setattr(search, "solve_player_lp", counted)
    delta = min(DEFAULT_DELTAS)
    for payoffs in _RAY_RECHECK_PAYOFFS:
        n = len(payoffs[0])
        game = Game(["P1", "P2"], {"P1": [f"a{k}" for k in range(n)],
                                   "P2": [f"b{k}" for k in range(n)]},
                    np.stack(payoffs, axis=-1))
        boxed = 0
        for profile in enumerate_nash(game).isolated:
            solved.clear()
            out = search.monotone_pattern_search(game, profile, delta)
            assert out.outcome == search.OUTCOME_FEASIBLE
            assert search.witness_ok(game, out.witness, profile, delta, 1.0)
            boxed += len(solved) == out.tried + 1
        assert boxed == 1


def test_tie_blocks_link_chained_ties():
    # 0.7e-9 steps chain four actions into one block, though the ends
    # differ by more than TIE_TOL; blocks keep action order
    chained = 1 - np.array([1.4, 0.7, 0.0, 1.4]) * 1e-9
    assert search._tie_blocks((chained,)) == [[0, 1, 2, 3]]
    assert search._tie_blocks((np.array([0.0, 0.0, 1.0, 0.0]), chained)) == [[2], [0, 1, 3]]
    # the first vector ranks first, the second breaks its ties
    values = (np.array([0.5, 0.5, 0.0]), np.array([0.0, 1.0, 1.0]))
    assert search._tie_blocks(values) == [[1], [0], [2]]


def test_opposite_block_orders_meet_no_pattern():
    # P1 plays a0 more than a1 though a1 earns more: x and u order the two
    # blocks in opposite directions, so no m = 1 pattern meets the candidate
    payoffs = np.zeros((2, 2, 2))
    payoffs[1, :, 0] = 1.0
    game = Game(["P1", "P2"], {"P1": ["a0", "a1"], "P2": ["b0", "b1"]}, payoffs)
    candidate = MixedProfile(game, [np.array([0.6, 0.4]), np.array([0.5, 0.5])])
    out = search.monotone_pattern_search(game, candidate, min(DEFAULT_DELTAS))
    assert (out.outcome, out.tried) == (search.OUTCOME_REFUTED, 0)


def _constant_game(k):
    return Game(["P1", "P2"], {"P1": [f"a{j}" for j in range(k)],
                               "P2": [f"b{j}" for j in range(k)]}, np.zeros((k, k, 2)))


def test_searches_give_up_past_the_pattern_cap():
    """At the uniform profile of a constant game every action of a player
    ties, so each player's patterns are all weak orders of its actions:
    541 for 5 actions, and the candidate meets every one of them.  541^2
    pattern pairs exceed MAX_PATTERN_PAIRS, and 7 actions have 47,293 weak
    orders, more than the cap on one player's patterns."""
    assert search.n_weak_orders(5) == 541
    assert search.n_weak_orders(6) == 4683 <= search.MAX_PATTERN_PAIRS
    assert search.n_weak_orders(7) == 47293 > search.MAX_PATTERN_PAIRS
    five = _constant_game(5)
    uniform = MixedProfile.uniform(five)
    for m in (1.0, 0.5):
        out = search.monotone_pattern_search(five, uniform, min(DEFAULT_DELTAS), m=m)
        assert (out.outcome, out.tried) == (search.OUTCOME_OPEN, 0)
    out = search.proper_pattern_search(five, uniform, 1e-4, 1e-3)
    assert (out.outcome, out.tried) == (search.OUTCOME_OPEN, 0)
    seven = _constant_game(7)
    out = search.proper_pattern_search(seven, MixedProfile.uniform(seven), 1e-4, 1e-3)
    assert (out.outcome, out.tried) == (search.OUTCOME_OPEN, 0)
