"""Monotonicity moduli: closed forms, characteristics, identities."""

import sys
import threading
import weakref

import numpy as np
import pytest

from latconst import moduli, search
from latconst import (
    FormMax,
    LatticeSpace,
    MaxOf,
    Scale,
    beta_gap_space,
    builtin_space,
    characteristic,
    delta_curve,
    delta_m,
    direct_sum_l1,
    identity_battery,
    lambda_plus,
    linf_space,
    lp,
    lp_space,
    permute_norm,
    random_polyhedral2_space,
    sigma,
    sigma_curve,
)

from oracles import delta_oracle, lp_norm, sigma_oracle


def sigma_closed_form(p, e):
    return (1.0 + e**p) ** (1.0 / p) - 1.0


def delta_closed_form(p, e):
    return 1.0 - (1.0 - e**p) ** (1.0 / p)


def test_sigma_zero_at_zero_exact():
    est = sigma(lp_space(3, 2), 0.0)
    assert est.lower == est.upper == est.estimate == 0.0


def test_delta_zero_at_zero_exact():
    est = delta_m(beta_gap_space(), 0.0)
    assert est.lower == est.upper == est.estimate == 0.0


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.3, 0.7, 1.0])
def test_sigma_lp_closed_form(p, eps):
    est = sigma(lp_space(3, p), eps)
    assert est.estimate == pytest.approx(sigma_closed_form(p, eps), abs=1e-3)


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("eps", [0.3, 0.7, 1.0])
def test_delta_lp_closed_form(p, eps):
    est = delta_m(lp_space(3, p), eps)
    assert est.estimate == pytest.approx(delta_closed_form(p, eps), abs=1e-3)


def test_sigma_linf_vanishes():
    for eps in (0.3, 1.0):
        assert sigma(linf_space(2), eps).estimate <= 1e-9


def test_delta_linf_vanishes_below_one():
    # x = (1,1), y = (0, eps) leaves ||x - y|| = 1
    assert delta_m(linf_space(2), 0.9).estimate <= 1e-9


def test_delta_l1_equals_eps():
    assert delta_m(lp_space(2, 1), 0.5).estimate == pytest.approx(0.5, abs=1e-3)


def test_delta_at_one_is_one_for_strictly_monotone():
    assert delta_m(lp_space(2, 2), 1.0).estimate == pytest.approx(1.0, abs=1e-6)


def test_modulus_witnesses_feasible():
    space = lp_space(3, 2)
    est = sigma(space, 0.6)
    for w in est.witnesses:
        assert space.norm_value(w) == pytest.approx(1.0, abs=1e-9)
        assert np.all(w >= -1e-12)
    est = delta_m(space, 0.6)
    x, y = est.witnesses
    assert space.norm_value(x) == pytest.approx(1.0, abs=1e-9)
    assert np.all(y >= -1e-12) and np.all(y <= x + 1e-12)
    assert space.norm_value(y) >= 0.6 - 1e-9


def test_modulus_eps_out_of_range():
    with pytest.raises(ValueError):
        sigma(lp_space(2, 2), 1.5)
    with pytest.raises(ValueError):
        delta_m(lp_space(2, 2), -0.1)


def test_sigma_against_independent_oracle():
    # simplex-composition oracle, no cube grid, no refinement
    want = sigma_oracle(lp_norm(2), 3, 0.5, 60)
    got = sigma(lp_space(3, 2), 0.5).estimate
    assert got == pytest.approx(want, abs=2e-3)
    assert got == pytest.approx(sigma_closed_form(2, 0.5), abs=1e-6)


def test_delta_against_independent_oracle():
    want = delta_oracle(lp_norm(3), 2, 0.7, 60)
    got = delta_m(lp_space(2, 3), 0.7).estimate
    assert got == pytest.approx(want, abs=2e-2)
    assert got == pytest.approx(delta_closed_form(3, 0.7), abs=1e-6)


def test_characteristics_linf_are_one():
    assert characteristic(linf_space(2), "delta").value == 1.0
    assert characteristic(linf_space(2), "sigma").value == 1.0


def test_characteristics_l1_are_zero():
    assert characteristic(lp_space(2, 1), "delta").value <= 2e-3
    assert characteristic(lp_space(2, 1), "sigma").value <= 2e-3


def test_characteristic_sandwich_l2():
    e0 = characteristic(lp_space(2, 2), "delta").value
    te0 = characteristic(lp_space(2, 2), "sigma").value
    assert e0 <= te0 + 1e-2
    assert te0 <= 2.0 * e0 + 1e-2


def test_identity_battery_lp_square():
    grid = [k / 10.0 for k in range(11)]
    report = identity_battery(lp_space(2, 2), grid)
    failed = [c.name for c in report.checks if not c.informational and not c.passed]
    assert report.passed, failed


def test_identity_battery_l1_theorem_values():
    grid = [k / 10.0 for k in range(11)]
    report = identity_battery(lp_space(2, 1), grid)
    by_name = {c.name: c for c in report.checks}
    # delta at 1/lambda_plus: with the positive-pair constant 2, delta(1/2) = 1/2
    det = by_name["delta_at_inverse_lambda_plus"].details
    assert det["delta"] == pytest.approx(0.5, abs=1e-2)
    assert det["expected"] == pytest.approx(0.5, abs=1e-2)
    # the pointwise ratio formula fails on l1 away from 0
    falsa = by_name["pointwise_ratio_formula"].details
    assert 0.5 in falsa["false_points"]
    assert report.passed


@pytest.mark.parametrize("grid", [[], [0.5, float("nan")], [0.5, 1.5]], ids=["empty", "nan", "above"])
def test_identity_battery_checks_its_grid_first(monkeypatch, grid):
    calls = []
    for fn in ("sigma", "delta_m", "lambda_plus"):
        monkeypatch.setattr(moduli, fn, lambda *a, **k: calls.append(a))
    with pytest.raises(ValueError, match="eps grid"):
        identity_battery(lp_space(2, 2), grid)
    assert calls == []


def test_formula_falsa_values_on_l1():
    space = lp_space(2, 1)
    d = delta_m(space, 0.5).estimate
    s = sigma(space, 0.5).estimate
    assert d == pytest.approx(0.5, abs=1e-2)
    assert s / (1.0 + s) == pytest.approx(1.0 / 3.0, abs=1e-2)


def test_sigma_curve_shape():
    curve = sigma_curve(lp_space(2, 2), [0.0, 0.25, 0.5, 0.75, 1.0])
    estimates = [v.estimate for v in curve.values]
    assert estimates[0] == 0.0
    diffs = np.diff(estimates)
    assert np.all(diffs >= -1e-9)           # non-decreasing
    assert np.all(diffs <= 0.25 + 1e-9)     # 1-Lipschitz on the grid
    assert all(0.0 <= v <= 1.0 for v in estimates)


def _sigma_one_and_lambda_plus(space):
    """sigma(1) + 1 and lambda_plus are one infimum over one net at equal
    budgets: the same bits, up to the shift by 1."""
    s1 = sigma(space, 1.0)
    lam = lambda_plus(space, pair_budget=moduli.DEFAULT_MODULI_BUDGET)
    assert s1.info["resolution"] == lam.info["resolution"]
    assert s1.estimate + 1.0 == lam.estimate
    assert s1.lower + 1.0 == lam.lower
    return s1, lam


def test_sigma_one_is_lambda_plus_lp():
    s1, _ = _sigma_one_and_lambda_plus(lp_space(2, 1.5))
    assert s1.estimate + 1.0 == pytest.approx(2.0 ** (1.0 / 1.5), abs=1e-3)


def test_sigma_one_is_lambda_plus_linf3():
    s1, lam = _sigma_one_and_lambda_plus(linf_space(3))
    assert s1.estimate + 1.0 == pytest.approx(1.0, abs=1e-6)
    assert lam.estimate == pytest.approx(1.0, abs=1e-6)


def test_sigma_one_is_lambda_plus_gap_norm():
    _sigma_one_and_lambda_plus(beta_gap_space())


def test_battery_passes_its_budget_on(monkeypatch):
    calls = []
    real = moduli.lambda_plus
    monkeypatch.setattr(moduli, "lambda_plus", lambda *args: calls.append(args[1:]) or real(*args))
    identity_battery(lp_space(3, 2), [0.0, 1.0], 0.25, 200000)
    assert calls == [(0.25, 200000)]


# ---------------------------------------------------------------------------
# delta's shared net stage
# ---------------------------------------------------------------------------

_SHARE_BUDGET = 20_000
_SHARE_GRID = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0]


def _share_spaces():
    l2 = lp_space(3, 2)
    workload_l2 = LatticeSpace(3, Scale(1.5, permute_norm(l2.norm, (2, 0, 1))))
    return {
        "scaled_l2_3": workload_l2,
        "beta_gap": beta_gap_space(),
        "l1_3": lp_space(3, 1),
        "l15_2": lp_space(2, 1.5),
        "formmax2": random_polyhedral2_space(np.random.default_rng(11)),
    }


def _bits(est):
    return est.to_dict(), est.info, [w.tobytes() for w in est.witnesses]


def _record_delta(monkeypatch):
    """(eps, result) of every delta_m call, in call order."""
    out = []
    real = moduli.delta_m

    def spy(space, eps, *args, **kwargs):
        est = real(space, eps, *args, **kwargs)
        out.append((eps, _bits(est)))
        return est

    monkeypatch.setattr(moduli, "delta_m", spy)
    return out


@pytest.mark.parametrize("name", list(_share_spaces()))
def test_shared_scan_equals_independent_calls(name, monkeypatch):
    space = _share_spaces()[name]
    alone = {}

    def check(calls):
        for e, bits in calls:
            if e not in alone:
                alone[e] = _bits(delta_m(space, e, None, _SHARE_BUDGET))
            assert bits == alone[e], e

    with monkeypatch.context() as m:
        calls = _record_delta(m)
        curve = delta_curve(space, _SHARE_GRID, None, _SHARE_BUDGET)
    assert [e for e, _ in calls] == _SHARE_GRID
    assert [_bits(v) for v in curve.values] == [bits for _, bits in calls]
    check(calls)
    with monkeypatch.context() as m:
        calls = _record_delta(m)
        characteristic(space, "delta", None, _SHARE_BUDGET)
    assert len(calls) > 5
    check(calls)
    memo = {}
    with monkeypatch.context() as m:
        calls = _record_delta(m)
        identity_battery(space, _SHARE_GRID, None, _SHARE_BUDGET, memo=memo)
    # the grid, the shifted arguments, 1/lambda_plus and the characteristic
    assert len(calls) > 2 * len(_SHARE_GRID)
    check(calls)
    deltas = {e: _bits(est) for (which, *_, e), est in memo.items() if which == "delta"}
    assert deltas == {e: alone[e] for e in deltas}


def _stage_spaces():
    weights = [1.0, 2.5, 0.75]
    return {
        "l3_3": lp_space(3, 3),
        "weighted_l15_3": lp_space(3, 1.5, weights=weights),
        "weighted_linf_3": lp_space(3, np.inf, weights=weights),
        "beta_gap": beta_gap_space(),
        "formmax1_3": LatticeSpace(3, FormMax([weights])),
        "formmax7_2": random_polyhedral2_space(np.random.default_rng(5), n_rows=7),
        "blocksum_4": direct_sum_l1(beta_gap_space(), 1),
        "max_scale_3": LatticeSpace(3, Scale(0.7, MaxOf([Scale(1.5, lp(3, 2)), beta_gap_space().norm]))),
    }


@pytest.mark.parametrize("name", list(_stage_spaces()))
def test_delta_net_stage_equals_the_row_major_formula(name):
    # the stage evaluates coordinate-major operands; every value must be the
    # one of the plain row-major products
    space = _stage_spaces()[name]
    # the steps 1/n that the budgets 2e4 and 4e5 resolve to: one strip and several
    for n in {2: (20, 50), 3: (5, 9), 4: (2, 4)}[space.dim]:
        net, tgrid, ynorm, obj, sections = moduli._delta_scan(space, 1 / n)
        pts = net.points
        assert ynorm.shape == obj.shape == (len(pts), len(tgrid))
        assert np.array_equal(ynorm, space.norm_values(pts[:, None, :] * tgrid[None]))
        assert np.array_equal(obj, 1.0 - space.norm_values(pts[:, None, :] * (1.0 - tgrid)[None]))
        for mask, norms in sections:
            assert np.array_equal(norms, space.norm_values(pts * mask[None, :]))


@pytest.mark.parametrize("name", ["linf_2", "beta_gap"])
def test_delta_net_seeds_follow_the_engine_tie_rule(name, monkeypatch):
    # many feasible net pairs tie at delta's floor 0, past the 4th seed: the
    # net seeds delta_m refines are the 4 smallest (value, i, j) of its stage
    space, eps = builtin_space(name), 0.5
    seeds = []
    real = moduli._onto_constraint
    monkeypatch.setattr(moduli, "_onto_constraint",
                        lambda sp, e, x, t: seeds.append((x.copy(), t.copy())) or real(sp, e, x, t))
    h = delta_m(space, eps, None, 200_000).info["resolution"]
    net, tgrid, ynorm, obj, _ = moduli._delta_scan(space, h)
    i, j = np.nonzero(ynorm >= eps - moduli._FEAS_TOL)
    order = np.lexsort((j, i, obj[i, j]))
    assert obj[i[order[3]], j[order[3]]] == obj[i[order[4]], j[order[4]]]
    want = order[: moduli._TOP_K]
    x0, t0 = seeds[0]
    # the component seeds sort after the net seeds they tie with
    assert np.array_equal(x0[: len(want)], net.points[i[want]])
    assert np.array_equal(t0[: len(want)], tgrid[j[want]])


def _count_scans(monkeypatch):
    calls = []
    real = moduli.box_grid
    monkeypatch.setattr(moduli, "box_grid", lambda *args: calls.append(args) or real(*args))
    return calls


def test_delta_curve_builds_one_scan(monkeypatch):
    scans = _count_scans(monkeypatch)
    space = lp_space(3, 2)
    delta_curve(space, [k / 10 for k in range(1, 10)], None, _SHARE_BUDGET)
    assert len(scans) == 1
    delta_curve(space, [0.0, 0.0], None, _SHARE_BUDGET)
    assert len(scans) == 1
    characteristic(space, "delta", None, _SHARE_BUDGET)
    assert len(scans) == 2
    # the battery builds one scan, which its delta characteristic reuses
    identity_battery(space, [0.0, 0.5, 1.0], None, _SHARE_BUDGET)
    assert len(scans) == 3


def test_battery_never_holds_two_scans(monkeypatch):
    # the battery and its delta characteristic build one scan between them,
    # and it does not outlive the call
    alive = []
    real = moduli._delta_scan

    def spy(*args):
        assert not any(ref() is not None for ref in alive)
        scan = real(*args)
        _, _, ynorm, _, _ = scan
        alive.append(weakref.ref(ynorm))
        return scan

    monkeypatch.setattr(moduli, "_delta_scan", spy)
    identity_battery(lp_space(3, 2), [0.0, 0.5, 1.0], None, _SHARE_BUDGET)
    assert len(alive) == 1
    assert not any(ref() is not None for ref in alive)


def test_delta_curve_is_thread_safe():
    # each curve holds its own net stage: threads on one space cannot mix them
    space = lp_space(3, 2)
    grid = [k / 10 for k in range(10)]
    serial = [_bits(v) for v in delta_curve(space, grid, None, _SHARE_BUDGET).values]
    results = [None] * 3

    def run(k):
        results[k] = [_bits(v) for v in delta_curve(space, grid, None, _SHARE_BUDGET).values]

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(results))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [serial] * len(results)


def test_battery_memo_is_read_and_filled(monkeypatch):
    space = lp_space(2, 2)
    grid = [0.0, 0.5, 1.0]
    memo = {}
    first = identity_battery(space, grid, None, _SHARE_BUDGET, memo=memo)
    key = (space, None, _SHARE_BUDGET)
    assert {("sigma", *key, e) for e in grid} | {("delta", *key, e) for e in grid} <= set(memo)
    assert all(est.info.get("eps", 0.0) == e for (*_, e), est in memo.items() if e > 0.0)
    before = dict(memo)
    calls = []
    for fn in ("sigma", "delta_m"):
        real = getattr(moduli, fn)
        monkeypatch.setattr(moduli, fn, lambda *a, real=real, **k: calls.append(a) or real(*a, **k))
    again = identity_battery(space, grid, None, _SHARE_BUDGET, memo=memo)
    assert again.to_dict() == first.to_dict()
    assert memo == before
    # with a full memo, only the characteristics' bisections compute moduli
    n_battery = len(calls)
    characteristic(space, "delta", None, _SHARE_BUDGET)
    characteristic(space, "sigma", None, _SHARE_BUDGET)
    assert n_battery == len(calls) - n_battery


def test_battery_memo_serves_only_its_own_call():
    # a memo filled by a battery on l2_2 gives a battery on l1_2 its own
    # estimates, not l2_2's (which made lambda_plus_sigma_bound fail)
    grid = [0.0, 0.5, 1.0]
    memo = {}
    identity_battery(lp_space(2, 2), grid, None, 20000, memo=memo)
    filled = dict(memo)
    l1 = lp_space(2, 1)
    shared = identity_battery(l1, grid, None, 20000, memo=memo)
    assert shared.to_dict() == identity_battery(lp_space(2, 1), grid, None, 20000).to_dict()
    assert shared.passed
    assert all(memo[key] is est for key, est in filled.items())
    # nor does a call on the same space at another budget (another net step)
    # read the entries filled at 20000
    assert sigma(l1, 0.5, None, 20000).info["resolution"] != sigma(l1, 0.5, None, 5000).info["resolution"]
    again = identity_battery(l1, grid, None, 5000, memo=memo)
    assert again.to_dict() == identity_battery(l1, grid, None, 5000).to_dict()


# ---------------------------------------------------------------------------
# delta's (x, t) search under the gain rule
# ---------------------------------------------------------------------------


def test_delta_gain_rule_keeps_planar_panel_enclosures(monkeypatch):
    # the benchmark's panel of random 2-D FormMax norms at eps = 1/||(1, 1)||:
    # stopping the starts whose gain cannot move the enclosure leaves every
    # enclosure as it is, and cuts the search from 1,292 sweeps to 256
    rng = np.random.default_rng(0)
    panel = [random_polyhedral2_space(rng) for _ in range(8)]
    sweeps, tols = [], []
    refine = search.refine_pair_on_sphere

    def counting(space, f, x0, t0, project, *args, tol=0.0, **kwargs):
        sweeps.append(0)
        tols.append(tol)

        def counted(xc, tc):  # one projection call per sweep
            sweeps[-1] += 1
            return project(xc, tc)

        return refine(space, f, x0, t0, counted, *args, tol=tol, **kwargs)

    monkeypatch.setattr(search, "refine_pair_on_sphere", counting)

    def run():
        sweeps.clear()
        tols.clear()
        ests = [delta_m(space, 1.0 / space.norm_value(np.ones(2))) for space in panel]
        return [(est.lower, est.upper) for est in ests], sum(sweeps), list(tols)

    ruled, ruled_sweeps, ruled_tols = run()
    # 1e-2 of the width before refinement, which is positive on every norm
    assert all(0.0 < tol < 1e-2 for tol in ruled_tols)
    monkeypatch.setattr(search, "_GAIN_TOL", 0.0)
    ruleless, ruleless_sweeps, ruleless_tols = run()
    assert ruleless_tols == [0.0] * len(panel)
    assert ruled == ruleless
    assert ruled_sweeps <= 300 and ruleless_sweeps > 1200


# delta_m on spaces whose best seed is already at delta's floor 0, at budget
# 2e5: (lower, upper, estimate), info and witnesses (x, y).  The triples and
# info were recorded when the (x, t) search still ran its 33 to 50 halving
# sweeps from such a seed; the witnesses were re-recorded when the net seeds
# took the engine's tie rule, the smallest (value, i, j), as many net pairs
# tie at the floor
GOLDEN_AT_FLOOR = {
    ("linf_2", 0.3): ((0.0, 0.0, 0.0), {"eps": 0.3, "resolution": 0.022222222222222223,
                                         "net_points": 91, "pairs_scanned": 192556},
                      [0.3111111111111111, 1.0], [0.3, 0.0]),
    ("linf_2", 0.5): ((0.0, 0.0, 0.0), {"eps": 0.5, "resolution": 0.022222222222222223,
                                         "net_points": 91, "pairs_scanned": 192556},
                      [0.5111111111111112, 1.0], [0.5, 0.0]),
    ("linf_3", 0.3): ((0.0, 0.0, 0.0), {"eps": 0.3, "resolution": 0.125,
                                         "net_points": 217, "pairs_scanned": 158193},
                      [0.0, 0.375, 1.0], [0.0, 0.3, 0.0]),
    ("linf_3", 0.5): ((0.0, 0.0, 0.0), {"eps": 0.5, "resolution": 0.125,
                                         "net_points": 217, "pairs_scanned": 158193},
                      [0.0, 0.5, 1.0], [0.0, 0.5, 0.0]),
    ("beta_gap", 0.3): ((0.0, 0.0, 0.0), {"eps": 0.3, "resolution": 0.125,
                                           "net_points": 217, "pairs_scanned": 158193},
                        [0.3, 0.6, 0.8], [0.3, 0.0, 0.0]),
    ("beta_gap", 0.5): ((0.0, 0.0, 0.0), {"eps": 0.5, "resolution": 0.125,
                                           "net_points": 217, "pairs_scanned": 158193},
                        [0.5, 0.5, 1.0], [0.0, 0.5, 0.0]),
}


@pytest.mark.parametrize("name,eps", sorted(GOLDEN_AT_FLOOR))
def test_delta_at_its_floor_runs_no_sweep(name, eps, monkeypatch):
    calls = []
    refine = search.refine_pair_on_sphere
    monkeypatch.setattr(search, "refine_pair_on_sphere",
                        lambda *args, **kwargs: calls.append(1) or refine(*args, **kwargs))
    est = delta_m(builtin_space(name), eps, None, 200_000)
    triple, info, wx, wy = GOLDEN_AT_FLOOR[name, eps]
    assert calls == []
    assert (repr(est.lower), repr(est.upper), repr(est.estimate)) == tuple(map(repr, triple))
    assert repr(est.info) == repr(info)
    assert est.witnesses[0].tobytes() == np.array(wx).tobytes()
    assert est.witnesses[1].tobytes() == np.array(wy).tobytes()
