"""Monotonicity moduli: closed forms, characteristics, identities."""

import numpy as np
import pytest

from latconst import moduli
from latconst import (
    beta_gap_space,
    characteristic,
    delta_m,
    identity_battery,
    linf_space,
    lp_space,
    sigma,
    sigma_curve,
    sigma_lambda_bridge,
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


def test_bridge_lp():
    rep = sigma_lambda_bridge(lp_space(2, 1.5))
    assert rep.consistent
    assert rep.sigma_one.estimate + 1.0 == pytest.approx(2.0 ** (1.0 / 1.5), abs=1e-3)
    assert rep.difference <= 1e-6


def test_bridge_linf3():
    rep = sigma_lambda_bridge(linf_space(3))
    assert rep.consistent
    assert rep.sigma_one.estimate + 1.0 == pytest.approx(1.0, abs=1e-6)
    assert rep.lam_plus.estimate == pytest.approx(1.0, abs=1e-6)


def test_bridge_gap_norm():
    # two independently coded optimizations of the same infimum
    rep = sigma_lambda_bridge(beta_gap_space())
    assert rep.consistent
    assert rep.difference <= 1e-6


def test_bridge_and_battery_pass_their_budget_on(monkeypatch):
    # sigma(1) + 1 and lambda_plus are one infimum over one net when both
    # run at the caller's budget
    bridge = sigma_lambda_bridge(lp_space(3, 2))
    assert bridge.lam_plus.info["resolution"] == bridge.sigma_one.info["resolution"]
    calls = []
    real = moduli.lambda_plus
    monkeypatch.setattr(moduli, "lambda_plus", lambda *args: calls.append(args[1:]) or real(*args))
    identity_battery(lp_space(3, 2), [0.0, 1.0], 0.25, 200000)
    sigma_lambda_bridge(lp_space(2, 2), 0.1, 5000)
    assert calls == [(0.25, 200000), (0.1, 5000)]
