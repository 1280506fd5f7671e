"""Sphere constants: published values, certificates, and invariances."""

import gc
import math
import weakref

import numpy as np
import pytest

import latconst.constants as constants_module
from latconst import (
    BudgetExceededError,
    LatticeSpace,
    Scale,
    UnsupportedDimensionError,
    alpha,
    beta,
    beta_gap_space,
    constant_battery,
    direct_sum_l1,
    james,
    lambda_plus,
    lambda_schaffer,
    linf_space,
    lp_space,
    max_l2_linf_space,
    max_linf_l1_space,
    meet,
    permute_norm,
    random_polyhedral2_space,
)

from oracles import (
    angle_sphere,
    formmax_norm,
    james_combine,
    lp_norm,
    pair_extremum,
    schaffer_combine,
)

TOL = 5e-3
ROOT2 = math.sqrt(2.0)


# -- positive-pair infimum ---------------------------------------------------

@pytest.mark.parametrize("p", [1, 1.5, 2, 3])
def test_lambda_plus_lp_dim2(p):
    est = lambda_plus(lp_space(2, p))
    assert est.estimate == pytest.approx(2.0 ** (1.0 / p), abs=TOL)


def test_lambda_plus_lp_dim3():
    est = lambda_plus(lp_space(3, 1.5))
    assert est.estimate == pytest.approx(2.0 ** (1.0 / 1.5), abs=TOL)


def test_lambda_plus_linf2_is_one():
    assert lambda_plus(linf_space(2)).estimate == pytest.approx(1.0, abs=TOL)


def test_lambda_plus_mixed_norm():
    est = lambda_plus(max_l2_linf_space(1.2))
    assert est.estimate == pytest.approx(ROOT2 / 1.2, abs=TOL)


def test_lambda_plus_dim1_exact():
    est = lambda_plus(lp_space(1, 2))
    assert est.lower == est.upper == est.estimate == 2.0


def test_certificate_structure_and_witnesses():
    space = lp_space(3, 2)
    est = lambda_plus(space)
    assert est.lower <= est.estimate <= est.upper
    for w in est.witnesses:
        assert np.all(w >= -1e-12)
        assert space.norm_value(w) == pytest.approx(1.0, abs=1e-9)
    assert est.upper - est.lower <= 2.0 * est.mesh_norm + 1e-12


def test_certified_containment_at_double_resolution():
    for space, fn in ((lp_space(2, 1.5), lambda_plus), (beta_gap_space(), beta)):
        coarse = fn(space, resolution=1.0 / 10.0)
        fine = fn(space, resolution=1.0 / 20.0)
        assert coarse.lower - 1e-9 <= fine.estimate <= coarse.upper + 1e-9


# -- disjoint-pair constants --------------------------------------------------

def test_beta_gap3_value():
    est = beta(beta_gap_space())
    assert est.estimate == pytest.approx(15.0 / 11.0, abs=TOL)
    wx, wy = est.witnesses
    assert np.array_equal(meet(wx, wy), np.zeros(3))


@pytest.mark.parametrize("p,n", [(1, 2), (2, 3), (3, 2)])
def test_beta_lp(p, n):
    assert beta(lp_space(n, p)).estimate == pytest.approx(2.0 ** (1.0 / p), abs=TOL)


def test_beta_linf2_is_one():
    assert beta(linf_space(2)).estimate == pytest.approx(1.0, abs=TOL)


def test_beta_rejects_dim1():
    with pytest.raises(UnsupportedDimensionError):
        beta(lp_space(1, 1))


@pytest.mark.parametrize("p,n,want", [(1, 2, 2.0), (2, 3, ROOT2), (1, 3, 2.0)])
def test_alpha_lp(p, n, want):
    assert alpha(lp_space(n, p)).estimate == pytest.approx(want, abs=TOL)


def test_alpha_linf_is_one():
    assert alpha(linf_space(3)).estimate == pytest.approx(1.0, abs=TOL)


def test_alpha_dim1_special_case():
    est = alpha(lp_space(1, 2))
    assert est.lower == est.upper == est.estimate == 1.0


def test_alpha_cross_check_agrees():
    for space in (lp_space(2, 1.5), beta_gap_space()):
        est = alpha(space)
        assert est.info["cross_check_estimate"] == pytest.approx(est.estimate, abs=2e-2)


# -- full-sphere constants ----------------------------------------------------

def test_lambda_james_l2_square():
    # independent oracle: angle-parametrized sphere, no cube grid involved
    pts = angle_sphere(lp_norm(2), 720)
    oracle_lambda = pair_extremum(lp_norm(2), pts, pts, schaffer_combine, maximize=False)
    oracle_james = pair_extremum(lp_norm(2), pts, pts, james_combine, maximize=True)
    assert oracle_lambda == pytest.approx(ROOT2, abs=2e-3)
    assert oracle_james == pytest.approx(ROOT2, abs=2e-3)
    space = lp_space(2, 2)
    assert lambda_schaffer(space).estimate == pytest.approx(ROOT2, abs=TOL)
    assert james(space).estimate == pytest.approx(ROOT2, abs=TOL)


def test_full_sphere_enclosures_contain_angle_oracle():
    # the oracle's values are attained on the sphere, so the certified sides
    # (lambda's lower, james's upper) must hold them exactly; the attained
    # sides may miss them by the oracle's own grid error, two point gaps
    rng = np.random.default_rng(31)
    cases = [(lp_space(2, 2), lp_norm(2))]
    for _ in range(4):
        space = random_polyhedral2_space(rng)
        cases.append((space, formmax_norm(space.norm.rows)))
    for space, norm in cases:
        pts = angle_sphere(norm, 720)
        gap = float(np.max(norm(np.diff(np.vstack([pts, pts[:1]]), axis=0))))
        oracle_lambda = pair_extremum(norm, pts, pts, schaffer_combine, maximize=False)
        oracle_james = pair_extremum(norm, pts, pts, james_combine, maximize=True)
        lam, jam = lambda_schaffer(space), james(space)
        assert lam.lower <= oracle_lambda <= lam.upper + 2.0 * gap
        assert jam.lower - 2.0 * gap <= oracle_james <= jam.upper


def test_lambda_mixed_sqrt2_norm():
    assert lambda_schaffer(max_linf_l1_space()).estimate == pytest.approx(ROOT2, abs=TOL)


@pytest.mark.parametrize("p", [1, 1.5, 2, 4])
def test_schaffer_james_product_is_two(p):
    space = lp_space(2, p)
    product = lambda_schaffer(space).estimate * james(space).estimate
    assert product == pytest.approx(2.0, abs=2e-2)


def test_dim1_conventions():
    assert lambda_schaffer(lp_space(1, 1)).estimate == 2.0
    # on the line every unit pair has x = +/- y, so the sup-min value is 0
    assert james(lp_space(1, 1)).estimate == 0.0


# -- battery -------------------------------------------------------------------

def test_battery_l1_cube():
    battery = constant_battery(lp_space(3, 1))
    for kind in ("lambda_plus", "beta", "alpha"):
        assert battery.constants[kind].estimate == pytest.approx(2.0, abs=TOL)
    assert battery.chain_ok
    assert battery.product == pytest.approx(2.0, abs=2e-2)


def test_battery_linf3():
    battery = constant_battery(linf_space(3))
    for kind, want in (("lambda", 1.0), ("lambda_plus", 1.0), ("beta", 1.0),
                       ("alpha", 1.0), ("james", 2.0)):
        assert battery.constants[kind].estimate == pytest.approx(want, abs=TOL)
    assert battery.chain_ok


def test_battery_gap_space_flags_strict_gap():
    battery = constant_battery(beta_gap_space())
    gap = battery.constants["beta"].estimate - battery.constants["lambda_plus"].estimate
    assert gap >= 0.02
    assert battery.chain_ok


def test_battery_rejects_dim1():
    with pytest.raises(UnsupportedDimensionError):
        constant_battery(lp_space(1, 2))


# -- the battery's shared half-sphere scan ---------------------------------------

SHARED_SCAN_SPACES = {
    "l2_3": lp_space(3, 2),
    "l15_3": lp_space(3, 1.5),
    "beta_gap": beta_gap_space(),
    "l2_2": lp_space(2, 2),
    "planar": random_polyhedral2_space(np.random.default_rng(5)),
    "direct_sum": direct_sum_l1(beta_gap_space(), 1),
}
# the budget-fitted step (several 256-row scan blocks on the 3-D and 4-D
# nets), and an explicit step
SHARED_SCAN_ARGS = ({"pair_budget": 2_000_000}, {"resolution": 0.25})


def _record(est):
    return est.to_dict(), est.info, [w.tobytes() for w in est.witnesses]


def test_battery_full_sphere_constants_equal_independent_calls():
    # the spaces run in turn, so a stage left over from one battery would
    # also show here as another space's values
    for kwargs in SHARED_SCAN_ARGS:
        for name, space in SHARED_SCAN_SPACES.items():
            battery = constant_battery(space, **kwargs)
            for kind, fn in (("lambda", lambda_schaffer), ("james", james)):
                want = _record(fn(space, **kwargs))
                assert _record(battery.constants[kind]) == want, (name, kwargs, kind)


def test_battery_builds_one_half_sphere_net(monkeypatch):
    builds = []
    build = constants_module.half_sphere_net

    def spy(*args):
        builds.append(args)
        return build(*args)

    monkeypatch.setattr(constants_module, "half_sphere_net", spy)
    for space in (lp_space(3, 2), beta_gap_space()):
        builds.clear()
        constant_battery(space, pair_budget=200_000)
        assert len(builds) == 1
    # a call without a scan list builds its own net
    builds.clear()
    lambda_schaffer(lp_space(2, 2))
    james(lp_space(2, 2))
    assert len(builds) == 2


def test_battery_scan_does_not_outlive_the_call(monkeypatch):
    nets = []
    build = constants_module.half_sphere_net

    def spy(*args):
        net = build(*args)
        nets.append(weakref.ref(net))
        return net

    monkeypatch.setattr(constants_module, "half_sphere_net", spy)
    battery = constant_battery(beta_gap_space(), pair_budget=200_000)
    gc.collect()
    assert len(nets) == 1 and nets[0]() is None
    assert battery.constants["james"].info["net_points"] > 0


def test_battery_over_budget_names_lambda():
    space = beta_gap_space()
    # a battery that fits runs first: its stage must not serve the next one
    constant_battery(space, resolution=0.25)
    with pytest.raises(BudgetExceededError) as err:
        constant_battery(space, resolution=0.01, pair_budget=10**6)
    assert str(err.value).startswith("lambda: resolution 0.01 needs ")
    assert err.value.required_resolution == 0.125
    with pytest.raises(BudgetExceededError) as err:
        constant_battery(lp_space(2, 2), pair_budget=10)
    assert str(err.value).startswith("lambda: ")
    assert err.value.required_resolution is None


# -- invariances ----------------------------------------------------------------

def test_two_dim_collapse_random_polyhedral():
    rng = np.random.default_rng(23)
    for _ in range(5):
        space = random_polyhedral2_space(rng)
        lam = lambda_plus(space).estimate
        bet = beta(space).estimate
        assert abs(lam - bet) <= 1e-2
        assert abs(bet - space.norm_value([1.0, 1.0])) <= 1e-2


def test_scale_invariance():
    space = lp_space(2, 1.5)
    scaled = LatticeSpace(2, Scale(2.0, space.norm))
    assert abs(lambda_plus(scaled).estimate - lambda_plus(space).estimate) <= 1e-9
    assert abs(beta(scaled).estimate - beta(space).estimate) <= 1e-9


def test_permutation_invariance():
    space = beta_gap_space()
    permuted = LatticeSpace(3, permute_norm(space.norm, (2, 0, 1)))
    assert abs(beta(permuted).estimate - beta(space).estimate) <= 1e-9
    assert abs(lambda_plus(permuted).estimate - lambda_plus(space).estimate) <= 1e-9


def test_refinement_monotonicity():
    space = lp_space(2, 2)
    coarse = lambda_plus(space, resolution=1.0 / 10.0)
    fine = lambda_plus(space, resolution=1.0 / 20.0)
    assert fine.lower >= coarse.lower - 1e-12
    assert fine.upper <= coarse.upper + 1e-12
