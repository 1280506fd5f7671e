"""Net construction, mesh certificates and budgets."""

import numpy as np
import pytest

import latconst.constants
from latconst import (
    BudgetExceededError,
    UnsupportedDimensionError,
    alpha,
    beta,
    beta_gap_space,
    delta_m,
    half_sphere_net,
    lambda_plus,
    lp_space,
    positive_face_net,
    sigma,
    support_pairs,
)
from latconst.nets import box_grid, face_point_count, grid_values

# every budgeted optimizer, as (name, call with resolution and pair budget)
BUDGETED = [
    ("lambda_plus", lambda sp, h, b: lambda_plus(sp, h, b)),
    ("beta", lambda sp, h, b: beta(sp, h, b)),
    ("alpha", lambda sp, h, b: alpha(sp, h, b)),
    ("sigma", lambda sp, h, b: sigma(sp, 0.5, h, b)),
    ("delta_m", lambda sp, h, b: delta_m(sp, 0.5, h, b)),
]


def _contains_row(points: np.ndarray, row: np.ndarray, tol: float = 1e-12) -> bool:
    return bool(np.any(np.max(np.abs(points - row[None, :]), axis=1) <= tol))


def test_grid_values_include_endpoints():
    assert np.allclose(grid_values(0.25), [0.0, 0.25, 0.5, 0.75, 1.0])
    g = grid_values(0.3)
    assert g[0] == 0.0 and g[-1] == 1.0
    assert np.allclose(g, [0.0, 0.3, 0.6, 0.9, 1.0])


def test_dim2_half_step_net_rays():
    space = lp_space(2, 2)
    net = positive_face_net(space, 0.5)
    for ray in ([1.0, 0.0], [0.0, 1.0], [1.0, 1.0], [1.0, 0.5], [0.5, 1.0]):
        ray = np.asarray(ray)
        unit = ray / space.norm_value(ray)
        assert _contains_row(net.points, unit)
    assert len(net) == 5


def test_dim1_net_single_point():
    net = positive_face_net(lp_space(1, 2), 0.1)
    assert len(net) == 1
    assert np.allclose(net.points, [[1.0]])
    assert net.mesh_norm == 0.0


def test_dim3_fine_grid_count_bound():
    net = positive_face_net(lp_space(3, 1), 0.01)
    assert len(net) <= 101**3
    assert np.max(np.abs(net.points.sum(axis=1) - 1.0)) <= 1e-9


def test_mesh_certificate_by_sampling():
    rng = np.random.default_rng(0)
    for space in (lp_space(3, 2), beta_gap_space()):
        net = positive_face_net(space, 0.1)
        for _ in range(300):
            u = np.abs(rng.standard_normal(3))
            u = u / space.norm_value(u)
            dists = space.norm_values(net.points - u[None, :])
            assert float(np.min(dists)) <= net.mesh_norm + 1e-12


def test_face_net_points_are_unit():
    space = beta_gap_space()
    face = positive_face_net(space, 0.25)
    assert np.max(np.abs(space.norm_values(face.points) - 1.0)) <= 1e-9


def test_face_nets_nested_under_halving():
    space = lp_space(2, 1.5)
    coarse = positive_face_net(space, 1.0 / 5.0)
    fine = positive_face_net(space, 1.0 / 10.0)
    for row in coarse.points:
        assert _contains_row(fine.points, row, tol=1e-12)
    assert fine.mesh_norm == pytest.approx(coarse.mesh_norm / 2.0)


def test_half_sphere_net_canonical_and_covering():
    space = lp_space(2, 2)
    net = half_sphere_net(space, 0.1)
    assert np.max(np.abs(space.norm_values(net.points) - 1.0)) <= 1e-9
    firstnz = net.points[np.arange(len(net)), np.argmax(net.points != 0.0, axis=1)]
    assert np.all(firstnz > 0.0)
    rng = np.random.default_rng(1)
    for _ in range(200):
        u = rng.standard_normal(2)
        u = u / space.norm_value(u)
        dist_pos = float(np.min(space.norm_values(net.points - u[None, :])))
        dist_neg = float(np.min(space.norm_values(net.points + u[None, :])))
        assert min(dist_pos, dist_neg) <= net.mesh_norm + 1e-12


def test_point_cap_budget_error():
    with pytest.raises(BudgetExceededError) as err:
        positive_face_net(lp_space(6, 2), 0.02)
    assert err.value.required_resolution is not None
    assert err.value.required_resolution > 0.02


def test_pair_budget_error_reports_required_resolution():
    with pytest.raises(BudgetExceededError) as err:
        lambda_plus(lp_space(3, 2), resolution=0.002)
    assert err.value.required_resolution is not None
    assert err.value.required_resolution > 0.002
    for name, run in BUDGETED:
        with pytest.raises(BudgetExceededError) as err:
            run(lp_space(3, 2), 0.01, 1000)
        need = err.value.required_resolution
        assert need is not None and need > 0.01, name
        run(lp_space(3, 2), need, 1000)


def test_budget_floor_overrun_raises():
    # even the coarsest grid (step 1) scans 7^2 = 49 face pairs in R^3
    for name in ("lambda_plus", "sigma", "delta_m"):
        run = dict(BUDGETED)[name]
        with pytest.raises(BudgetExceededError) as err:
            run(lp_space(3, 2), None, 10)
        assert err.value.required_resolution is None, name


def test_disjoint_budget_checked_before_subnets(monkeypatch):
    def no_nets(*args, **kwargs):
        raise AssertionError("a sub-net was built before the budget check")

    monkeypatch.setattr(latconst.constants, "support_face_net", no_nets)
    for run in (beta, alpha):
        with pytest.raises(BudgetExceededError):
            run(lp_space(3, 2), 0.01, 1000)


def test_support_pairs_enumeration():
    pairs = support_pairs(3)
    assert len(pairs) == 3**3 - 2 * 2**3 + 1
    for a, b in pairs:
        assert a and b and not set(a) & set(b)
    assert len(support_pairs(2)) == 2
    with pytest.raises(UnsupportedDimensionError):
        support_pairs(1)
    with pytest.raises(UnsupportedDimensionError):
        support_pairs(13)


def test_box_grid_contains_corners():
    grid = box_grid(2, 0.5)
    assert len(grid) == 9
    for corner in ([0.0, 0.0], [1.0, 1.0], [0.0, 1.0]):
        assert _contains_row(grid, np.asarray(corner))


def test_face_point_count_formula():
    assert face_point_count(3, 10) == 11**3 - 10**3
    assert face_point_count(2, 50) == 101
