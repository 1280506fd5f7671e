"""Lockstep multi-start refinement: S starts refined in one call give, start
for start, what S single-start calls give."""

import numpy as np

import latconst as lc
from latconst.nets import support_pairs
from latconst.search import refine_pair_on_sphere, sphere_projection


def _plus(space):
    return lambda X, Y: space.norm_values(X + Y)


def _schaffer(space):
    return lambda X, Y: np.maximum(space.norm_values(X - Y), space.norm_values(X + Y))


def _unit_rows(space, rng, count, positive, support=None):
    v = rng.standard_normal((count, space.dim))
    v = np.abs(v) if positive else v
    if support is not None:
        v[:, [i for i in range(space.dim) if i not in support]] = 0.0
    return v / space.norm_values(v)[:, None]


def _assert_lockstep_matches_single_starts(space, objective, x0, y0, project, step0,
                                           support_x, support_y, maximize, tol):
    best, bx, by, (vals, xs, ys) = refine_pair_on_sphere(
        space, objective, x0, y0, project, step0, maximize=maximize,
        support_x=support_x, support_y=support_y)
    assert isinstance(best, float)
    for s in range(len(x0)):
        val, x, y, _ = refine_pair_on_sphere(
            space, objective, x0[s], y0[s], project, step0[s], maximize=maximize,
            support_x=support_x[s], support_y=support_y[s])
        if tol == 0.0:
            assert val == vals[s], s
            assert np.array_equal(x, xs[s]) and np.array_equal(y, ys[s]), s
        else:
            assert abs(val - vals[s]) <= tol, s
            assert np.allclose(x, xs[s], rtol=0.0, atol=tol), s
            assert np.allclose(y, ys[s], rtol=0.0, atol=tol), s
    moved = np.any(xs != x0, axis=1) | np.any(ys != y0, axis=1)
    assert np.count_nonzero(moved) >= 2
    k = int(np.argmax(vals) if maximize else np.argmin(vals))
    assert best == vals[k]
    assert np.array_equal(bx, xs[k]) and np.array_equal(by, ys[k])


def test_lockstep_beta_blocks_on_block_sum():
    # mixed supports and steps: every fourth support pair of the 4-D sum,
    # over whose disjoint pairs ||x + y|| is not constant (unlike on l_p)
    space = lc.direct_sum_l1(lc.lp_space(3, 3), 1)
    rng = np.random.default_rng(3)
    x0, y0, steps, sx, sy = [], [], [], [], []
    for n, (a, b) in enumerate(support_pairs(4)[::4]):
        x0.append(_unit_rows(space, rng, 1, True, a)[0])
        y0.append(_unit_rows(space, rng, 1, True, b)[0])
        steps.append((0.5, 0.1, 0.03)[n % 3])
        sx.append(a)
        sy.append(b)
    # a last start whose every move the projection rejects: x = e_1 keeps
    # x_1 >= 0.95 under all moves of size <= 0.05, so the pair
    # (e_1, e_1) keeps its non-minimal value 2
    x0.append(np.eye(4)[0])
    y0.append(np.eye(4)[0])
    steps.append(0.05)
    sx.append(None)
    sy.append(None)
    sphere = sphere_projection(space, positive=True)

    def project(xc, yc):
        xu, yu, valid = sphere(xc, yc)
        return xu, yu, valid & (xu[:, 0] < 0.9)

    x0, y0 = np.array(x0), np.array(y0)
    for maximize in (False, True):
        _assert_lockstep_matches_single_starts(
            space, _plus(space), x0, y0, project, steps, sx, sy, maximize, tol=0.0)
    *_, (vals, xs, ys) = refine_pair_on_sphere(
        space, _plus(space), x0, y0, project, steps, support_x=sx, support_y=sy)
    assert vals[-1] == space.norm_value(x0[-1] + y0[-1])
    assert np.array_equal(xs[-1], x0[-1]) and np.array_equal(ys[-1], y0[-1])


def test_lockstep_full_sphere_on_lp():
    space = lc.lp_space(3, 3)
    rng = np.random.default_rng(5)
    x0, y0 = _unit_rows(space, rng, 5, False), _unit_rows(space, rng, 5, False)
    for maximize in (False, True):
        _assert_lockstep_matches_single_starts(
            space, _schaffer(space), x0, y0, sphere_projection(space, positive=False),
            [0.2, 0.2, 0.1, 0.1, 0.05], [None] * 5, [None] * 5, maximize, tol=0.0)


def test_lockstep_formmax_within_rounding():
    # FormMax evaluates rows by one matrix product, whose rounding may depend
    # on the number of rows, so batched and single starts agree to 1e-12
    space = lc.beta_gap_space()
    rng = np.random.default_rng(11)
    x0, y0 = _unit_rows(space, rng, 6, True), _unit_rows(space, rng, 6, True)
    _assert_lockstep_matches_single_starts(
        space, _plus(space), x0, y0, sphere_projection(space, positive=True),
        [0.1] * 6, [None] * 6, [None] * 6, maximize=False, tol=1e-12)


def test_lockstep_tie_goes_to_earliest_start():
    space = lc.lp_space(3, 2)
    e = np.eye(3)
    # no coordinate may move, so every start keeps its value: 2, sqrt 2, sqrt 2
    best, bx, by, (vals, _, _) = refine_pair_on_sphere(
        space, _plus(space), e[[0, 0, 1]], e[[0, 1, 0]],
        sphere_projection(space, positive=True), 0.1, support_x=(), support_y=())
    assert vals[1] == vals[2] == best < vals[0]
    assert np.array_equal(bx, e[0]) and np.array_equal(by, e[1])
