"""The engine's two stages.  Net pair scans: a symmetric objective scanned
over the pairs j >= i gives what the full scan gives, and the best pair is
the lexicographically smallest optimizer; a norm with coordinate symmetries
scans x over its fundamental domain instead.  Lockstep multi-start refinement:
S starts refined in one call return the best of S single-start calls, and
every start ends where its single-start call ends or, stopped early, on a
worse value; a gain tolerance stops creeping starts behind the best one and
leaves the engine's enclosures as they were.  The engine refines nothing
when the best net value already attains the a priori bound."""

import itertools

import numpy as np
import pytest

import latconst as lc
import latconst.search as search
from latconst.nets import half_sphere_net, positive_face_net, support_pairs
from latconst.search import refine_pair_on_sphere, scan_pairs, sphere_projection


def _plus(space):
    return lambda X, Y: space.norm_values(X + Y)


def _schaffer(space):
    return lambda X, Y: np.maximum(space.norm_values(X - Y), space.norm_values(X + Y))


def _minus(space):
    return lambda X, Y: space.norm_values(X - Y)


def _james(space):
    return lambda X, Y: np.minimum(space.norm_values(X - Y), space.norm_values(X + Y))


def _sigma_one(space):
    return lambda X, Y: space.norm_values(X + 1.0 * Y) - 1.0


def _scan_spaces():
    planar = lc.random_polyhedral2_space(np.random.default_rng(7))
    spaces = {f"l{p}": lc.lp_space(3, p) for p in (1, 1.5, 2, 3, np.inf)}
    spaces |= {f"l{p}_weighted": lc.lp_space(3, p, weights=[1.0, 2.5, 0.75])
               for p in (1, 1.5, 2, 3, np.inf)}
    spaces["beta_gap"] = lc.beta_gap_space()
    spaces["planar"] = planar
    spaces["block_sum"] = lc.direct_sum_l1(lc.lp_space(2, 3), 1)
    spaces["scale_max"] = lc.LatticeSpace(3, lc.Scale(0.7, lc.MaxOf(
        [lc.Scale(1.5, lc.lp(3, 2)), lc.beta_gap_space().norm])))
    spaces["max_scale"] = lc.LatticeSpace(2, lc.MaxOf(
        [lc.Scale(1.25, planar.norm), lc.lp(2, 1.5)]))
    return spaces


SCAN_SPACES = _scan_spaces()
# nets cut into strips of one row, of 100 rows, of 128 and 128 rows, and of
# 109, 109 and 82 rows
NET_SIZES = (1, 100, 256, 300)
# (objective, maximize) per net; both nets are scanned in both senses
SCANS = {
    "face": [(_plus, False), (_plus, True), (_minus, True), (_sigma_one, False)],
    "half": [(_schaffer, False), (_james, True), (_schaffer, True), (_james, False)],
}


def _net(space, kind):
    h = {2: 0.005, 3: 0.05, 4: 0.25}[space.dim]
    points = (positive_face_net if kind == "face" else half_sphere_net)(space, h).points
    assert len(points) >= max(NET_SIZES)
    return points


@pytest.mark.parametrize("name", sorted(SCAN_SPACES))
def test_symmetric_scan_matches_full_scan(name):
    space = SCAN_SPACES[name]
    for kind, scans in SCANS.items():
        net = _net(space, kind)
        for n, (objective, maximize) in itertools.product(NET_SIZES, scans):
            pts = net[:n]
            f = objective(space)
            top_k = 4 if kind == "face" else 10
            val, top = scan_pairs(space, pts, pts, f, maximize, top_k)
            sval, stop = scan_pairs(space, pts, pts, f, maximize, top_k, symmetric=True)
            case = (kind, n, objective.__name__, maximize)
            # the same bits, the same best pair, the same top-k pairs
            assert (val, top) == (sval, stop), case
            assert len({(i, j) for _, i, j in stop}) == len(stop) == min(top_k, n * n), case
            # every reported value is the objective at its pair, and the best
            # pair is the lexicographically smallest optimizer of all n^2
            full = np.asarray(f(pts[:, None, :], pts[None, :, :]))
            assert all(v == full[i, j] for v, i, j in stop), case
            first = np.argmax(full.ravel()) if maximize else np.argmin(full.ravel())
            assert stop[0][1:] == divmod(int(first), n) and sval == full.ravel()[first], case


@pytest.mark.parametrize("name", sorted(SCAN_SPACES))
def test_one_scan_in_several_senses_equals_one_scan_per_sense(name):
    # lambda's and james's objectives from one evaluation of each block
    space = SCAN_SPACES[name]

    def both(X, Y):
        a, b = space.norm_values(X - Y), space.norm_values(X + Y)
        return np.maximum(a, b), np.minimum(a, b)

    net = _net(space, "half")
    for n, symmetric in itertools.product(NET_SIZES, (False, True)):
        pts = net[:n]
        shared = scan_pairs(space, pts, pts, both, (False, True), 10, symmetric)
        alone = [scan_pairs(space, pts, pts, _schaffer(space), False, 10, symmetric),
                 scan_pairs(space, pts, pts, _james(space), True, 10, symmetric)]
        assert shared == alone, (n, symmetric)


# a symmetric scan of 257 points has strips of 127, 127 and 3 rows; one of
# 313 points has strips of 104 rows, the last one 1 row
STRIP_NET_SIZES = (257, 313)
# FormMax norms whose matrix product takes each of BLAS's matrix-vector and
# matrix-matrix paths
STRIP_SPACES = SCAN_SPACES | {
    f"formmax{rows}_{dim}": lc.LatticeSpace(dim, lc.FormMax(
        np.random.default_rng(rows * dim).uniform(0.1, 1.0, (rows, dim))))
    for rows in (1, 4, 7) for dim in (2, 3, 4)}


def _coordinate_major(a):
    # a view whose coordinate axis varies slowest, not fastest
    return a.base is not None and a.strides[-1] == max(a.strides) > a.itemsize


@pytest.mark.parametrize("name", sorted(STRIP_SPACES))
def test_strips_change_no_value_and_skip_the_discarded_pairs(name):
    space = STRIP_SPACES[name]
    net = _net(space, "half")
    calls = []

    def spy(f):
        def values(X, Y):
            # coordinate-major views, valued bit for bit as row-major copies
            assert _coordinate_major(X) and _coordinate_major(Y), (X.strides, Y.strides)
            calls.append((X.shape[0], Y.shape[1]))
            mats = f(X, Y)
            row_major = f(np.ascontiguousarray(X), np.ascontiguousarray(Y))
            assert np.array_equal(np.asarray(mats), np.asarray(row_major))
            return mats
        return values

    def both(X, Y):
        a, b = space.norm_values(X - Y), space.norm_values(X + Y)
        return np.maximum(a, b), np.minimum(a, b)

    for n, symmetric in itertools.product(STRIP_NET_SIZES, (False, True)):
        pts = net[:n]
        ys = pts if symmetric else net[n // 3 : n // 3 + n - 7]
        m = len(ys)
        strip = max(1, min(256, search._STRIP_PAIRS // m))
        assert strip < n  # several strips
        for f, maximize in ((_plus(space), False), (both, (False, True))):
            # with room for every pair (at the smaller net), each value is
            # the one-call matrix's
            top_k = n * m if n == STRIP_NET_SIZES[0] else 10
            calls.clear()
            found = scan_pairs(space, pts, ys, spy(f), maximize, top_k, symmetric)
            # no call holds more than a strip's pairs, unless one row does
            assert all(rows * cols <= max(search._STRIP_PAIRS, cols) for rows, cols in calls)
            pairs = sum(rows * cols for rows, cols in calls)
            if symmetric:
                assert pairs <= n * (n + 1) // 2 + n * (strip - 1) // 2, (n, pairs)
            else:
                assert pairs == n * m
            mats = f(pts[:, None, :], ys[None, :, :])
            senses = zip(mats, found) if isinstance(maximize, tuple) else [(mats, found)]
            for full, (val, top) in senses:
                assert len(top) == top_k
                # BLAS rounds some FormMax products by the matrix shape (one
                # row, or four rows in 4-D), so only the strip check above
                # holds for every added FormMax norm
                if name in SCAN_SPACES:
                    assert all(v == full[i, j] for v, i, j in top), (n, symmetric)
                assert val == top[0][0]


def test_symmetric_scan_tie_rule_on_l1(monkeypatch):
    # ||x + y||_1 = 2 on every positive l1 unit pair; on points with dyadic
    # coordinates summing to 1 it is exactly 2.0, so every pair ties and the
    # first pair, the diagonal (0, 0), must win
    space = lc.lp_space(3, 1)
    f = _plus(space)
    for q in (16, 32):
        pts = np.array([(a, b, q - a - b) for a in range(q + 1) for b in range(q + 1 - a)],
                       dtype=float) / q
        n = len(pts)  # 153 points in one strip, 561 points in ten
        assert np.all(f(pts[:, None, :], pts[None, :, :]) == 2.0)
        for top_k in (1, 4):
            val, top = scan_pairs(space, pts, pts, f, top_k=top_k, symmetric=True)
            assert val == 2.0 and top[0] == (2.0, 0, 0)
        # with room for every pair, the seeds are all n^2 ordered pairs,
        # each once, in lexicographic order, as in the full scan
        everything = [(2.0, i, j) for i in range(n) for j in range(n)]
        assert scan_pairs(space, pts, pts, f, top_k=n * n, symmetric=True)[1] == everything
        assert scan_pairs(space, pts, pts, f, top_k=n * n)[1] == everything
        # the k seeds are the k first pairs, whatever the strip size (one
        # row per strip at 2**8 pairs)
        for strip_pairs in (2**8, search._STRIP_PAIRS):
            monkeypatch.setattr(search, "_STRIP_PAIRS", strip_pairs)
            for symmetric in (True, False):
                top = scan_pairs(space, pts, pts, f, top_k=4, symmetric=symmetric)[1]
                assert top == [(2.0, 0, 0), (2.0, 0, 1), (2.0, 0, 2), (2.0, 0, 3)], strip_pairs


def test_symmetric_scan_needs_one_net():
    space = lc.lp_space(2, 2)
    pts = positive_face_net(space, 0.1).points
    with pytest.raises(ValueError):
        scan_pairs(space, pts, pts.copy(), _plus(space), symmetric=True)


def _spy_scans(monkeypatch):
    """The (len(xs), len(ys), xs is ys, symmetric) of every scan_pairs call."""
    scans = []
    scan = search.scan_pairs

    def spy(space, xs, ys, *args, symmetric=False, **kwargs):
        scans.append((len(xs), len(ys), xs is ys, symmetric))
        return scan(space, xs, ys, *args, symmetric=symmetric, **kwargs)

    monkeypatch.setattr(search, "scan_pairs", spy)
    return scans


def _scans_of(scans, fn, space, *args):
    scans.clear()
    est = fn(space, *args, pair_budget=4000)
    return list(scans), est


def test_symmetric_objectives_reach_the_triangle_scan(monkeypatch):
    # a weighted lp norm has no coordinate symmetry, so its symmetric
    # objectives scan one net paired with itself over the pairs j >= i
    scans = _spy_scans(monkeypatch)
    space = lc.lp_space(2, 3, weights=[1, 2])
    assert space._symmetry_blocks == ()

    def flags_of(fn, *args):
        return [flag for *_, flag in _scans_of(scans, fn, space, *args)[0]]

    for fn in (lc.lambda_schaffer, lc.lambda_plus, lc.james):
        assert flags_of(fn) == [True], fn.__name__
    assert flags_of(lc.sigma, 1.0) == [True]
    # alpha scans its support pairs in full, then its cross-check symmetrically
    alpha_flags = flags_of(lc.alpha)
    assert alpha_flags[-1] is True and not any(alpha_flags[:-1])
    assert len(alpha_flags) == 1 + len(support_pairs(2))
    assert flags_of(lc.sigma, 0.5) == [False]
    assert flags_of(lc.beta) == [False] * len(support_pairs(2))
    assert not any(flags_of(lc.delta_m, 0.5))


def test_symmetric_norms_scan_their_fundamental_domain(monkeypatch):
    # unit-weight lp is unchanged by swapping its two coordinates: x ranges
    # over the face net's points with x_0 >= x_1 against all of y's net,
    # the half-sphere net for lambda and james
    scans = _spy_scans(monkeypatch)
    space = lc.lp_space(2, 3)
    assert space._symmetry_blocks == ((0, 1),)
    for fn, args, full_sphere in ((lc.lambda_schaffer, (), True), (lc.james, (), True),
                                  (lc.lambda_plus, (), False), (lc.sigma, (1.0,), False),
                                  (lc.sigma, (0.5,), False), (lc.alpha, (), False)):
        found, est = _scans_of(scans, fn, space, *args)
        if fn is lc.alpha:
            # support-pair scans in full, then the cross-check, whose step is
            # lambda_plus's at alpha's half of the budget
            assert [flag for *_, flag in found[:-1]] == [False] * len(support_pairs(2))
            found = found[-1:]
            h = lc.lambda_plus(space, None, 2000).info["resolution"]
        else:
            h = est.info["resolution"]
        face = positive_face_net(space, h).points
        ys = half_sphere_net(space, h).points if full_sphere else face
        domain = face[face[:, 0] >= face[:, 1]]
        assert 0 < len(domain) < len(face)
        assert found == [(len(domain), len(ys), False, False)], fn.__name__
        if fn is not lc.alpha:
            assert est.info["net_points"] == len(ys), fn.__name__
            assert est.info["pairs_scanned"] == len(domain) * len(ys), fn.__name__
    # beta's support-pair scans are not reduced
    assert [flag for *_, flag in _scans_of(scans, lc.beta, space)[0]] == [False] * 2


def _unit_rows(space, rng, count, positive, support=None):
    v = rng.standard_normal((count, space.dim))
    v = np.abs(v) if positive else v
    if support is not None:
        v[:, [i for i in range(space.dim) if i not in support]] = 0.0
    return v / space.norm_values(v)[:, None]


def _assert_lockstep_matches_single_starts(space, objective, x0, y0, project, step0,
                                           support_x, support_y, maximize, tol):
    """The lockstep call returns the best single-start run's value and
    witness; every other start ends where its single-start run ends, or was
    stopped early on a strictly worse value.  Returns the stopped starts."""
    sign = -1.0 if maximize else 1.0
    best, bx, by, (vals, xs, ys) = refine_pair_on_sphere(
        space, objective, x0, y0, project, step0, maximize=maximize,
        support_x=support_x, support_y=support_y)
    assert isinstance(best, float)
    singles, stopped = [], []
    for s in range(len(x0)):
        val, x, y, _ = refine_pair_on_sphere(
            space, objective, x0[s], y0[s], project, step0[s], maximize=maximize,
            support_x=support_x[s], support_y=support_y[s])
        singles.append((val, x, y))
        # a start that went on ends on its single-start value and witness;
        # one stopped early reports a value no better than that
        assert sign * vals[s] >= sign * val - tol, s
        if sign * vals[s] > sign * val + tol:
            stopped.append(s)
        elif tol == 0.0:
            assert val == vals[s], s
            assert np.array_equal(x, xs[s]) and np.array_equal(y, ys[s]), s
        else:
            assert abs(val - vals[s]) <= tol, s
            assert np.allclose(x, xs[s], rtol=0.0, atol=tol), s
            assert np.allclose(y, ys[s], rtol=0.0, atol=tol), s
    moved = np.any(xs != x0, axis=1) | np.any(ys != y0, axis=1)
    assert np.count_nonzero(moved) >= 2
    k = int(np.argmax(vals) if maximize else np.argmin(vals))
    assert best == vals[k] and k not in stopped
    assert np.array_equal(bx, xs[k]) and np.array_equal(by, ys[k])
    # the best start is the best single-start run, the earliest on ties
    val, x, y = singles[int(np.argmin([sign * v for v, _, _ in singles]))]
    if tol == 0.0:
        assert best == val and np.array_equal(bx, x) and np.array_equal(by, y)
    else:
        assert abs(best - val) <= tol
    return stopped


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


def _full_sphere_starts():
    space = lc.lp_space(3, 3)
    rng = np.random.default_rng(5)
    x0, y0 = _unit_rows(space, rng, 5, False), _unit_rows(space, rng, 5, False)
    return space, x0, y0, sphere_projection(space, positive=False), [0.2, 0.2, 0.1, 0.1, 0.05]


def test_lockstep_full_sphere_on_lp():
    space, x0, y0, project, steps = _full_sphere_starts()
    stopped = {
        maximize: _assert_lockstep_matches_single_starts(
            space, _schaffer(space), x0, y0, project, steps, [None] * 5, [None] * 5,
            maximize, tol=0.0)
        for maximize in (False, True)}
    # minimizing, three starts creep towards the best start too slowly to
    # pass it within one more window, and stop early
    assert stopped == {False: [1, 2, 4], True: []}


def test_lone_and_idle_starts_are_never_stopped(monkeypatch):
    # a start refined alone is the best start, so it runs as if the stall
    # rule did not exist, also one that lockstep stops early
    space, x0, y0, project, steps = _full_sphere_starts()
    f = _schaffer(space)
    *_, (vals, _, _) = refine_pair_on_sphere(space, f, x0, y0, project, steps)
    alone = [refine_pair_on_sphere(space, f, x0[s], y0[s], project, steps[s])
             for s in (1, 2, 4)]
    monkeypatch.setattr(search, "_STALL_SWEEPS", search._MAX_SWEEPS + 1)
    for s, (val, x, y, _) in zip((1, 2, 4), alone):
        ruleless, rx, ry, _ = refine_pair_on_sphere(space, f, x0[s], y0[s], project, steps[s])
        assert val == ruleless < vals[s], s
        assert np.array_equal(x, rx) and np.array_equal(y, ry), s
    monkeypatch.undo()

    # a start that gained nothing over a window goes on: in delta_m(l15_3)
    # at eps = 1 the start that ends best still sits at its initial value
    # after the first window, behind another start, and only then moves
    calls = []
    refine = search.refine_pair_on_sphere

    def spy(*args, **kw):
        calls.append((args, kw))
        return refine(*args, **kw)

    monkeypatch.setattr(search, "refine_pair_on_sphere", spy)
    est = lc.delta_m(lc.lp_space(3, 1.5), 1.0, None, 4000)
    [((space, f, x0, t0, project, step0), kw)] = calls
    eps = kw["param"]  # the objective and the projection read each start's eps

    def single(s):
        return refine(space, f, x0[s], t0[s], project, step0[s], param=eps[s:s + 1])[0]

    final = [single(s) for s in range(len(x0))]
    monkeypatch.setattr(search, "_MAX_SWEEPS", search._STALL_SWEEPS)
    first_window = [single(s) for s in range(len(x0))]
    b = int(np.argmin(final))
    assert est.upper == final[b] == 0.9999999998641821
    assert first_window[b] == f(x0, t0, eps[:, None])[b] > min(first_window)


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


# grouped lockstep: several problems in one refine_pair_on_sphere call
GROUP_SPACES = {
    "lp": lambda: lc.lp_space(3, 3),
    "scale_max": lambda: lc.LatticeSpace(3, lc.Scale(0.7, lc.MaxOf(
        [lc.Scale(1.5, lc.lp(3, 2)), lc.beta_gap_space().norm]))),
    "blocksum": lambda: lc.direct_sum_l1(lc.lp_space(3, 3), 1),
    "formmax": lc.beta_gap_space,
}


def _groups(space):
    """Three problems (x0, y0, steps, tol, eps) on the full sphere: five
    random starts whose trailing ones the gain rule stops (tol = inf), two
    copies of one start, never behind their own group's best, and three
    random starts at tol 0."""
    rng = np.random.default_rng(2)
    x, y = _unit_rows(space, rng, 9, False), _unit_rows(space, rng, 9, False)
    return [(x[:5], y[:5], [0.2] * 5, np.inf, 1.0),
            (x[[5, 5]], y[[5, 5]], [0.1] * 2, np.inf, 0.5),
            (x[6:], y[6:], [0.05, 0.1, 0.2], 0.0, 0.8)]


def _scaled_schaffer(space):
    return lambda X, Y, e: np.maximum(space.norm_values(X - e * Y), space.norm_values(X + e * Y))


@pytest.mark.parametrize("name", list(GROUP_SPACES))
def test_grouped_lockstep_equals_solo_calls(name, monkeypatch):
    space = GROUP_SPACES[name]()
    f, project = _scaled_schaffer(space), sphere_projection(space, positive=False)
    groups = _groups(space)
    sizes = [len(x0) for x0, *_ in groups]
    best, bx, by, (vals, xs, ys) = refine_pair_on_sphere(
        space, f, np.concatenate([g[0] for g in groups]), np.concatenate([g[1] for g in groups]),
        project, [s for g in groups for s in g[2]],
        tol=np.repeat([g[3] for g in groups], sizes), group=np.repeat([0, 1, 2], sizes),
        param=np.repeat([g[4] for g in groups], sizes))
    solos = [refine_pair_on_sphere(space, f, x0, y0, project, steps, tol=tol, param=[e] * len(x0))
             for x0, y0, steps, tol, e in groups]
    for lo, n, (val, x, y, (svals, sxs, sys)) in zip(np.cumsum([0] + sizes), sizes, solos):
        rows = slice(lo, lo + n)
        assert vals[rows].tobytes() == svals.tobytes()
        assert xs[rows].tobytes() == sxs.tobytes() and ys[rows].tobytes() == sys.tobytes()
        b = lo + int(np.argmin(vals[rows]))
        assert vals[b] == val and np.array_equal(xs[b], x) and np.array_equal(ys[b], y)
    # the call's own best is the best over all groups, the earliest on ties
    k = int(np.argmin(vals))
    assert best == vals[k] and np.array_equal(bx, xs[k]) and np.array_equal(by, ys[k])

    # the first group's trailing starts stop early, the copies run on
    monkeypatch.setattr(search, "_STALL_SWEEPS", search._MAX_SWEEPS + 1)
    ruleless = [refine_pair_on_sphere(space, f, x0, y0, project, steps, param=[e] * len(x0))[3][0]
                for x0, y0, steps, _, e in groups]
    stopped = [int(np.count_nonzero(solo[3][0] != free)) for solo, free in zip(solos, ruleless)]
    assert stopped[0] == 4 and stopped[1] == 0


@pytest.mark.parametrize("name", list(GROUP_SPACES))
def test_refine_seeds_skips_a_problem_at_its_bound(name, monkeypatch):
    # each problem gets what refine_seeds gives it alone; the one whose best
    # start sits at its limit is returned unrefined and sends no start
    space = GROUP_SPACES[name]()
    f, project = _scaled_schaffer(space), sphere_projection(space, positive=False)
    problems = []
    for x0, y0, steps, tol, e in _groups(space):
        values = f(x0, y0, e)
        problems.append(search.Seeds(x0, y0, values, steps, width=tol / search._GAIN_TOL,
                                     limit=1.0, param=e))
    x0, y0, steps, _, e = _groups(space)[2]
    at_bound = search.Seeds(x0, y0, f(x0, y0, e), steps, width=1.0, limit=float(f(x0, y0, e)[1]),
                            param=e)
    problems.insert(1, at_bound)
    calls = []
    refine = search.refine_pair_on_sphere
    monkeypatch.setattr(search, "refine_pair_on_sphere",
                        lambda *args, **kwargs: calls.append(len(args[2])) or refine(*args, **kwargs))
    grouped = search.refine_seeds(space, f, problems, project)
    assert calls == [5 + 2 + 3]
    alone = [search.refine_seeds(space, f, [p], project) for p in problems]
    assert calls[1:] == [5, 2, 3]  # none for the problem at its bound
    for (val, x, y), [(sval, sx, sy)] in zip(grouped, alone):
        assert val == sval and x.tobytes() == sx.tobytes() and y.tobytes() == sy.tobytes()
    b = int(np.argmin(at_bound.values))
    assert grouped[1][0] == at_bound.values[b] <= at_bound.limit
    assert np.array_equal(grouped[1][1], x0[b]) and np.array_equal(grouped[1][2], y0[b])


def _counted(project, sweeps):
    """``project`` counting its calls, one per sweep, in a new entry of
    ``sweeps``."""
    sweeps.append(0)

    def counted(xc, tc, *param):
        sweeps[-1] += 1
        return project(xc, tc, *param)

    return counted


# sweeps and per-start values of the lockstep calls on _full_sphere_starts
# at tol = 0, by sense: minimizing, starts 1, 2 and 4 stop at the first
# window whose gain falls short of their gap
AT_TOL_0 = {
    False: (518, [1.2599304515123098, 1.2615169862187565, 1.2614840491731947,
                  1.2599210498948732, 1.2601746766363735]),
    True: (155, [1.9999999999999996, 2.0, 1.9999999999999996, 1.9999999999999998,
                 1.9999999999999987]),
}


def test_gain_rule_stops_creeping_starts():
    space, x0, y0, project, steps = _full_sphere_starts()
    f = _schaffer(space)
    for maximize, (count, values) in AT_TOL_0.items():
        sweeps = []
        *_, (vals, _, _) = refine_pair_on_sphere(
            space, f, x0, y0, _counted(project, sweeps), steps, maximize=maximize, tol=0.0)
        assert sweeps == [count] and vals.tolist() == values, maximize

    # maximizing, starts 2-4 creep towards 2 by less than 1e-9 a window and
    # stop, no better than alone; the best start 1 runs on as alone
    singles = [refine_pair_on_sphere(space, f, x0[s], y0[s], project, steps[s], maximize=True)
               for s in range(5)]
    sweeps = []
    best, bx, by, (vals, xs, ys) = refine_pair_on_sphere(
        space, f, x0, y0, _counted(project, sweeps), steps, maximize=True, tol=1e-9)
    stopped = [s for s, (val, _, _, _) in enumerate(singles) if vals[s] < val]
    assert stopped == [2, 3, 4] and sweeps[0] < AT_TOL_0[True][0]
    for s, (val, x, y, _) in enumerate(singles):
        if s not in stopped:
            assert vals[s] == val and np.array_equal(xs[s], x) and np.array_equal(ys[s], y), s
    assert best == singles[1][0] == 2.0
    assert np.array_equal(bx, singles[1][1]) and np.array_equal(by, singles[1][2])


def test_gain_rule_spares_lone_and_idle_starts(monkeypatch):
    # a start refined alone is the best start: no tolerance stops it
    space, x0, y0, project, steps = _full_sphere_starts()
    f = _schaffer(space)
    for s, maximize in itertools.product(range(5), (False, True)):
        val, x, y, _ = refine_pair_on_sphere(space, f, x0[s], y0[s], project, steps[s],
                                             maximize=maximize)
        tval, tx, ty, _ = refine_pair_on_sphere(space, f, x0[s], y0[s], project, steps[s],
                                                maximize=maximize, tol=np.inf)
        assert val == tval and np.array_equal(x, tx) and np.array_equal(y, ty), s

    # a start with no gain over a window goes on: in delta_m(l15_3) at
    # eps = 1 the start that ends best sits idle behind another start for
    # the first window
    calls = []
    refine = search.refine_pair_on_sphere

    def spy(*args, **kw):
        calls.append((args, kw))
        return refine(*args, **kw)

    monkeypatch.setattr(search, "refine_pair_on_sphere", spy)
    est = lc.delta_m(lc.lp_space(3, 1.5), 1.0, None, 4000)
    [((space, f, x0, t0, project, step0), kw)] = calls
    eps = kw["param"]  # the objective and the projection read each start's eps
    for tol in (1e-3, np.inf):
        assert refine(space, f, x0, t0, project, step0, tol=tol, param=eps)[0] == est.upper, tol


def test_gain_rule_keeps_planar_panel_enclosures(monkeypatch):
    # the benchmark's panel of random 2-D FormMax norms: every engine
    # constant comes out bit-identical at the gain rule's tolerance and at 0
    rng = np.random.default_rng(0)
    panel = [lc.random_polyhedral2_space(rng) for _ in range(8)]
    constants = {"lambda": lc.lambda_schaffer, "james": lc.james, "lambda_plus": lc.lambda_plus,
                 "sigma(1)": lambda space: lc.sigma(space, 1.0), "beta": lc.beta}
    sweeps = []
    refine = search.refine_pair_on_sphere

    def counting(space, f, x0, y0, project, *args, **kwargs):
        return refine(space, f, x0, y0, _counted(project, sweeps), *args, **kwargs)

    monkeypatch.setattr(search, "refine_pair_on_sphere", counting)

    def run():
        out = {}
        for (k, space), (name, fn) in itertools.product(enumerate(panel), constants.items()):
            sweeps.clear()
            out[k, name] = fn(space), sum(sweeps)
        return out

    ruled = run()
    monkeypatch.setattr(search, "_GAIN_TOL", 0.0)
    ruleless = run()
    for key, (est, _) in ruled.items():
        ref = ruleless[key][0]
        assert (est.lower, est.upper, est.estimate) == (ref.lower, ref.upper, ref.estimate), key
        assert all(np.array_equal(a, b) for a, b in zip(est.witnesses, ref.witnesses)), key
    # lambda on the 6th norm: at tol = 0 a creeping mirror seed runs 472
    # sweeps, under the gain rule 75
    assert ruleless[5, "lambda"][1] > 400 and ruled[5, "lambda"][1] <= 100


# the bound rule: engine constants whose best net value attains the a priori
# bound in the direction of refinement (lambda = 1 and james = 2 on l1 and
# linf, alpha = james = 2 on l1_3 and beta_gap, sigma(0.5) = 0 on linf_3
# and beta_gap), with that bound
AT_BOUND = {
    ("l1_2", "lambda"): 1.0, ("l1_2", "james"): 2.0,
    ("l1_3", "lambda"): 1.0, ("l1_3", "james"): 2.0, ("l1_3", "alpha"): 2.0,
    ("linf_3", "lambda"): 1.0, ("linf_3", "james"): 2.0, ("linf_3", "sigma(0.5)"): 0.0,
    ("beta_gap", "james"): 2.0, ("beta_gap", "alpha"): 2.0, ("beta_gap", "sigma(0.5)"): 0.0,
}
ENGINE_CONSTANTS = {
    "lambda": lc.lambda_schaffer, "james": lc.james, "lambda_plus": lc.lambda_plus,
    "beta": lc.beta, "alpha": lc.alpha,
    "sigma(0.5)": lambda space, *args: lc.sigma(space, 0.5, *args),
    "sigma(1)": lambda space, *args: lc.sigma(space, 1.0, *args),
}


def _engine_run(monkeypatch, space, name, bound_rule=True):
    """The constant at budget 2e5, and its number of refinement calls;
    ``bound_rule=False`` runs the engine without its problems' ``limit``."""
    calls = []
    refine = search.refine_pair_on_sphere
    seeds = search.refine_seeds
    with monkeypatch.context() as m:
        m.setattr(search, "refine_pair_on_sphere",
                  lambda *args, **kwargs: calls.append(args) or refine(*args, **kwargs))
        if not bound_rule:
            m.setattr(search, "refine_seeds", lambda space, f, problems, *args, **kwargs: seeds(
                space, f, [p._replace(limit=None) for p in problems], *args, **kwargs))
        est = ENGINE_CONSTANTS[name](lc.builtin_space(space), None, 200_000)
    return est, len(calls)


@pytest.mark.parametrize("space, name", sorted(AT_BOUND))
def test_bound_rule_skips_refinement_at_the_a_priori_bound(space, name, monkeypatch):
    est, calls = _engine_run(monkeypatch, space, name)
    ref, ref_calls = _engine_run(monkeypatch, space, name, bound_rule=False)
    assert calls == 0 and ref_calls > 0
    assert est.estimate == AT_BOUND[space, name]
    # refinement from the first seed finds nothing better and ends on it
    assert repr(est) == repr(ref) and est.info == ref.info
    assert [w.tobytes() for w in est.witnesses] == [w.tobytes() for w in ref.witnesses]


@pytest.mark.parametrize("space", ["l2_3", "beta_gap"])
def test_bound_rule_leaves_the_other_constants_refining(space, monkeypatch):
    # alpha runs the engine twice: support pairs, then its cross-check
    for name in ENGINE_CONSTANTS:
        if (space, name) not in AT_BOUND:
            _, calls = _engine_run(monkeypatch, space, name)
            assert calls == (2 if name == "alpha" else 1), name
