"""The column-by-column norm kernels against the plain numpy reductions.

Every combinator must give the bits of ``oracles.reference_eval_abs`` (the
``np.sum``/``np.max``/``np.stack`` formulas) on single vectors and on
batches of every rank used, across the 8-column boundary where numpy
switches from in-order to pairwise summation, and must leave its input
unwritten.  The bits must not depend on the memory layout of the input:
coordinate-major batches, as the pair scans pass, give the same norms.
The refinement's ``sphere_projection`` evaluates both arguments in one
stacked call and must give the bits of one call per argument.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latconst import BlockSum, FormMax, LatticeSpace, MaxOf, Scale, WeightedP, lp
from latconst.search import sphere_projection

from oracles import reference_eval_abs
from strategies import norm_trees

P_VALUES = (1.0, 1.5, 2.0, 3.0, math.inf)


def _weights(rng, n, unit):
    return np.ones(n) if unit else rng.uniform(0.2, 3.0, n)


def _leaves(rng, n):
    """Weighted p-norms (unit and non-unit weights) and FormMax norms with
    1..10 rows on R^n."""
    out = [WeightedP(p, _weights(rng, n, unit)) for p in P_VALUES for unit in (True, False)]
    out += [FormMax(rng.uniform(0.05, 1.0, (m, n))) for m in range(1, 11)]
    return out


def _block_sums(rng):
    """Block sums of 1..9 blocks at p = 1, 1.5, 2 and inf, with blocks of
    dimension 1..3, and two with a block of dimension 9 (pairwise sums
    inside a block)."""
    out = []
    for nblocks in range(1, 10):
        for p in (1.0, 1.5, 2.0, math.inf):
            blocks = []
            for j in range(nblocks):
                k = int(rng.integers(1, 4))
                kind = (nblocks + j) % 3
                if kind == 0:
                    blocks.append(WeightedP(rng.choice(P_VALUES), _weights(rng, k, j % 2 == 0)))
                elif kind == 1:
                    blocks.append(FormMax(rng.uniform(0.05, 1.0, (int(rng.integers(1, 5)), k))))
                else:
                    blocks.append(Scale(rng.uniform(0.5, 2.0), lp(k, rng.choice(P_VALUES))))
            out.append(BlockSum(p, blocks))
    out.append(BlockSum(1.0, [lp(9, 1), lp(2, 2)]))
    out.append(BlockSum(2.0, [lp(2, math.inf), WeightedP(1.5, _weights(rng, 9, False))]))
    return out


def _nestings(rng, n):
    """Scale and MaxOf over leaves, nested up to depth 2."""
    a, b, c = (WeightedP(rng.choice(P_VALUES), _weights(rng, n, False)),
               lp(n, rng.choice(P_VALUES)),
               FormMax(rng.uniform(0.05, 1.0, (3, n))))
    return [
        Scale(1.7, a),
        MaxOf([a]),
        MaxOf([a, b, c]),
        Scale(0.6, MaxOf([b, Scale(1.3, c)])),
        MaxOf([Scale(2.5, a), MaxOf([b, c])]),
        Scale(1.1, Scale(0.9, c)),
        MaxOf([BlockSum(2.0, [lp(1, 1)] * n), Scale(0.8, b)]),
    ]


def _inputs(rng, n):
    """Signed inputs of shapes (n,), (k, n) and (b, m, n) whose entries
    span several decades, so that a change of summation order shows."""
    for shape in ((n,), (7, n), (3, 5, n)):
        yield rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.integers(-3, 3, shape)


def _assert_same(got, want):
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want)


def _check(expr, rng):
    space = LatticeSpace(expr.dim, expr)
    for x in _inputs(rng, expr.dim):
        a = np.abs(x)
        a_before, x_before = a.copy(), x.copy()
        _assert_same(expr.eval_abs(a), reference_eval_abs(expr, a))
        coordinate_major = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, -1, 0)), 0, -1)
        _assert_same(expr.eval_abs(coordinate_major), reference_eval_abs(expr, a))
        _assert_same(space.norm_values(x), reference_eval_abs(expr, np.abs(x)))
        for v in x.reshape(-1, expr.dim)[:3]:
            assert space.norm_value(v) == float(reference_eval_abs(expr, np.abs(v)))
        assert np.array_equal(a, a_before) and np.array_equal(x, x_before)


@pytest.mark.parametrize("n", range(1, 11))
def test_leaves_and_nestings_match_plain_reductions(n):
    rng = np.random.default_rng(700 + n)
    for expr in _leaves(rng, n) + _nestings(rng, n):
        _check(expr, rng)


def test_block_sums_match_plain_reductions():
    rng = np.random.default_rng(711)
    for expr in _block_sums(rng):
        _check(expr, rng)


def test_integer_input_gives_float_norms():
    # the unit-weight paths skip the float weight multiply, so they must
    # still return floats
    a = np.array([[3, 4, 0, 1, 2, 5, 7, 1, 2], [1, 0, 2, 2, 0, 1, 1, 9, 4]])
    for n in (2, 9):
        for expr in (lp(n, 1), lp(n, math.inf), BlockSum(1.0, [lp(1, 1)] * n)):
            _assert_same(expr.eval_abs(a[:, :n]), reference_eval_abs(expr, a[:, :n].astype(float)))
            _assert_same(expr.eval_abs(a[0, :n]), reference_eval_abs(expr, a[0, :n].astype(float)))


def test_results_are_fresh_buffers():
    # callers (and MaxOf/Scale) may write into a result; it must share no
    # memory with the input or with another result
    rng = np.random.default_rng(712)
    a = rng.uniform(0.0, 1.0, (4, 3))
    for expr in (lp(3, 1), lp(3, math.inf), FormMax([[1.0, 0.5, 0.2]]), Scale(2.0, lp(3, 2)),
                 MaxOf([lp(3, 1)]), BlockSum(1.0, [lp(3, 2)]), BlockSum(1.0, [lp(1, 1)] * 3)):
        r1, r2 = expr.eval_abs(a), expr.eval_abs(a)
        assert not np.shares_memory(r1, a) and not np.shares_memory(r1, r2)


# ---------------------------------------------------------------------------
# the refinement's projection: one stacked norm call for both arguments
# ---------------------------------------------------------------------------


def _two_call_projection(space, positive):
    """The reference: ``sphere_projection`` with one ``norm_values`` call
    per argument."""

    def project(xc, yc):
        if positive:
            np.maximum(xc, 0.0, out=xc)
            np.maximum(yc, 0.0, out=yc)
        nx = space.norm_values(xc)
        ny = space.norm_values(yc)
        valid = (nx > 1e-12) & (ny > 1e-12)
        np.place(nx, ~valid, 1.0)
        np.place(ny, ~valid, 1.0)
        return xc / nx[:, None], yc / ny[:, None], valid

    return project


def _candidates(rng, rows, n):
    """Signed candidate rows over several decades, with exact zero rows and
    rows near zero, so that some of them are invalid."""
    x = rng.uniform(-1.0, 1.0, (rows, n)) * 10.0 ** rng.integers(-3, 2, (rows, 1))
    x[rng.random(rows) < 0.1] = 0.0
    tiny = rng.random(rows) < 0.1
    x[tiny] *= 10.0 ** rng.integers(-16, -11, (int(tiny.sum()), 1))
    return x


def _assert_stacked_projection_matches(expr, rng):
    space = LatticeSpace(expr.dim, expr)
    for positive in (False, True):
        for rows in (1, 7, 40, 129, 600, 1500):
            xc, yc = _candidates(rng, rows, expr.dim), _candidates(rng, rows, expr.dim)
            got = sphere_projection(space, positive)(xc.copy(), yc.copy())
            want = _two_call_projection(space, positive)(xc.copy(), yc.copy())
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == w.dtype
                assert g.tobytes() == w.tobytes(), (expr, positive, rows)


def _projection_cases(rng, n):
    """Every combinator on R^n: weighted and unit p-norms, FormMax with one
    and with several rows, MaxOf, Scale and BlockSum."""
    leaves = [WeightedP(p, _weights(rng, n, unit)) for p in P_VALUES for unit in (True, False)]
    forms = [FormMax(rng.uniform(0.05, 1.0, (m, n))) for m in (1, 2, 5)]
    out = leaves + forms + [MaxOf([leaves[3], forms[1]]), Scale(1.5, forms[0]),
                            Scale(0.7, MaxOf([leaves[0], leaves[9]]))]
    if n >= 2:
        out += [BlockSum(p, [lp(1, 1), WeightedP(2.0, _weights(rng, n - 1, False))])
                for p in (1.0, 1.5, math.inf)]
        out.append(BlockSum(2.0, [FormMax(rng.uniform(0.05, 1.0, (3, n - 1))), lp(1, 3)]))
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stacked_projection_matches_the_two_call_projection(n):
    rng = np.random.default_rng(900 + n)
    for expr in _projection_cases(rng, n):
        _assert_stacked_projection_matches(expr, rng)


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(norm_trees(d), st.integers(0, 2**32 - 1))))
def test_stacked_projection_matches_on_random_trees(case):
    norm, seed = case
    _assert_stacked_projection_matches(norm, np.random.default_rng(seed))
