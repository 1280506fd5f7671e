"""The column-by-column norm kernels against the plain numpy reductions.

Every combinator must give the bits of ``oracles.reference_eval_abs`` (the
``np.sum``/``np.max``/``np.stack`` formulas) on single vectors and on
batches of every rank used, across the 8-column boundary where numpy
switches from in-order to pairwise summation, and must leave its input
unwritten.  The bits must not depend on the memory layout of the input:
coordinate-major batches, as the pair scans pass, give the same norms.
"""

import math

import numpy as np
import pytest

from latconst import BlockSum, FormMax, LatticeSpace, MaxOf, Scale, WeightedP, lp

from oracles import reference_eval_abs

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
