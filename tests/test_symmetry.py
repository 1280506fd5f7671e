"""Coordinate symmetries and the fundamental-domain scans built on them.

A norm's symmetry blocks are read from its expression tree: a transposition
counts when ``permute_norm`` gives an equal tree, so the detection may miss
a symmetry but never invents one.  The constants then scan x over the
fundamental domain of those blocks only; on random norms with and without
symmetry, that scan's extremum equals the full scan's to within 4 ulps, and
every certified side holds the brute-force oracle value."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import latconst as lc
from latconst import BlockSum, FormMax, LatticeSpace, MaxOf, Scale, WeightedP
from latconst.nets import _domain_points, half_sphere_net, positive_face_net
from latconst.search import scan_pairs

import oracles
from strategies import norm_trees


def _image(blocks, perm):
    """The blocks of ``permute_norm(norm, perm)``, x -> ||x o perm||, in
    which coordinate perm[i] plays the part of the old coordinate i."""
    return tuple(sorted(tuple(sorted(int(perm[i]) for i in b)) for b in blocks))


@pytest.mark.parametrize("dim", [2, 3, 4])
@pytest.mark.parametrize("p", [1, 1.5, 2, 3, math.inf])
def test_unit_weight_lp_has_the_full_group(dim, p):
    assert lc.lp_space(dim, p)._symmetry_blocks == (tuple(range(dim)),)


def test_weighted_lp_and_block_sums_have_no_symmetry():
    assert lc.lp_space(3, 2, weights=[1.0, 2.5, 0.75])._symmetry_blocks == ()
    # equal blocks are a symmetry of the norm, but a BlockSum is never read
    pair = BlockSum(2, [lc.lp(2, 2), lc.lp(2, 2)])
    assert LatticeSpace(4, pair)._symmetry_blocks == ()
    assert LatticeSpace(4, MaxOf([pair, lc.lp(4, 1)]))._symmetry_blocks == ()
    assert lc.direct_sum_l1(lc.beta_gap_space(), 1)._symmetry_blocks == ()


def test_partial_weights_give_the_blocks_of_equal_weights():
    space = lc.lp_space(4, 3, weights=[2.0, 1.0, 2.0, 1.0])
    assert space._symmetry_blocks == ((0, 2), (1, 3))
    # an l1 term with other weights cuts the blocks of its MaxOf
    cut = MaxOf([space.norm, WeightedP(1, [1.0, 1.0, 1.0, 5.0])])
    assert LatticeSpace(4, cut)._symmetry_blocks == ((0, 2),)


def test_beta_gap_has_its_one_transposition():
    assert lc.beta_gap_space()._symmetry_blocks == ((0, 1),)


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", ["beta_gap", "l2_3", "l15_2", "max_l2_linf_1.2",
                                  "max_linf_l1"])
def test_seeded_scaled_copies_keep_their_group(name, seed):
    # the benchmark's isometric copies: Scale(1.5, permute_norm(norm, perm))
    space = lc.builtin_space(name)
    perm = np.random.default_rng(seed).permutation(space.dim)
    copy = LatticeSpace(space.dim, Scale(1.5, lc.permute_norm(space.norm, perm)))
    assert copy._symmetry_blocks == _image(space._symmetry_blocks, perm)
    assert copy._symmetry_blocks == LatticeSpace(
        space.dim, lc.permute_norm(space.norm, perm))._symmetry_blocks


def test_formmax_rows_compare_as_a_multiset():
    rows = [[1.0, 0.0, 0.5], [0.0, 1.0, 0.5], [0.7, 0.7, 0.3]]
    assert LatticeSpace(3, FormMax(rows))._symmetry_blocks == ((0, 1),)
    # a repeated row counts: the permuted rows must be the same multiset
    uneven = rows + [[1.0, 0.0, 0.5]]
    assert LatticeSpace(3, FormMax(uneven))._symmetry_blocks == ()


# random trees (``strategies.norm_trees``) draw weights and rows from small
# sets, so that equal weights and permuted rows, and with them symmetries,
# are common
@settings(max_examples=150, deadline=None, database=None)
@given(st.integers(2, 4).flatmap(lambda d: st.tuples(norm_trees(d), st.integers(0, 2**32 - 1))))
def test_detected_transpositions_leave_the_norm_unchanged(case):
    norm, seed = case
    space = LatticeSpace(norm.dim, norm)
    x = np.random.default_rng(seed).standard_normal((64, norm.dim))
    values = space.norm_values(x)
    for block in space._symmetry_blocks:
        for i, j in itertools.combinations(block, 2):
            swapped = x.copy()
            swapped[:, [i, j]] = x[:, [j, i]]
            assert np.all(np.abs(space.norm_values(swapped) - values) <= 1e-15 * values)


# ---------------------------------------------------------------------------
# fundamental-domain scans against full scans and the oracles
# ---------------------------------------------------------------------------


def _random_rows(rng, dim, blocks):
    """Random positive form rows, closed under the permutations within ``blocks``."""
    rows = rng.uniform(0.05, 1.0, size=(3, dim))
    for block in blocks:
        rows = np.vstack([rows[:, perm] for perm in _block_perms(dim, block)])
    return rows


def _block_perms(dim, block):
    for image in itertools.permutations(block):
        perm = list(range(dim))
        for src, dst in zip(block, image):
            perm[dst] = src
        yield perm


# (dim, blocks) of the random norms: none, one transposition, the full group
SHAPES = [(2, ()), (2, ((0, 1),)), (3, ()), (3, ((0, 2),)), (3, ((0, 1, 2),))]


def _random_case(dim, blocks, seed):
    rows = _random_rows(np.random.default_rng(seed), dim, blocks)
    space = LatticeSpace(dim, FormMax(rows))
    assert space._symmetry_blocks == blocks
    return space, oracles.formmax_norm(rows)


def _within_ulps(a, b, n=4):
    return abs(a - b) <= n * math.ulp(max(abs(a), abs(b)))


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("dim,blocks", SHAPES)
def test_domain_scan_matches_the_full_scan(dim, blocks, seed):
    space, _ = _random_case(dim, blocks, seed)
    h = 0.05 if dim == 2 else 0.125
    n = space.norm_values
    objectives = [
        (False, lambda X, Y: n(X + Y), False), (False, lambda X, Y: n(X + 0.5 * Y), False),
        (False, lambda X, Y: n(X - Y), True),
        (True, lambda X, Y: np.maximum(n(X - Y), n(X + Y)), False),
        (True, lambda X, Y: np.minimum(n(X - Y), n(X + Y)), True),
    ]
    for full_sphere, f, maximize in objectives:
        net = (half_sphere_net if full_sphere else positive_face_net)(space, h).points
        xs = _domain_points(space, net)
        assert (xs is net) == (blocks == ())
        full, _ = scan_pairs(space, net, net, f, maximize)
        reduced, _ = scan_pairs(space, xs, net, f, maximize)
        assert _within_ulps(full, reduced), (full_sphere, maximize, full, reduced)


@pytest.mark.parametrize("dim,blocks", SHAPES)
def test_certified_sides_hold_the_oracle_values(dim, blocks):
    space, norm = _random_case(dim, blocks, 7)
    budget = 20_000
    m = 60 if dim == 2 else 16
    if dim == 2:
        sphere = oracles.angle_sphere(norm, 720)
    else:
        pos = oracles.simplex_positive_sphere(norm, 3, 16)
        sphere = np.vstack([pos * np.array(s) for s in itertools.product((1, -1), repeat=3)])
    positive = oracles.simplex_positive_sphere(norm, dim, m)

    def oracle(pts, combine, maximize=False):
        return oracles.pair_extremum(norm, pts, pts, combine, maximize)

    # an infimum's certified lower side lies below every attained value, a
    # supremum's certified upper side above it
    tol = 1e-12
    assert lc.lambda_plus(space, None, budget).lower <= oracle(positive, oracles.sum_combine) + tol
    sig = oracles.sigma_oracle(norm, dim, 0.5, m)
    assert lc.sigma(space, 0.5, None, budget).lower <= sig + tol
    alp = lc.alpha(space, None, budget)
    cross = alp.info["cross_check_upper"]
    assert cross >= oracle(positive, lambda nm, x, y: nm(x - y), True) - tol
    assert lc.lambda_schaffer(space, None, budget).lower <= oracle(
        sphere, oracles.schaffer_combine) + tol
    assert lc.james(space, None, budget).upper >= oracle(
        sphere, oracles.james_combine, True) - tol
    assert lc.beta(space, None, budget).lower <= oracles.disjoint_pair_extremum(norm, dim, m) + tol
    assert alp.upper >= oracles.disjoint_pair_extremum(norm, dim, m, True) - tol
    # the delta oracle admits y up to 1e-12 below the constraint
    assert lc.delta_m(space, 0.5, None, budget).lower <= oracles.delta_oracle(
        norm, dim, 0.5, m) + 1e-9
