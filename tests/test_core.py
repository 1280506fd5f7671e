"""Lattice operations, norm evaluation, validation and the JSON schema."""

import math

import numpy as np
import pytest

from latconst import (
    BlockSum,
    DimensionMismatchError,
    FormMax,
    InvalidNormError,
    LatticeSpace,
    MaxOf,
    Scale,
    WeightedP,
    absval,
    beta_gap_space,
    join,
    linf_space,
    lp,
    lp_space,
    max_l2_linf_space,
    max_linf_l1_space,
    meet,
    norm_from_dict,
    permute_norm,
    rescale_coordinates,
    space_from_dict,
    validate_lattice_norm,
)

from oracles import gap3_norm


def test_meet_join_absval_examples():
    assert np.array_equal(meet([1, 0], [0, 1]), [0, 0])
    assert np.array_equal(join([1, 0], [0, 1]), [1, 1])
    assert np.array_equal(absval([-2, 3]), [2, 3])


def test_lattice_ops_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        meet([1, 0], [1, 0, 0])
    with pytest.raises(DimensionMismatchError):
        join([1], [1, 2])


def test_nonfinite_vectors_rejected():
    with pytest.raises(ValueError):
        absval([1.0, float("nan")])
    with pytest.raises(ValueError):
        lp_space(2, 2).norm_value([float("inf"), 0.0])


def test_birkhoff_identity_exact():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        assert np.array_equal(meet(x, y) + join(x, y), x + y)


def test_gap3_norm_values():
    space = beta_gap_space()
    assert space.norm_value([0.8, 0.0, 0.4]) == pytest.approx(1.0, abs=1e-12)
    assert space.norm_value([0.8, 0.8, 0.8]) == pytest.approx(4.0 / 3.0, abs=1e-12)


def test_gap3_norm_matches_hand_evaluation():
    space = beta_gap_space()
    rng = np.random.default_rng(3)
    pts = rng.standard_normal((200, 3)) * 2.0
    got = space.norm_values(pts)
    want = gap3_norm(pts)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_l2_norm_value():
    assert lp_space(2, 2).norm_value([3.0, 4.0]) == pytest.approx(5.0, abs=1e-12)


def test_norm_eval_is_abs_first_bitwise():
    rng = np.random.default_rng(11)
    for space in (lp_space(3, 1.5), beta_gap_space(), max_linf_l1_space()):
        for _ in range(100):
            x = rng.standard_normal(space.dim)
            assert space.norm_value(x) == space.norm_value(absval(x))


def test_norm_eval_deterministic():
    space = max_l2_linf_space(1.2)
    x = np.array([0.3, -0.7])
    vals = {space.norm_value(x) for _ in range(20)}
    assert len(vals) == 1


def test_weighted_p_infinity():
    expr = WeightedP(math.inf, [2.0, 1.0])
    assert float(expr.eval_abs(np.array([0.4, 0.5]))) == pytest.approx(0.8)


def test_block_sum_matches_hand_formula():
    # linf^2 (+)_1 l1^1: ||v|| = max(|v1|, |v2|) + |v3|
    expr = BlockSum(1, [lp(2, math.inf), lp(1, 1)])
    space = LatticeSpace(3, expr)
    rng = np.random.default_rng(5)
    for _ in range(100):
        v = rng.standard_normal(3)
        want = max(abs(v[0]), abs(v[1])) + abs(v[2])
        assert space.norm_value(v) == pytest.approx(want, abs=1e-12)


def test_scale_and_max_combinators():
    space = max_linf_l1_space()
    v = np.array([1.0, 1.0])
    assert space.norm_value(v) == pytest.approx(math.sqrt(2.0), abs=1e-12)
    assert space.norm_value([1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)


def test_construction_validation():
    with pytest.raises(InvalidNormError):
        WeightedP(0.5, [1.0, 1.0])
    with pytest.raises(InvalidNormError):
        WeightedP(2, [1.0, -1.0])
    with pytest.raises(InvalidNormError):
        WeightedP(2, [1.0, 0.0])
    with pytest.raises(InvalidNormError):
        FormMax([[1.0, 0.0], [0.0, 0.0]])  # zero row
    with pytest.raises(DimensionMismatchError):
        MaxOf([lp(2, 1), lp(3, 1)])
    with pytest.raises(InvalidNormError):
        Scale(0.0, lp(2, 2))
    with pytest.raises(InvalidNormError):
        MaxOf([])


def test_uncovered_coordinate_rejected_by_space():
    # second coordinate gets no weight anywhere: ||e_2|| = 0
    with pytest.raises(InvalidNormError):
        LatticeSpace(2, FormMax([[1.0, 0.0]]))


def test_negative_formmax_constructible_but_invalid():
    space = LatticeSpace(2, FormMax([[1.0, -0.8], [0.5, 1.0]]))
    report = validate_lattice_norm(space, samples=2000, seed=1)
    assert not report.passed
    assert report.violation["property"] in ("monotonicity", "triangle inequality")
    assert "lhs" in report.violation and "rhs" in report.violation


def test_validate_passes_on_lattice_norms():
    for space in (lp_space(3, 1), linf_space(2), beta_gap_space(), max_l2_linf_space(1.4)):
        assert validate_lattice_norm(space, samples=2000, seed=0).passed


def test_validate_gap3_large_sample():
    assert validate_lattice_norm(beta_gap_space(), samples=10_000, seed=2).passed


def test_sandwich_constants_examples():
    # the basis norms b_i = ||e_i|| weight both sides of the sandwich
    lo = hi = lp_space(3, 1).basis_norms
    assert np.allclose(lo, 1.0) and np.allclose(hi, 1.0)
    lo = beta_gap_space().basis_norms
    assert np.allclose(lo, [1.0, 1.0, 0.5], atol=1e-12)
    space = linf_space(2)
    lo = hi = space.basis_norms
    assert np.allclose(lo, [1.0, 1.0])
    # upper bound is slack at (1,1): ||(1,1)||_inf = 1 <= 2
    assert space.norm_value([1.0, 1.0]) == 1.0 <= float(np.sum(hi))


def test_sandwich_bound_random_property():
    rng = np.random.default_rng(42)
    spaces = [lp_space(3, 1.5), linf_space(3), beta_gap_space(),
              max_linf_l1_space(), LatticeSpace(3, BlockSum(2, [lp(2, 1), lp(1, 2)]))]
    for space in spaces:
        lo = space.basis_norms
        pts = rng.standard_normal((10_000, space.dim)) * 3.0
        norms = space.norm_values(pts)
        lower = np.max(np.abs(pts) * lo[None, :], axis=1)
        upper = np.sum(np.abs(pts) * lo[None, :], axis=1)
        assert np.all(lower <= norms + 1e-9)
        assert np.all(norms <= upper + 1e-9)


def test_json_schema_roundtrip():
    spec = {
        "dim": 5,
        "norm": {
            "type": "blocksum",
            "p": 1,
            "blocks": [
                {"dim": 3, "norm": {"type": "formmax",
                                    "rows": [[1, 0, 0.5], [0, 1, 0.5], [0.5, 0.5, 0.5]]}},
                {"dim": 2, "norm": {"type": "max", "terms": [
                    {"type": "lp", "p": "inf"},
                    {"type": "scale", "c": 0.7, "term": {"type": "lp", "p": 1}},
                ]}},
            ],
        },
    }
    space = space_from_dict(spec)
    rebuilt = space_from_dict(space.to_dict())
    rng = np.random.default_rng(9)
    pts = rng.standard_normal((50, 5))
    assert np.allclose(space.norm_values(pts), rebuilt.norm_values(pts), atol=1e-14)


def test_json_weights_default_to_ones():
    expr = norm_from_dict({"type": "lp", "p": 2}, 4)
    assert np.array_equal(expr.weights, np.ones(4))


def test_json_malformed_specs():
    with pytest.raises(InvalidNormError):
        space_from_dict({"dim": 2})
    with pytest.raises(InvalidNormError):
        space_from_dict({"dim": 0, "norm": {"type": "lp", "p": 2}})
    with pytest.raises(InvalidNormError):
        norm_from_dict({"type": "mystery"}, 2)
    with pytest.raises(InvalidNormError):
        norm_from_dict({"type": "lp"}, 2)
    with pytest.raises(InvalidNormError):
        norm_from_dict({"type": "lp", "p": "infinite"}, 2)
    with pytest.raises(DimensionMismatchError):
        norm_from_dict({"type": "lp", "p": 2, "weights": [1, 1, 1]}, 2)
    with pytest.raises(InvalidNormError):
        norm_from_dict({"type": "blocksum", "p": 1, "blocks": []}, 2)


def test_permute_norm():
    rng = np.random.default_rng(13)
    space = beta_gap_space()
    permuted = LatticeSpace(3, permute_norm(space.norm, (2, 0, 1)))
    for _ in range(50):
        v = rng.standard_normal(3)
        assert permuted.norm_value(v) == pytest.approx(
            space.norm_value(v[[2, 0, 1]]), abs=1e-12)
    with pytest.raises(DimensionMismatchError):
        permute_norm(space.norm, (0, 1))
    with pytest.raises(InvalidNormError):
        permute_norm(BlockSum(1, [lp(1, 1), lp(1, 1)]), (1, 0))


def test_permute_norm_moves_old_coordinate_i_to_perm_i():
    # x |-> ||x o perm||: new coordinate perm[i] carries old coordinate i's weight
    permuted = permute_norm(WeightedP(1, [1, 2, 3]), [1, 2, 0])
    assert permuted.weights.tolist() == [3.0, 1.0, 2.0]
    v = np.array([5.0, 7.0, 11.0])
    assert LatticeSpace(3, permuted).norm_value(v) == 1 * 7.0 + 2 * 11.0 + 3 * 5.0


def test_rescale_coordinates_matches_direct():
    rng = np.random.default_rng(17)
    d3 = np.array([2.0, 0.5, 1.25])
    # l2 (+) FormMax: each block gets its own slice of d
    block_sum = LatticeSpace(4, BlockSum(2, [lp(2, 2), FormMax([[1.0, 0.3], [0.4, 1.0]])]))
    for space, d in ((lp_space(3, 1.5), d3), (beta_gap_space(), d3), (linf_space(3), d3),
                     (block_sum, np.array([2.0, 0.5, 1.25, 0.8]))):
        scaled = LatticeSpace(space.dim, rescale_coordinates(space.norm, d))
        for _ in range(50):
            v = rng.standard_normal(space.dim)
            assert scaled.norm_value(v) == pytest.approx(
                space.norm_value(v / d), abs=1e-12)
