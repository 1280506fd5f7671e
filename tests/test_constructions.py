"""Disjointification, sup-norm copy extraction, diagonal isomorphisms, l1 sums."""

import math

import numpy as np
import pytest

from latconst import (
    EmbeddingError,
    LatticeSpace,
    MaxOf,
    Scale,
    beta,
    beta_gap_space,
    diagonal_isomorphism,
    direct_sum_l1,
    disjoint_parts,
    extract_linfty2,
    find_embedding,
    lambda_plus,
    linf_space,
    lp,
    lp_space,
    max_linf_l1_space,
    meet,
)

ROOT2 = math.sqrt(2.0)


def test_disjoint_parts_examples():
    z, xp, yp = disjoint_parts([1, 1, 0], [0, 1, 1])
    assert np.array_equal(z, [0, 1, 0])
    assert np.array_equal(xp, [1, 0, 0])
    assert np.array_equal(yp, [0, 0, 1])

    z, xp, yp = disjoint_parts([1, 0], [0, 2])
    assert np.array_equal(z, [0, 0])
    assert np.array_equal(xp, [1, 0]) and np.array_equal(yp, [0, 2])

    z, xp, yp = disjoint_parts([1, 2], [1, 2])
    assert np.array_equal(xp, [0, 0]) and np.array_equal(yp, [0, 0])


def test_disjoint_parts_rejects_negative():
    with pytest.raises(ValueError):
        disjoint_parts([1, -1], [0, 1])


def test_disjoint_parts_properties():
    rng = np.random.default_rng(3)
    for _ in range(500):
        x = np.abs(rng.standard_normal(4))
        y = np.abs(rng.standard_normal(4))
        z, xp, yp = disjoint_parts(x, y)
        assert np.array_equal(meet(xp, yp), np.zeros(4))
        assert np.array_equal(xp + yp, np.abs(x - y))
        # reconstruction is subject to one subtraction rounding per coordinate
        assert np.allclose(z + xp, x, atol=1e-15) and np.allclose(z + yp, y, atol=1e-15)


def test_extract_exact_sup_copy_in_linf3():
    space = linf_space(3)
    rep = extract_linfty2(space, [1.0, 0.5, 0.0], [0.0, 0.5, 1.0])
    assert rep.epsilon == pytest.approx(0.0, abs=1e-12)
    assert np.array_equal(rep.x_prime, [1, 0, 0])
    assert np.array_equal(rep.y_prime, [0, 0, 1])
    assert rep.sampled_distortion == pytest.approx(1.0, abs=1e-12)
    assert rep.analytic_distortion == pytest.approx(1.0, abs=1e-12)
    assert rep.samples >= 1000


def test_extract_bounds_hold_on_samples():
    # perturbed sup-norm: ||e1 + e2|| = 1.1 gives defect 0.1 and the
    # analytic distortion 1.1/0.9
    space = LatticeSpace(2, MaxOf([lp(2, math.inf), Scale(0.55, lp(2, 1))]))
    rep = extract_linfty2(space, [1.0, 0.0], [0.0, 1.0])
    assert rep.epsilon == pytest.approx(0.1, abs=1e-12)
    assert rep.analytic_distortion == pytest.approx(1.1 / 0.9, abs=1e-12)
    assert rep.min_ratio >= (1.0 - rep.epsilon) - 1e-9
    assert rep.max_ratio <= (1.0 + rep.epsilon) + 1e-9
    assert rep.sampled_distortion <= rep.analytic_distortion + 1e-9


def test_extract_rejects_unit_defect():
    space = lp_space(2, 1)
    with pytest.raises(EmbeddingError):
        extract_linfty2(space, [1.0, 0.0], [0.0, 1.0])  # defect exactly 1


def test_extract_rejects_degenerate_pair():
    space = linf_space(2)
    with pytest.raises(EmbeddingError):
        extract_linfty2(space, [1.0, 0.5], [1.0, 0.5])


def test_extract_rejects_off_sphere_input():
    with pytest.raises(ValueError):
        extract_linfty2(linf_space(2), [0.5, 0.0], [0.0, 1.0])


def test_find_embedding_on_sqrt2_norm():
    rep = find_embedding(max_linf_l1_space())
    assert rep.epsilon == pytest.approx(ROOT2 - 1.0, abs=5e-3)
    assert rep.min_ratio >= (1.0 - rep.epsilon) - 1e-6
    assert rep.max_ratio <= (1.0 + rep.epsilon) + 1e-6
    assert rep.sampled_distortion <= rep.analytic_distortion + 1e-9


def test_find_embedding_fails_on_l1():
    with pytest.raises(EmbeddingError):
        find_embedding(lp_space(2, 1))


def test_diagonal_isomorphism_identity():
    space = lp_space(2, 2)
    new_space, kappa = diagonal_isomorphism(space, [1.0, 1.0])
    assert kappa == pytest.approx(1.0, abs=1e-9)
    assert new_space.norm_value([0.3, -0.4]) == pytest.approx(0.5, abs=1e-12)


def test_diagonal_isomorphism_l1_example():
    space = lp_space(2, 1)
    new_space, kappa = diagonal_isomorphism(space, [2.0, 1.0])
    assert kappa == pytest.approx(2.0, abs=1e-6)
    lam = lambda_plus(new_space).estimate
    assert lam == pytest.approx(2.0, abs=5e-3)   # weighted l1 stays additive
    assert 2.0 / kappa - 5e-3 <= lam <= kappa * 2.0 + 5e-3


def test_diagonal_isomorphism_homothety():
    space = beta_gap_space()
    new_space, kappa = diagonal_isomorphism(space, [3.0, 3.0, 3.0])
    assert kappa == pytest.approx(1.0, abs=1e-9)
    assert beta(new_space).estimate == pytest.approx(beta(space).estimate, abs=1e-9)


def test_diagonal_isomorphism_rejects_nonpositive():
    with pytest.raises(ValueError):
        diagonal_isomorphism(lp_space(2, 2), [1.0, 0.0])


def test_diagonal_isomorphism_on_block_sum():
    d = np.array([1.5, 0.75, 1.2])
    _, kappa = diagonal_isomorphism(direct_sum_l1(lp_space(2, 2), 1), d)
    assert 1.0 <= kappa <= d.max() / d.min() + 1e-12


def test_membership_interval_random_diagonals():
    rng = np.random.default_rng(5)
    space = lp_space(2, 1.5)
    lam0 = lambda_plus(space).estimate
    bet0 = beta(space).estimate
    for _ in range(4):
        d = np.exp(rng.uniform(-0.7, 0.7, size=2))
        new_space, kappa = diagonal_isomorphism(space, d)
        lam1 = lambda_plus(new_space).estimate
        bet1 = beta(new_space).estimate
        assert lam0 / kappa - 5e-3 <= lam1 <= kappa * lam0 + 5e-3
        assert bet0 / kappa - 5e-3 <= bet1 <= kappa * bet0 + 5e-3


def test_direct_sum_l1_is_plain_l1_on_l1_blocks():
    summed = direct_sum_l1(lp_space(2, 1), 2)
    plain = lp_space(4, 1)
    rng = np.random.default_rng(7)
    pts = rng.standard_normal((100, 4))
    assert np.allclose(summed.norm_values(pts), plain.norm_values(pts), atol=1e-14)
    assert lambda_plus(summed).estimate == pytest.approx(2.0, abs=5e-3)
    assert beta(summed).estimate == pytest.approx(2.0, abs=5e-3)


def test_direct_sum_preserves_sup_norm_constant():
    summed = direct_sum_l1(linf_space(2), 1)
    assert lambda_plus(summed).estimate == pytest.approx(1.0, abs=5e-3)
    assert beta(summed).estimate == pytest.approx(1.0, abs=5e-3)


def test_direct_sum_rejects_bad_m():
    with pytest.raises(ValueError):
        direct_sum_l1(lp_space(2, 1), 0)
