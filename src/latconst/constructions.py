"""Constructive procedures: disjointification, extraction of near-isometric
2-D sup-norm copies, diagonal lattice isomorphisms, and l1 direct sums.

Given positive unit x, y with small defect eps = ||x + y|| - 1, removing the
common part z = x ^ y leaves disjoint positive x' = x - z, y' = y - z with

    (1 - eps) max{|a|, |b|}  <=  ||a x' + b y'||  <=  (1 + eps) max{|a|, |b|}

for all scalars a, b.  The linear map (a, b) -> a x' + b y' is then a lattice
isomorphism from 2-D sup-norm space with distortion at most
(1 + eps)/(1 - eps); the bound degenerates at eps = 1, so a defect >= 1 is
rejected outright.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ConstantEstimate, lambda_plus
from .core import (
    BlockSum,
    EmbeddingError,
    LatticeSpace,
    as_vector,
    lp,
    meet,
    rescale_coordinates,
)
from .nets import DEFAULT_PAIR_BUDGET

__all__ = [
    "EmbeddingReport",
    "disjoint_parts",
    "extract_linfty2",
    "find_embedding",
    "diagonal_isomorphism",
    "direct_sum_l1",
]

# directions sampled on the unit circle of (a, b) when measuring a copy
_SAMPLES = 1000


def disjoint_parts(x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split nonnegative x, y into common part z = x ^ y and disjoint
    remainders x' = x - z, y' = y - z with x' + y' = |x - y| exactly."""
    vx = as_vector(x)
    vy = as_vector(y, dim=vx.size)
    if np.any(vx < 0) or np.any(vy < 0):
        raise ValueError("disjoint_parts needs coordinatewise nonnegative inputs")
    z = meet(vx, vy)
    return z, vx - z, vy - z


@dataclass
class EmbeddingReport:
    """A disjoint positive pair spanning a near-isometric 2-D sup-norm copy."""

    x_prime: np.ndarray
    y_prime: np.ndarray
    epsilon: float                 # defect ||x + y|| - 1 of the source pair
    analytic_distortion: float     # (1 + eps) / (1 - eps)
    sampled_distortion: float      # max/min sampled ratio ||a x' + b y'|| / max(|a|,|b|)
    min_ratio: float
    max_ratio: float
    samples: int

    def to_dict(self) -> dict:
        return {
            "x_prime": list(map(float, self.x_prime)),
            "y_prime": list(map(float, self.y_prime)),
            "epsilon": self.epsilon,
            "analytic_distortion": self.analytic_distortion,
            "sampled_distortion": self.sampled_distortion,
            "min_ratio": self.min_ratio,
            "max_ratio": self.max_ratio,
            "samples": self.samples,
        }


def extract_linfty2(space: LatticeSpace, x, y) -> EmbeddingReport:
    """Disjointify a positive unit pair and measure the 2-D sup-norm copy it
    spans, sampling ``_SAMPLES`` directions plus the four corners
    (+/-1, +/-1) where the analytic bounds bind."""
    vx = as_vector(x, dim=space.dim)
    vy = as_vector(y, dim=space.dim)
    if np.any(vx < -1e-12) or np.any(vy < -1e-12):
        raise ValueError("embedding extraction needs positive vectors")
    vx = np.maximum(vx, 0.0)
    vy = np.maximum(vy, 0.0)
    for v in (vx, vy):
        if abs(space.norm_value(v) - 1.0) > 1e-9:
            raise ValueError("embedding extraction needs unit vectors (within 1e-9)")
    eps = space.norm_value(vx + vy) - 1.0
    if eps >= 1.0:
        raise EmbeddingError(
            f"pair defect {eps:.6g} >= 1: the distortion bound degenerates"
        )
    _, xp, yp = disjoint_parts(vx, vy)
    if space.norm_value(xp) < 1e-9 or space.norm_value(yp) < 1e-9:
        raise EmbeddingError("degenerate pair (x = y): disjoint parts vanish")
    theta = 2.0 * math.pi * np.arange(_SAMPLES) / _SAMPLES
    ab = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    corners = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
    ab = np.vstack([ab, corners])
    vecs = ab[:, :1] * xp[None, :] + ab[:, 1:] * yp[None, :]
    ratios = space.norm_values(vecs) / np.max(np.abs(ab), axis=1)
    lo = float(np.min(ratios))
    hi = float(np.max(ratios))
    return EmbeddingReport(
        x_prime=xp,
        y_prime=yp,
        epsilon=eps,
        analytic_distortion=(1.0 + eps) / (1.0 - eps),
        sampled_distortion=hi / lo,
        min_ratio=lo,
        max_ratio=hi,
        samples=ab.shape[0],
    )


def find_embedding(
    space: LatticeSpace,
    resolution: float | None = None,
    defect_cap: float = 0.995,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    *,
    estimate: ConstantEstimate | None = None,
) -> EmbeddingReport:
    """Search mode: reuse the positive-pair infimum witness as the source
    pair, from ``estimate`` (the space's ``lambda_plus``, when the caller
    holds it) or a fresh ``lambda_plus``.  Fails when no pair with defect
    below ``defect_cap`` exists."""
    est = lambda_plus(space, resolution, pair_budget) if estimate is None else estimate
    if est.estimate - 1.0 >= defect_cap:
        raise EmbeddingError(
            f"smallest positive-pair defect found is {est.estimate - 1.0:.6g} "
            f">= cap {defect_cap}: no useful embedding"
        )
    wx, wy = est.witnesses
    return extract_linfty2(space, wx, wy)


def diagonal_isomorphism(space: LatticeSpace, d) -> tuple[LatticeSpace, float]:
    """Push the norm forward under T = diag(d) (a lattice isomorphism) and
    return the distortion of the identity between the two normings.

    The new space carries ||v||' = ||v / d||, and kappa = ||I: X -> Y|| *
    ||I: Y -> X|| = max(d) / min(d) exactly, for every lattice norm: by
    monotonicity ||x / d|| <= ||x|| / min(d), with equality at the basis
    vector of the smallest d_i, and likewise ||y * d|| <= max(d) ||y||, with
    equality at the basis vector of the largest d_i.
    """
    d = as_vector(d, dim=space.dim)
    if np.any(d <= 0):
        raise ValueError("diagonal entries must be strictly positive")
    new_space = LatticeSpace(space.dim, rescale_coordinates(space.norm, d))
    return new_space, float(np.max(d) / np.min(d))


def direct_sum_l1(space: LatticeSpace, m: int) -> LatticeSpace:
    """The l1 direct sum of the space with unweighted l1^m; the positive-pair
    and disjoint-pair infima of the sum coincide with the base space's."""
    m = int(m)
    if m < 1:
        raise ValueError("m must be >= 1")
    return LatticeSpace(space.dim + m, BlockSum(1.0, [space.norm, lp(m, 1)]))
