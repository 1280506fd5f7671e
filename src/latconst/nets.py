r"""Certified nets on positive and full unit spheres of a lattice norm.

Mesh certificate.  Let S be the support of the net (all coordinates for
S+), b_i = ||e_i|| and 1_A the indicator vector of a set A of coordinates.
Every unit vector u >= 0 on S equals v / ||v|| for v = u / max_i u_i, a
point of the cube [0, 1]^S with some coordinate v_k = 1.  Round each
coordinate of v to the nearest value of the grid G = {0, h, 2h, ...} u {1};
the rounded point g keeps g_k = 1 and moves every other coordinate by at
most h/2, so |v - g| <= (h/2) 1_{S\k} coordinatewise and, by monotonicity
of the lattice norm, ||v - g|| <= (h/2) ||1_{S\k}||.  Since v >= e_k,
monotonicity also gives ||v|| >= b_k.  Renormalizing g to the sphere at most
doubles the relative error:

    || v/||v|| - g/||g|| ||  <=  2 ||v - g|| / ||v||  <=  h ||1_{S\k}|| / b_k.

Hence the normalized points of the cube's "top faces" {max_i g_i = 1} form a
net of S+ with certified mesh h * max_{k in S} ||1_{S\k}|| / b_k: h on every
2-D space with equal basis norms, h * sqrt(2) on l2_3.  It is never larger
than the triangle inequality's h * (sum_{i in S} b_i) / (min_{i in S} b_i),
as ||1_{S\k}|| <= sum_{i != k} b_i.  The same bound covers the full sphere
orthant by orthant because lattice norms ignore coordinate signs.

Dimension 1 is exact: S+ is the single point e_1 / b_1 and the mesh is 0.

Fundamental domains.  Let the norm be unchanged by every permutation of the
coordinates within each of some disjoint blocks (``core``'s
``LatticeSpace._symmetry_blocks``).  Each point of S+ has a permuted copy in
the domain D where the coordinates do not increase, in index order, within
each block.  Rounding a coordinate to the nearest value of G (ties to the
lower one) is non-decreasing in it, so it keeps v_i >= v_j and the unit
coordinate: a point v of D rounds to a point g of D, and g / ||g|| is a net
point of D.  So the net points in D cover S+ n D with the same mesh.
Normalizing divides all coordinates of a point by one positive number,
which keeps their order in floating point too, so the net points in D are
exactly the normalized grid points in D (``_domain_points``).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import BudgetExceededError, LatticeSpace, UnsupportedDimensionError

__all__ = [
    "SphereNet",
    "DEFAULT_POINT_CAP",
    "DEFAULT_PAIR_BUDGET",
    "default_resolution",
    "grid_values",
    "positive_face_net",
    "support_face_net",
    "half_sphere_net",
    "box_grid",
    "support_pairs",
    "face_point_count",
    "face_pairs",
    "steps_of",
    "over_budget",
    "fit_resolution",
    "resolve_resolution",
]

DEFAULT_POINT_CAP = 2_000_000
DEFAULT_PAIR_BUDGET = 10_000_000

MAX_SUPPORT_DIM = 12


@dataclass(frozen=True, eq=False)
class SphereNet:
    """A finite set of unit vectors together with its covering certificate.

    Every point of the covered sphere region lies within ``mesh_norm`` (in
    the space's own norm) of some row of ``points``.
    """

    points: np.ndarray
    mesh_norm: float

    def __len__(self) -> int:
        return self.points.shape[0]


def default_resolution(dim: int) -> float:
    """Default coordinate grid step by dimension."""
    if dim <= 3:
        return 0.02
    if dim <= 6:
        return 0.1
    return 0.25


def grid_values(resolution: float) -> np.ndarray:
    """The grid {0, h, 2h, ...} u {1} on [0, 1]."""
    h = float(resolution)
    if not (0.0 < h <= 1.0):
        raise ValueError(f"resolution must lie in (0, 1], got {h}")
    k = int(np.floor(1.0 / h + 1e-12))
    vals = np.arange(k + 1) * h
    if vals[-1] < 1.0 - 1e-12:
        vals = np.append(vals, 1.0)
    else:
        vals[-1] = 1.0
    return vals


def _cube_grid(dim: int, resolution: float) -> np.ndarray:
    g = grid_values(resolution)
    _check_point_cap(dim, len(g) ** dim, lambda n: (n + 1) ** dim)
    pts = np.stack(np.meshgrid(*([g] * dim), indexing="ij"), axis=-1).reshape(-1, dim)
    return pts


def _check_point_cap(dim: int, total: int, count_of_n) -> None:
    # a fixed memory guard; the pair budgets of the optimizers bind first
    if total > DEFAULT_POINT_CAP:
        raise over_budget(f"net of {total} points exceeds the cap {DEFAULT_POINT_CAP}",
                          fit_resolution(dim, DEFAULT_POINT_CAP, count_of_n))


def positive_face_net(space: LatticeSpace, resolution: float) -> SphereNet:
    """Net of S+ from the grid points with max coordinate exactly 1 (the
    top faces of the cube, which are all the covering argument rounds to).

    Exceeding ``DEFAULT_POINT_CAP`` raises ``BudgetExceededError`` with the
    coarsest resolution that fits; the grid is never silently truncated.
    """
    return support_face_net(space, tuple(range(space.dim)), resolution)


def support_face_net(
    space: LatticeSpace, support: tuple[int, ...], resolution: float
) -> SphereNet:
    """Face net of the positive unit sphere of span{e_i : i in support},
    embedded into R^dim.  Its mesh certificate (module docstring) reads the
    norms of the support's vectors e_k and 1_{S minus k} only; a single
    coordinate gives the exact one-point net."""
    b = space.basis_norms[list(support)]
    if len(support) == 1:
        units = np.zeros((1, space.dim))
        units[0, support[0]] = 1.0 / b[0]
        mesh = 0.0
    else:
        sub = _cube_grid(len(support), resolution)
        sub = sub[np.max(sub, axis=1) == 1.0]
        pts = np.zeros((sub.shape[0], space.dim))
        pts[:, list(support)] = sub
        units = np.unique(pts / space.norm_values(pts)[:, None], axis=0)
        # row r is 1_{S minus k} for the r-th coordinate k of the support
        rest = np.zeros((len(support), space.dim))
        rest[:, list(support)] = 1.0 - np.eye(len(support))
        mesh = float(resolution) * float(np.max(space.norm_values(rest) / b))
    units.setflags(write=False)
    return SphereNet(units, mesh)


def half_sphere_net(space: LatticeSpace, resolution: float) -> SphereNet:
    """Net of half the unit sphere: sign orbits of the face net, first nonzero > 0.

    Objectives built from ||x - y|| and ||x + y|| are invariant under
    x -> -x and y -> -y separately, so optimizing over half-sphere pairs
    covers the full sphere at a quarter of the pair count.
    """
    base = positive_face_net(space, resolution)
    n = space.dim
    _check_point_cap(n, len(base) * 2**n, lambda m: face_point_count(n, m) * 2**n)
    allpts = np.vstack([base.points * np.array(signs)
                        for signs in itertools.product((1.0, -1.0), repeat=n)])
    # canonical representative of {v, -v}: first nonzero coordinate positive
    firstnz = allpts[np.arange(len(allpts)), np.argmax(allpts != 0.0, axis=1)]
    allpts = np.where(firstnz[:, None] < 0.0, -allpts, allpts)
    units = np.unique(allpts, axis=0)
    units.setflags(write=False)
    return SphereNet(units, base.mesh_norm)


def _domain_points(space: LatticeSpace, points: np.ndarray) -> np.ndarray:
    """``points`` itself when the norm has no detected symmetry, else its
    rows that are >= 0 and in the fundamental domain: coordinates
    non-increasing, in index order, within each block (-0.0 read as 0.0).
    On the half-sphere net these are the face net's points in the domain,
    as the half-sphere net keeps each face net point as its representative."""
    blocks = space._symmetry_blocks
    if not blocks:
        return points
    keep = np.all(points >= 0.0, axis=1)
    for b in blocks:
        keep &= np.all(points[:, list(b[:-1])] >= points[:, list(b[1:])], axis=1)
    return np.abs(points[keep])


def box_grid(dim: int, resolution: float) -> np.ndarray:
    """Full grid of [0,1]^dim (multipliers t for points 0 <= y = t*x <= x)."""
    return _cube_grid(dim, resolution)


def support_pairs(dim: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All ordered pairs (A, B) of disjoint nonempty coordinate supports.

    In the coordinatewise order x ^ y = 0 iff the supports are disjoint, so
    disjointness constraints reduce to this exact enumeration
    (3^n - 2*2^n + 1 ordered pairs).  Capped at dim <= 12.
    """
    if dim < 2:
        raise UnsupportedDimensionError("disjoint supports need dimension >= 2")
    if dim > MAX_SUPPORT_DIM:
        raise UnsupportedDimensionError(
            f"support-pair enumeration is capped at dimension {MAX_SUPPORT_DIM}, got {dim}"
        )
    coords = range(dim)
    out: list[tuple[tuple[int, ...], tuple[int, ...]]] = []
    for labels in itertools.product((0, 1, 2), repeat=dim):
        a = tuple(i for i in coords if labels[i] == 1)
        b = tuple(i for i in coords if labels[i] == 2)
        if a and b:
            out.append((a, b))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# budget-aware resolution selection
# ---------------------------------------------------------------------------


def face_point_count(dim: int, n_steps: int) -> int:
    """Points of the step-1/n face grid: (n+1)^dim - n^dim."""
    return (n_steps + 1) ** dim - n_steps**dim


def steps_of(resolution: float) -> int:
    """Number N of grid steps, so that the grid has N + 1 values."""
    return len(grid_values(resolution)) - 1


def face_pairs(dim: int):
    """Pair count of a face net scanned against itself, by step count N."""
    return lambda n: face_point_count(dim, n) ** 2


def over_budget(message: str, need: float | None) -> BudgetExceededError:
    """Budget error for ``message``, advising the finest step that fits."""
    advice = f"use resolution >= {need:.6g}" if need else "no grid step fits"
    return BudgetExceededError(f"{message}; {advice}", required_resolution=need)


def fit_resolution(dim: int, budget: int, count) -> float | None:
    """Finest step h = 1/N, no finer than the dimension default, whose scan
    of ``count(N)`` net pairs fits the budget; None when even h = 1 does not."""
    n0 = int(round(1.0 / default_resolution(dim)))
    for n in range(n0, 0, -1):
        if count(n) <= budget:
            return 1.0 / n
    return None


def resolve_resolution(
    what: str, dim: int, resolution: float | None, budget: int, count
) -> float:
    """The budget-fitted step when ``resolution`` is None, else the explicit
    step; raises ``BudgetExceededError``, carrying the finest step that fits
    (or None), when the scan of ``count(N)`` pairs would exceed the budget."""
    if resolution is None:
        h = fit_resolution(dim, budget, count)
        if h is not None:
            return h
        n = 1
    else:
        n = steps_of(resolution)
        if count(n) <= budget:
            return float(resolution)
    raise over_budget(f"{what}: resolution {resolution or 1.0} needs {count(n)} net "
                      f"pairs, over the budget {budget}", fit_resolution(dim, budget, count))
