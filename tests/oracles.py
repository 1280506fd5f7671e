"""Independent brute-force oracles for cross-checking the package.

Everything here is deliberately built from different ingredients than the
package: hand-rolled norm evaluators, angle parametrization for 2-D spheres
and simplex compositions for positive spheres, and no local refinement.
Oracle accuracy is grid-limited (~1/m), which is enough to certify the
frozen expected values at the tolerances used in the tests.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np


def gap3_norm(a: np.ndarray) -> np.ndarray:
    """Hand evaluation of the 3-D four-form polyhedral norm."""
    x, y, z = np.abs(a[..., 0]), np.abs(a[..., 1]), np.abs(a[..., 2])
    return np.max(
        np.stack([
            x + z / 2.0,
            y + z / 2.0,
            2.0 * x / 3.0 + 2.0 * y / 3.0 + z / 3.0,
            5.0 * (x + y) / 6.0,
        ]),
        axis=0,
    )


def lp_norm(p: float):
    def norm(a: np.ndarray) -> np.ndarray:
        b = np.abs(a)
        if np.isinf(p):
            return np.max(b, axis=-1)
        return np.sum(b**p, axis=-1) ** (1.0 / p)

    return norm


def formmax_norm(rows: np.ndarray):
    """max_j sum_i rows[j, i] |a_i|, by broadcasting instead of a matrix product."""

    def norm(a: np.ndarray) -> np.ndarray:
        return np.max(np.sum(rows * np.abs(a)[..., None, :], axis=-1), axis=-1)

    return norm


def reference_eval_abs(expr, a: np.ndarray):
    """``expr.eval_abs(a)`` by the plain numpy reductions: ``np.sum``/``np.max``
    over the last axis of the weighted terms, and ``np.stack`` of the block
    values of a ``BlockSum``.  The package's column-by-column kernels must
    reproduce these bits, and the numpy scalar a single vector gives."""
    from latconst import BlockSum, FormMax, MaxOf, Scale, WeightedP

    if isinstance(expr, WeightedP):
        if np.isinf(expr.p):
            return np.max(expr.weights * a, axis=-1)
        if expr.p == 1.0:
            return np.sum(expr.weights * a, axis=-1)
        return np.sum(expr.weights * a**expr.p, axis=-1) ** (1.0 / expr.p)
    if isinstance(expr, MaxOf):
        out = reference_eval_abs(expr.terms[0], a)
        for t in expr.terms[1:]:
            out = np.maximum(out, reference_eval_abs(t, a))
        return out
    if isinstance(expr, Scale):
        return expr.c * reference_eval_abs(expr.term, a)
    if isinstance(expr, FormMax):
        return np.max(a @ expr.rows.T, axis=-1)
    if isinstance(expr, BlockSum):
        parts = []
        i = 0
        for b in expr.blocks:
            parts.append(reference_eval_abs(b, a[..., i : i + b.dim]))
            i += b.dim
        vals = np.stack(parts, axis=-1)
        if np.isinf(expr.p):
            return np.max(vals, axis=-1)
        if expr.p == 1.0:
            return np.sum(vals, axis=-1)
        return np.sum(vals**expr.p, axis=-1) ** (1.0 / expr.p)
    raise TypeError(f"no reference for {type(expr).__name__}")


def mix_linf_l1_norm(a: np.ndarray) -> np.ndarray:
    b = np.abs(a)
    return np.maximum(np.max(b, axis=-1), np.sum(b, axis=-1) / np.sqrt(2.0))


def angle_sphere(norm, m: int) -> np.ndarray:
    """2-D unit sphere sampled by angle (independent of any cube grid)."""
    theta = np.linspace(0.0, 2.0 * np.pi, m, endpoint=False)
    pts = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return pts / norm(pts)[:, None]


def simplex_positive_sphere(norm, dim: int, m: int) -> np.ndarray:
    """Positive unit sphere from simplex compositions sum k_i = m."""
    rows = []
    for comp in product(range(m + 1), repeat=dim - 1):
        rest = m - sum(comp)
        if rest >= 0:
            rows.append(list(comp) + [rest])
    pts = np.asarray(rows, dtype=float)
    pts = pts[np.sum(pts, axis=1) > 0]
    return pts / norm(pts)[:, None]


def disjoint_pair_extremum(norm, dim: int, m: int, maximize=False) -> float:
    """inf (or sup) of ||x + y|| over disjoint positive unit pairs: the
    simplex sphere of every nonempty proper support against that of every
    support disjoint from it."""

    def sphere(support):
        def embed(a):
            out = np.zeros(a.shape[:-1] + (dim,))
            out[..., list(support)] = a
            return out

        return embed(simplex_positive_sphere(lambda a: norm(embed(a)), len(support), m))

    supports = [s for k in range(1, dim) for s in combinations(range(dim), k)]
    spheres = {s: sphere(s) for s in supports}
    values = [pair_extremum(norm, spheres[a], spheres[b], sum_combine, maximize)
              for a in supports for b in supports if not set(a) & set(b)]
    return max(values) if maximize else min(values)


def pair_extremum(norm, pts_x, pts_y, combine, maximize=False) -> float:
    best = -np.inf if maximize else np.inf
    for i0 in range(0, len(pts_x), 64):
        xb = pts_x[i0 : i0 + 64]
        vals = combine(norm, xb[:, None, :], pts_y[None, :, :])
        v = float(np.max(vals) if maximize else np.min(vals))
        best = max(best, v) if maximize else min(best, v)
    return best


def sphere_sample(norm, dim: int, support, n: int, rng, positive: bool = True) -> np.ndarray:
    """``n`` random points of the unit sphere of span{e_i : i in support}
    (its positive part when ``positive``), drawn without any grid: random
    magnitudes on the support, with a random coordinate of a third of the
    points zeroed so that the sphere's lower-dimensional faces are sampled
    too, and random signs on the full sphere."""
    support = list(support)
    vals = rng.exponential(size=(n, len(support)))
    zero = rng.integers(len(support), size=n)
    cut = rng.random(n) < 1.0 / 3.0
    vals[np.flatnonzero(cut), zero[cut]] = 0.0
    vals[np.all(vals == 0.0, axis=1), 0] = 1.0
    if not positive:
        vals *= rng.choice((-1.0, 1.0), size=vals.shape)
    pts = np.zeros((n, dim))
    pts[:, support] = vals
    return pts / norm(pts)[:, None]


def covering_distances(norm, net_points, sample, signed: bool = False) -> np.ndarray:
    """Distance in ``norm`` from each sample point to its nearest net point,
    by brute force over the whole net; ``signed`` also tries the net's
    negatives (a half-sphere net covers the full sphere up to sign)."""
    out = np.empty(len(sample))
    for i0 in range(0, len(sample), 64):
        s = sample[i0 : i0 + 64, None, :]
        d = np.min(norm(s - net_points[None, :, :]), axis=1)
        if signed:
            d = np.minimum(d, np.min(norm(s + net_points[None, :, :]), axis=1))
        out[i0 : i0 + 64] = d
    return out


def sum_combine(norm, x, y):
    return norm(x + y)


def schaffer_combine(norm, x, y):
    return np.maximum(norm(x - y), norm(x + y))


def james_combine(norm, x, y):
    return np.minimum(norm(x - y), norm(x + y))


def sigma_oracle(norm, dim: int, eps: float, m: int) -> float:
    pts = simplex_positive_sphere(norm, dim, m)
    return pair_extremum(
        norm, pts, pts, lambda n, x, y: n(x + eps * y) - 1.0, maximize=False
    )


def delta_oracle(norm, dim: int, eps: float, m: int) -> float:
    """Grid search for inf 1 - ||x - y|| over 0 <= y <= x, ||x|| = 1, ||y|| >= eps."""
    xs = simplex_positive_sphere(norm, dim, m)
    tvals = np.linspace(0.0, 1.0, m + 1)
    tgrid = np.asarray(list(product(tvals, repeat=dim)))
    best = np.inf
    for x in xs:
        ys = tgrid * x[None, :]
        feas = norm(ys) >= eps - 1e-12
        if np.any(feas):
            vals = 1.0 - norm(x[None, :] - ys[feas])
            best = min(best, float(np.min(vals)))
    return best
