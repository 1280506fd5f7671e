"""Exact reference values for the enclosures the benchmark checks.

Every value comes from a closed form or from the raw parameters the
benchmark drew itself (exponents, form rows, permutations, scale factors);
nothing here imports latconst, in the way the test suite's brute-force
oracles stand apart from the package.  Coordinate permutations and positive
multiples of a norm are isometries up to scale, so they leave every sphere
constant and modulus unchanged: the references hold for every seed.
"""

from __future__ import annotations

import numpy as np

TOL = 1e-9

# catalog l_p spaces of the chain workload, by catalog name
LP_EXPONENTS = {"l2_3": 2.0, "l3_3": 3.0, "l15_3": 1.5}

# beta_gap: the disjoint-pair infimum is 15/11, the positive-pair one <= 4/3
BETA_GAP_BETA = 15.0 / 11.0
BETA_GAP_LAMBDA_PLUS_MAX = 4.0 / 3.0


def contains(lower: float, upper: float, value: float) -> bool:
    """The enclosure [lower, upper] holds the exact value, up to TOL."""
    return lower - TOL <= value <= upper + TOL


def overlaps(a: tuple[float, float], b: tuple[float, float]) -> bool:
    """Two enclosures of the same quantity intersect, up to TOL."""
    return a[0] <= b[1] + TOL and b[0] <= a[1] + TOL


def lp_constants(p: float) -> dict[str, float]:
    """The five sphere constants of l_p in dimension >= 2.

    lambda_plus, beta and alpha equal 2^(1/p); the Schaffer constant lambda
    and the James constant are the smaller and the larger of 2^(1/p) and
    2^(1-1/p).
    """
    a = 2.0 ** (1.0 / p)
    b = 2.0 ** (1.0 - 1.0 / p)
    return {"lambda": min(a, b), "lambda_plus": a, "beta": a, "alpha": a, "james": max(a, b)}


def lp_sigma(eps: float, p: float) -> float:
    """Upper modulus of monotonicity of l_p: (1 + eps^p)^(1/p) - 1."""
    return (1.0 + eps**p) ** (1.0 / p) - 1.0


def lp_delta(eps: float, p: float) -> float:
    """Lower modulus of uniform monotonicity of l_p: 1 - (1 - eps^p)^(1/p)."""
    return 1.0 - (1.0 - eps**p) ** (1.0 / p)


def planar_diagonal(rows: np.ndarray, scale: float) -> float:
    """||u_1 + u_2|| for the 2-D norm scale * max_j rows[j] . |x|, where
    u_i = e_i / ||e_i|| are the unit basis vectors.

    For the random planar norms (basis norms 1 before scaling) this is the
    ||(1, 1)|| of the reference table: lambda_plus and beta equal it,
    sigma(1) equals it minus 1, and delta at its inverse equals 1 minus its
    inverse.
    """
    rows = np.asarray(rows, dtype=float)
    basis = scale * rows.max(axis=0)
    return float(np.max(scale * rows @ (1.0 / basis)))
