"""Coordinatewise vector lattice on R^n with composable lattice norms.

Vectors are 1-D float arrays ordered coordinatewise; ``meet``, ``join`` and
``absval`` realize the lattice operations.  Norms are immutable expression
trees built from five combinators:

* ``WeightedP(p, weights)`` -- (sum_i w_i |x_i|^p)^(1/p), max form for p = inf
* ``MaxOf(terms)``          -- pointwise maximum of norms on the same R^n
* ``Scale(c, term)``        -- positive multiple of a norm
* ``FormMax(rows)``         -- max_j sum_i rows[j][i] * |x_i| (polyhedral)
* ``BlockSum(p, blocks)``   -- p-sum of norms on consecutive coordinate blocks

Every tree evaluates through |x| first, so ``||x|| == || |x| ||`` holds
bitwise.  ``eval_abs`` takes any array of shape (..., dim), a single 1-D
vector included, and never writes its input.  Each combinator reduces its
last axis column by column into one fresh buffer (``_fold``).  That gives
the bits of numpy's ``np.sum``/``np.max(..., axis=-1)`` at a fraction of
their cost on the short rows used here: ``max`` is exact in any order, and
numpy adds fewer than 8 contiguous entries in order but 8 or more
pairwise, so a sum over 8 or more columns goes through ``np.add.reduce``
on a C-contiguous array.  No bit depends on the input's memory layout.

``LatticeSpace`` pairs a dimension with a norm and caches the basis
norms b_i = ||e_i||, which give the two-sided sandwich

    max_i |x_i| b_i  <=  ||x||  <=  sum_i |x_i| b_i

valid for every lattice norm (monotonicity on the left, triangle inequality
on the right).  The net mesh certificates (``nets``) use the left side,
with the norms of the coordinate indicator vectors in place of the right.

JSON exchange format for norms: ``{"dim": n, "norm": E}`` where E is one of
``{"type": "lp", "p": p|"inf", "weights": [...]}`` (weights optional, default
all ones), ``{"type": "max", "terms": [E, ...]}``,
``{"type": "scale", "c": c, "term": E}``,
``{"type": "formmax", "rows": [[...], ...]}`` or
``{"type": "blocksum", "p": p|"inf", "blocks": [{"dim": k, "norm": E}, ...]}``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from typing import Sequence

import numpy as np

__all__ = [
    "InvalidNormError",
    "DimensionMismatchError",
    "UnsupportedDimensionError",
    "BudgetExceededError",
    "EmbeddingError",
    "as_vector",
    "meet",
    "join",
    "absval",
    "NormExpr",
    "WeightedP",
    "MaxOf",
    "Scale",
    "FormMax",
    "BlockSum",
    "lp",
    "permute_norm",
    "rescale_coordinates",
    "norm_from_dict",
    "LatticeSpace",
    "space_from_dict",
    "NormValidationReport",
    "validate_lattice_norm",
]


class InvalidNormError(ValueError):
    """A norm expression or norm spec does not define a usable norm."""


class DimensionMismatchError(ValueError):
    """Operands or expression parts disagree on the ambient dimension."""


class UnsupportedDimensionError(ValueError):
    """The requested quantity is not defined (or not supported) in this dimension."""


class BudgetExceededError(RuntimeError):
    """A net or pair enumeration would exceed its configured budget.

    ``required_resolution`` carries the coarsest grid step that would fit,
    when one exists.
    """

    def __init__(self, message: str, required_resolution: float | None = None):
        super().__init__(message)
        self.required_resolution = required_resolution


class EmbeddingError(ValueError):
    """No useful two-dimensional sup-norm copy can be extracted."""


# ---------------------------------------------------------------------------
# vectors and lattice operations
# ---------------------------------------------------------------------------


def as_vector(x, dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float array, optionally checking its length."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DimensionMismatchError(f"expected a nonempty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector has non-finite coordinates")
    if dim is not None and v.size != dim:
        raise DimensionMismatchError(f"expected dimension {dim}, got {v.size}")
    return v


def _pair(x, y) -> tuple[np.ndarray, np.ndarray]:
    vx = as_vector(x)
    vy = as_vector(y, dim=vx.size)
    return vx, vy


def meet(x, y) -> np.ndarray:
    """Coordinatewise minimum (lattice infimum)."""
    vx, vy = _pair(x, y)
    return np.minimum(vx, vy)


def join(x, y) -> np.ndarray:
    """Coordinatewise maximum (lattice supremum)."""
    vx, vy = _pair(x, y)
    return np.maximum(vx, vy)


def absval(x) -> np.ndarray:
    """Coordinatewise absolute value |x| = x v (-x)."""
    return np.abs(as_vector(x))


# ---------------------------------------------------------------------------
# norm expression trees
# ---------------------------------------------------------------------------


def _check_p(p) -> float:
    p = float(p)
    if np.isnan(p) or p < 1.0:
        raise InvalidNormError(f"exponent p must lie in [1, inf], got {p}")
    return p


# numpy sums this many or more contiguous entries pairwise, fewer in order
_PAIRWISE_MIN = 8


def _fold(ufunc, cols):
    """``ufunc.reduce`` over the last axis, bit for bit, folded column by
    column into one fresh buffer.

    ``cols`` is an array of shape (..., n), whose columns are read and never
    written, or a list of n values of shape (...) that the caller gives up
    (the first one becomes the buffer).  A single vector's columns are 0-d,
    so the result is then a numpy scalar, as ``np.sum`` gives.  The result
    is float even for integer columns, as after a float weight multiply.
    """
    is_array = isinstance(cols, np.ndarray)
    n = cols.shape[-1] if is_array else len(cols)
    if ufunc is np.add and n >= _PAIRWISE_MIN:
        # numpy sums pairwise only along a contiguous last axis
        cols = np.ascontiguousarray(cols) if is_array else np.stack(cols, axis=-1)
        return np.add.reduce(cols, axis=-1, dtype=float)
    if not is_array:
        out, rest = np.asarray(cols[0]), cols[1:]
    elif n > 1 and cols.ndim > 1 and cols.dtype == float:
        # the first fold writes the fresh buffer (on 0-d columns it would
        # return a scalar, which cannot take the later folds)
        out, rest = ufunc(cols[..., 0], cols[..., 1]), [cols[..., k] for k in range(2, n)]
    else:
        out, rest = cols[..., 0].astype(float), [cols[..., k] for k in range(1, n)]
    for c in rest:
        ufunc(out, c, out=out)
    return out[()]


class NormExpr:
    """Immutable norm expression tree node.

    Subclasses implement ``eval_abs`` on arrays of shape (..., dim) whose
    entries are already nonnegative; callers take |x| first.
    """

    dim: int

    def eval_abs(self, a: np.ndarray) -> np.ndarray:
        """Norms of the rows of ``a`` (shape (..., dim), 1-D included).

        ``a`` is never written, and the result is a fresh array (a numpy
        scalar for 1-D input) that the caller may modify.  The bits equal
        those of the plain reductions ``np.sum``/``np.max(..., axis=-1)``
        over the same terms (see ``_fold``).
        """
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_dict()})"


class WeightedP(NormExpr):
    """Weighted p-norm leaf: (sum_i w_i |x_i|^p)^(1/p); max_i w_i |x_i| for p = inf."""

    def __init__(self, p, weights):
        self.p = _check_p(p)
        w = np.asarray(weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InvalidNormError("weights must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(w)) or np.any(w <= 0):
            raise InvalidNormError("weights must be finite and strictly positive")
        w = w.copy()
        w.setflags(write=False)
        self.weights = w
        self.dim = w.size
        self._unit = bool(np.all(w == 1.0))  # multiplying by 1.0 changes no bit
        self._inf = bool(np.isinf(self.p))

    def eval_abs(self, a):
        if self._inf:
            return _fold(np.maximum, a if self._unit else self.weights * a)
        if self.p == 1.0:
            return _fold(np.add, a if self._unit else self.weights * a)
        t = a**self.p
        if not self._unit:
            t *= self.weights
        r = _fold(np.add, t)
        r **= 1.0 / self.p
        return r

    def to_dict(self):
        p = "inf" if np.isinf(self.p) else self.p
        return {"type": "lp", "p": p, "weights": list(self.weights)}


def lp(dim: int, p) -> WeightedP:
    """Unweighted l_p norm on R^dim."""
    return WeightedP(p, np.ones(_parse_dim(int(dim), "dimension")))


class MaxOf(NormExpr):
    """Pointwise maximum of norms on the same space."""

    def __init__(self, terms: Sequence[NormExpr]):
        terms = tuple(terms)
        if not terms:
            raise InvalidNormError("max combinator needs at least one term")
        dims = {t.dim for t in terms}
        if len(dims) != 1:
            raise DimensionMismatchError(f"max combinator mixes dimensions {sorted(dims)}")
        self.terms = terms
        self.dim = terms[0].dim

    def eval_abs(self, a):
        return _fold(np.maximum, [t.eval_abs(a) for t in self.terms])

    def to_dict(self):
        return {"type": "max", "terms": [t.to_dict() for t in self.terms]}


class Scale(NormExpr):
    """Positive multiple c * ||x|| of an inner norm."""

    def __init__(self, c, term: NormExpr):
        c = float(c)
        if not np.isfinite(c) or c <= 0:
            raise InvalidNormError(f"scale factor must be finite and positive, got {c}")
        self.c = c
        self.term = term
        self.dim = term.dim

    def eval_abs(self, a):
        v = self.term.eval_abs(a)
        v *= self.c
        return v

    def to_dict(self):
        return {"type": "scale", "c": self.c, "term": self.term.to_dict()}


class FormMax(NormExpr):
    """Polyhedral norm from linear forms: max_j sum_i rows[j][i] * |x_i|.

    Rows must be nonzero.  Negative coefficients are accepted at construction
    (they break monotonicity and the triangle inequality, which is exactly
    what ``validate_lattice_norm`` is there to demonstrate on bad input); a
    coordinate not covered by any row is caught by ``LatticeSpace`` because
    the corresponding basis norm vanishes.
    """

    def __init__(self, rows):
        r = np.asarray(rows, dtype=float)
        if r.ndim != 2 or r.size == 0:
            raise InvalidNormError("rows must form a nonempty 2-D matrix")
        if not np.all(np.isfinite(r)):
            raise InvalidNormError("rows must be finite")
        if np.any(np.all(r == 0.0, axis=1)):
            raise InvalidNormError("every row must be nonzero")
        r = r.copy()
        r.setflags(write=False)
        self.rows = r
        self.dim = r.shape[1]

    def eval_abs(self, a):
        if len(self.rows) == 1:  # BLAS's matrix-vector product rounds by layout
            a = np.ascontiguousarray(a)
        return _fold(np.maximum, a @ self.rows.T)

    def to_dict(self):
        return {"type": "formmax", "rows": [list(row) for row in self.rows]}


class BlockSum(NormExpr):
    """p-sum of norms acting on consecutive coordinate blocks."""

    def __init__(self, p, blocks: Sequence[NormExpr]):
        self.p = _check_p(p)
        blocks = tuple(blocks)
        if not blocks:
            raise InvalidNormError("block sum needs at least one block")
        self.blocks = blocks
        self.dim = sum(b.dim for b in blocks)

    def eval_abs(self, a):
        vals = []
        i = 0
        for b in self.blocks:
            vals.append(b.eval_abs(a[..., i : i + b.dim]))
            i += b.dim
        if np.isinf(self.p):
            return _fold(np.maximum, vals)
        if self.p == 1.0:
            return _fold(np.add, vals)
        # an array power even on a single vector's scalar block values, as
        # on the stacked values: numpy's scalar power rounds differently
        r = _fold(np.add, [np.asarray(v) ** self.p for v in vals])
        r **= 1.0 / self.p
        return r

    def to_dict(self):
        p = "inf" if np.isinf(self.p) else self.p
        return {
            "type": "blocksum",
            "p": p,
            "blocks": [{"dim": b.dim, "norm": b.to_dict()} for b in self.blocks],
        }


def permute_norm(expr: NormExpr, perm: Sequence[int]) -> NormExpr:
    """Norm of the relabeled space: x |-> ||x o perm||.

    New coordinate perm[i] plays the part of old coordinate i:
    ``permute_norm(WeightedP(1, [1, 2, 3]), [1, 2, 0])`` has the weights
    [3, 1, 2].  Supported for all coordinate-local combinators; a
    ``BlockSum`` cannot in general be re-expressed after an arbitrary
    relabeling and is rejected.
    """
    perm = list(perm)
    if sorted(perm) != list(range(expr.dim)):
        raise DimensionMismatchError(f"not a permutation of range({expr.dim}): {perm}")
    inv = np.argsort(perm)  # coefficient of new coordinate perm[i] is the old one of i
    if isinstance(expr, WeightedP):
        return WeightedP(expr.p, expr.weights[inv])
    if isinstance(expr, MaxOf):
        return MaxOf([permute_norm(t, perm) for t in expr.terms])
    if isinstance(expr, Scale):
        return Scale(expr.c, permute_norm(expr.term, perm))
    if isinstance(expr, FormMax):
        return FormMax(expr.rows[:, inv])
    raise InvalidNormError(f"cannot permute coordinates of {type(expr).__name__}")


def _same_tree(a: NormExpr, b: NormExpr) -> bool:
    """Whether two trees are equal node for node: equal ``WeightedP`` exponents
    and weights, equal ``Scale`` factors and inner trees, equal ``MaxOf``
    terms in order, equal ``FormMax`` rows as a multiset.  A ``BlockSum`` is
    never equal, so the test may miss an equal norm but never invents one."""
    if type(a) is not type(b):
        return False
    if isinstance(a, WeightedP):
        return a.p == b.p and np.array_equal(a.weights, b.weights)
    if isinstance(a, Scale):
        return a.c == b.c and _same_tree(a.term, b.term)
    if isinstance(a, MaxOf):
        return len(a.terms) == len(b.terms) and all(map(_same_tree, a.terms, b.terms))
    if isinstance(a, FormMax):
        return sorted(map(tuple, a.rows)) == sorted(map(tuple, b.rows))
    return False


def _transposition_blocks(norm: NormExpr) -> tuple[tuple[int, ...], ...]:
    """The orbits, of two or more coordinates, of the group generated by the
    transpositions (i j) under which ``permute_norm`` gives an equal tree
    (``_same_tree``); an error from ``permute_norm`` counts as no symmetry.
    Transpositions generate the full symmetric group of each orbit, so every
    permutation within the blocks leaves the norm unchanged."""
    label = list(range(norm.dim))
    for i, j in combinations(range(norm.dim), 2):
        swap = list(range(norm.dim))
        swap[i], swap[j] = j, i
        try:
            same = _same_tree(permute_norm(norm, swap), norm)
        except InvalidNormError:
            same = False
        if same:
            old = label[j]
            label = [label[i] if lab == old else lab for lab in label]
    blocks = [tuple(k for k in range(norm.dim) if label[k] == lab) for lab in sorted(set(label))]
    return tuple(b for b in blocks if len(b) > 1)


def rescale_coordinates(expr: NormExpr, d: np.ndarray) -> NormExpr:
    """Norm x |-> ||x / d|| with d > 0 coordinatewise, absorbed into the tree."""
    d = as_vector(d, dim=expr.dim)
    if np.any(d <= 0):
        raise InvalidNormError("coordinate scales must be strictly positive")
    if isinstance(expr, WeightedP):
        if np.isinf(expr.p):
            return WeightedP(expr.p, expr.weights / d)
        return WeightedP(expr.p, expr.weights / d**expr.p)
    if isinstance(expr, MaxOf):
        return MaxOf([rescale_coordinates(t, d) for t in expr.terms])
    if isinstance(expr, Scale):
        return Scale(expr.c, rescale_coordinates(expr.term, d))
    if isinstance(expr, FormMax):
        return FormMax(expr.rows / d[None, :])
    if isinstance(expr, BlockSum):
        out = []
        i = 0
        for b in expr.blocks:
            out.append(rescale_coordinates(b, d[i : i + b.dim]))
            i += b.dim
        return BlockSum(expr.p, out)
    raise InvalidNormError(f"cannot rescale {type(expr).__name__}")


# ---------------------------------------------------------------------------
# JSON exchange
# ---------------------------------------------------------------------------


def _parse_number(raw, what: str) -> float:
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise InvalidNormError(f"{what} must be a number, got {raw!r}")
    return float(raw)


def _parse_numbers(raw, what: str) -> list[float]:
    if not isinstance(raw, (list, tuple)):
        raise InvalidNormError(f"{what} must be a list of numbers, got {raw!r}")
    return [_parse_number(v, f"each entry of {what}") for v in raw]


# the largest dimension of a space, a spec's own and each block's, checked by
# ``LatticeSpace``, ``lp``, ``norm_from_dict`` and the spec reader before
# anything of that size is built: far above the 20 that any net within
# ``nets.DEFAULT_POINT_CAP`` reaches, and small enough that the identity on
# which ``LatticeSpace`` reads the basis norms stays at 8 MB
MAX_SPEC_DIM = 1000


def _parse_dim(raw, what: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int) or raw < 1:
        raise InvalidNormError(f"{what} must be a positive integer, got {raw!r}")
    if raw > MAX_SPEC_DIM:
        raise UnsupportedDimensionError(f"{what} is capped at {MAX_SPEC_DIM}, got {raw}")
    return raw


def _parse_p(raw) -> float:
    if isinstance(raw, str):
        if raw.lower() == "inf":
            return float("inf")
        raise InvalidNormError(f'p must be a number or "inf", got {raw!r}')
    return _check_p(_parse_number(raw, "p"))


def norm_from_dict(d: dict, dim: int) -> NormExpr:
    """Parse a norm expression dict against an expected dimension."""
    _parse_dim(dim, "dimension")
    if not isinstance(d, dict) or "type" not in d:
        raise InvalidNormError(f"norm spec must be an object with a 'type' field, got {d!r}")
    kind = d["type"]
    if kind == "lp":
        if "p" not in d:
            raise InvalidNormError("lp norm needs a 'p' field")
        p = _parse_p(d["p"])
        weights = d.get("weights")
        weights = np.ones(dim) if weights is None else _parse_numbers(weights, "weights")
        expr = WeightedP(p, weights)
        if expr.dim != dim:
            raise DimensionMismatchError(f"lp weights have length {expr.dim}, expected {dim}")
        return expr
    if kind == "max":
        terms = d.get("terms")
        if not isinstance(terms, list) or not terms:
            raise InvalidNormError("max norm needs a nonempty 'terms' list")
        return MaxOf([norm_from_dict(t, dim) for t in terms])
    if kind == "scale":
        if "c" not in d or "term" not in d:
            raise InvalidNormError("scale norm needs 'c' and 'term'")
        return Scale(_parse_number(d["c"], "scale factor c"), norm_from_dict(d["term"], dim))
    if kind == "formmax":
        rows = d.get("rows", [])
        if not isinstance(rows, (list, tuple)):
            raise InvalidNormError(f"rows must be a list of lists, got {rows!r}")
        rows = [_parse_numbers(r, "a formmax row") for r in rows]
        if len({len(r) for r in rows}) > 1:
            raise InvalidNormError("formmax rows must have equal lengths")
        expr = FormMax(rows)
        if expr.dim != dim:
            raise DimensionMismatchError(f"formmax rows have width {expr.dim}, expected {dim}")
        return expr
    if kind == "blocksum":
        if "p" not in d:
            raise InvalidNormError("blocksum needs a 'p' field")
        blocks = d.get("blocks")
        if not isinstance(blocks, list) or not blocks:
            raise InvalidNormError("blocksum needs a nonempty 'blocks' list")
        parsed = []
        for b in blocks:
            if not isinstance(b, dict) or "dim" not in b or "norm" not in b:
                raise InvalidNormError("each block needs 'dim' and 'norm'")
            k = _parse_dim(b["dim"], "block 'dim'")
            parsed.append(norm_from_dict(b["norm"], k))
        expr = BlockSum(_parse_p(d["p"]), parsed)
        if expr.dim != dim:
            raise DimensionMismatchError(f"blocks sum to dimension {expr.dim}, expected {dim}")
        return expr
    raise InvalidNormError(f"unknown norm type {kind!r}")


# ---------------------------------------------------------------------------
# lattice space
# ---------------------------------------------------------------------------


class LatticeSpace:
    """R^dim with the coordinatewise order and a fixed lattice norm.

    Immutable after construction; evaluation is stateless, so instances can
    be shared freely across threads or worker processes.
    """

    def __init__(self, dim: int, norm: NormExpr):
        dim = int(dim)
        if dim < 1:
            raise UnsupportedDimensionError("dimension must be >= 1")
        _parse_dim(dim, "dimension")
        if norm.dim != dim:
            raise DimensionMismatchError(f"norm acts on R^{norm.dim}, space has dim {dim}")
        self.dim = dim
        self.norm = norm
        b = np.asarray(norm.eval_abs(np.eye(dim)), dtype=float)
        if not np.all(np.isfinite(b)) or np.any(b <= 1e-15):
            raise InvalidNormError(
                "some basis vector has norm 0; the expression is not a norm on R^n "
                f"(basis norms {b})"
            )
        b.setflags(write=False)
        self.basis_norms = b

    @cached_property
    def _symmetry_blocks(self) -> tuple[tuple[int, ...], ...]:
        """The blocks of coordinates within which every permutation leaves
        the norm unchanged, read from the norm's tree (``_transposition_blocks``)."""
        return _transposition_blocks(self.norm)

    def norm_value(self, x) -> float:
        """Norm of a single vector, with dimension and finiteness checks."""
        v = as_vector(x, dim=self.dim)
        return float(self.norm.eval_abs(np.abs(v)))

    def norm_values(self, a: np.ndarray) -> np.ndarray:
        """Vectorized norm of an array of shape (..., dim); input is trusted."""
        return self.norm.eval_abs(np.abs(a))

    def unit(self, x) -> np.ndarray:
        v = as_vector(x, dim=self.dim)
        n = self.norm_value(v)
        if n < 1e-15:
            raise ValueError("cannot normalize the zero vector")
        return v / n

    def to_dict(self) -> dict:
        return {"dim": self.dim, "norm": self.norm.to_dict()}

    def __repr__(self) -> str:
        return f"LatticeSpace(dim={self.dim}, norm={self.norm.to_dict()})"


def space_from_dict(spec: dict) -> LatticeSpace:
    """Build a space from the ``{"dim": n, "norm": E}`` exchange format."""
    if not isinstance(spec, dict) or "dim" not in spec or "norm" not in spec:
        raise InvalidNormError("norm spec must be an object with 'dim' and 'norm'")
    dim = _parse_dim(spec["dim"], "'dim'")
    return LatticeSpace(dim, norm_from_dict(spec["norm"], dim))


# ---------------------------------------------------------------------------
# randomized norm-axiom validation
# ---------------------------------------------------------------------------


@dataclass
class NormValidationReport:
    """Outcome of the randomized lattice-norm check."""

    passed: bool
    samples: int
    violation: dict | None = field(default=None)

    def __bool__(self) -> bool:
        return self.passed


def validate_lattice_norm(space: LatticeSpace, samples: int = 1000, seed: int = 0) -> NormValidationReport:
    """Randomized check of homogeneity, the triangle inequality and monotonicity.

    MaxOf/Scale/BlockSum/WeightedP compositions are lattice norms by
    construction, but user-supplied FormMax matrices need not be; this check
    exercises the three axioms on ``samples`` random triples and reports the
    first violation with witnesses.  Violations are report content, never
    exceptions.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    n = space.dim
    tol = 1e-9
    batch = 256
    done = 0
    while done < samples:
        k = min(batch, samples - done)
        x = rng.standard_normal((k, n))
        y = rng.standard_normal((k, n))
        t = rng.uniform(-3.0, 3.0, size=k)
        nx = space.norm_values(x)
        ny = space.norm_values(y)

        lhs = space.norm_values(t[:, None] * x)
        rhs = np.abs(t) * nx
        bad = np.nonzero(np.abs(lhs - rhs) > tol * (1.0 + rhs))[0]
        if bad.size:
            i = int(bad[0])
            return NormValidationReport(False, done + i + 1, {
                "property": "absolute homogeneity",
                "x": x[i].tolist(), "t": float(t[i]),
                "lhs": float(lhs[i]), "rhs": float(rhs[i]),
            })

        ns = space.norm_values(x + y)
        bad = np.nonzero(ns > nx + ny + tol * (1.0 + nx + ny))[0]
        if bad.size:
            i = int(bad[0])
            return NormValidationReport(False, done + i + 1, {
                "property": "triangle inequality",
                "x": x[i].tolist(), "y": y[i].tolist(),
                "lhs": float(ns[i]), "rhs": float(nx[i] + ny[i]),
            })

        # |w| <= |y| coordinatewise by construction, so ||w|| <= ||y|| must hold
        u = rng.uniform(0.0, 1.0, size=(k, n))
        s = rng.choice([-1.0, 1.0], size=(k, n))
        w = s * u * np.abs(y)
        nw = space.norm_values(w)
        bad = np.nonzero(nw > ny + tol * (1.0 + ny))[0]
        if bad.size:
            i = int(bad[0])
            return NormValidationReport(False, done + i + 1, {
                "property": "monotonicity",
                "smaller": w[i].tolist(), "larger": y[i].tolist(),
                "lhs": float(nw[i]), "rhs": float(ny[i]),
            })
        done += k
    return NormValidationReport(True, samples, None)
