"""The certified-extremum engine: net pair scans, projected local
refinement, ``certified_extremum`` (the one pipeline joining them) and the
stage memo that lets calls share stages (``_stage_scope``).

Every constant and modulus of the package is an inf or sup of a Lipschitz
objective ``f(X, Y)`` over point pairs.  Certified bounds come from the net
scan alone (net value -/+ slack); refinement only polishes the witness,
improving the attained side.  Objectives broadcast, so the scan (on the
strips of ``_strips``, the one cut of nets into pieces, which delta's net
stage uses as well) and the refinement (on row-aligned candidates) call the
same function; ``scan_pairs`` states the seeds' tie rule.  An
objective that is symmetric bit for bit (``f(X, Y) == f(Y, X)``, as for
``||x + y||``, ``||x - y||`` and their max and min) on one net paired with
itself is scanned over the upper triangle j >= i only, and its candidate
pairs are mirrored back, so the scan's results are those of the full scan
from about half the evaluations.  Objectives are max-type norms,
Lipschitz but not smooth, so refinement is a coordinate search with step
halving; every sweep also tries all two-coordinate sign combinations across
both arguments, because single moves stall at edges of polyhedral objectives.
All seeds are refined in lockstep: a sweep moves every seed still running,
as one vectorized batch mapped back to the feasible set by a projection step
(radial onto the sphere, or one supplied by the caller), while each seed
keeps its own best value, step and sweep cap.  A seed behind the best seed
stops early when its recent gain cannot carry it to the best seed's value
before the cap; so the best seed ends where a search from it alone would
and the others no better.

Refinement runs only while it can still move an enclosure.  Two rules stop
it.  The gain rule: a seed behind the best one also stops once its gain
over a stall window is below ``_GAIN_TOL`` of the width before refinement
(``certified_extremum`` and delta's (x, t) search set that tolerance).
The bound rule of ``certified_extremum``: when the best net value already
sits at the a priori bound in the direction of refinement (the floor of an
infimum, the ceiling of a supremum), no seed can improve on it, so none is
refined.
"""

from __future__ import annotations

import contextlib
import contextvars
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

from .core import LatticeSpace

__all__ = [
    "scan_pairs",
    "sphere_projection",
    "refine_pair_on_sphere",
    "refine_vector_on_sphere",
    "certified_extremum",
]

Objective = Callable[[np.ndarray, np.ndarray], np.ndarray]
Projection = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
Support = tuple[int, ...] | None | list[tuple[int, ...] | None]

_EPS_IMPROVE = 1e-15
_MAX_SWEEPS = 3000
_STALL_SWEEPS = 25
_STEP_MIN = 1e-11
# share of the pre-refinement enclosure width below which a non-best start's
# gain over a stall window stops it (certified_extremum only)
_GAIN_TOL = 1e-3
# pairs per objective call of a scan, so that a strip's temporaries stay in
# cache; 2**13 and 2**17 scanned 3-D half-sphere nets more slowly
_STRIP_PAIRS = 2**15

# the stage memo of the running thread's outermost scope, None outside one
_stages: contextvars.ContextVar[dict | None] = contextvars.ContextVar("stages", default=None)


@contextlib.contextmanager
def _stage_scope():
    """The stage memo: stages that several calls read (lambda's and james's
    half-sphere scan, delta's net stage), keyed (kind, space, resolved step).
    The outermost scope of a thread owns it, nested scopes share it, and it
    is dropped when the owner exits; ``constant_battery``, ``delta_curve``,
    ``characteristic`` and ``identity_battery`` are scopes."""
    token = None if _stages.get() is not None else _stages.set({})
    try:
        yield
    finally:
        if token is not None:
            _stages.reset(token)


def _stage(key: tuple, build: Callable[[], object]):
    """The stage under ``key`` from the open memo, built on a miss or outside a scope."""
    memo = _stages.get()
    if memo is None:
        return build()
    return memo[key] if key in memo else memo.setdefault(key, build())


def _strips(xs: np.ndarray, ys: np.ndarray, symmetric: bool):
    """The one cut of net pairs: strips ``(i0, i1, j0, X, Y)`` with
    ``X = xs[i0:i1, None, :]`` against ``Y = ys[None, j0:, :]`` (``j0`` is 0,
    or i0 when ``symmetric`` pairs ``xs`` with itself), of at most 256 rows
    and about ``_STRIP_PAIRS`` pairs.  They are views of coordinate-major
    copies of the nets, so elementwise work loops along the net points."""
    n, m = xs.shape[0], ys.shape[0]
    rows = max(1, min(256, _STRIP_PAIRS // max(m, 1)))
    xs = np.asfortranarray(xs)
    ys = xs if symmetric else np.asfortranarray(ys)
    for i0 in range(0, n, rows):
        j0 = i0 if symmetric else 0
        yield i0, min(i0 + rows, n), j0, xs[i0 : i0 + rows, None, :], ys[None, j0:, :]


def _smallest(flat: np.ndarray, k: int) -> np.ndarray:
    """Indices of the k smallest entries of ``flat`` by (value, index)."""
    kth = np.partition(flat, k - 1)[k - 1]
    below = np.flatnonzero(flat < kth)
    return np.concatenate([below, np.flatnonzero(flat == kth)[: k - below.size]])


def scan_pairs(
    space: LatticeSpace,
    xs: np.ndarray,
    ys: np.ndarray,
    values: Objective,
    maximize: bool | tuple[bool, ...] = False,
    top_k: int = 1,
    symmetric: bool = False,
):
    """Extremum of ``values`` over all net pairs, plus the top-k seed pairs.

    ``values(X, Y)`` is called on each strip of ``_strips`` and must
    broadcast to a (i1 - i0, m - j0) matrix.  The tie rule: the seeds are
    the k smallest (value, i, j) of the whole scan (largest value for a
    maximum), whatever the strip size, so the best pair is the
    lexicographically smallest optimizer.  Each strip offers its k smallest
    entries by (value, index), and the k best so far are kept.

    Several senses share one scan when ``maximize`` is a tuple: ``values``
    then returns one matrix per sense from one evaluation of the strip, and
    the result is a list with one (extremum, top-k) per sense, each what a
    scan of that matrix alone returns.

    ``symmetric`` declares ``values(X, Y) == values(Y, X)`` bit for bit on
    one net paired with itself (``xs is ys``).  Then the strips' entries
    j < i are skipped, and every kept (v, i, j) with i != j also stands for
    its mirror (v, j, i): the result is the full scan's, from the pairs
    j >= i plus the lower halves of the strips' small diagonal squares.
    """
    if symmetric and xs is not ys:
        raise ValueError("a symmetric scan pairs one net with itself (xs is ys)")
    multi = isinstance(maximize, tuple)
    signs = [-1.0 if sense else 1.0 for sense in (maximize if multi else (maximize,))]
    found: list[list[tuple[float, int, int]]] = [[] for _ in signs]
    buffers = []  # one per sense for every strip, as fresh ones cost page faults
    for i0, i1, j0, X, Y in _strips(xs, ys, symmetric):
        mats = values(X, Y) if multi else (values(X, Y),)
        buffers = buffers or [np.empty(mat.size) for mat in mats]  # the largest strip
        rows = i1 - i0
        skipped = rows * (rows - 1) // 2 if symmetric else 0  # the entries j < i
        for sign, mat, kept, buf in zip(signs, mats, found, buffers):
            vals = np.multiply(mat, sign, out=buf[: mat.size].reshape(mat.shape))
            if skipped:  # all left of column i1 - j0
                vals[:, :rows][np.tri(rows, k=-1, dtype=bool)] = np.inf
            flat = vals.ravel()
            if len(kept) == top_k and flat.min() >= kept[-1][0]:
                continue  # no entry displaces the k kept: later rows lose ties
            w = vals.shape[1]
            kept.extend((float(flat[c]), i0 + int(c) // w, j0 + int(c) % w)
                        for c in _smallest(flat, min(top_k, flat.size - skipped)))
            kept.sort()
            del kept[top_k:]
    for kept in found:
        if symmetric:
            kept.extend([(v, j, i) for v, i, j in kept if i != j])
        kept.sort()
    results = [(sign * c[0][0], [(sign * v, i, j) for v, i, j in c[:top_k]])
               for sign, c in zip(signs, found)]
    return results if multi else results[0]


def _move_directions(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit move directions (DX, DY): all signed single-coordinate moves plus
    all signed two-coordinate combinations (within and across arguments).

    Restricting the moves to coordinate supports keeps a subsequence of this
    list in the same order, so a support is applied as a mask over it."""
    singles = [(side, i, sgn) for side in (0, 1) for i in range(dim)
               for sgn in (1.0, -1.0)]  # (side, coord, sign)
    # pairs exclude +/- of one coordinate, which cancel
    moves = [[s] for s in singles] + [
        [a, b] for a, b in combinations(singles, 2) if a[:2] != b[:2]]
    dx = np.zeros((len(moves), dim))
    dy = np.zeros((len(moves), dim))
    for k, mv in enumerate(moves):
        for side, coord, sgn in mv:
            (dx if side == 0 else dy)[k, coord] += sgn
    return dx, dy


def _move_mask(moved: np.ndarray, support: Support, starts: int) -> np.ndarray:
    """(starts, moves) mask of the moves that stay inside each start's
    support, given which coordinates each move changes (``moved``, of shape
    (moves, dim)); ``support`` is None (all coordinates), one tuple of
    coordinates for every start, or a list with one entry per start."""
    per_start = support if isinstance(support, list) else [support] * starts
    inside = np.zeros((starts, moved.shape[1]), dtype=bool)
    for s, coords in enumerate(per_start):
        inside[s, slice(None) if coords is None else list(coords)] = True
    return np.all(moved <= inside[:, None, :], axis=2)


def sphere_projection(space: LatticeSpace, positive: bool) -> Projection:
    """Radial projection of candidate pairs onto the unit sphere (clamped to
    the positive cone first when ``positive``); near-zero rows are invalid."""

    def project(xc: np.ndarray, yc: np.ndarray):
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


def refine_pair_on_sphere(
    space: LatticeSpace,
    batch_values: Objective,
    x0: np.ndarray,
    y0: np.ndarray,
    project: Projection,
    step0: float | Sequence[float],
    maximize: bool = False,
    support_x: Support = None,
    support_y: Support = None,
    tol: float = 0.0,
) -> tuple[float, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Projected coordinate search with step halving, from S starts in lockstep.

    ``x0``/``y0`` are one start (dim,) or S starts (S, dim); ``step0`` and
    the supports ``support_*`` (which restrict the moving coordinates and so
    preserve zero patterns in disjoint-support problems) are shared or given
    per start (see ``_move_mask``).  ``batch_values(X, Y)`` maps
    row-aligned candidate pairs to objective values; ``project(XC, YC)`` maps
    the moved candidates back to the feasible set and flags the valid rows
    (``sphere_projection`` for sphere pairs).

    Each sweep moves every start whose step is still at least ``_STEP_MIN``,
    through one projection and one objective call on all their candidates.
    A start keeps its own best value and step, and stops after
    ``_MAX_SWEEPS`` sweeps.  Every ``_STALL_SWEEPS`` sweeps, a start behind
    the best start that gained over the last window stops too when, at that
    rate, it cannot close its gap in the sweeps left, or when its gain over
    the window is below ``tol`` (the default 0 turns this second test off);
    the best start, a start refined alone and a start with no recent gain
    go on.  So the returned best value and witness are those of the best
    single-start call (unless a stopped start would later have outrun its
    recent rate or its small gains), and a stopped start reports a value no
    better than its single-start call gives (row for row, whenever the norm
    evaluates rows independently).

    Returns the value and witness pair of the best start (the earliest one
    on ties), then the per-start values and witnesses.
    """
    sign = -1.0 if maximize else 1.0
    x = np.array(np.atleast_2d(x0), dtype=float)
    y = np.array(np.atleast_2d(y0), dtype=float)
    starts, dim = x.shape
    step = np.array(np.broadcast_to(np.asarray(step0, dtype=float), (starts,)))
    dx, dy = _move_directions(dim)
    allowed = _move_mask(dx != 0, support_x, starts) & _move_mask(dy != 0, support_y, starts)
    fbest = sign * np.asarray(batch_values(x, y), dtype=float)
    fwindow = fbest.copy()
    moves = dx.shape[0]
    for done in range(_MAX_SWEEPS):
        if done and done % _STALL_SWEEPS == 0:
            gain = fwindow - fbest
            rate = gain / _STALL_SWEEPS
            gap = fbest - fbest.min()
            step[(rate > 0) & (gap > 0)
                 & ((gap > rate * (_MAX_SWEEPS - done)) | (gain < tol))] = 0.0
            fwindow = fbest.copy()
        active = np.flatnonzero(step >= _STEP_MIN)
        if active.size == 0:
            break
        h = step[active, None, None]
        xu, yu, valid = project((x[active, None, :] + h * dx).reshape(-1, dim),
                                (y[active, None, :] + h * dy).reshape(-1, dim))
        # disallowed and invalid moves read +inf, so the row-wise argmin is
        # the first best move of each start's own move list
        valid &= allowed[active].ravel()
        vals = np.full(valid.shape, np.inf)
        if np.any(valid):
            vals[valid] = (sign * np.asarray(batch_values(xu, yu)))[valid]
        vals = vals.reshape(active.size, moves)
        pick = np.argmin(vals, axis=1)
        picked = vals[np.arange(active.size), pick]
        won = picked < fbest[active] - _EPS_IMPROVE
        step[active[~won]] *= 0.5
        src = np.flatnonzero(won) * moves + pick[won]
        dst = active[won]
        fbest[dst] = picked[won]
        x[dst] = xu[src]
        y[dst] = yu[src]
    b = int(np.argmin(fbest))
    return sign * float(fbest[b]), x[b], y[b], (sign * fbest, x, y)


def refine_vector_on_sphere(
    space: LatticeSpace,
    batch_values: Callable[[np.ndarray], np.ndarray],
    x0: np.ndarray,
    positive: bool,
    step0: float | Sequence[float],
    maximize: bool = False,
) -> tuple[float, np.ndarray]:
    """Single-vector variant of ``refine_pair_on_sphere`` (the second
    argument never moves and the objective ignores it); ``x0`` may hold S
    starts, and the best one is returned."""
    val, x, *_ = refine_pair_on_sphere(
        space, lambda X, Y: batch_values(X), x0, x0, sphere_projection(space, positive),
        step0, maximize, support_y=())
    return val, x


def certified_extremum(
    space: LatticeSpace,
    objective: Objective,
    blocks: list[tuple],
    maximize: bool = False,
    positive: bool = True,
    top_k: int = 1,
    refine: int = 1,
    symmetric: bool = False,
    scans: list[tuple] | None = None,
    limit: float | None = None,
) -> tuple[float, float, tuple[np.ndarray, np.ndarray]]:
    """Certified inf (sup when ``maximize``) of ``objective`` over unit-sphere
    pairs, from net scans of the blocks and refinement of the best seeds.

    Each block ``(xs, ys, slack, step0, support_x, support_y)`` pairs two
    nets whose covered regions are within ``slack`` of the block's extremum
    (sum of per-argument Lipschitz factor times mesh).  The ``top_k`` best
    pairs of every block become seeds; the ``refine`` best seeds overall are
    refined from step ``step0`` over the block's supports.  Returns the
    certified bound ``min (max) over blocks of net value -/+ slack``, the
    best attained value (net or refined), and its witness pair.

    ``symmetric`` passes to every block's ``scan_pairs``: the objective is
    symmetric in its arguments and each block pairs one net with itself, so
    the scan evaluates only the pairs j >= i and mirrors the seeds.
    ``scans`` gives each block's ``scan_pairs`` result when it is already known.

    A refined seed behind the best one stops once its gain over a stall
    window is below ``_GAIN_TOL`` of the width before refinement (best net
    value against the certified bound): gains that small cannot move the
    enclosure, and the best seed runs on as it would alone.

    ``limit`` is the a priori bound of the objective in the direction of
    refinement: no pair goes below it for an infimum, or above it for a
    supremum.  When the best net value already attains it, refinement
    cannot move either side, so none runs.  The best value is returned with
    the net pair of the first sorted seed, where refinement would start and,
    finding nothing better, end.
    """
    sign = -1.0 if maximize else 1.0
    bound = np.inf  # signed, so both senses minimize
    best_net = np.inf
    seeds: list[tuple[float, int, int, int]] = []
    for b, (xs, ys, slack, _, _, _) in enumerate(blocks):
        val, top = scans[b] if scans else scan_pairs(
            space, xs, ys, objective, maximize=maximize, top_k=top_k, symmetric=symmetric)
        bound = min(bound, sign * val - slack)
        best_net = min(best_net, sign * val)
        seeds.extend((sign * v, b, i, j) for v, i, j in top)
    seeds.sort(key=lambda s: s[0])
    if limit is not None and best_net <= sign * limit:
        _, b, i, j = seeds[0]
        return sign * bound, sign * best_net, (blocks[b][0][i].copy(), blocks[b][1][j].copy())
    starts = []
    for _, b, i, j in seeds[:refine]:
        xs, ys, _, step0, support_x, support_y = blocks[b]
        starts.append((xs[i], ys[j], step0, support_x, support_y))
    x0, y0, step0, support_x, support_y = zip(*starts)
    best, wx, wy, _ = refine_pair_on_sphere(
        space, objective, np.array(x0), np.array(y0), sphere_projection(space, positive),
        step0, maximize=maximize, support_x=list(support_x), support_y=list(support_y),
        tol=_GAIN_TOL * (best_net - bound),
    )
    return sign * bound, sign * min(sign * best, best_net), (wx, wy)
