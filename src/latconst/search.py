"""The certified-extremum engine: net pair scans, projected local
refinement, ``refine_seeds`` (the one place that decides when and how far
to refine), ``certified_extrema`` (the one pipeline joining them, for a
list of problems) and the stage memo that lets calls share stages
(``_stage_scope``).

Every constant and modulus of the package is an inf or sup of a Lipschitz
objective ``f(X, Y)`` over point pairs.  Certified bounds come from the net
scan alone (net value -/+ slack); refinement only polishes the witness,
improving the attained side.  Objectives broadcast, so the scan (on the
strips of ``_strips``, the one cut of nets into pieces, which delta's net
stage uses as well) and the refinement (on row-aligned candidates) call the
same function; ``scan_pairs`` states the seeds' tie rule, which delta's net
seeds follow through its one step, ``_keep_smallest``, too.  Every pass over
net pairs, a scan or delta's per-eps selection, keeps to one byte rule
(``_strips``): a strip's temporaries stay below glibc's mmap threshold, so
the heap reuses their pages instead of mapping and faulting in fresh ones
for every strip.  An
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
keeps its own best value, step and sweep cap.

Grouped lockstep.  A sweep costs about the same few dozen numpy calls
whatever its row count, so independent problems that share an objective
(a modulus on a whole eps grid) are refined in one lockstep call: each
problem's seeds form a group, the objective and the projection read a
per-row parameter (eps), and the gain rule compares a seed only with the
best seed of its own group.  So every problem ends as it would alone, and
a grid of problems costs the sweeps of its slowest problem.

Refinement runs only while it can still move an enclosure.  Two rules stop
it, both held by ``refine_seeds``, through which ``certified_extrema`` and
delta's (x, t) search refine.  The gain rule, the one catch-up rule for
trailing seeds: every ``_STALL_SWEEPS`` sweeps, a seed behind the best one
of its problem that gained over the window stops when that gain is below
its gap plus a tolerance, so that one more window at its rate could not
carry it more than the tolerance past the best seed.  The tolerance is
``_GAIN_TOL`` of the problem's width before refinement.  The best seed
never stops early, so it ends where a search from it alone would, and the
others no better.  The bound rule: when a problem's best seed already sits
at the a priori bound in the direction of refinement (the floor of an
infimum, the ceiling of a supremum), no seed can improve on it, so none of
its seeds is refined.
"""

from __future__ import annotations

import contextlib
import contextvars
from functools import cache
from itertools import combinations
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .core import LatticeSpace

__all__ = [
    "scan_pairs",
    "sphere_projection",
    "refine_pair_on_sphere",
    "refine_vector_on_sphere",
    "refine_seeds",
    "certified_extrema",
]

Objective = Callable[[np.ndarray, np.ndarray], np.ndarray]
Projection = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray, np.ndarray]]
Support = tuple[int, ...] | None | list[tuple[int, ...] | None]

_EPS_IMPROVE = 1e-15
_MAX_SWEEPS = 3000
_STALL_SWEEPS = 25
_STEP_MIN = 1e-11
# share of the pre-refinement enclosure width that a trailing start's next
# window must be able to carry it past the best start for it to go on
_GAIN_TOL = 1e-2
# bytes of a strip's largest temporary, rows x cols x dim float64s (see
# ``_strips``): below glibc's default 128 KiB mmap threshold; 64 KiB ran the
# chain benchmark more slowly (more strips), 120 KiB alike
_STRIP_BYTES = 96 * 2**10

# the stage memo of the running thread's outermost scope, None outside one
_stages: contextvars.ContextVar[dict | None] = contextvars.ContextVar("stages", default=None)


@contextlib.contextmanager
def _stage_scope():
    """The stage memo: stages that several calls read (lambda's and james's
    half-sphere scan, delta's net stage), keyed (kind, space, resolved step).
    The outermost scope of a thread owns it, nested scopes share it, and it
    is dropped when the owner exits; ``constant_battery``,
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


def _strip_rows(cols: int, width: int) -> int:
    """Rows of a strip of ``cols`` columns whose largest temporary, rows x
    cols x ``width`` float64s, fits ``_STRIP_BYTES``: at least 1, at most 256."""
    return max(1, min(256, _STRIP_BYTES // (8 * width * max(cols, 1))))


def _strips(xs: np.ndarray, ys: np.ndarray, symmetric: bool):
    """The one cut of net pairs: strips ``(i0, i1, j0, X, Y)`` with
    ``X = xs[i0:i1, None, :]`` against ``Y = ys[None, j0:, :]`` (``j0`` is 0,
    or i0 when ``symmetric`` pairs ``xs`` with itself), of at most 256 rows.

    The byte rule: a strip's largest temporary, an objective's
    rows x cols x dim array such as ``X - Y``, holds at most
    ``_STRIP_BYTES`` (one row may hold more).  Below glibc's mmap threshold
    the heap serves and reuses those temporaries; above it, each strip's
    temporaries are mapped, faulted in page by page and unmapped again.  The
    strips are views of coordinate-major copies of the nets, so elementwise
    work loops along the net points."""
    n, m = xs.shape[0], ys.shape[0]
    rows = _strip_rows(m, xs.shape[1])
    xs = np.asfortranarray(xs)
    ys = xs if symmetric else np.asfortranarray(ys)
    for i0 in range(0, n, rows):
        j0 = i0 if symmetric else 0
        yield i0, min(i0 + rows, n), j0, xs[i0 : i0 + rows, None, :], ys[None, j0:, :]


def _keep_smallest(kept: list, vals: np.ndarray, k: int, i0: int, j0: int,
                   skipped: int = 0) -> None:
    """The tie rule's one step: merge the k smallest (value, i, j) of a
    strip, the matrix ``vals`` of rows i0... and columns j0..., into the
    sorted list ``kept`` of the k smallest so far.  A strip whose least
    value cannot displace the k kept is passed over, since its entries come
    later and lose ties; ``skipped`` entries (set to inf) are never taken."""
    flat = vals.ravel()
    if len(kept) == k and flat.min() >= kept[-1][0]:
        return
    take = min(k, flat.size - skipped)
    kth = np.partition(flat, take - 1)[take - 1]
    below = np.flatnonzero(flat < kth)
    w = vals.shape[1]
    kept.extend((float(flat[c]), i0 + int(c) // w, j0 + int(c) % w)
                for c in np.concatenate([below, np.flatnonzero(flat == kth)[: take - below.size]]))
    kept.sort()
    del kept[k:]


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
    for i0, i1, j0, X, Y in _strips(xs, ys, symmetric):
        mats = values(X, Y) if multi else (values(X, Y),)
        rows = i1 - i0
        skipped = rows * (rows - 1) // 2 if symmetric else 0  # the entries j < i
        for sign, mat, kept in zip(signs, mats, found):
            vals = sign * mat
            if skipped:  # all left of column i1 - j0
                vals[:, :rows][np.tri(rows, k=-1, dtype=bool)] = np.inf
            _keep_smallest(kept, vals, top_k, i0, j0, skipped)
    for kept in found:
        if symmetric:
            kept.extend([(v, j, i) for v, i, j in kept if i != j])
        kept.sort()
    results = [(sign * c[0][0], [(sign * v, i, j) for v, i, j in c[:top_k]])
               for sign, c in zip(signs, found)]
    return results if multi else results[0]


@cache
def _move_directions(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit move directions (DX, DY): all signed single-coordinate moves plus
    all signed two-coordinate combinations (within and across arguments),
    built once per dimension and read-only.

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
    dx.setflags(write=False)
    dy.setflags(write=False)
    return dx, dy


def _per_start(value, starts: int) -> list:
    """A step or support, shared or given as a list, as a list with one
    entry per start."""
    return value if isinstance(value, list) else [value] * starts


def _move_mask(moved: np.ndarray, support: Support, starts: int) -> np.ndarray:
    """(starts, moves) mask of the moves that stay inside each start's
    support, given which coordinates each move changes (``moved``, of shape
    (moves, dim)); ``support`` is None (all coordinates), one tuple of
    coordinates for every start, or a list with one entry per start."""
    inside = np.zeros((starts, moved.shape[1]), dtype=bool)
    for s, coords in enumerate(_per_start(support, starts)):
        inside[s, slice(None) if coords is None else list(coords)] = True
    return np.all(moved <= inside[:, None, :], axis=2)


def sphere_projection(space: LatticeSpace, positive: bool) -> Projection:
    """Radial projection of candidate pairs onto the unit sphere (clamped to
    the positive cone first when ``positive``); near-zero rows are invalid,
    and a row parameter (see ``refine_pair_on_sphere``) is ignored.

    Both arguments' norms come from one ``norm_values`` call on the stacked
    (2, rows, dim) batch.  Every combinator evaluates it elementwise or, for
    ``FormMax``'s matrix product, one (rows, dim) slice at a time, so the
    bits are those of one call per argument; a (2 * rows, dim) batch would
    not keep them, because the product rounds by its row count."""

    def project(xc: np.ndarray, yc: np.ndarray, _param=None):
        xy = np.stack((xc, yc))
        if positive:
            np.maximum(xy, 0.0, out=xy)
        n = space.norm_values(xy)
        valid = (n[0] > 1e-12) & (n[1] > 1e-12)
        n[:, ~valid] = 1.0
        xy /= n[:, :, None]
        return xy[0], xy[1], valid

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
    tol: float | Sequence[float] = 0.0,
    group: Sequence[int] | None = None,
    param: Sequence[float] | None = None,
) -> tuple[float, np.ndarray, np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Projected coordinate search with step halving, from S starts in lockstep.

    ``x0``/``y0`` are one start (dim,) or S starts (S, dim); ``step0``,
    ``tol`` and the supports ``support_*`` (which restrict the moving
    coordinates and so preserve zero patterns in disjoint-support problems)
    are shared or given per start (see ``_move_mask``).  ``batch_values(X, Y)``
    maps row-aligned candidate pairs to objective values; ``project(XC, YC)``
    maps the moved candidates back to the feasible set and flags the valid
    rows (``sphere_projection`` for sphere pairs).  With a per-start
    ``param`` (eps for the moduli), both are called with a third argument,
    the (rows, 1) column of every row's start parameter.

    Each sweep moves every start whose step is still at least ``_STEP_MIN``,
    through one projection and one objective call on all their candidates.
    A start keeps its own best value and step, and stops after
    ``_MAX_SWEEPS`` sweeps.  Every ``_STALL_SWEEPS`` sweeps, a start behind
    the best start of its group that gained over the last window stops too
    when that gain is below its gap to that start plus its ``tol``: one more
    window at its rate could not carry it more than ``tol`` past it.  The
    best start, a start refined alone and a start with no gain over the
    window go on.  So the returned best value and witness are those of the
    best single-start call (unless a stopped start would later have sped up
    past it), and a stopped start reports a value no better than its
    single-start call gives (row for row, whenever the norm evaluates rows
    independently).

    ``group`` labels the starts of several independent problems (all in
    one group by default).  A start's gap is measured within its group
    only, so each group's starts end as a call with that group alone would
    leave them, bit for bit wherever the norm evaluates rows independently
    (``FormMax`` rounds a one-row batch apart): the groups share the sweeps'
    numpy calls and nothing else.

    Returns the value and witness pair of the best start (the earliest one
    on ties), then the per-start values and witnesses.
    """
    sign = -1.0 if maximize else 1.0
    x = np.array(np.atleast_2d(x0), dtype=float)
    y = np.array(np.atleast_2d(y0), dtype=float)
    starts, dim = x.shape
    step = np.array(np.broadcast_to(np.asarray(step0, dtype=float), (starts,)))
    group = np.zeros(starts, dtype=int) if group is None else np.asarray(group)
    lead = np.empty(group.max() + 1)
    dx, dy = _move_directions(dim)
    moves = dx.shape[0]
    allowed = _move_mask(dx != 0, support_x, starts) & _move_mask(dy != 0, support_y, starts)
    if param is not None:
        param = np.asarray(param, dtype=float)
    extra = lambda rows, reps: () if param is None else (np.repeat(param[rows], reps)[:, None],)
    fbest = sign * np.asarray(batch_values(x, y, *extra(slice(None), 1)), dtype=float)
    fwindow = fbest.copy()
    usable, row_param = allowed, extra(slice(None), moves)  # cut to active; recut when it shrinks
    for done in range(_MAX_SWEEPS):
        if done and done % _STALL_SWEEPS == 0:
            gain = fwindow - fbest
            lead.fill(np.inf)
            np.minimum.at(lead, group, fbest)
            gap = fbest - lead[group]
            step[(gain > 0) & (gap > 0) & (gain < gap + tol)] = 0.0
            fwindow = fbest.copy()
        active = np.flatnonzero(step >= _STEP_MIN)
        if active.size == 0:
            break
        if active.size != usable.shape[0]:  # steps never grow, so active only shrinks
            usable, row_param = allowed[active], extra(active, moves)
        h = step[active, None, None]
        xu, yu, valid = project((x[active, None, :] + h * dx).reshape(-1, dim),
                                (y[active, None, :] + h * dy).reshape(-1, dim), *row_param)
        # disallowed and invalid moves read +inf, so the row-wise argmin is
        # the first best move of each start's own move list
        vals = np.where(valid.reshape(active.size, moves) & usable,
                        sign * np.asarray(batch_values(xu, yu, *row_param)).reshape(active.size, moves),
                        np.inf)
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


class Seeds(NamedTuple):
    """One problem of ``refine_seeds``: S starts ``x0``/``y0`` with their
    objective values and steps, the width of its enclosure before
    refinement, its a priori ``limit`` in the direction of refinement (None
    for none), the starts' supports (shared or per start, as for
    ``refine_pair_on_sphere``) and the parameter its objective and
    projection read (None when they take none)."""

    x0: np.ndarray
    y0: np.ndarray
    values: np.ndarray
    step0: float | Sequence[float]
    width: float
    limit: float | None
    support_x: Support = None
    support_y: Support = None
    param: float | None = None


def refine_seeds(
    space: LatticeSpace,
    objective: Objective,
    problems: list[Seeds],
    project: Projection,
    *,
    maximize: bool = False,
) -> list[tuple[float, np.ndarray, np.ndarray]]:
    """The engine's two rules, for every caller that refines seeds: for each
    problem, the value and witness pair of its best start after refinement.

    The bound rule: when a problem's best start, the earliest on ties,
    already sits at its ``limit``, no start can improve on it, and it is
    returned with no sweep.  The gain rule: the starts of all other
    problems are refined in one lockstep call of ``refine_pair_on_sphere``,
    one group per problem, at the tolerance ``_GAIN_TOL * width`` of their
    problem.  Each problem gets what a call with it alone returns, since
    the groups share no gap (see ``refine_pair_on_sphere``).
    """
    sign = -1.0 if maximize else 1.0
    out, run = [], []
    for k, p in enumerate(problems):
        b = int(np.argmin(sign * np.asarray(p.values)))
        out.append((float(p.values[b]), p.x0[b].copy(), p.y0[b].copy()))
        if not (p.limit is not None and sign * p.values[b] <= sign * p.limit):
            run.append(k)
    if not run:
        return out
    part = [problems[k] for k in run]
    sizes = [len(p.x0) for p in part]
    per_start = lambda name: [v for p, n in zip(part, sizes) for v in _per_start(getattr(p, name), n)]
    *_, (vals, x, y) = refine_pair_on_sphere(
        space, objective, np.concatenate([p.x0 for p in part]),
        np.concatenate([p.y0 for p in part]), project, per_start("step0"),
        maximize=maximize, support_x=per_start("support_x"), support_y=per_start("support_y"),
        tol=np.repeat([_GAIN_TOL * p.width for p in part], sizes),
        group=np.repeat(np.arange(len(part)), sizes),
        param=None if part[0].param is None else np.repeat([p.param for p in part], sizes))
    for k, lo, n in zip(run, np.cumsum([0] + sizes), sizes):
        b = lo + int(np.argmin(sign * vals[lo : lo + n]))
        out[k] = (float(vals[b]), x[b], y[b])
    return out


def certified_extrema(
    space: LatticeSpace,
    objective: Objective,
    problems: list[tuple],
    maximize: bool,
    positive: bool,
    top_k: int,
    refine: int,
    limit: float | None,
) -> list[tuple[float, float, tuple[np.ndarray, np.ndarray]]]:
    """Certified inf (sup when ``maximize``) of ``objective`` over unit-sphere
    pairs, for several problems ``(blocks, symmetric, scans, param)`` that
    share the objective, its sense and its ``limit``.  Each block
    ``(xs, ys, slack, step0, support_x, support_y)`` pairs two nets whose
    covered regions are within ``slack`` (sum of per-argument Lipschitz
    factor times mesh) of the block's extremum.  The ``top_k`` best pairs of
    every block become seeds, and each problem's ``refine`` best seeds are
    refined from ``step0`` over their block's supports, all problems in one
    call of ``refine_seeds``.  ``symmetric``: the objective is symmetric in
    its arguments and every block pairs one net with itself, so
    ``scan_pairs`` evaluates the pairs j >= i only.  ``scans`` gives the
    blocks' ``scan_pairs`` results when known (None to scan), and a param
    other than None is passed on as ``objective(X, Y, param)``.

    The width before refinement is the best net value against the certified
    bound.  ``limit`` (None for none) is the a priori bound in the direction
    of refinement: a problem whose best net value attains it returns its
    first seed's net pair unrefined.  Returns, per problem, the certified
    bound (min (max) over blocks of net value -/+ slack), the best attained
    value (net or refined) and its witness pair.
    """
    sign = -1.0 if maximize else 1.0
    bounds, seeds = [], []
    for blocks, symmetric, scans, param in problems:
        f = objective if param is None else (lambda X, Y, p=param: objective(X, Y, p))
        bound = np.inf  # signed, so both senses minimize
        found: list[tuple[float, int, int, int]] = []
        for b, (xs, ys, slack, _, _, _) in enumerate(blocks):
            val, top = scans[b] if scans else scan_pairs(
                space, xs, ys, f, maximize=maximize, top_k=top_k, symmetric=symmetric)
            bound = min(bound, sign * val - slack)
            found.extend((sign * v, b, i, j) for v, i, j in top)
        found.sort(key=lambda s: s[0])
        starts = []
        for v, b, i, j in found[:refine]:
            xs, ys, _, step0, support_x, support_y = blocks[b]
            starts.append((sign * v, xs[i], ys[j], step0, support_x, support_y))
        values, x0, y0, step0, support_x, support_y = zip(*starts)
        # the best net value, the first seed's, against the certified bound
        bounds.append(bound)
        seeds.append(Seeds(np.array(x0), np.array(y0), np.array(values), list(step0),
                           found[0][0] - bound, limit, list(support_x), list(support_y), param))
    refined = refine_seeds(space, objective, seeds, sphere_projection(space, positive),
                           maximize=maximize)
    return [(sign * bound, sign * min(sign * best, sign * s.values[0]), (wx, wy))
            for bound, s, (best, wx, wy) in zip(bounds, seeds, refined)]
