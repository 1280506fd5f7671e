"""Monotonicity moduli of a lattice norm and the identities that tie them
to the positive-pair sphere constant.

sigma(eps) = inf{ ||x + eps*y|| - 1 : x, y in S+ }
delta(eps) = inf{ 1 - ||x - y||  : 0 <= y <= x, ||x|| <= 1, ||y|| >= eps }

For delta the feasible set is reparametrized: scaling x up to the sphere
only increases ||x - y|| for 0 <= y <= x (monotonicity), so x ranges over
S+, and the order interval {y : 0 <= y <= x} is exactly the box
{t * x : t in [0,1]^n} in the coordinatewise order.  The net stage scans
sphere-net x against a box grid of multipliers t; the lower certificate
relaxes the norm constraint by the combined mesh, because a feasible point
of the true problem may round to a net point that just misses it:

    lower = (net min over ||t*x|| >= eps - relax) - relax,
    relax = mesh_x + mesh_t.

No eps enters that net stage (``_delta_scan``), a stage of the ``search``
stage memo; each eps only selects from it, so sharing it changes no result.
The net seeds are the ``_TOP_K`` smallest (value, i, j) over the pairs that
meet the constraint, the engine's tie rule (``search._keep_smallest``),
selected block by block under the scans' byte rule.  They and
the coordinate sections of the net points seed a lockstep (x, t) search,
moved onto the constraint first and kept on it by ``_constraint_projection``.
It runs through the engine's one entry, ``search.refine_seeds``, with both
of its rules.  The gain rule's width is the best seed value minus the
certified lower bound.  The bound rule's limit is delta's floor 0, checked
after the move, because the net mask admits candidates up to ``_FEAS_TOL``
below the constraint.

Whole eps lists.  Each modulus has one list path, ``_sigmas`` and
``_deltas``: the per-eps work (sigma's scan on one net built per list,
delta's selection from the one net stage, built only when some eps is
nonzero), then one grouped refinement of every eps's seeds, in which the
objective and the projection read each row's eps.  A group ends as its eps
refined alone would, so ``sigma``/``delta_m`` (one-element calls of the
list path), ``sigma_curve``/``delta_curve`` (one call each) and the
``identity_battery`` memo (three lists: the grid, the points e/(1+e) and the
points e/(1+sigma(e))) give the same bits.  The bisection of
``characteristic`` stays sequential, since each probe depends on the last.

sigma is 1-Lipschitz in x and eps-Lipschitz in y, so its certificate slack
is (1 + eps) * mesh.  Both moduli take values in [0, 1]; their intervals
come from the constants' one enclosure step, ``constants._enclosure``,
which clamps them to that range.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from . import search
from .constants import ConstantEstimate, _enclosure, _exact, lambda_plus, net_pair_extrema
from .core import LatticeSpace
from .nets import box_grid, face_point_count, positive_face_net, resolve_resolution

__all__ = [
    "DEFAULT_MODULI_BUDGET",
    "ModulusCurve",
    "Characteristic",
    "CheckResult",
    "CheckReport",
    "sigma",
    "delta_m",
    "sigma_curve",
    "delta_curve",
    "characteristic",
    "identity_battery",
]

# Moduli are evaluated at many grid points per report, so their default
# per-point pair budget is leaner than the constants'; certificates simply
# reflect the coarser net.
DEFAULT_MODULI_BUDGET = 2_000_000

_FEAS_TOL = 1e-15
_TOP_K = 4

# a characteristic is the largest eps whose refined modulus estimate is at
# most _CHAR_THRESHOLD, located to within _CHAR_EPS_RESOLUTION
_CHAR_THRESHOLD = 1e-3
_CHAR_EPS_RESOLUTION = 1e-3


@dataclass
class ModulusCurve:
    """Modulus estimates over an increasing eps grid."""

    which: str  # "sigma" | "delta"
    eps_grid: list[float]
    values: list[ConstantEstimate]

    def rows(self) -> list[tuple[float, float, float, float]]:
        return [
            (e, v.lower, v.estimate, v.upper)
            for e, v in zip(self.eps_grid, self.values)
        ]

    def to_dict(self) -> dict:
        return {
            "which": self.which,
            "eps_grid": self.eps_grid,
            "values": [v.to_dict() for v in self.values],
        }


@dataclass
class Characteristic:
    """Largest eps in [0, 1] at which the (monotone) modulus stays below
    the zero threshold, located by bisection on refined estimates."""

    which: str  # "delta" -> eps_0m, "sigma" -> tilde eps_0m
    value: float

    to_dict = asdict


@dataclass
class CheckResult:
    """One named verification outcome with its measured numbers."""

    name: str
    passed: bool
    informational: bool = False
    details: dict = field(default_factory=dict)

    to_dict = asdict


@dataclass
class CheckReport:
    """The outcomes of one battery (identity battery, builtin suite or the
    per-space verification); informational checks never fail it."""

    checks: list[CheckResult]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if not c.informational)

    def to_dict(self) -> dict:
        return {"passed": self.passed, "checks": [c.to_dict() for c in self.checks]}

    def lines(self) -> list[str]:
        return [f"[{'INFO' if c.informational else 'PASS' if c.passed else 'FAIL'}] {c.name}"
                for c in self.checks]


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not (0.0 <= eps <= 1.0):
        raise ValueError(f"eps must lie in [0, 1], got {eps}")
    return eps


def _sigmas(space: LatticeSpace, eps_list, resolution: float | None,
            pair_budget: int) -> list[ConstantEstimate]:
    """``sigma`` at every eps of the list: one net, one scan per nonzero
    eps, and one grouped refinement of all their seeds."""
    eps_list = [_check_eps(e) for e in eps_list]
    nonzero = [e for e in eps_list if e != 0.0]
    # X + 1.0 * Y is exactly X + Y, so the objective is symmetric at eps = 1
    ests = iter(net_pair_extrema(
        space, "sigma", lambda X, Y, e: space.norm_values(X + e * Y) - 1.0,
        [(1.0 + e, e == 1.0, e) for e in nonzero], resolution, pair_budget) if nonzero else ())
    out = []
    for e in eps_list:
        if e == 0.0:
            # ||x + 0*y|| - 1 = 0 on the sphere, exactly
            out.append(_exact("sigma", 0.0, space))
        else:
            est = next(ests)
            est.info = {"eps": e} | est.info
            out.append(est)
    return out


def sigma(
    space: LatticeSpace,
    eps: float,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_MODULI_BUDGET,
) -> ConstantEstimate:
    """Upper modulus of monotonicity at eps, with certificate slack (1+eps)*mesh."""
    return _sigmas(space, [eps], resolution, pair_budget)[0]


# ---------------------------------------------------------------------------
# delta
# ---------------------------------------------------------------------------


def _onto_constraint(space: LatticeSpace, eps: float, x: np.ndarray, t: np.ndarray):
    """Rows of multipliers t rescaled onto the constraint surface
    ||t * x|| = eps, which never hurts the objective (shrinking y grows
    x - y coordinatewise), and whether each result is feasible: clamping to
    the box can break feasibility only when scaling up, so it is rechecked."""
    nv = space.norm_values(t * x)
    scale = np.where(nv > _FEAS_TOL, eps / np.maximum(nv, _FEAS_TOL), 0.0)
    tr = np.minimum(t * scale[:, None], 1.0)
    return tr, (space.norm_values(tr * x) >= eps - _FEAS_TOL) & (nv > _FEAS_TOL)


def _constraint_projection(space: LatticeSpace):
    """Projection step for the (x, t) search: x radially onto S+, t clipped
    to the box and moved onto the constraint by ``_onto_constraint`` at
    each row's eps, the (rows, 1) column ``eps``."""

    def project(xc: np.ndarray, tc: np.ndarray, eps: np.ndarray):
        np.maximum(xc, 0.0, out=xc)
        np.clip(tc, 0.0, 1.0, out=tc)
        nx = space.norm_values(xc)
        valid = nx > 1e-12
        np.place(nx, ~valid, 1.0)
        xu = xc / nx[:, None]
        tr, feas = _onto_constraint(space, eps[:, 0], xu, tc)
        return xu, tr, valid & feas

    return project


def _delta_scan(space: LatticeSpace, h: float):
    """The net stage of ``delta_m`` at the resolved step h, which no eps
    enters: the sphere net, the box grid, ||t*x|| and 1 - ||(1-t)*x|| over
    all (net point, grid point) pairs, evaluated on ``search._strips``, and,
    per nonzero support mask, the norms of the coordinate sections of the
    net points."""
    net = positive_face_net(space, h)
    tgrid = box_grid(space.dim, h)
    pts = net.points
    ynorm, obj = np.empty((2, pts.shape[0], tgrid.shape[0]))
    for i0, i1, _, X, T in search._strips(pts, tgrid, False):
        ynorm[i0:i1] = space.norm_values(X * T)
        obj[i0:i1] = 1.0 - space.norm_values(X * (1.0 - T))
    masks = [np.asarray(labels) for labels in itertools.product((0.0, 1.0), repeat=space.dim)]
    sections = [(mask, space.norm_values(pts * mask[None, :])) for mask in masks[1:]]
    return net, tgrid, ynorm, obj, sections


def _delta_seeds(space: LatticeSpace, stage, h: float, eps: float, objective):
    """delta's selection at one nonzero eps from the net stage: the
    certified lower bound and the refinement problem of its seeds.

    It streams over row blocks of the stage of at most
    ``search._STRIP_BYTES`` (the scans' byte rule, for the same reason: a
    stage-sized mask or copy per eps would be mapped and faulted in each
    time).  Each block gives its minimum over the pairs that meet the
    relaxed constraint, for the lower bound, and offers its values at the
    pairs that meet the constraint, in one block-sized buffer, to the
    engine's tie rule (``search._keep_smallest``)."""
    net, tgrid, ynorm, obj, sections = stage
    relax = net.mesh_norm + 0.5 * h
    pts = net.points
    m = tgrid.shape[0]
    rows = search._strip_rows(m, 1)
    buf = np.empty(rows * m)
    lower, top = np.inf, []
    for i0 in range(0, pts.shape[0], rows):
        yb, ob = ynorm[i0 : i0 + rows], obj[i0 : i0 + rows]
        lower = min(lower, float(np.min(ob, where=yb >= eps - relax, initial=np.inf)))
        vals = buf[: ob.size].reshape(ob.shape)
        vals.fill(np.inf)
        np.copyto(vals, ob, where=yb >= eps - _FEAS_TOL)
        search._keep_smallest(top, vals, _TOP_K, i0, 0)
    lower -= relax
    seeds = [(v, pts[i], tgrid[j]) for v, i, j in top if math.isfinite(v)]
    # component seeds: the extreme points of the order interval [0, x] are the
    # coordinate sections of x, so also try y = (section of x) rescaled onto
    # the constraint surface, for every support pattern
    for mask, sec_norm in sections:
        ok = sec_norm >= eps
        if not np.any(ok):
            continue
        scale = eps / sec_norm[ok]
        ys = pts[ok] * mask[None, :] * scale[:, None]
        vals = 1.0 - space.norm_values(pts[ok] - ys)
        k = int(np.argmin(vals))
        seeds.append((float(vals[k]), pts[ok][k], mask * scale[k]))
    seeds.sort(key=lambda s: s[0])
    _, x0, t0 = (np.array(part) for part in zip(*seeds[: 2 * _TOP_K]))
    t0, feasible = _onto_constraint(space, eps, x0, t0)
    assert np.all(feasible), "refinement must start from a feasible point"
    # the width before refinement is 0 when no net point meets the relaxed
    # constraint; the estimate comes from the moved seeds, not the net
    # values, since the scan mask admits candidates up to _FEAS_TOL below
    # the constraint
    width = seeds[0][0] - lower if math.isfinite(lower) else 0.0
    return lower, search.Seeds(x0, t0, objective(x0, t0, eps), 2 * h, width=width, limit=0.0,
                               param=eps)


def _deltas(space: LatticeSpace, eps_list, resolution: float | None,
            pair_budget: int) -> list[ConstantEstimate]:
    """``delta_m`` at every eps of the list: one net stage, built only when
    some eps is nonzero, a selection per nonzero eps, and one grouped
    refinement of all their seeds."""
    eps_list = [_check_eps(e) for e in eps_list]
    nonzero = [e for e in eps_list if e != 0.0]
    if nonzero:
        h = resolve_resolution("delta", space.dim, resolution, pair_budget,
                               lambda n: face_point_count(space.dim, n) * (n + 1) ** space.dim)
        stage = search._stage(("delta", space, h), lambda: _delta_scan(space, h))
        net = stage[0]
        objective = lambda X, T, e: 1.0 - space.norm_values((1.0 - T) * X)
        lowers, problems = zip(*(_delta_seeds(space, stage, h, e, objective) for e in nonzero))
        refined = iter(zip(lowers, search.refine_seeds(
            space, objective, list(problems), _constraint_projection(space))))
    out = []
    for e in eps_list:
        if e == 0.0:
            # y = 0 is feasible and gives 1 - ||x|| = 0, exactly
            out.append(_exact("delta", 0.0, space, y_scale=0.0))
            continue
        lower, (best, wx, wt) = next(refined)
        info = {"eps": e, "resolution": h, "net_points": len(net),
                "pairs_scanned": len(net) * len(stage[1])}
        out.append(_enclosure("delta", False, lower, best, (wx, wt * wx), net.mesh_norm, info))
    return out


def delta_m(
    space: LatticeSpace,
    eps: float,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_MODULI_BUDGET,
) -> ConstantEstimate:
    """Lower modulus of uniform monotonicity at eps (see module docs)."""
    return _deltas(space, [eps], resolution, pair_budget)[0]


def sigma_curve(space, eps_grid, resolution=None, pair_budget=DEFAULT_MODULI_BUDGET) -> ModulusCurve:
    return ModulusCurve("sigma", [float(e) for e in eps_grid],
                        _sigmas(space, eps_grid, resolution, pair_budget))


def delta_curve(space, eps_grid, resolution=None, pair_budget=DEFAULT_MODULI_BUDGET) -> ModulusCurve:
    return ModulusCurve("delta", [float(e) for e in eps_grid],
                        _deltas(space, eps_grid, resolution, pair_budget))


# ---------------------------------------------------------------------------
# characteristics
# ---------------------------------------------------------------------------


@search._stage_scope()
def characteristic(
    space: LatticeSpace,
    which: str,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_MODULI_BUDGET,
) -> Characteristic:
    """Bisection for the largest eps with modulus estimate <= _CHAR_THRESHOLD.

    Both moduli are non-decreasing in eps (for sigma because ||x + eps*y||
    is non-decreasing in eps on the positive cone), so the zero set is an
    interval [0, e0] and bisection applies.  The threshold separates
    "numerically zero" from "small positive" on refined estimates, whose
    accuracy is set by the refinement step, not by the net mesh.
    """
    if which not in ("delta", "sigma"):
        raise ValueError("which must be 'delta' or 'sigma'")
    fn = delta_m if which == "delta" else sigma

    def g(e: float) -> float:
        return fn(space, e, resolution, pair_budget).estimate

    hi_probe = 1.0 - _CHAR_EPS_RESOLUTION
    if g(hi_probe) <= _CHAR_THRESHOLD:
        return Characteristic(which, 1.0)
    lo, hi = 0.0, hi_probe
    while hi - lo > _CHAR_EPS_RESOLUTION:
        mid = 0.5 * (lo + hi)
        if g(mid) <= _CHAR_THRESHOLD:
            lo = mid
        else:
            hi = mid
    return Characteristic(which, lo)


# ---------------------------------------------------------------------------
# identity battery
# ---------------------------------------------------------------------------

def _memo_moduli(memo: dict, which: str, space: LatticeSpace, resolution: float | None,
                 pair_budget: int, eps_list) -> list[ConstantEstimate]:
    """``memo``'s estimates of ``which`` ("sigma" or "delta") at every eps of
    the list, under the keys (which, space, resolution, pair_budget, eps);
    the misses are computed by one call of ``_sigmas`` or ``_deltas``."""
    keys = [(which, space, resolution, pair_budget, e) for e in eps_list]
    missing = list(dict.fromkeys(k for k in keys if k not in memo))
    if missing:
        compute = _sigmas if which == "sigma" else _deltas
        memo.update(zip(missing, compute(space, [k[-1] for k in missing], resolution, pair_budget)))
    return [memo[k] for k in keys]


_TOL_IDENTITY = 1e-2
_TOL_SHAPE = 1e-3


def _ratio(d: float) -> float:
    return d / (1.0 - d) if d < 1.0 - 1e-12 else math.inf


@search._stage_scope()
def identity_battery(
    space: LatticeSpace,
    eps_grid=None,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_MODULI_BUDGET,
    *,
    memo: dict[tuple, ConstantEstimate] | None = None,
) -> CheckReport:
    """Verify every modulus identity/inequality on a grid, by certified
    estimates with tolerance 1e-2 (nothing is interpolated: identities with
    shifted arguments trigger fresh modulus computations at those points).
    Each modulus is computed once per eps, into ``memo`` when given: a dict
    keyed (which, space, resolution, pair_budget, eps), so that a memo shared
    by several calls serves each only its own estimates.  An empty grid, or
    one with a value outside [0, 1] or NaN, raises ValueError."""
    eps_grid = sorted(map(float, [k * 0.05 for k in range(21)] if eps_grid is None else eps_grid))
    if not eps_grid or not all(0.0 <= e <= 1.0 for e in eps_grid):
        raise ValueError("eps grid must be nonempty and lie inside [0, 1]")
    memo = {} if memo is None else memo

    def fetch(which: str, eps_list) -> list[float]:
        return [est.estimate for est in
                _memo_moduli(memo, which, space, resolution, pair_budget, eps_list)]

    def at(which: str, e: float) -> float:
        return fetch(which, [e])[0]

    # three lists, each computed by one grouped refinement: the grid, the
    # points e/(1+e) and the points e/(1+sigma(e))
    sig = dict(zip(eps_grid, fetch("sigma", eps_grid)))
    dlt = dict(zip(eps_grid, fetch("delta", eps_grid)))
    inner = [e for e in eps_grid if 0.0 < e < 1.0]
    shifted = dict(zip(inner, fetch("delta", [e / (1.0 + e) for e in inner])))
    ratio_points = dict(zip(eps_grid, fetch("delta", [e / (1.0 + sig[e]) for e in eps_grid])))
    lam = lambda_plus(space, resolution, pair_budget).estimate
    checks: list[CheckResult] = []

    checks.append(CheckResult(
        "sigma_zero_at_zero", at("sigma", 0.0) == 0.0,
        details={"value": at("sigma", 0.0)}))
    checks.append(CheckResult(
        "delta_zero_at_zero", at("delta", 0.0) == 0.0,
        details={"value": at("delta", 0.0)}))

    diffs_s = [sig[b] - sig[a] for a, b in zip(eps_grid, eps_grid[1:])]
    checks.append(CheckResult(
        "sigma_nondecreasing", all(d >= -_TOL_SHAPE for d in diffs_s),
        details={"min_step": min(diffs_s) if diffs_s else 0.0}))
    lip = [sig[b] - sig[a] - (b - a) for a, b in zip(eps_grid, eps_grid[1:])]
    checks.append(CheckResult(
        "sigma_one_lipschitz", all(d <= _TOL_SHAPE for d in lip),
        details={"max_excess": max(lip) if lip else 0.0}))
    diffs_d = [dlt[b] - dlt[a] for a, b in zip(eps_grid, eps_grid[1:])]
    checks.append(CheckResult(
        "delta_nondecreasing", all(d >= -_TOL_SHAPE for d in diffs_d),
        details={"min_step": min(diffs_d) if diffs_d else 0.0}))

    # two-sided ratio bounds, interior grid points only (none on a grid
    # without interior points, which reports 0.0 as the shape checks do)
    worst_lo = max((_ratio(shifted[e]) - sig[e] for e in inner), default=0.0)
    worst_hi = max((sig[e] - _ratio(dlt[e]) for e in inner), default=0.0)
    checks.append(CheckResult(
        "two_sided_ratio_bounds",
        worst_lo <= _TOL_IDENTITY and worst_hi <= _TOL_IDENTITY,
        details={"max_lower_excess": worst_lo, "max_upper_excess": worst_hi}))

    # exact ratio identity with a freshly shifted argument
    worst = 0.0
    for e in eps_grid:
        s = sig[e]
        worst = max(worst, abs(ratio_points[e] - s / (1.0 + s)))
    checks.append(CheckResult(
        "shifted_ratio_identity", worst <= _TOL_IDENTITY, details={"max_abs_dev": worst}))

    # lambda_plus <= sigma(eps) + 2 - eps on the whole grid
    worst = max(lam - (sig[e] + 2.0 - e) for e in eps_grid)
    checks.append(CheckResult(
        "lambda_plus_sigma_bound", worst <= _TOL_IDENTITY, details={"max_excess": worst}))

    # delta at 1/lambda_plus equals (lambda_plus - 1)/lambda_plus
    d_at = at("delta", 1.0 / lam)
    dev = abs(d_at - (lam - 1.0) / lam)
    checks.append(CheckResult(
        "delta_at_inverse_lambda_plus", dev <= _TOL_IDENTITY,
        details={"delta": d_at, "expected": (lam - 1.0) / lam, "abs_dev": dev}))

    # 1/(1 - delta(1/2)) <= lambda_plus
    lhs = 1.0 / (1.0 - min(at("delta", 0.5), 1.0 - 1e-12))
    checks.append(CheckResult(
        "lambda_plus_lower_from_delta_half", lhs <= lam + _TOL_IDENTITY,
        details={"lhs": lhs, "lambda_plus": lam}))

    # characteristics: sandwich and vanishing of sigma at its characteristic;
    # the delta bisection reuses the battery's net stage
    char_d = characteristic(space, "delta", resolution, pair_budget=pair_budget)
    char_s = characteristic(space, "sigma", resolution, pair_budget=pair_budget)
    ctol = _TOL_IDENTITY
    checks.append(CheckResult(
        "characteristic_sandwich",
        char_d.value <= char_s.value + ctol and char_s.value <= 2.0 * char_d.value + ctol,
        details={"eps0": char_d.value, "tilde_eps0": char_s.value}))
    s_at = at("sigma", min(char_s.value, 1.0))
    checks.append(CheckResult(
        "sigma_vanishes_at_characteristic", s_at <= _CHAR_THRESHOLD + ctol,
        details={"sigma_at_characteristic": s_at, "threshold": _CHAR_THRESHOLD}))

    # uniform monotonicity link: lambda_plus > 1 iff both characteristics < 1
    gap = 0.05
    lam_gt = lam > 1.0 + gap
    checks.append(CheckResult(
        "uniform_monotonicity_link",
        lam_gt == (char_d.value < 1.0 - gap) and lam_gt == (char_s.value < 1.0 - gap),
        details={"lambda_plus": lam, "eps0": char_d.value, "tilde_eps0": char_s.value}))

    # the claimed pointwise formula delta(e) = sigma(e)/(1+sigma(e)) need not
    # hold; evaluate it and list where it fails (informational per space)
    falsa = {e: abs(dlt[e] - sig[e] / (1.0 + sig[e])) for e in eps_grid}
    false_points = [e for e, d in falsa.items() if d > _TOL_IDENTITY]
    checks.append(CheckResult(
        "pointwise_ratio_formula", True, informational=True,
        details={"false_points": false_points,
                 "max_abs_dev": max(falsa.values()) if falsa else 0.0}))

    return CheckReport(checks)
