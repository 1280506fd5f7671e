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
The best net candidates, and the coordinate sections of the net points moved
onto the constraint, seed one lockstep (x, t) search, which keeps every
point on the constraint.  It uses the engine's gain rule (see ``search``): a
start behind the best one stops once its gain over a stall window is below
``search._GAIN_TOL`` times delta's width before refinement (the best seed
value minus the certified lower bound), so only gains too small to move the
enclosure are given up.  A seed that is already at delta's floor 0 once
moved onto the constraint is returned with no sweep, since no start can go
lower.  This is the engine's bound rule, applied after the move because
the net mask admits candidates up to ``_FEAS_TOL`` below the constraint.

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
from .constants import ConstantEstimate, _enclosure, _exact, lambda_plus, net_pair_extremum
from .core import LatticeSpace
from .nets import box_grid, face_point_count, positive_face_net, resolve_resolution
from .search import refine_pair_on_sphere

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


def sigma(
    space: LatticeSpace,
    eps: float,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_MODULI_BUDGET,
) -> ConstantEstimate:
    """Upper modulus of monotonicity at eps, with certificate slack (1+eps)*mesh."""
    eps = _check_eps(eps)
    if eps == 0.0:
        # ||x + 0*y|| - 1 = 0 on the sphere, exactly
        return _exact("sigma", 0.0, space)
    # X + 1.0 * Y is exactly X + Y, so the objective is symmetric at eps = 1
    est = net_pair_extremum(space, "sigma", lambda X, Y: space.norm_values(X + eps * Y) - 1.0,
                            1.0 + eps, resolution, pair_budget, symmetric=eps == 1.0)
    est.info = {"eps": eps} | est.info
    return est


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


def _constraint_projection(space: LatticeSpace, eps: float):
    """Projection step for the (x, t) search: x radially onto S+, t clipped
    to the box and moved onto the constraint by ``_onto_constraint``."""

    def project(xc: np.ndarray, tc: np.ndarray):
        np.maximum(xc, 0.0, out=xc)
        np.clip(tc, 0.0, 1.0, out=tc)
        nx = space.norm_values(xc)
        valid = nx > 1e-12
        np.place(nx, ~valid, 1.0)
        xu = xc / nx[:, None]
        tr, feas = _onto_constraint(space, eps, xu, tc)
        return xu, tr, valid & feas

    return project


def _refine_delta(
    space: LatticeSpace,
    eps: float,
    seeds: list[tuple[np.ndarray, np.ndarray]],
    step0: float,
    tol: float,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Lockstep refinement over (x on S+, t in the box) from the seed pairs
    (x, t), moved onto the constraint first and kept on it by
    ``_constraint_projection``, with the engine's gain rule at tolerance
    ``tol``; returns the best refined (value, x, t), the earliest seed on ties.
    When a moved seed is already at delta's floor 0, no start can go lower,
    so the earliest best moved seed is returned with no sweep."""
    x0, t0 = (np.array(part) for part in zip(*seeds))
    t0, feasible = _onto_constraint(space, eps, x0, t0)
    assert np.all(feasible), "refinement must start from a feasible point"
    objective = lambda X, T: 1.0 - space.norm_values((1.0 - T) * X)
    start = objective(x0, t0)
    if start.min() <= 0.0:
        b = int(np.argmin(start))
        return float(start[b]), x0[b], t0[b]
    # every accepted move passed the projection's feasibility check, so the
    # witnesses satisfy ||t * x|| >= eps - _FEAS_TOL as the seeds do
    val, x, t, _ = refine_pair_on_sphere(
        space, objective, x0, t0, _constraint_projection(space, eps), step0, tol=tol)
    return val, x, t


def _delta_step(space: LatticeSpace, resolution: float | None, pair_budget: int) -> float:
    return resolve_resolution("delta", space.dim, resolution, pair_budget,
                              lambda n: face_point_count(space.dim, n) * (n + 1) ** space.dim)


def _delta_scan(space: LatticeSpace, resolution: float | None, pair_budget: int):
    """The net stage of ``delta_m``, which no eps enters: the resolved step,
    the sphere net, the box grid, the selection blocks (first net row, and
    ||t*x|| and 1 - ||(1-t)*x|| evaluated on ``search._strips``) and, per
    nonzero support mask, the norms of the coordinate sections of the net
    points."""
    resolution = _delta_step(space, resolution, pair_budget)
    net = positive_face_net(space, resolution)
    tgrid = box_grid(space.dim, resolution)
    pts = net.points
    ynorm, obj = np.empty((2, pts.shape[0], tgrid.shape[0]))
    for i0, i1, _, X, T in search._strips(pts, tgrid, False):
        ynorm[i0:i1] = space.norm_values(X * T)
        obj[i0:i1] = 1.0 - space.norm_values(X * (1.0 - T))
    block = max(1, 2_000_000 // max(tgrid.shape[0], 1))
    blocks = [(i0, ynorm[i0 : i0 + block], obj[i0 : i0 + block])
              for i0 in range(0, pts.shape[0], block)]
    masks = [np.asarray(labels) for labels in itertools.product((0.0, 1.0), repeat=space.dim)]
    sections = [(mask, space.norm_values(pts * mask[None, :])) for mask in masks[1:]]
    return resolution, net, tgrid, blocks, sections


def delta_m(
    space: LatticeSpace,
    eps: float,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_MODULI_BUDGET,
) -> ConstantEstimate:
    """Lower modulus of uniform monotonicity at eps (see module docs)."""
    eps = _check_eps(eps)
    if eps == 0.0:
        # y = 0 is feasible and gives 1 - ||x|| = 0, exactly
        return _exact("delta", 0.0, space, y_scale=0.0)
    h = _delta_step(space, resolution, pair_budget)
    resolution, net, tgrid, blocks, sections = search._stage(
        ("delta", space, h), lambda: _delta_scan(space, h, pair_budget))
    relax = net.mesh_norm + 0.5 * float(resolution)

    pts = net.points
    m = tgrid.shape[0]
    relaxed_min = math.inf
    strict_candidates: list[tuple[float, int, int]] = []
    for i0, ynorm, obj in blocks:
        rel = obj[ynorm >= eps - relax]
        if rel.size:
            relaxed_min = min(relaxed_min, float(np.min(rel)))
        feas = ynorm >= eps - _FEAS_TOL
        if np.any(feas):
            masked = np.where(feas, obj, np.inf)
            flat = masked.ravel()
            k = min(_TOP_K, flat.size)
            idx = np.argpartition(flat, k - 1)[:k]
            for j in idx:
                v = float(flat[j])
                if math.isfinite(v):
                    strict_candidates.append((v, i0 + int(j) // m, int(j) % m))
    strict_candidates.sort()
    seeds: list[tuple[float, np.ndarray, np.ndarray]] = [
        (v, pts[i], tgrid[j]) for v, i, j in strict_candidates[:_TOP_K]
    ]
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
    # the engine's gain rule, at search._GAIN_TOL of the width before
    # refinement; off when no net point meets the relaxed constraint
    lower = relaxed_min - relax
    tol = search._GAIN_TOL * (seeds[0][0] - lower) if math.isfinite(lower) else 0.0
    best, wx, wt = _refine_delta(
        space, eps, [(x, t) for _, x, t in seeds[: 2 * _TOP_K]], 2 * resolution, tol)
    # only refined witnesses count: the scan mask admits net candidates up to
    # _FEAS_TOL below the constraint, and refinement starts from them again
    info = {"eps": eps, "resolution": resolution, "net_points": len(net),
            "pairs_scanned": len(net) * m}
    return _enclosure("delta", False, lower, best, (wx, wt * wx),
                      net.mesh_norm, info)


def sigma_curve(space, eps_grid, resolution=None, pair_budget=DEFAULT_MODULI_BUDGET) -> ModulusCurve:
    vals = [sigma(space, e, resolution, pair_budget) for e in eps_grid]
    return ModulusCurve("sigma", [float(e) for e in eps_grid], vals)


@search._stage_scope()
def delta_curve(space, eps_grid, resolution=None, pair_budget=DEFAULT_MODULI_BUDGET) -> ModulusCurve:
    vals = [delta_m(space, e, resolution, pair_budget) for e in eps_grid]
    return ModulusCurve("delta", [float(e) for e in eps_grid], vals)


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

    def cache(which: str, e: float) -> ConstantEstimate:
        key = (which, space, resolution, pair_budget, e)
        if key not in memo:
            memo[key] = (sigma if which == "sigma" else delta_m)(space, e, resolution, pair_budget)
        return memo[key]

    sig = {e: cache("sigma", e).estimate for e in eps_grid}
    dlt = {e: cache("delta", e).estimate for e in eps_grid}
    lam = lambda_plus(space, resolution, pair_budget).estimate
    checks: list[CheckResult] = []

    checks.append(CheckResult(
        "sigma_zero_at_zero", cache("sigma", 0.0).estimate == 0.0,
        details={"value": cache("sigma", 0.0).estimate}))
    checks.append(CheckResult(
        "delta_zero_at_zero", cache("delta", 0.0).estimate == 0.0,
        details={"value": cache("delta", 0.0).estimate}))

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

    # two-sided ratio bounds, interior grid points only
    worst_lo = worst_hi = -math.inf
    for e in eps_grid:
        if not (0.0 < e < 1.0):
            continue
        lo = _ratio(cache("delta", e / (1.0 + e)).estimate)
        hi = _ratio(dlt[e])
        worst_lo = max(worst_lo, lo - sig[e])
        worst_hi = max(worst_hi, sig[e] - hi)
    checks.append(CheckResult(
        "two_sided_ratio_bounds",
        worst_lo <= _TOL_IDENTITY and worst_hi <= _TOL_IDENTITY,
        details={"max_lower_excess": worst_lo, "max_upper_excess": worst_hi}))

    # exact ratio identity with a freshly shifted argument
    worst = 0.0
    for e in eps_grid:
        s = sig[e]
        d = cache("delta", e / (1.0 + s)).estimate
        worst = max(worst, abs(d - s / (1.0 + s)))
    checks.append(CheckResult(
        "shifted_ratio_identity", worst <= _TOL_IDENTITY, details={"max_abs_dev": worst}))

    # lambda_plus <= sigma(eps) + 2 - eps on the whole grid
    worst = max(lam - (sig[e] + 2.0 - e) for e in eps_grid)
    checks.append(CheckResult(
        "lambda_plus_sigma_bound", worst <= _TOL_IDENTITY, details={"max_excess": worst}))

    # delta at 1/lambda_plus equals (lambda_plus - 1)/lambda_plus
    d_at = cache("delta", 1.0 / lam).estimate
    dev = abs(d_at - (lam - 1.0) / lam)
    checks.append(CheckResult(
        "delta_at_inverse_lambda_plus", dev <= _TOL_IDENTITY,
        details={"delta": d_at, "expected": (lam - 1.0) / lam, "abs_dev": dev}))

    # 1/(1 - delta(1/2)) <= lambda_plus
    lhs = 1.0 / (1.0 - min(cache("delta", 0.5).estimate, 1.0 - 1e-12))
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
    s_at = cache("sigma", min(char_s.value, 1.0)).estimate
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
