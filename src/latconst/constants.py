"""Certified computation of the five sphere constants of a lattice norm.

Each constant is an inf or sup of a Lipschitz objective over unit-sphere
pairs, computed by the one engine ``search.certified_extremum``: the net
scan yields the certified side, ``net value -/+ (sum of per-argument
Lipschitz factors) * mesh``, and refinement from the best net pairs
improves the attained side only.  This module supplies the objectives, the
nets and their slacks.  One step, ``_enclosure``, turns the engine's values
into every computed interval of the package, clamped to the a priori range
of its kind ([1, 2] for the sphere constants, [0, 1] for the moduli,
``_a_priori_range``).  The engine reads the same range: a best net value at
its floor (infimum) or ceiling (supremum) needs no refinement.  One helper,
``_exact``, gives the exact values (dimension 1, moduli at eps = 0).

Every objective is 1-Lipschitz in each argument: ||x + y|| on positive and
disjoint pairs by the triangle inequality, and the full-sphere max/min of
||x - y|| and ||x + y|| because |max(a, b) - max(a', b')| and
|min(a, b) - min(a', b')| are at most max(|a - a'|, |b - b'|).
These objectives are also symmetric in x and y bit for bit (x + y == y + x,
and x - y == -(y - x) while a lattice norm reads only |.|), so on one net
paired with itself the engine scans the pairs j >= i only.  lambda and james
read both norms on the same half-sphere pairs, so ``constant_battery`` scans
that net once for both (the ``scan`` list of ``lambda_schaffer``).
Disjointness is combinatorial in the coordinatewise order, so beta and
alpha enumerate support pairs exactly: one engine block per pair, over
positive sub-sphere nets with their own mesh certificates.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import LatticeSpace, UnsupportedDimensionError
from .nets import (
    DEFAULT_PAIR_BUDGET,
    face_pairs,
    face_point_count,
    fit_resolution,
    half_sphere_net,
    over_budget,
    positive_face_net,
    resolve_resolution,
    steps_of,
    support_face_net,
    support_pairs,
)
from .search import certified_extremum, scan_pairs

__all__ = [
    "ConstantEstimate",
    "ConstantBattery",
    "lambda_plus",
    "beta",
    "alpha",
    "lambda_schaffer",
    "james",
    "constant_battery",
]

_TOP_K_PAIRS = 4
_TOP_K_SIGNED = 10
_MODULI = ("sigma", "delta")


@dataclass
class ConstantEstimate:
    """A certified enclosure [lower, upper] with its best witness value.

    For inf-type constants the witness value is the upper endpoint; for
    sup-type constants it is the lower endpoint.  ``mesh_norm`` is the net
    fineness (in the space's norm) behind the unreachable-side bound.
    """

    kind: str
    lower: float
    upper: float
    estimate: float
    witnesses: tuple[np.ndarray, np.ndarray]
    mesh_norm: float
    info: dict = field(default_factory=dict)

    @property
    def width(self) -> float:
        return self.upper - self.lower

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "lower": self.lower,
            "upper": self.upper,
            "estimate": self.estimate,
            "witnesses": [list(map(float, w)) for w in self.witnesses],
            "mesh_norm": self.mesh_norm,
        }


def _exact(kind: str, value: float, space: LatticeSpace, y_scale: float = 1.0):
    """An exact value (dimension-1 constants, moduli at eps = 0), witnessed by
    (e, y_scale * e) for the normalized first unit vector e."""
    e = np.zeros(space.dim)
    e[0] = 1.0 / space.basis_norms[0]
    info = {"resolution": None} if kind in _MODULI else {}
    return ConstantEstimate(kind, value, value, value, (e, y_scale * e), 0.0, info)


def _plus(space: LatticeSpace):
    return lambda X, Y: space.norm_values(X + Y)


def _a_priori_range(kind: str) -> tuple[float, float]:
    """The a priori range of the kind's value: [0, 1] for the moduli, [1, 2]
    for the sphere constants.  So an infimum's objective never falls below
    the floor, and a supremum's never rises above the ceiling."""
    return (0.0, 1.0) if kind in _MODULI else (1.0, 2.0)


def _enclosure(kind, maximize, certified, attained, witnesses, mesh, info):
    """The one interval builder: [lower, upper] from the engine's certified
    and attained values, clamped to the a priori range of the kind.  The
    certified side is clamped into the range, an infimum's attained side is
    floored too, and the certified side never passes the attained one, which
    is the estimate."""
    lo, hi = _a_priori_range(kind)
    if maximize:
        upper = min(hi, certified)
        lower = min(attained, upper)
        return ConstantEstimate(kind, lower, upper, lower, witnesses, mesh, info)
    upper = max(lo, attained)
    lower = min(max(lo, certified), upper)
    return ConstantEstimate(kind, lower, upper, upper, witnesses, mesh, info)


def _self_net(space: LatticeSpace, kind: str, resolution, pair_budget: int, full_sphere: bool):
    """The (budget-fitted) step and the net that ``net_pair_extremum`` pairs with itself."""
    orbits = 2 ** (space.dim - 1) if full_sphere else 1
    h = resolve_resolution(kind, space.dim, resolution, pair_budget,
                           lambda n: (orbits * face_point_count(space.dim, n)) ** 2)
    return h, (half_sphere_net if full_sphere else positive_face_net)(space, h)


def net_pair_extremum(
    space: LatticeSpace,
    kind: str,
    objective,
    lipschitz: float,
    resolution: float | None,
    pair_budget: int,
    maximize: bool = False,
    full_sphere: bool = False,
    symmetric: bool = False,
    stage: tuple | None = None,
) -> ConstantEstimate:
    """The engine on one net paired with itself: the positive face net, or
    the half-sphere net for full-sphere objectives (which are invariant
    under x -> -x and y -> -y).  The slack is ``lipschitz * mesh``, with
    ``lipschitz`` the sum of the per-argument Lipschitz factors; the result
    is the finished enclosure of ``kind``.  ``symmetric`` states that the
    objective is unchanged, bit for bit, when x and y swap, so the scan
    covers every ordered pair from the pairs j >= i.  ``stage`` (a step, its
    net and the net's ``scan_pairs`` result) replaces building and scanning.
    """
    h, net, found = stage or (*_self_net(space, kind, resolution, pair_budget, full_sphere), None)
    top = _TOP_K_SIGNED if full_sphere else _TOP_K_PAIRS
    block = (net.points, net.points, lipschitz * net.mesh_norm, 2 * h, None, None)
    certified, attained, witnesses = certified_extremum(
        space, objective, [block], maximize, not full_sphere, top_k=top, refine=top,
        symmetric=symmetric, scans=None if found is None else [found],
        limit=_a_priori_range(kind)[maximize])
    info = {"resolution": h, "net_points": len(net), "pairs_scanned": len(net) ** 2}
    return _enclosure(kind, maximize, certified, attained, witnesses, net.mesh_norm, info)


def lambda_plus(
    space: LatticeSpace,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> ConstantEstimate:
    """inf ||x + y|| over positive unit pairs; the objective is 1-Lipschitz
    in each argument, so lower = net min - 2 * mesh."""
    if space.dim == 1:
        return _exact("lambda_plus", 2.0, space)
    return net_pair_extremum(space, "lambda_plus", _plus(space), 2.0, resolution, pair_budget,
                             symmetric=True)


# ---------------------------------------------------------------------------
# disjoint-support constants
# ---------------------------------------------------------------------------


def _support_workload(dim: int):
    """Pairs scanned by the support-pair blocks, as a function of ``n_of(k)``,
    the number of grid steps at support size k."""
    sizes = Counter((len(a), len(b)) for a, b in support_pairs(dim))
    return lambda n_of: sum(c * face_point_count(ka, n_of(ka)) * face_point_count(kb, n_of(kb))
                            for (ka, kb), c in sizes.items())


def _disjoint_support_extremum(
    space: LatticeSpace,
    kind: str,
    maximize: bool,
    resolution: float | None,
    pair_budget: int,
) -> ConstantEstimate:
    """Shared path of the disjoint-pair inf (beta) and sup (alpha): exact
    support-pair enumeration, one engine block per support pair, each over
    certified sub-nets with their own meshes.

    Without an explicit resolution every support size k gets the finest
    step whose k-dimensional face net, squared, fits the per-pair share of
    the budget.  The total workload is checked before any sub-net is built.
    """
    if space.dim < 2:
        raise UnsupportedDimensionError(f"{kind} requires dimension >= 2")
    pairs = support_pairs(space.dim)
    per_pair = max(1, pair_budget // len(pairs))
    steps = {
        k: float(resolution) if resolution is not None
        else fit_resolution(k, per_pair, face_pairs(k)) or 1.0
        for k in range(1, space.dim)
    }
    workload = _support_workload(space.dim)
    scanned = workload(lambda k: steps_of(steps[k]))
    if scanned > pair_budget:
        raise over_budget(
            f"{kind}: support-pair scan needs {scanned} net pairs, over the budget "
            f"{pair_budget}", fit_resolution(space.dim, pair_budget,
                                             lambda n: workload(lambda k: n)))
    nets = {s: support_face_net(space, s, steps[len(s)])
            for s in sorted({s for pair in pairs for s in pair})}
    blocks = [
        (nets[a].points, nets[b].points, nets[a].mesh_norm + nets[b].mesh_norm,
         2 * max(steps[len(a)], steps[len(b)]), a, b)
        for a, b in pairs
    ]
    certified, attained, witnesses = certified_extremum(
        space, _plus(space), blocks, maximize, top_k=2, refine=_TOP_K_PAIRS,
        limit=_a_priori_range(kind)[maximize])
    mesh_rep = max((nets[a].mesh_norm + nets[b].mesh_norm) / 2.0 for a, b in pairs)
    info = {"support_pairs": len(pairs), "pairs_scanned": scanned}
    return _enclosure(kind, maximize, certified, attained, witnesses, mesh_rep, info)


def beta(
    space: LatticeSpace,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> ConstantEstimate:
    """inf ||x v y|| = inf ||x + y|| over disjoint positive unit pairs."""
    return _disjoint_support_extremum(space, "beta", False, resolution, pair_budget)


def alpha(
    space: LatticeSpace,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> ConstantEstimate:
    """sup ||x v y|| over disjoint positive pairs in the unit ball.

    Monotonicity pins the supremum to norm-one points, so the same
    support-pair engine applies; the alternative formula
    sup ||x - y|| over S+ x S+ is computed as a cross-check and reported in
    ``info``.  In dimension 1 the value is exactly 1 (join of unit ball
    positives stays in the ball).
    """
    if space.dim == 1:
        return _exact("alpha", 1.0, space)
    # the disjoint scan and the cross-check share the per-constant budget; the
    # cross-check is checked first, and an explicit step serves both scans,
    # so its budget error advises a step at which both fit
    pair_budget //= 2
    cross, disjoint = face_pairs(space.dim), _support_workload(space.dim)
    both = lambda n: max(cross(n), disjoint(lambda k: n))
    resolve_resolution("alpha", space.dim, resolution, pair_budget,
                       cross if resolution is None else both)
    est = _disjoint_support_extremum(space, "alpha", True, resolution, pair_budget)
    cross = net_pair_extremum(space, "alpha", lambda X, Y: space.norm_values(X - Y), 2.0,
                              resolution, pair_budget, maximize=True, symmetric=True)
    est.info["cross_check_estimate"] = cross.estimate
    est.info["cross_check_upper"] = cross.upper
    return est


# ---------------------------------------------------------------------------
# full-sphere constants
# ---------------------------------------------------------------------------


def _full_sphere_scan(space: LatticeSpace, kind: str, resolution, pair_budget: int):
    """lambda's and james's stages (step, half-sphere net, scan result) from
    one scan, which reduces each block's max and min of ||x - y|| and ||x + y||."""
    h, net = _self_net(space, kind, resolution, pair_budget, full_sphere=True)

    def both(X, Y):
        a, b = space.norm_values(X - Y), space.norm_values(X + Y)
        return np.maximum(a, b), np.minimum(a, b)

    found = scan_pairs(space, net.points, net.points, both, (False, True), _TOP_K_SIGNED,
                       symmetric=True)
    return {name: (h, net, f) for name, f in zip(("lambda", "james"), found)}


def _full_sphere_extremum(space, kind, maximize, resolution, pair_budget, scan):
    if scan is not None and not scan:
        scan.append(_full_sphere_scan(space, kind, resolution, pair_budget))
    combine = np.minimum if kind == "james" else np.maximum
    # max and min move by at most the larger move of ||x - y|| and ||x + y||,
    # so the objective is 1-Lipschitz in each of its two arguments
    return net_pair_extremum(
        space, kind, lambda X, Y: combine(space.norm_values(X - Y), space.norm_values(X + Y)),
        2.0, resolution, pair_budget, maximize, full_sphere=True, symmetric=True,
        stage=scan[0][kind] if scan else None)


def lambda_schaffer(
    space: LatticeSpace,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    *,
    scan: list | None = None,
) -> ConstantEstimate:
    """inf max{||x - y||, ||x + y||} over full unit-sphere pairs.

    Calls of ``lambda_schaffer`` and ``james`` on one (space, resolution,
    pair_budget) share one half-sphere scan through one ``scan`` list, which
    the first call fills; each still refines its own seeds, bit-identically
    to a call without a list, which scans for its own constant only."""
    if space.dim == 1:
        return _exact("lambda", 2.0, space)
    return _full_sphere_extremum(space, "lambda", False, resolution, pair_budget, scan)


def james(
    space: LatticeSpace,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
    *,
    scan: list | None = None,
) -> ConstantEstimate:
    """sup min{||x - y||, ||x + y||} over full unit-sphere pairs; ``scan``
    shares the half-sphere scan with ``lambda_schaffer`` (see there).

    In dimension 1 every unit pair has x = +/- y, so the value is 0.
    """
    if space.dim == 1:
        return _exact("james", 0.0, space, y_scale=-1.0)
    return _full_sphere_extremum(space, "james", True, resolution, pair_budget, scan)


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------


@dataclass
class ConstantBattery:
    """All five constants plus the certified inequality-chain verdict."""

    constants: dict[str, ConstantEstimate]
    chain: list[dict]
    chain_ok: bool
    product: float  # lambda * james estimate (should be 2)

    def to_dict(self) -> dict:
        return {
            "constants": {k: v.to_dict() for k, v in self.constants.items()},
            "chain": self.chain,
            "chain_ok": self.chain_ok,
            "product": self.product,
        }


CHAIN_ORDER = ["lambda", "lambda_plus", "beta", "alpha", "james"]


def build_chain(consts: dict[str, ConstantEstimate]) -> tuple[list[dict], bool]:
    """Interval-consistency verdict for the ordered chain of constants: each
    left upper endpoint may exceed the right lower endpoint by at most twice
    the combined interval widths (net slack on both sides)."""
    chain = []
    ok = True
    for left, right in zip(CHAIN_ORDER, CHAIN_ORDER[1:]):
        a, b = consts[left], consts[right]
        slack = 2.0 * (a.width + b.width)
        holds = a.upper <= b.lower + slack + 1e-12
        chain.append({
            "relation": f"{left} <= {right}",
            "holds": bool(holds),
            "left_upper": a.upper,
            "right_lower": b.lower,
            "slack": slack,
        })
        ok = ok and holds
    return chain, ok


def constant_battery(
    space: LatticeSpace,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> ConstantBattery:
    """Compute lambda <= lambda_plus <= beta <= alpha <= james with certificates;
    lambda and james share one half-sphere scan, dropped when this call returns."""
    if space.dim < 2:
        raise UnsupportedDimensionError("the constant battery requires dimension >= 2")
    scan: list = []
    consts = {
        "lambda": lambda_schaffer(space, resolution, pair_budget, scan=scan),
        "lambda_plus": lambda_plus(space, resolution, pair_budget),
        "beta": beta(space, resolution, pair_budget),
        "alpha": alpha(space, resolution, pair_budget),
        "james": james(space, resolution, pair_budget, scan=scan),
    }
    chain, ok = build_chain(consts)
    product = consts["lambda"].estimate * consts["james"].estimate
    return ConstantBattery(consts, chain, ok, product)
