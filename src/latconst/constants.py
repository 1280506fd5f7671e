"""Certified computation of the five sphere constants of a lattice norm.

Each constant is an inf or sup of a Lipschitz objective over unit-sphere
pairs, computed by the one engine ``search.certified_extrema``: the net
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
read both norms on the same half-sphere pairs, so one scan serves both; it is
a stage of the ``search`` stage memo, so a ``constant_battery`` runs it once.
Disjointness is combinatorial in the coordinatewise order, so beta and
alpha enumerate support pairs exactly: one engine block per pair, over
positive sub-sphere nets with their own mesh certificates.

Fundamental domains.  When the norm is unchanged by every permutation pi
within some blocks of coordinates (``LatticeSpace._symmetry_blocks``), so
is every objective under (x, y) -> (pi x, pi y), because pi commutes with
x + y, x - y and eps * y.  So x may be moved into the domain D of the
``nets`` docstring, whose net points cover S+ n D at the face net's mesh,
while y keeps its whole net: ``lambda_plus``, alpha's cross-check and
``sigma`` scan the face net's points in D against the whole face net.  For
lambda and james two more steps come first.  Flipping the signs of the same
coordinates of x and y changes neither ||x - y|| nor ||x + y||, as a
lattice norm reads only |.|, so x may be taken >= 0; and y -> -y swaps the
two norms, which leaves their max and min unchanged, so y may be taken from
the half sphere.  Then pi moves x into D, and pi y or -pi y is a
half-sphere point.  So their stage scans the face net's points in D
against the half-sphere net.  The certified side is the reduced scan's
extremum -/+ the same slack, and the step stays fitted to the full net's
pair count, so nets, meshes, slacks and budget errors are those of the full
scan; ``info["pairs_scanned"]`` counts the pairs the reduced scan is given.
A norm with no detected symmetry keeps the scan of one net paired with
itself.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .core import LatticeSpace, UnsupportedDimensionError
from .nets import (
    DEFAULT_PAIR_BUDGET,
    _domain_points,
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
from . import search

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


def net_pair_extrema(
    space: LatticeSpace,
    kind: str,
    objective,
    problems: list[tuple[float, bool, float | None]],
    resolution: float | None,
    pair_budget: int,
    maximize: bool = False,
    full_sphere: bool = False,
) -> list[ConstantEstimate]:
    """The engine (``search.certified_extrema``) on x's net against y's: one
    finished enclosure of ``kind`` per problem ``(lipschitz, symmetric,
    param)``, all refined in one lockstep.  The nets are the positive face
    net, or for ``full_sphere`` (lambda and james) the half-sphere net and
    the scan the two share; x ranges over its fundamental domain (module
    docstring).  A problem's slack is ``lipschitz * mesh``, its per-argument
    Lipschitz factors summed; ``symmetric`` states that its objective is
    unchanged, bit for bit, when x and y swap; the moduli pass eps as param.
    The positive face net is a stage of the ``search`` memo, so within a
    scope every call at one (space, step) reads one net."""
    orbits = 2 ** (space.dim - 1) if full_sphere else 1
    h = resolve_resolution(kind, space.dim, resolution, pair_budget,
                           lambda n: (orbits * face_point_count(space.dim, n)) ** 2)
    if full_sphere:
        xs, net, both = search._stage(("half_sphere", space, h),
                                      lambda: _full_sphere_scan(space, h))
        found = [both[maximize]]
    else:
        net = search._stage(("face", space, h), lambda: positive_face_net(space, h))
        found = None
        xs = _domain_points(space, net.points)
    top = _TOP_K_SIGNED if full_sphere else _TOP_K_PAIRS
    results = search.certified_extrema(
        space, objective,
        [([(xs, net.points, lipschitz * net.mesh_norm, 2 * h, None, None)],
          symmetric and xs is net.points, found, param) for lipschitz, symmetric, param in problems],
        maximize, not full_sphere, top_k=top, refine=top, limit=_a_priori_range(kind)[maximize])
    info = {"resolution": h, "net_points": len(net), "pairs_scanned": len(xs) * len(net)}
    return [_enclosure(kind, maximize, certified, attained, witnesses, net.mesh_norm, dict(info))
            for certified, attained, witnesses in results]


def lambda_plus(
    space: LatticeSpace,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> ConstantEstimate:
    """inf ||x + y|| over positive unit pairs; the objective is 1-Lipschitz
    in each argument, so lower = net min - 2 * mesh.

    This is the lattice Schaffer constant inf max{||x + y||, ||x - y||} over
    the same pairs: for x, y >= 0, |x - y| <= x + y coordinatewise, so a
    lattice norm, being monotone, gives ||x - y|| <= ||x + y||."""
    if space.dim == 1:
        return _exact("lambda_plus", 2.0, space)
    return net_pair_extrema(space, "lambda_plus", _plus(space), [(2.0, True, None)],
                            resolution, pair_budget)[0]


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
    [(certified, attained, witnesses)] = search.certified_extrema(
        space, _plus(space), [(blocks, False, None, None)], maximize, positive=True, top_k=2,
        refine=_TOP_K_PAIRS, limit=_a_priori_range(kind)[maximize])
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
    [cross] = net_pair_extrema(space, "alpha", lambda X, Y: space.norm_values(X - Y),
                               [(2.0, True, None)], resolution, pair_budget, maximize=True)
    est.info["cross_check_estimate"] = cross.estimate
    est.info["cross_check_upper"] = cross.upper
    return est


# ---------------------------------------------------------------------------
# full-sphere constants
# ---------------------------------------------------------------------------


def _full_sphere_scan(space: LatticeSpace, h: float):
    """lambda's and james's stage at step h: x's points, the half-sphere net
    and one scan of the pairs, which reduces each block's max and min of
    ||x - y|| and ||x + y|| (the scan results of the inf and the sup, in
    that order)."""
    net = half_sphere_net(space, h)
    xs = _domain_points(space, net.points)

    def both(X, Y):
        a, b = space.norm_values(X - Y), space.norm_values(X + Y)
        return np.maximum(a, b), np.minimum(a, b)

    return xs, net, search.scan_pairs(space, xs, net.points, both, (False, True),
                                      _TOP_K_SIGNED, symmetric=xs is net.points)


def _full_sphere_extremum(space, kind, maximize, resolution, pair_budget):
    combine = np.minimum if maximize else np.maximum
    return net_pair_extrema(
        space, kind, lambda X, Y: combine(space.norm_values(X - Y), space.norm_values(X + Y)),
        [(2.0, True, None)], resolution, pair_budget, maximize, full_sphere=True)[0]


def lambda_schaffer(
    space: LatticeSpace,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> ConstantEstimate:
    """inf max{||x - y||, ||x + y||} over full unit-sphere pairs."""
    if space.dim == 1:
        return _exact("lambda", 2.0, space)
    return _full_sphere_extremum(space, "lambda", False, resolution, pair_budget)


def james(
    space: LatticeSpace,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> ConstantEstimate:
    """sup min{||x - y||, ||x + y||} over full unit-sphere pairs.

    In dimension 1 every unit pair has x = +/- y, so the value is 0.
    """
    if space.dim == 1:
        return _exact("james", 0.0, space, y_scale=-1.0)
    return _full_sphere_extremum(space, "james", True, resolution, pair_budget)


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


@search._stage_scope()
def constant_battery(
    space: LatticeSpace,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> ConstantBattery:
    """Compute lambda <= lambda_plus <= beta <= alpha <= james with certificates;
    lambda and james share one half-sphere scan, dropped when this call returns."""
    if space.dim < 2:
        raise UnsupportedDimensionError("the constant battery requires dimension >= 2")
    consts = {
        "lambda": lambda_schaffer(space, resolution, pair_budget),
        "lambda_plus": lambda_plus(space, resolution, pair_budget),
        "beta": beta(space, resolution, pair_budget),
        "alpha": alpha(space, resolution, pair_budget),
        "james": james(space, resolution, pair_budget),
    }
    chain, ok = build_chain(consts)
    product = consts["lambda"].estimate * consts["james"].estimate
    return ConstantBattery(consts, chain, ok, product)
