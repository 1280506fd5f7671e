"""Span tracer that wraps latconst's public functions from the outside.

Each wrapped function is replaced under every name it is bound to in the
loaded latconst modules: ``from .search import scan_pairs`` makes
``latconst.constants.scan_pairs`` and ``latconst.moduli.scan_pairs`` further
bindings of one function, and all of them must see the wrapper.  The method
``LatticeSpace.norm_values`` is replaced on the class.

A span is (name, start, end, parent) plus three numbers: a size (rows for a
norm call, points for a net, pairs for a scan), a value (the attained bound
of a constant or the returned value of a refinement) and a width.  Spans are
kept in flat arrays in memory and written to one file after the run; a
layer's self time is its span minus the spans directly below it.
"""

from __future__ import annotations

import array
import functools
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from latconst import core, nets, search, constants, moduli, cli

LARGE_ROWS = 1024
NORM = "core.norm_values"
PASS = "bench.pass"
NETS = ("nets.positive_face_net", "nets.half_sphere_net", "nets.box_grid")
CONSTANT_SPANS = {
    "lambda": "constants.lambda",
    "lambda_plus": "constants.lambda_plus",
    "beta": "constants.beta",
    "alpha": "constants.alpha",
    "james": "constants.james",
}
# outermost combinator other than Scale, for norm throughput by kind
KINDS = {"lp": 1, "formmax": 2, "max": 3, "blocksum": 4}
_KIND_OF_CLASS = {
    core.WeightedP: KINDS["lp"],
    core.FormMax: KINDS["formmax"],
    core.MaxOf: KINDS["max"],
    core.BlockSum: KINDS["blocksum"],
}


class TraceError(RuntimeError):
    """The tracer could not bind a function, or a workload missed a layer."""


def _estimate(result):
    return result.estimate, result.width


def _net_size(result):
    return len(result) if hasattr(result, "points") else int(result.shape[0])


def _refine_value(result):
    return result[0], math.nan


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.size = array.array("q")
        self.tag = array.array("i")  # norm kind, or 1 for a repeated delta_m
        self.results: dict[int, tuple[float, float]] = {}  # span -> (value, width)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._kind_cache: dict[object, int] = {}
        self._delta_seen: set[tuple[int, float]] = set()

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, size: int = 0, tag: int = 0) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(size)
        self.tag.append(tag)
        self.end.append(math.nan)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    # -- passes -------------------------------------------------------------

    def begin_pass(self) -> int:
        self._delta_seen.clear()
        return self._open(self._id(PASS))

    def end_pass(self, i: int) -> None:
        self._close(i)

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, fn, name, before=None, after=None):
        nid = self._id(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            size, tag = before(*args, **kwargs) if before else (0, 0)
            i = self._open(nid, size, tag)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(i)
            if after is not None:
                out = after(result)
                if isinstance(out, tuple):
                    self.results[i] = out
                else:
                    self.size[i] = out
            return result

        return wrapper

    def _norm_kind(self, norm) -> int:
        kind = self._kind_cache.get(norm)
        if kind is None:
            inner = norm
            while isinstance(inner, core.Scale):
                inner = inner.term
            kind = self._kind_cache[norm] = _KIND_OF_CLASS.get(type(inner), 0)
        return kind

    def _wrap_norm_values(self, fn):
        # the hottest wrapper (hundreds of thousands of calls per pass), so
        # it inlines _open and _close
        nid = self._id(NORM)
        kind_of, stack, end, clock = self._norm_kind, self._stack, self.end, time.perf_counter
        add_name, add_parent, add_size = self.name.append, self.parent.append, self.size.append
        add_tag, add_start, add_end = self.tag.append, self.start.append, self.end.append
        nan = math.nan

        @functools.wraps(fn)
        def norm_values(space, a):
            i = len(end)
            add_name(nid)
            add_parent(stack[-1] if stack else -1)
            add_size(a.size // a.shape[-1])
            add_tag(kind_of(space.norm))
            add_end(nan)
            stack.append(i)
            add_start(clock())
            try:
                return fn(space, a)
            finally:
                end[i] = clock()
                stack.pop()

        return norm_values

    def _delta_key(self, space, eps, *args, **kwargs):
        key = (id(space), float(eps))
        repeated = key in self._delta_seen
        self._delta_seen.add(key)
        return 0, int(repeated)

    def _targets(self):
        scan_size = lambda space, xs, ys, *a, **k: (len(xs) * len(ys), 0)
        return [
            (core, "validate_lattice_norm", "core.validate", None, None),
            (nets, "positive_face_net", "nets.positive_face_net", None, _net_size),
            (nets, "half_sphere_net", "nets.half_sphere_net", None, _net_size),
            (nets, "box_grid", "nets.box_grid", None, _net_size),
            (search, "scan_pairs", "search.scan", scan_size, None),
            (search, "refine_pair_on_sphere", "search.refine", None, _refine_value),
            (search, "refine_vector_on_sphere", "search.refine", None, _refine_value),
            (constants, "lambda_schaffer", "constants.lambda", None, _estimate),
            (constants, "lambda_plus", "constants.lambda_plus", None, _estimate),
            (constants, "beta", "constants.beta", None, _estimate),
            (constants, "alpha", "constants.alpha", None, _estimate),
            (constants, "james", "constants.james", None, _estimate),
            (constants, "constant_battery", "constants.battery", None, None),
            (moduli, "sigma", "moduli.sigma", None, _estimate),
            (moduli, "delta_m", "moduli.delta", self._delta_key, _estimate),
            (moduli, "sigma_curve", "moduli.sigma_curve", None, None),
            (moduli, "delta_curve", "moduli.delta_curve", None, None),
            (moduli, "characteristic", "moduli.characteristic", None, None),
            (moduli, "identity_battery", "moduli.identity_battery", None, None),
            (cli, "main", "cli.main", None, None),
        ]

    def install(self) -> None:
        """Replace every binding of every target in the loaded latconst modules."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "latconst" or n.startswith("latconst."))]
        for module, attr, name, before, after in self._targets():
            fn = getattr(module, attr)
            wrapper = self._wrap(fn, name, before, after)
            bound = 0
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, fn))
                        bound += 1
            if not bound:
                raise TraceError(f"no binding of {module.__name__}.{attr} found")
        fn = core.LatticeSpace.norm_values
        core.LatticeSpace.norm_values = self._wrap_norm_values(fn)
        self._undo.append((core.LatticeSpace, "norm_values", fn))

    def uninstall(self) -> None:
        for owner, key, fn in reversed(self._undo):
            setattr(owner, key, fn)
        self._undo.clear()

    # -- results ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        n = len(self.end)
        value = np.full(n, np.nan)
        width = np.full(n, np.nan)
        for i, (v, w) in self.results.items():
            value[i], width[i] = v, w
        return {
            "name": np.frombuffer(self.name, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
            "size": np.frombuffer(self.size, dtype=np.int64),
            "value": value,
            "width": width,
            "tag": np.frombuffer(self.tag, dtype=np.int32),
        }

    def calls(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            return 0
        return int(np.count_nonzero(np.frombuffer(self.name, dtype=np.int32) == nid))

    def require(self, names) -> None:
        """Fail when a span the workload must produce never occurred, so a
        missed binding cannot silently zero a layer."""
        missing = [n for n in names if self.calls(n) == 0]
        if missing:
            raise TraceError(f"wrappers saw no calls: {', '.join(missing)}")

    def write(self, path: Path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _nearest(mask: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Index of each span's nearest ancestor-or-self in ``mask``, else -1."""
    out = np.where(mask, np.arange(mask.size), -1)
    cur = np.where(mask, -1, parent)
    while True:
        live = cur >= 0
        if not live.any():
            return out
        hit = live & mask[np.maximum(cur, 0)]
        out[hit] = cur[hit]
        cur = np.where(hit | ~live, -1, parent[np.maximum(cur, 0)])


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, read off its name."""
    if ".mrows_per_s" in name:
        return "Mrows/s"
    if name.endswith("mpairs_per_s"):
        return "Mpairs/s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_frac", ".share")):
        return "frac"
    if name.endswith("width_mean"):
        return "1"
    return "count"


def layer_metrics(tr: Tracer, traced_walls: list[float], untraced_walls: list[float]) -> dict:
    """Per-layer metrics, per traced pass, from the recorded spans."""
    a = tr.arrays()
    name, parent, size = a["name"], a["parent"], a["size"]
    dur = a["end"] - a["start"]
    n = name.size
    passes = len(traced_walls)
    wall = sum(traced_walls)
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child

    def sel(*names):
        ids = [tr._ids[x] for x in names if x in tr._ids]
        return np.isin(name, ids)

    def per(x):
        return float(x) / passes

    def mean(x):
        return float(np.mean(x)) if x.size else 0.0

    def ratio(x, y):
        return float(x) / float(y) if y else 0.0

    m: dict[str, float] = {}
    norm = sel(NORM)
    large = norm & (size > LARGE_ROWS)
    small = norm & (size <= LARGE_ROWS)
    for key, mask in (("norm_large", large), ("norm_small", small)):
        m[f"core.{key}.calls"] = per(np.count_nonzero(mask))
        m[f"core.{key}.rows"] = per(size[mask].sum())
        m[f"core.{key}.s"] = per(dur[mask].sum())
    m["core.norm_large.mrows_per_s"] = ratio(size[large].sum() / 1e6, dur[large].sum())
    m["core.norm_small.us_per_call"] = ratio(dur[small].sum() * 1e6, np.count_nonzero(small))
    for kind, code in KINDS.items():
        km = large & (a["tag"] == code)
        m[f"core.norm_large.mrows_per_s.{kind}"] = ratio(size[km].sum() / 1e6, dur[km].sum())
    m["core.validate.s"] = per(dur[sel("core.validate")].sum())

    in_nets = sel(*NETS)
    top_nets = in_nets & ~np.append(in_nets, False)[parent]
    m["nets.build.calls"] = per(np.count_nonzero(top_nets))
    m["nets.build.points"] = per(size[top_nets].sum())
    m["nets.build.s"] = per(dur[top_nets].sum())

    scan = sel("search.scan")
    m["search.scan.calls"] = per(np.count_nonzero(scan))
    m["search.scan.pairs"] = per(size[scan].sum())
    m["search.scan.s"] = per(dur[scan].sum())
    m["search.scan.self_s"] = per(self_t[scan].sum())
    m["search.scan.mpairs_per_s"] = ratio(size[scan].sum() / 1e6, dur[scan].sum())

    refine = sel("search.refine")
    under_refine = _nearest(refine, parent) >= 0
    # a refinement is useful when its value became its caller's attained bound;
    # at most one refinement per caller counts
    owner = parent[refine]
    useful = a["value"][refine] == a["value"][np.maximum(owner, 0)]
    m["search.refine.calls"] = per(np.count_nonzero(refine))
    m["search.refine.s"] = per(dur[refine].sum())
    m["search.refine.norm_calls"] = per(np.count_nonzero(norm & under_refine))
    m["search.refine.useful_frac"] = ratio(np.unique(owner[useful & (owner >= 0)]).size,
                                           np.count_nonzero(refine))

    consts = sel(*CONSTANT_SPANS.values())
    for short, span in CONSTANT_SPANS.items():
        mask = sel(span)
        m[f"constants.{short}.s"] = per(dur[mask].sum())
        m[f"constants.{short}.width_mean"] = mean(a["width"][mask])
    m["constants.self_s"] = per(self_t[consts].sum())

    sig = sel("moduli.sigma")
    m["moduli.sigma.calls"] = per(np.count_nonzero(sig))
    m["moduli.sigma.s"] = per(dur[sig].sum())
    m["moduli.sigma.width_mean"] = mean(a["width"][sig])
    dlt = sel("moduli.delta")
    under_delta = _nearest(dlt, parent) >= 0
    m["moduli.delta.calls"] = per(np.count_nonzero(dlt))
    m["moduli.delta.s"] = per(dur[dlt].sum())
    m["moduli.delta.width_mean"] = mean(a["width"][dlt])
    m["moduli.delta.norm_large_s"] = per(dur[large & under_delta].sum())
    m["moduli.delta.norm_small_s"] = per(dur[small & under_delta].sum())
    m["moduli.delta.repeat_frac"] = ratio(np.count_nonzero(a["tag"][dlt]), np.count_nonzero(dlt))
    char = sel("moduli.characteristic")
    m["moduli.characteristic.calls"] = per(np.count_nonzero(char))
    m["moduli.characteristic.s"] = per(dur[char].sum())
    m["moduli.identity_battery.s"] = per(dur[sel("moduli.identity_battery")].sum())

    main = sel("cli.main")
    battery_in_main = sel("constants.battery") & (_nearest(main, parent) >= 0)
    m["cli.main.s"] = per(dur[main].sum())
    m["cli.self_s"] = per(dur[main].sum() - dur[battery_in_main].sum())

    # shares of the traced wall time held by each workload's dominant layer
    m["core.norm_large.share"] = ratio(dur[large].sum(), wall)
    m["moduli.delta.share"] = ratio(dur[dlt].sum(), wall)
    m["search.refine.share"] = ratio(dur[refine].sum(), wall)
    m["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced_walls)
    return m
