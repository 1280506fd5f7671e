"""The three seeded workloads: inputs, one pass over their jobs, and the
correctness gate that checks every enclosure against ``reference``.

A pass is a closed loop with one client: jobs run one at a time, in a fixed
order.  Every call into latconst goes through a module attribute looked up
at call time (``latconst.lambda_plus``, ``latconst.cli.main``), so the
traced run sees it after the tracer has replaced those bindings.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import latconst
import latconst.cli
import reference as ref

CONSTANTS = ("lambda", "lambda_plus", "beta", "alpha", "james")


@dataclass
class Job:
    """Outcome of one job: whether every check held, and the widths of the
    enclosures it produced."""

    label: str
    ok: bool
    widths: list[float] = field(default_factory=list)
    problem: str = ""


def _failed(label: str, exc: Exception) -> Job:
    return Job(label, False, [], f"raised {type(exc).__name__}: {exc}")


# Every input norm is multiplied by this factor.  It is fixed rather than
# drawn from the seed because the refinement's step sizes are absolute, so
# its sweep count, and with it the run time, changes erratically with the
# scale: moving c from 1 to 1 + 1e-9 takes delta_curve on l2_3 from 119k to
# 108k norm calls, and five seeds drawing c from [1/2, 2] spread the moduli
# pass over 8.9-14.0 s.  Coordinate permutations leave the call counts
# unchanged on beta_gap and within 10% on the planar norms.
SCALE = 1.5


def _seeded_copy(space, rng: np.random.Generator):
    """An isometric copy up to scale: a seeded random coordinate permutation
    of the norm, multiplied by SCALE."""
    perm = rng.permutation(space.dim)
    norm = latconst.Scale(SCALE, latconst.permute_norm(space.norm, perm))
    return latconst.LatticeSpace(space.dim, norm), perm


def _check(job: Job, holds: bool, what: str) -> None:
    if not holds:
        job.ok = False
        job.problem = f"{job.problem}; {what}" if job.problem else what


# ---------------------------------------------------------------------------
# chain: the `constants` CLI command on seeded catalog copies
# ---------------------------------------------------------------------------


@dataclass
class ChainInputs:
    specs: dict[str, Path]
    direct_sum: object
    first_docs: dict[str, str] = field(default_factory=dict)


class Chain:
    name = "chain"
    spaces = ("l2_3", "l3_3", "l15_3", "beta_gap")
    # a fifth of the default per-constant budget, so that a pass takes a few
    # seconds; the scans still dominate the pass
    pair_budget = 2_000_000
    expected_spans = (
        "cli.main", "constants.battery", "constants.lambda", "constants.lambda_plus",
        "constants.beta", "constants.alpha", "constants.james", "core.validate",
        "core.norm_values", "nets.positive_face_net", "nets.half_sphere_net",
        "search.scan", "search.refine",
    )

    def setup(self, seed: int, workdir: Path) -> ChainInputs:
        rng = np.random.default_rng(seed)
        specs = {}
        gap = None
        for name in self.spaces:
            space, _ = _seeded_copy(latconst.builtin_space(name), rng)
            path = workdir / f"{name}.json"
            path.write_text(json.dumps(space.to_dict()))
            specs[name] = path
            if name == "beta_gap":
                gap = space
        return ChainInputs(specs, latconst.direct_sum_l1(gap, 1))

    def run_pass(self, inp: ChainInputs) -> list[Job]:
        jobs = []
        enclosures: dict[str, dict[str, tuple[float, float]]] = {}
        for name, path in inp.specs.items():
            jobs.append(self._cli_job(name, path, inp, enclosures))
        base = enclosures.get("beta_gap", {})
        for kind in ("lambda_plus", "beta"):
            label = f"direct_sum_l1(beta_gap,1).{kind}"
            try:
                est = getattr(latconst, kind)(inp.direct_sum, None, self.pair_budget)
            except Exception as exc:
                jobs.append(_failed(label, exc))
                continue
            job = Job(label, True, [est.width])
            if kind == "beta":
                _check(job, ref.contains(est.lower, est.upper, ref.BETA_GAP_BETA),
                       "beta misses 15/11")
            else:
                _check(job, est.lower <= ref.BETA_GAP_LAMBDA_PLUS_MAX + ref.TOL,
                       "lambda_plus lower bound above 4/3")
            if kind in base:
                _check(job, ref.overlaps((est.lower, est.upper), base[kind]),
                       f"{kind} disagrees with the base space's enclosure")
            jobs.append(job)
        return jobs

    def _cli_job(self, name: str, path: Path, inp: ChainInputs, enclosures) -> Job:
        argv = ["constants", "--spec", str(path), "--pair-budget", str(self.pair_budget)]
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                code = latconst.cli.main(argv)
            doc = out.getvalue()
            results = json.loads(doc)["results"]
            encl = {k: (results[k]["lower"], results[k]["upper"]) for k in CONSTANTS}
        except Exception as exc:
            return _failed(f"constants {name}", exc)
        job = Job(f"constants {name}", True, [hi - lo for lo, hi in encl.values()])
        _check(job, code == 0, f"exit code {code}")
        for k, (lo, hi) in encl.items():
            _check(job, lo <= hi + ref.TOL, f"{k} has lower > upper")
        if name in ref.LP_EXPONENTS:
            for k, value in ref.lp_constants(ref.LP_EXPONENTS[name]).items():
                _check(job, ref.contains(*encl[k], value), f"{k} misses {value!r}")
        else:
            _check(job, ref.contains(*encl["beta"], ref.BETA_GAP_BETA), "beta misses 15/11")
            _check(job, encl["lambda_plus"][0] <= ref.BETA_GAP_LAMBDA_PLUS_MAX + ref.TOL,
                   "lambda_plus lower bound above 4/3")
        first = inp.first_docs.setdefault(name, doc)
        _check(job, doc == first, "CLI document differs from the first pass's")
        enclosures[name] = encl
        return job


# ---------------------------------------------------------------------------
# moduli: sigma and delta curves and the identity battery on a scaled l2_3
# ---------------------------------------------------------------------------


class Moduli:
    name = "moduli"
    # eps = 1 is left out: there delta_m returns the upper bound 0.99999995
    # for the exact value 1, a miss of 5e-8 from rounding that is not yet
    # outward, which would fail every pass (README.md, "Known defect")
    eps_grid = tuple(k / 10 for k in range(10))
    p = 2.0
    # a tenth of the default per-point moduli budget, so that a pass takes
    # seconds; delta_m still dominates the pass
    pair_budget = 200_000
    expected_spans = (
        "moduli.sigma", "moduli.delta", "moduli.characteristic", "moduli.identity_battery",
        "moduli.sigma_curve", "moduli.delta_curve", "constants.lambda_plus",
        "nets.positive_face_net", "nets.box_grid", "search.scan", "search.refine",
        "core.norm_values",
    )

    def setup(self, seed: int, workdir: Path):
        space, _ = _seeded_copy(latconst.builtin_space("l2_3"), np.random.default_rng(seed))
        return space

    def run_pass(self, space) -> list[Job]:
        grid = list(self.eps_grid)
        jobs = []
        for which, curve_fn, exact in (
            ("sigma", "sigma_curve", ref.lp_sigma),
            ("delta", "delta_curve", ref.lp_delta),
        ):
            try:
                curve = getattr(latconst, curve_fn)(space, grid, None, self.pair_budget)
            except Exception as exc:
                jobs.extend(_failed(f"{which}({e:g})", exc) for e in grid)
                continue
            for e, est in zip(grid, curve.values):
                job = Job(f"{which}({e:g})", True, [est.width])
                value = exact(e, self.p)
                _check(job, ref.contains(est.lower, est.upper, value),
                       f"[{est.lower!r}, {est.upper!r}] misses {value!r}")
                jobs.append(job)
        try:
            report = latconst.identity_battery(space, grid, None, self.pair_budget)
        except Exception as exc:
            jobs.append(_failed("identity_battery", exc))
        else:
            failing = [c.name for c in report.checks if not c.passed and not c.informational]
            job = Job("identity_battery", True)
            _check(job, report.passed, f"failing checks {failing}")
            jobs.append(job)
        return jobs


# ---------------------------------------------------------------------------
# planar: many small calls on random 2-D polyhedral norms
# ---------------------------------------------------------------------------


@dataclass
class PlanarNorm:
    space: object
    diagonal: float  # ||u_1 + u_2||, see reference.planar_diagonal


class Planar:
    name = "planar"
    norms = 8
    # The norms form a fixed panel drawn once from this seed; the workload
    # seed draws each panel norm's coordinate swap.  Fresh norms per seed
    # would make the pass time itself random: one norm costs 0.2 to 2.3 s,
    # a coefficient of variation near 0.6.
    panel_seed = 0
    expected_spans = (
        "constants.lambda", "constants.lambda_plus", "constants.beta", "constants.james",
        "moduli.sigma", "moduli.delta", "nets.positive_face_net", "nets.half_sphere_net",
        "nets.box_grid", "search.scan", "search.refine", "core.norm_values",
    )

    def setup(self, seed: int, workdir: Path) -> list[PlanarNorm]:
        panel = np.random.default_rng(self.panel_seed)
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(self.norms):
            base = latconst.random_polyhedral2_space(panel)
            rows = np.array(base.norm.rows)
            space, perm = _seeded_copy(base, rng)
            out.append(PlanarNorm(space, ref.planar_diagonal(rows[:, np.argsort(perm)], SCALE)))
        return out

    def run_pass(self, inp: list[PlanarNorm]) -> list[Job]:
        jobs = []
        for k, pn in enumerate(inp):
            d = pn.diagonal
            calls = (
                ("lambda", lambda: latconst.lambda_schaffer(pn.space), None),
                ("lambda_plus", lambda: latconst.lambda_plus(pn.space), d),
                ("beta", lambda: latconst.beta(pn.space), d),
                ("james", lambda: latconst.james(pn.space), None),
                ("sigma(1)", lambda: latconst.sigma(pn.space, 1.0), d - 1.0),
                ("delta(1/|(1,1)|)", lambda: latconst.delta_m(pn.space, 1.0 / d), 1.0 - 1.0 / d),
            )
            ests = {}
            for what, call, value in calls:
                label = f"norm{k}.{what}"
                try:
                    est = call()
                except Exception as exc:
                    jobs.append(_failed(label, exc))
                    continue
                ests[what] = est
                job = Job(label, True, [est.width])
                _check(job, est.lower <= est.upper + ref.TOL, "lower > upper")
                if value is not None:
                    _check(job, ref.contains(est.lower, est.upper, value),
                           f"[{est.lower!r}, {est.upper!r}] misses {value!r}")
                if what == "james" and "lambda" in ests:
                    lam = ests["lambda"]
                    lo, hi = lam.lower * est.lower, lam.upper * est.upper
                    _check(job, ref.contains(lo, hi, 2.0),
                           f"lambda*james in [{lo!r}, {hi!r}] misses 2")
                jobs.append(job)
        return jobs


WORKLOADS = {w.name: w for w in (Chain(), Moduli(), Planar())}
