"""Built-in verification suite: every published value, identity and
stability property checked end to end on the catalog norms.

The suite is compiled in (no data files) and deterministic for a fixed
seed; ``run_builtin_suite`` returns one ``CheckResult`` per criterion.
One informational entry records the l1-section modulus discrepancy: the
computed moduli on l1 sections are delta(eps) = sigma(eps) = eps (the only
values consistent with the shifted ratio identity), while the alternative
value 1 - eps sometimes quoted for L1(0,1) does not match the definitions
evaluated here; the suite records both and fails neither.
"""

from __future__ import annotations

import json
import math

import numpy as np

from . import search
from .constants import ConstantBattery, ConstantEstimate, beta, constant_battery, lambda_plus
from .constructions import (
    diagonal_isomorphism,
    direct_sum_l1,
    extract_linfty2,
    find_embedding,
)
from .core import LatticeSpace, Scale, permute_norm
from .moduli import (
    DEFAULT_MODULI_BUDGET,
    CheckReport,
    CheckResult,
    _memo_modulus,
    identity_battery,
    sigma,
)
from .nets import DEFAULT_PAIR_BUDGET
from .spaces import (
    builtin_space,
    linf_space,
    lp_space,
    max_l2_linf_space,
    max_linf_l1_space,
    random_polyhedral2_space,
)

__all__ = ["SuiteContext", "run_builtin_suite", "verify_space"]

_VALUE_TOL = 5e-3
_COLLAPSE_TOL = 1e-2
_IDENTITY_TOL = 1e-2
_PRODUCT_TOL = 2e-2

_CHAIN_SPACES = [
    "l1_2", "l1_3", "l15_2", "l15_3", "l2_2", "l2_3", "l3_2", "l3_3",
    "linf_2", "linf_3", "beta_gap", "max_linf_l1", "max_l2_linf_1.2",
]


def _moduli_budget(pair_budget: int) -> int:
    """Per-point modulus budget of a run whose constants get ``pair_budget``."""
    return min(pair_budget, DEFAULT_MODULI_BUDGET)


class SuiteContext:
    """Shared caches so the criteria do not recompute the same values: one
    constant battery per catalog space, and one memo of moduli estimates at
    ``moduli_budget``, keyed as ``identity_battery``'s memo."""

    def __init__(self, pair_budget: int = DEFAULT_PAIR_BUDGET, seed: int = 0):
        self.pair_budget = pair_budget
        self.moduli_budget = _moduli_budget(pair_budget)
        self.seed = seed
        self._spaces: dict[str, LatticeSpace] = {}
        self._batteries: dict[str, ConstantBattery] = {}
        self.moduli: dict[tuple, ConstantEstimate] = {}

    def space(self, name: str) -> LatticeSpace:
        if name not in self._spaces:
            self._spaces[name] = builtin_space(name)
        return self._spaces[name]

    def battery(self, name: str) -> ConstantBattery:
        if name not in self._batteries:
            self._batteries[name] = constant_battery(self.space(name),
                                                     pair_budget=self.pair_budget)
        return self._batteries[name]

    def constant(self, name: str, kind: str) -> ConstantEstimate:
        return self.battery(name).constants[kind]

    def modulus(self, name: str, which: str, eps: float) -> float:
        return _memo_modulus(self.moduli, which, self.space(name), None, self.moduli_budget,
                             eps).estimate


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def check_lp_constant_values(ctx: SuiteContext) -> CheckResult:
    """All three disjointness constants equal 2^(1/p) on l_p^n."""
    rows = {}
    ok = True
    for p, tag in ((1, "1"), (1.5, "15"), (2, "2"), (3, "3")):
        want = 2.0 ** (1.0 / p)
        for n in (2, 3):
            name = f"l{tag}_{n}"
            got = {k: ctx.constant(name, k).estimate for k in ("lambda_plus", "beta", "alpha")}
            rows[name] = got | {"expected": want}
            ok = ok and all(_close(v, want, _VALUE_TOL) for v in got.values())
    return CheckResult("lp_constant_values", ok, details=rows)


def check_disjoint_gap_counterexample(ctx: SuiteContext) -> CheckResult:
    """The 3-D polyhedral norm separates the disjoint and positive infima."""
    b = ctx.constant("beta_gap", "beta").estimate
    lam = ctx.constant("beta_gap", "lambda_plus").estimate
    ok = (
        _close(b, 15.0 / 11.0, _VALUE_TOL)
        and lam <= 4.0 / 3.0 + _VALUE_TOL
        and b - lam >= 0.02
    )
    return CheckResult(
        "disjoint_gap_counterexample", ok,
        details={"beta": b, "expected_beta": 15.0 / 11.0,
                 "lambda_plus_derived": lam, "upper_bound": 4.0 / 3.0,
                 "gap": b - lam})


def _collapse_case(ctx: SuiteContext, space: LatticeSpace, label: str) -> dict:
    lam = lambda_plus(space, pair_budget=ctx.pair_budget).estimate
    bet = beta(space, pair_budget=ctx.pair_budget).estimate
    e1 = np.zeros(2)
    e1[0] = 1.0 / space.basis_norms[0]
    e2 = np.zeros(2)
    e2[1] = 1.0 / space.basis_norms[1]
    joined = space.norm_value(e1 + e2)  # join of the normalized basis pair
    return {"label": label, "lambda_plus": lam, "beta": bet, "basis_join": joined,
            "dev_collapse": abs(lam - bet), "dev_join": abs(bet - joined)}


def check_two_dim_collapse(ctx: SuiteContext) -> CheckResult:
    """In dimension 2 the positive and disjoint infima coincide and equal the
    norm of the join of the normalized basis vectors."""
    cases = [_collapse_case(ctx, max_linf_l1_space(), "max_linf_l1")]
    for a in (1.0, 1.2, 1.4):
        cases.append(_collapse_case(ctx, max_l2_linf_space(a), f"max_l2_linf_{a}"))
    rng = np.random.default_rng(ctx.seed)
    for k in range(20):
        n_rows = 2 + k % 3
        cases.append(_collapse_case(ctx, random_polyhedral2_space(rng, n_rows), f"random_{k}"))
    worst_c = max(c["dev_collapse"] for c in cases)
    worst_j = max(c["dev_join"] for c in cases)
    ok = worst_c <= _COLLAPSE_TOL and worst_j <= _COLLAPSE_TOL
    return CheckResult(
        "two_dim_collapse", ok,
        details={"cases": len(cases), "max_dev_collapse": worst_c, "max_dev_join": worst_j})


def check_named_constant_values(ctx: SuiteContext) -> CheckResult:
    details = {}
    ok = True
    root2 = math.sqrt(2.0)

    lam = ctx.constant("max_linf_l1", "lambda").estimate
    lamp = ctx.constant("max_linf_l1", "lambda_plus").estimate
    details["max_linf_l1"] = {"lambda": lam, "lambda_plus": lamp, "expected": root2}
    ok = ok and _close(lam, root2, _VALUE_TOL) and _close(lamp, root2, _VALUE_TOL)

    for a in (1.0, 1.2, 1.4):
        s = max_l2_linf_space(a)
        want = root2 / a
        lamp = lambda_plus(s, pair_budget=ctx.pair_budget).estimate
        bet = beta(s, pair_budget=ctx.pair_budget).estimate
        details[f"max_l2_linf_{a}"] = {"lambda_plus": lamp, "beta": bet, "expected": want}
        ok = ok and _close(lamp, want, _VALUE_TOL) and _close(bet, want, _VALUE_TOL)

    for n in (2, 3):
        got = {k: ctx.constant(f"l1_{n}", k).estimate for k in ("lambda_plus", "beta", "alpha")}
        details[f"l1_{n}"] = got | {"expected": 2.0}
        ok = ok and all(_close(v, 2.0, _VALUE_TOL) for v in got.values())
        got = {k: ctx.constant(f"linf_{n}", k).estimate for k in ("lambda_plus", "beta")}
        details[f"linf_{n}"] = got | {"expected": 1.0}
        ok = ok and all(_close(v, 1.0, _VALUE_TOL) for v in got.values())
    return CheckResult("named_constant_values", ok, details=details)


def check_chain_and_product(ctx: SuiteContext) -> CheckResult:
    rows = {}
    ok = True
    for name in _CHAIN_SPACES:
        battery = ctx.battery(name)
        prod_ok = abs(battery.product - 2.0) <= _PRODUCT_TOL
        rows[name] = {"chain_ok": battery.chain_ok, "product": battery.product}
        ok = ok and battery.chain_ok and prod_ok
    return CheckResult("chain_and_product", ok, details=rows)


def check_modulus_identities(ctx: SuiteContext) -> CheckResult:
    grid = [k / 10.0 for k in range(11)]
    rows = {}
    ok = True
    for name in ("l1_3", "l2_3", "l3_3", "beta_gap"):
        rep = identity_battery(ctx.space(name), grid, pair_budget=ctx.moduli_budget,
                               memo=ctx.moduli)
        rows[name] = {c.name: c.passed for c in rep.checks if not c.informational}
        ok = ok and rep.passed
    return CheckResult("modulus_identities", ok, details=rows)


def check_modulus_closed_forms(ctx: SuiteContext) -> CheckResult:
    grid = [k / 10.0 for k in range(11)]
    rows = {}
    ok = True
    for p, tag in ((1, "1"), (2, "2"), (3, "3")):
        name = f"l{tag}_3"
        dev_s = max(abs(ctx.modulus(name, "sigma", e) - ((1.0 + e**p) ** (1.0 / p) - 1.0))
                    for e in grid)
        dev_d = max(abs(ctx.modulus(name, "delta", e)
                        - (1.0 - (1.0 - min(e, 1.0) ** p) ** (1.0 / p))) for e in grid)
        rows[name] = {"max_dev_sigma": dev_s, "max_dev_delta": dev_d}
        ok = ok and dev_s <= _IDENTITY_TOL and dev_d <= _IDENTITY_TOL
    return CheckResult("modulus_closed_forms", ok, details=rows)


@search._stage_scope()  # its three deltas share one net stage
def l1_section_discrepancy(ctx: SuiteContext) -> CheckResult:
    """Informational: computed l1-section moduli equal eps (both of them),
    which matches the shifted ratio identity; the alternative stated value
    1 - eps does not match the definitions as computed here."""
    samples = {}
    dev_eps = dev_alt = 0.0
    for e in (0.25, 0.5, 0.75):
        d = ctx.modulus("l1_2", "delta", e)
        s = ctx.modulus("l1_2", "sigma", e)
        samples[e] = {"delta": d, "sigma": s}
        dev_eps = max(dev_eps, abs(d - e), abs(s - e))
        dev_alt = max(dev_alt, abs(d - (1.0 - e)))
    return CheckResult(
        "l1_section_modulus_discrepancy", True, informational=True,
        details={
            "samples": samples,
            "computed_matches": "delta(eps) = sigma(eps) = eps",
            "max_dev_from_eps": dev_eps,
            "alternative_stated_value": "1 - eps",
            "max_dev_from_alternative": dev_alt,
        })


def check_ratio_formula_falsified(ctx: SuiteContext) -> CheckResult:
    """delta(eps) = sigma(eps)/(1 + sigma(eps)) is falsified on l1^2 at 1/2."""
    d = ctx.modulus("l1_2", "delta", 0.5)
    s = ctx.modulus("l1_2", "sigma", 0.5)
    ratio = s / (1.0 + s)
    ok = (
        _close(d, 0.5, _IDENTITY_TOL)
        and _close(ratio, 1.0 / 3.0, _IDENTITY_TOL)
        and abs(d - ratio) > 0.1
    )
    return CheckResult(
        "ratio_formula_falsified", ok,
        details={"delta_half": d, "sigma_ratio": ratio,
                 "formula_false": abs(d - ratio) > 0.1})


def check_embedding_bounds(ctx: SuiteContext) -> CheckResult:
    details = {}
    space = linf_space(3)
    rep = extract_linfty2(space, np.array([1.0, 0.5, 0.0]), np.array([0.0, 0.5, 1.0]))
    ok = (
        rep.min_ratio >= (1.0 - rep.epsilon) - 1e-9
        and rep.max_ratio <= (1.0 + rep.epsilon) + 1e-9
        and rep.sampled_distortion <= rep.analytic_distortion + 1e-9
        and _close(rep.epsilon, 0.0, 1e-9)
    )
    details["linf_3"] = rep.to_dict() | {"x_prime": "...", "y_prime": "..."}

    rep2 = find_embedding(ctx.space("max_linf_l1"), pair_budget=ctx.pair_budget)
    ok = ok and (
        rep2.min_ratio >= (1.0 - rep2.epsilon) - 1e-6
        and rep2.max_ratio <= (1.0 + rep2.epsilon) + 1e-6
        and rep2.sampled_distortion <= rep2.analytic_distortion + 1e-9
        and _close(rep2.epsilon, math.sqrt(2.0) - 1.0, _VALUE_TOL)
    )
    details["max_linf_l1_witness"] = {"epsilon": rep2.epsilon,
                                      "analytic": rep2.analytic_distortion,
                                      "sampled": rep2.sampled_distortion}
    return CheckResult("embedding_bounds", ok, details=details)


def check_stability(ctx: SuiteContext) -> CheckResult:
    details = {}
    ok = True
    for name in ("beta_gap", "linf_2"):
        base = ctx.space(name)
        base_lam = ctx.constant(name, "lambda_plus").estimate
        base_bet = ctx.constant(name, "beta").estimate
        for m in (1, 2):
            summed = direct_sum_l1(base, m)
            lam = lambda_plus(summed, pair_budget=ctx.pair_budget).estimate
            bet = beta(summed, pair_budget=ctx.pair_budget).estimate
            key = f"{name}+l1^{m}"
            details[key] = {"lambda_plus": lam, "beta": bet,
                            "base_lambda_plus": base_lam, "base_beta": base_bet}
            ok = ok and abs(lam - base_lam) <= _COLLAPSE_TOL
            ok = ok and abs(bet - base_bet) <= _COLLAPSE_TOL

    rng = np.random.default_rng(ctx.seed + 1)
    iso_cases = []
    for name, count in (("l1_2", 4), ("l2_3", 3), ("beta_gap", 3)):
        base = ctx.space(name)
        lam0 = ctx.constant(name, "lambda_plus").estimate
        bet0 = ctx.constant(name, "beta").estimate
        for _ in range(count):
            d = np.exp(rng.uniform(-math.log(2.0), math.log(2.0), size=base.dim))
            new_space, kappa = diagonal_isomorphism(base, d)
            lam1 = lambda_plus(new_space, pair_budget=ctx.pair_budget).estimate
            bet1 = beta(new_space, pair_budget=ctx.pair_budget).estimate
            in_lam = lam0 / kappa - _VALUE_TOL <= lam1 <= kappa * lam0 + _VALUE_TOL
            in_bet = bet0 / kappa - _VALUE_TOL <= bet1 <= kappa * bet0 + _VALUE_TOL
            iso_cases.append({"base": name, "kappa": kappa,
                              "lambda_ok": in_lam, "beta_ok": in_bet})
            ok = ok and in_lam and in_bet
    details["diagonal_isomorphisms"] = iso_cases
    return CheckResult("stability", ok, details=details)


def check_refinement_and_invariance(ctx: SuiteContext) -> CheckResult:
    details = {}
    ok = True

    # halving the grid step must not widen any certified interval
    mono = []
    for space, fn, kw in (
        (ctx.space("l2_3"), lambda_plus, {}),
        (ctx.space("beta_gap"), beta, {}),
        (ctx.space("l2_3"), lambda s, resolution, **k: sigma(s, 0.5, resolution), {}),
    ):
        coarse = fn(space, resolution=1.0 / 8.0, **kw)
        fine = fn(space, resolution=1.0 / 16.0, **kw)
        nested = (fine.lower >= coarse.lower - 1e-12) and (fine.upper <= coarse.upper + 1e-12)
        mono.append({"kind": coarse.kind,
                     "coarse": [coarse.lower, coarse.upper],
                     "fine": [fine.lower, fine.upper], "nested": nested})
        ok = ok and nested
    details["refinement_monotonicity"] = mono

    # scale and permutation invariance of all five constants
    inv = {}
    for name, perm in (("beta_gap", (2, 0, 1)), ("l2_2", (1, 0))):
        base = ctx.space(name)
        scaled = LatticeSpace(base.dim, Scale(3.0, base.norm))
        permuted = LatticeSpace(base.dim, permute_norm(base.norm, perm))
        inv[name] = {}
        for label, other in (("max_dev_scale", scaled), ("max_dev_permutation", permuted)):
            consts = constant_battery(other, pair_budget=ctx.pair_budget).constants
            inv[name][label] = max(abs(est.estimate - ctx.constant(name, kind).estimate)
                                   for kind, est in consts.items())
        ok = ok and max(inv[name].values()) <= 1e-9
    details["invariance"] = inv

    # determinism: independent recomputations serialize identically
    a = json.dumps(lambda_plus(ctx.space("l2_2")).to_dict(), sort_keys=True)
    b = json.dumps(lambda_plus(lp_space(2, 2)).to_dict(), sort_keys=True)
    details["determinism"] = {"identical": a == b}
    ok = ok and a == b

    return CheckResult("refinement_and_invariance", ok, details=details)


_CRITERIA = [
    check_lp_constant_values,
    check_disjoint_gap_counterexample,
    check_two_dim_collapse,
    check_named_constant_values,
    check_chain_and_product,
    check_modulus_identities,
    check_modulus_closed_forms,
    l1_section_discrepancy,
    check_ratio_formula_falsified,
    check_embedding_bounds,
    check_stability,
    check_refinement_and_invariance,
]


def run_builtin_suite(pair_budget: int = DEFAULT_PAIR_BUDGET, seed: int = 0) -> CheckReport:
    """Run every built-in criterion; informational entries never fail.  The
    constants get ``pair_budget`` each, the moduli min(pair_budget,
    DEFAULT_MODULI_BUDGET) per grid point."""
    ctx = SuiteContext(pair_budget, seed)
    return CheckReport([fn(ctx) for fn in _CRITERIA])


def verify_space(
    space: LatticeSpace,
    eps_grid=None,
    resolution: float | None = None,
    pair_budget: int = DEFAULT_PAIR_BUDGET,
) -> CheckReport:
    """Verification battery for one user-supplied space: the constant chain,
    the 2-D collapse (when applicable), l1-sum invariance, and all modulus
    identities (with the pointwise ratio formula evaluated and reported,
    never asserted).  The moduli get min(pair_budget, DEFAULT_MODULI_BUDGET)
    per grid point."""
    checks: list[CheckResult] = []
    if space.dim >= 2:
        battery = constant_battery(space, resolution, pair_budget)
        consts = battery.constants
        checks.append(CheckResult(
            "constant_chain", battery.chain_ok,
            details={"chain": battery.chain,
                     "estimates": {k: v.estimate for k, v in consts.items()}}))
        checks.append(CheckResult(
            "schaffer_james_product", abs(battery.product - 2.0) <= _PRODUCT_TOL,
            details={"product": battery.product}))
        gap = consts["beta"].estimate - consts["lambda_plus"].estimate
        checks.append(CheckResult(
            "disjoint_gap", True, informational=True,
            details={"beta_minus_lambda_plus": gap, "strict": gap > 0.02}))
        if space.dim == 2:
            dev = abs(consts["lambda_plus"].estimate - consts["beta"].estimate)
            checks.append(CheckResult(
                "two_dim_collapse", dev <= _COLLAPSE_TOL,
                details={"abs_gap": dev}))
        if space.dim <= 5:
            summed = direct_sum_l1(space, 1)
            lam_sum = lambda_plus(summed, pair_budget=pair_budget).estimate
            bet_sum = beta(summed, pair_budget=pair_budget).estimate
            dev = max(abs(lam_sum - consts["lambda_plus"].estimate),
                      abs(bet_sum - consts["beta"].estimate))
            checks.append(CheckResult(
                "l1_sum_invariance", dev <= _COLLAPSE_TOL,
                details={"lambda_plus_summed": lam_sum, "beta_summed": bet_sum,
                         "max_dev": dev}))
    checks.extend(identity_battery(space, eps_grid, resolution,
                                   _moduli_budget(pair_budget)).checks)
    return CheckReport(checks)
