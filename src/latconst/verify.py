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
    _TOL_IDENTITY,
    _memo_moduli,
    identity_battery,
    sigma,
)
from .nets import DEFAULT_PAIR_BUDGET
from .spaces import (
    builtin_space,
    linf_space,
    lp_space,
    random_polyhedral2_space,
)

__all__ = ["SuiteContext", "run_builtin_suite", "verify_space"]

_VALUE_TOL = 5e-3
_COLLAPSE_TOL = 1e-2
_PRODUCT_TOL = 2e-2

_MIX_PARAMS = (1.0, 1.2, 1.4)  # the a of the catalog's max{l_2, a l_inf}
_DISJOINT = ("lambda_plus", "beta", "alpha")
# the paper's closed forms on the catalog, as (space, constants, value) rows
# per criterion: 2^(1/p) on l_p, sqrt(2) and sqrt(2)/a on the two max mixes,
# 2 on l_1 (result iii, abstract L-spaces) and 1 on l_inf (result ii)
_CLOSED_FORMS = {
    "lp_constant_values": [
        (f"l{tag}_{n}", _DISJOINT, 2.0 ** (1.0 / p))
        for p, tag in ((1, "1"), (1.5, "15"), (2, "2"), (3, "3")) for n in (2, 3)],
    "named_constant_values": [
        ("max_linf_l1", ("lambda", "lambda_plus"), math.sqrt(2.0)),
        *((f"max_l2_linf_{a}", ("lambda_plus", "beta"), math.sqrt(2.0) / a) for a in _MIX_PARAMS),
        *((f"l1_{n}", _DISJOINT, 2.0) for n in (2, 3)),
        *((f"linf_{n}", ("lambda_plus", "beta"), 1.0) for n in (2, 3)),
    ],
}

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

    def moduli_at(self, name: str, which: str, eps_list) -> list[float]:
        """Estimates of ``which`` at each eps; the memo's misses take one grouped call."""
        return [est.estimate for est in _memo_moduli(self.moduli, which, self.space(name), None,
                                                     self.moduli_budget, eps_list)]


def _close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def _closed_form_values(ctx: SuiteContext, criterion: str) -> CheckResult:
    """The estimates of each row of ``_CLOSED_FORMS[criterion]`` against its value."""
    rows = {}
    ok = True
    for name, kinds, want in _CLOSED_FORMS[criterion]:
        got = {k: ctx.constant(name, k).estimate for k in kinds}
        rows[name] = got | {"expected": want}
        ok = ok and all(_close(v, want, _VALUE_TOL) for v in got.values())
    return CheckResult(criterion, ok, details=rows)


def check_lp_constant_values(ctx: SuiteContext) -> CheckResult:
    """All three disjointness constants equal 2^(1/p) on l_p^n."""
    return _closed_form_values(ctx, "lp_constant_values")


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


def check_two_dim_collapse(ctx: SuiteContext) -> CheckResult:
    """In dimension 2 the positive and disjoint infima coincide and equal the
    norm of the join of the normalized basis vectors."""
    rng = np.random.default_rng(ctx.seed)
    randoms = [random_polyhedral2_space(rng, 2 + k % 3) for k in range(20)]
    cases = [(ctx.space(name), ctx.constant(name, "lambda_plus"), ctx.constant(name, "beta"))
             for name in ("max_linf_l1", *(f"max_l2_linf_{a}" for a in _MIX_PARAMS))]
    cases += [(space, lambda_plus(space, pair_budget=ctx.pair_budget),
               beta(space, pair_budget=ctx.pair_budget)) for space in randoms]
    worst_c = max(abs(lam.estimate - bet.estimate) for _, lam, bet in cases)
    # 1 / basis_norms is the join of the normalized basis vectors
    worst_j = max(abs(bet.estimate - space.norm_value(1.0 / space.basis_norms))
                  for space, _, bet in cases)
    ok = worst_c <= _COLLAPSE_TOL and worst_j <= _COLLAPSE_TOL
    return CheckResult(
        "two_dim_collapse", ok,
        details={"cases": len(cases), "max_dev_collapse": worst_c, "max_dev_join": worst_j})


def check_named_constant_values(ctx: SuiteContext) -> CheckResult:
    """sqrt(2) on max{l_inf, l_1/sqrt(2)}, sqrt(2)/a on max{l_2, a l_inf}, 2
    on l_1 and 1 on l_inf."""
    return _closed_form_values(ctx, "named_constant_values")


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
        dev_s = max(abs(s - ((1.0 + e**p) ** (1.0 / p) - 1.0))
                    for e, s in zip(grid, ctx.moduli_at(name, "sigma", grid)))
        dev_d = max(abs(d - (1.0 - (1.0 - min(e, 1.0) ** p) ** (1.0 / p)))
                    for e, d in zip(grid, ctx.moduli_at(name, "delta", grid)))
        rows[name] = {"max_dev_sigma": dev_s, "max_dev_delta": dev_d}
        ok = ok and dev_s <= _TOL_IDENTITY and dev_d <= _TOL_IDENTITY
    return CheckResult("modulus_closed_forms", ok, details=rows)


def l1_section_discrepancy(ctx: SuiteContext) -> CheckResult:
    """Informational: computed l1-section moduli equal eps (both of them),
    which matches the shifted ratio identity; the alternative stated value
    1 - eps does not match the definitions as computed here."""
    samples = {}
    dev_eps = dev_alt = 0.0
    eps = [0.25, 0.5, 0.75]
    deltas, sigmas = (ctx.moduli_at("l1_2", which, eps) for which in ("delta", "sigma"))
    for e, d, s in zip(eps, deltas, sigmas):
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
    [d] = ctx.moduli_at("l1_2", "delta", [0.5])
    [s] = ctx.moduli_at("l1_2", "sigma", [0.5])
    ratio = s / (1.0 + s)
    ok = (
        _close(d, 0.5, _TOL_IDENTITY)
        and _close(ratio, 1.0 / 3.0, _TOL_IDENTITY)
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

    rep2 = find_embedding(ctx.space("max_linf_l1"),
                          estimate=ctx.constant("max_linf_l1", "lambda_plus"))
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
    for space, fn in (
        (ctx.space("l2_3"), lambda_plus),
        (ctx.space("beta_gap"), beta),
        (ctx.space("l2_3"), lambda s, resolution: sigma(s, 0.5, resolution)),
    ):
        coarse = fn(space, resolution=1.0 / 8.0)
        fine = fn(space, resolution=1.0 / 16.0)
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
