"""Acceptance gate: every headline criterion, one pass/fail line each.

The battery runs once per session through the real CLI entry point
(``latconst verify --builtin-suite``); the criterion tests below read its
JSON report.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines.
"""

import json

import pytest

from latconst import moduli, verify
from latconst.cli import main

CRITERIA = [
    ("lp_constant_values", "l_p spaces: all three disjointness constants equal 2^(1/p)"),
    ("disjoint_gap_counterexample", "3-D norm with disjoint infimum 15/11 strictly above the positive-pair constant"),
    ("two_dim_collapse", "dimension 2 collapses the positive and disjoint infima"),
    ("named_constant_values", "named values: sqrt(2) mixes, additive and sup norms"),
    ("chain_and_product", "certified chain lambda <= lambda+ <= beta <= alpha <= J and lambda*J = 2"),
    ("modulus_identities", "modulus identity battery on the 3-D suite spaces"),
    ("modulus_closed_forms", "l_p modulus curves match their closed forms"),
    ("ratio_formula_falsified", "pointwise ratio formula falsified on l1^2 at 1/2"),
    ("embedding_bounds", "extracted sup-norm copies respect the two-sided bounds"),
    ("stability", "l1-sum invariance and diagonal isomorphism distortion intervals"),
    ("refinement_and_invariance", "interval monotonicity, scale/permutation invariance, determinism"),
]


@pytest.fixture(scope="module")
def suite_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "verify.json"
    code = main(["verify", "--builtin-suite", "--out", str(out)])
    return code, json.loads(out.read_text())


@pytest.fixture(scope="module")
def checks(suite_report):
    _, doc = suite_report
    return {c["name"]: c for c in doc["results"]["checks"]}


@pytest.mark.parametrize("name,label", CRITERIA, ids=[c[0] for c in CRITERIA])
def test_criterion(checks, name, label):
    result = checks[name]
    print(f"[{'PASS' if result['passed'] else 'FAIL'}] {name}: {label}")
    assert result["passed"], json.dumps(result["details"], indent=2)


def test_l1_section_discrepancy_reported(checks):
    """The informational modulus-discrepancy entry must be present (recording
    both the computed value eps and the alternative 1 - eps) and must be
    informational rather than a failure."""
    entry = checks["l1_section_modulus_discrepancy"]
    print(f"[INFO] l1_section_modulus_discrepancy: {entry['details']['computed_matches']}")
    assert entry["informational"]
    assert entry["details"]["max_dev_from_eps"] <= 1e-2
    assert entry["details"]["max_dev_from_alternative"] >= 0.4


def test_derived_gap_value_recorded(checks):
    """The positive-pair constant of the counterexample norm has no published
    exact value; the suite records the derived estimate inside [1, 4/3]."""
    derived = checks["disjoint_gap_counterexample"]["details"]["lambda_plus_derived"]
    print(f"[INFO] derived positive-pair constant of the gap norm: {derived:.9f}")
    assert 1.0 <= derived <= 4.0 / 3.0 + 5e-3


def test_verify_cli_exit_and_schema(suite_report):
    """The self-contained CLI battery exits 0 and reports every criterion."""
    code, doc = suite_report
    assert code == 0
    assert doc["results"]["passed"] is True
    assert set(doc) == {"space", "results", "certificates", "version"}
    names = {c["name"] for c in doc["results"]["checks"]}
    assert {c[0] for c in CRITERIA} <= names


def test_suite_reads_moduli_from_the_battery(monkeypatch):
    """The closed-form and l1-section criteria read the moduli the identity
    battery and the first l1^2 criterion computed, at the one moduli budget."""
    ctx = verify.SuiteContext(pair_budget=20_000)
    verify.check_modulus_identities(ctx)
    verify.l1_section_discrepancy(ctx)

    def recomputed(*args, **kwargs):
        raise AssertionError("a modulus was computed twice")

    # moduli._memo_modulus, which both memos go through, calls these names
    monkeypatch.setattr(moduli, "sigma", recomputed)
    monkeypatch.setattr(moduli, "delta_m", recomputed)
    verify.check_modulus_closed_forms(ctx)
    verify.check_ratio_formula_falsified(ctx)
