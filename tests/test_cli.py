"""Command-line surface: spec ingestion, output formats, exit codes."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

import latconst.cli as cli
import latconst.core as core
from latconst.cli import main
from latconst.core import InvalidNormError

GAP3_SPEC = {
    "dim": 3,
    "norm": {
        "type": "formmax",
        "rows": [
            [1, 0, 0.5],
            [0, 1, 0.5],
            [2 / 3, 2 / 3, 1 / 3],
            [5 / 6, 5 / 6, 0],
        ],
    },
}

L1_3_SPEC = {"dim": 3, "norm": {"type": "lp", "p": 1}}
L1_2_SPEC = {"dim": 2, "norm": {"type": "lp", "p": 1}}
L2_2_SPEC = {"dim": 2, "norm": {"type": "lp", "p": 2}}
L2_1_SPEC = {"dim": 1, "norm": {"type": "lp", "p": 2}}
LINF_3_SPEC = {"dim": 3, "norm": {"type": "lp", "p": "inf"}}


def write_spec(tmp_path, spec, name="space.json"):
    path = tmp_path / name
    path.write_text(json.dumps(spec))
    return str(path)


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_constants_gap3(tmp_path, capsys):
    spec = write_spec(tmp_path, GAP3_SPEC)
    code, out, _ = run_cli(["constants", "--spec", spec], capsys)
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"space", "results", "certificates", "version"}
    assert doc["results"]["beta"]["estimate"] == pytest.approx(15 / 11, abs=5e-3)
    assert doc["results"]["lambda_plus"]["estimate"] <= 4 / 3 + 5e-3
    assert doc["results"]["chain_ok"] is True
    # every emitted estimate carries its certified interval
    for kind in ("lambda", "lambda_plus", "beta", "alpha", "james"):
        entry = doc["results"][kind]
        assert entry["lower"] <= entry["estimate"] <= entry["upper"]


def test_constants_l1_cube(tmp_path, capsys):
    spec = write_spec(tmp_path, L1_3_SPEC)
    code, out, _ = run_cli(["constants", "--spec", spec], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["lambda_plus"]["estimate"] == pytest.approx(2.0, abs=5e-3)


def test_malformed_spec_exit_codes(tmp_path, capsys):
    bad_row = write_spec(tmp_path, {
        "dim": 2, "norm": {"type": "formmax", "rows": [[1, 0], [0, 0]]}}, "bad1.json")
    assert run_cli(["constants", "--spec", bad_row], capsys)[0] == 2

    not_json = tmp_path / "bad2.json"
    not_json.write_text("{nope")
    assert run_cli(["constants", "--spec", str(not_json)], capsys)[0] == 2

    assert run_cli(["constants", "--spec", str(tmp_path / "missing.json")], capsys)[0] == 2

    # negative coefficients parse but fail the randomized lattice-norm check
    not_lattice = write_spec(tmp_path, {
        "dim": 2, "norm": {"type": "formmax", "rows": [[1, -0.8], [0.5, 1]]}}, "bad3.json")
    code, _, err = run_cli(["constants", "--spec", not_lattice], capsys)
    assert code == 2
    assert "not a lattice norm" in err

    # wrongly typed fields are spec errors, never tracebacks or silent coercions
    l2_1 = {"type": "lp", "p": 2}
    for i, norm in enumerate([
        {"type": "blocksum", "p": 1, "blocks": [{"dim": "x", "norm": l2_1}, {"dim": 1, "norm": l2_1}]},
        {"type": "blocksum", "p": 1, "blocks": [{"dim": 1.5, "norm": l2_1}, {"dim": 1, "norm": l2_1}]},
        {"type": "lp", "p": 2, "weights": ["a", 1]},
        {"type": "scale", "c": "x", "term": {"type": "lp", "p": 2}},
        {"type": "lp", "p": True},
        {"type": "formmax", "rows": [[1, 0], [0]]},
    ]):
        bad = write_spec(tmp_path, {"dim": 2, "norm": norm}, f"typed{i}.json")
        code, _, err = run_cli(["constants", "--spec", bad], capsys)
        assert code == 2, norm
        assert err.startswith("error:"), norm


def test_tol_is_an_embed_option_only(tmp_path, capsys):
    # every option is registered only on the commands that read it
    spec = write_spec(tmp_path, L1_3_SPEC)
    for argv in (
        ["constants", "--tol", "0.1"],
        ["constants", "--format", "csv"],
        ["constants", "--eps-grid", "0:1:0.5"],
        ["verify", "--format", "csv"],
        ["embed", "--format", "csv"],
        ["embed", "--eps-grid", "0:1:0.5"],
    ):
        with pytest.raises(SystemExit) as exit_info:
            main(argv + ["--spec", spec])
        assert exit_info.value.code == 2, argv
    capsys.readouterr()
    # a malformed grid is still a spec error, also a non-finite one or one
    # too fine to build (verify checks it before computing anything)
    for grid in ("0:1", "1:0:0.5", "0:2:0.5", "nan:1:0.1", "0:1:nan", "0:nan:0.1", "0:1:inf",
                 "0:1:1e-12"):
        for command in ("moduli", "verify"):
            code, _, err = run_cli([command, "--spec", spec, "--eps-grid", grid], capsys)
            assert code == 2, (command, grid)
            assert err.startswith("error:"), (command, grid)


def test_eps_grid_size_is_capped(tmp_path, capsys):
    # the point count is checked before the grid is built: a grid at the
    # characteristic's 1e-3 resolution parses, a finer one is a spec error
    assert len(cli._parse_eps_grid("0:1:0.001")) == cli._MAX_EPS_POINTS == 1001
    with pytest.raises(InvalidNormError, match="points"):
        cli._parse_eps_grid("0:1:1e-4")
    spec = write_spec(tmp_path, L1_3_SPEC)
    for command in ("moduli", "verify"):
        code, out, err = run_cli([command, "--spec", spec, "--eps-grid", "0:1:1e-12"], capsys)
        assert code == 2 and out == "", command
        assert err.startswith("error:") and err.count("\n") == 1, (command, err)


def test_step_and_tol_ranges_are_checked(tmp_path, capsys):
    # --h must be a step in (0, 1] and --tol lie in [0, 1); anything else,
    # nan and inf included, is a usage error on every command that takes it
    spec = write_spec(tmp_path, L2_2_SPEC)
    cases = [(["constants", "--h", h], "--h") for h in ("0", "-1", "2", "nan", "inf")]
    cases += [([command, "--h", "nan"], "--h") for command in ("moduli", "verify", "embed")]
    cases += [(["embed", "--tol", tol], "--tol") for tol in ("nan", "inf", "2", "1", "-0.1")]
    for argv, option in cases:
        code, out, err = run_cli(argv + ["--spec", spec], capsys)
        assert code == 2, argv
        assert err.startswith("error:") and option in err.splitlines()[0], argv
        assert out == "", argv
    # the ends of the ranges are valid
    assert run_cli(["embed", "--spec", spec, "--tol", "0", "--h", "1"], capsys)[0] == 0


def test_seed_and_pair_budget_ranges_are_checked(tmp_path, capsys):
    # a negative seed died in numpy's default_rng with exit 1 (the code of a
    # failed verification), and a budget below 1 exited 3 as if over budget
    spec = write_spec(tmp_path, L2_2_SPEC)
    commands = [["constants", "--spec", spec], ["moduli", "--spec", spec],
                ["verify", "--spec", spec], ["verify", "--builtin-suite"],
                ["embed", "--spec", spec]]
    cases = [(argv + ["--seed", "-1"], "--seed") for argv in commands]
    cases += [(argv + ["--pair-budget", budget], "--pair-budget")
              for argv in commands for budget in ("0", "-5")]
    for argv, option in cases:
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv
        assert err.startswith("error:") and option in err.splitlines()[0], argv
        assert out == "", argv
    # the ends of the ranges are valid
    assert run_cli(["embed", "--spec", spec, "--seed", "0", "--h", "1"], capsys)[0] == 0
    assert run_cli(["constants", "--spec", spec, "--h", "1", "--pair-budget", "1"],
                   capsys)[0] == 3


def test_moduli_pair_budget_is_honoured(tmp_path, capsys):
    # in dimension 1 every constant is exact, so only verify's identity
    # battery can exceed the budget
    for spec, command in ((L2_2_SPEC, "constants"), (L2_2_SPEC, "moduli"),
                          (L2_1_SPEC, "verify")):
        args = ["--spec", write_spec(tmp_path, spec), "--h", "0.02", "--pair-budget", "10"]
        code, _, err = run_cli([command] + args, capsys)
        assert code == 3, command
        assert "resolution" in err, command


def test_budget_exceeded_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, L1_3_SPEC)
    code, _, err = run_cli(["constants", "--spec", spec, "--h", "0.002"], capsys)
    assert code == 3
    assert "resolution" in err


def test_moduli_csv(tmp_path, capsys):
    spec = write_spec(tmp_path, L2_2_SPEC)
    code, out, _ = run_cli(
        ["moduli", "--spec", spec, "--eps-grid", "0:1:0.5", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "eps,sigma_lower,sigma_estimate,sigma_upper,delta_lower,delta_estimate,delta_upper"
    assert len(lines) == 4
    rows = {float(ln.split(",")[0]): [float(v) for v in ln.split(",")[1:]] for ln in lines[1:]}
    assert rows[0.0][1] == 0.0
    assert rows[0.5][1] == pytest.approx(math.sqrt(1.25) - 1.0, abs=1e-3)
    assert rows[1.0][1] == pytest.approx(math.sqrt(2.0) - 1.0, abs=1e-3)


def test_moduli_json_l1(tmp_path, capsys):
    spec = write_spec(tmp_path, L1_2_SPEC)
    code, out, _ = run_cli(["moduli", "--spec", spec, "--eps-grid", "0.5:0.5:0.1"], capsys)
    assert code == 0
    doc = json.loads(out)
    row = doc["results"]["curve"][0]
    assert row["eps"] == 0.5
    assert row["delta"]["estimate"] == pytest.approx(0.5, abs=1e-3)
    assert row["delta"]["lower"] <= row["delta"]["estimate"] <= row["delta"]["upper"]


def test_verify_spec_reports_ratio_formula_false(tmp_path, capsys):
    spec = write_spec(tmp_path, L1_2_SPEC)
    code, out, err = run_cli(
        ["verify", "--spec", spec, "--eps-grid", "0:1:0.25"], capsys)
    assert code == 0
    doc = json.loads(out)
    by_name = {c["name"]: c for c in doc["results"]["checks"]}
    assert 0.5 in by_name["pointwise_ratio_formula"]["details"]["false_points"]
    assert by_name["constant_chain"]["passed"]
    assert "[PASS]" in err


@pytest.mark.parametrize("grid", ["0:1:1", "1:1:1"])
def test_verify_document_is_strict_json_without_interior_points(tmp_path, capsys, grid):
    # no interior grid point leaves the two-sided ratio bounds nothing to
    # check; they report 0.0, as the shape checks do on a one-point grid
    def reject(constant):  # RFC 8259 JSON has no Infinity, -Infinity or NaN
        raise ValueError(f"non-standard JSON constant {constant}")
    spec = write_spec(tmp_path, L2_2_SPEC)
    code, out, _ = run_cli(["verify", "--spec", spec, "--eps-grid", grid], capsys)
    assert code == 0
    doc = json.loads(out, parse_constant=reject)
    by_name = {c["name"]: c for c in doc["results"]["checks"]}
    assert by_name["two_sided_ratio_bounds"]["details"] == {
        "max_lower_excess": 0.0, "max_upper_excess": 0.0}


def test_huge_spec_dimensions_are_rejected_before_allocation(tmp_path, capsys, monkeypatch):
    # the spec's dim and every block dim are bounded before any array of
    # that size is built; nothing here may reach np.ones or np.eye
    def refuse(*args, **kwargs):
        raise AssertionError("a spec dimension reached an allocation")
    l2 = {"type": "lp", "p": 2}
    specs = [
        {"dim": 10**9, "norm": l2},
        {"dim": 2, "norm": {"type": "blocksum", "p": 1,
                            "blocks": [{"dim": 10**9, "norm": l2}, {"dim": 1, "norm": l2}]}},
    ]
    for i, raw in enumerate(specs):
        spec = write_spec(tmp_path, raw, f"huge{i}.json")
        with monkeypatch.context() as patch:
            patch.setattr(np, "ones", refuse)
            patch.setattr(np, "eye", refuse)
            code, out, err = run_cli(["constants", "--spec", spec], capsys)
        assert code == 2 and out == "", raw
        assert err.startswith("error:") and "capped" in err, raw
    # the bound keeps every dimension that a net within the point cap reaches
    assert core._parse_dim(core.MAX_SPEC_DIM, "'dim'") == core.MAX_SPEC_DIM >= 20
    with pytest.raises(core.UnsupportedDimensionError):
        core._parse_dim(core.MAX_SPEC_DIM + 1, "'dim'")


def test_embed_exact_copy(tmp_path, capsys):
    spec = write_spec(tmp_path, LINF_3_SPEC)
    code, out, _ = run_cli(["embed", "--spec", spec], capsys)
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["sampled_distortion"] == pytest.approx(1.0, abs=1e-9)


def test_embed_no_pair_exit_code(tmp_path, capsys):
    spec = write_spec(tmp_path, L1_2_SPEC)
    code, _, err = run_cli(["embed", "--spec", spec], capsys)
    assert code == 4
    assert "defect" in err


def test_byte_identical_output(tmp_path, capsys):
    spec = write_spec(tmp_path, GAP3_SPEC)
    _, out1, _ = run_cli(["constants", "--spec", spec, "--seed", "3"], capsys)
    _, out2, _ = run_cli(["constants", "--spec", spec, "--seed", "3"], capsys)
    assert out1 == out2


def test_out_file_and_module_invocation(tmp_path):
    spec_path = tmp_path / "space.json"
    spec_path.write_text(json.dumps(L2_2_SPEC))
    out_path = tmp_path / "report.json"
    proc = subprocess.run(
        [sys.executable, "-m", "latconst", "constants",
         "--spec", str(spec_path), "--out", str(out_path)],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    doc = json.loads(out_path.read_text())
    assert doc["results"]["lambda_plus"]["estimate"] == pytest.approx(2 ** 0.5, abs=5e-3)
    assert doc["version"]
