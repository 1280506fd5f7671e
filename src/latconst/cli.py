"""Command line entry point.

    latconst constants --spec FILE
    latconst moduli    --spec FILE [--eps-grid a:b:step] [--format json|csv]
    latconst verify    (--spec FILE | --builtin-suite) [--eps-grid a:b:step]
    latconst embed     --spec FILE [--tol T]           (0 <= T < 1)

Every command also takes --h H (0 < H <= 1), --seed S (S >= 0), --out F
and --pair-budget N (N >= 1; per constant, or per modulus grid point for
moduli; verify runs its moduli at min(N, DEFAULT_MODULI_BUDGET) per grid
point); an option is registered only on the commands that read it.
Machine output goes to stdout (or --out); human diagnostics go to stderr.
Exit codes: 0 success, 1 verification failure, 2 malformed spec, 3 budget
exceeded, 4 no embedding pair with small enough defect.  Output is
byte-identical for identical (spec, options, seed).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .constants import constant_battery
from .constructions import find_embedding
from .core import (
    BudgetExceededError,
    DimensionMismatchError,
    EmbeddingError,
    InvalidNormError,
    LatticeSpace,
    UnsupportedDimensionError,
    space_from_dict,
    validate_lattice_norm,
)
from .moduli import DEFAULT_MODULI_BUDGET, delta_curve, sigma_curve
from .nets import DEFAULT_PAIR_BUDGET
from .verify import run_builtin_suite, verify_space

__all__ = ["main", "cmd_constants", "cmd_moduli", "cmd_verify", "cmd_embed"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_SPEC = 2
EXIT_BUDGET = 3
EXIT_NO_EMBEDDING = 4

# each grid point costs one sigma and one delta_m; 1001 points is a grid at
# the 1e-3 eps resolution of ``characteristic``
_MAX_EPS_POINTS = 1001


def _parse_eps_grid(text: str) -> list[float]:
    try:
        a, b, step = (float(part) for part in text.split(":"))
    except ValueError:
        raise InvalidNormError(f"--eps-grid expects a:b:step, got {text!r}") from None
    if not (0.0 < step < float("inf") and a <= b):  # also false when one is nan
        raise InvalidNormError(f"--eps-grid needs finite a, b and step > 0, b >= a, got {text!r}")
    if a < 0.0 or b > 1.0:
        raise InvalidNormError("eps grid must lie inside [0, 1]")
    if (b - a + 1e-12) / step >= _MAX_EPS_POINTS:  # the loop below makes > this many points
        raise InvalidNormError(f"--eps-grid {text!r} has over {_MAX_EPS_POINTS} points")
    out = []
    k = 0
    while a + k * step <= b + 1e-12:
        out.append(min(a + k * step, b))
        k += 1
    return out


def _check_options(args: argparse.Namespace) -> None:
    if args.resolution is not None and not 0.0 < args.resolution <= 1.0:  # nan fails too
        raise InvalidNormError(f"--h must lie in (0, 1], got {args.resolution}")
    if not 0.0 <= getattr(args, "tol", 0.0) < 1.0:
        raise InvalidNormError(f"--tol must lie in [0, 1), got {args.tol}")
    if args.seed < 0:
        raise InvalidNormError(f"--seed must be an integer >= 0, got {args.seed}")
    if args.pair_budget < 1:
        raise InvalidNormError(f"--pair-budget must be an integer >= 1, got {args.pair_budget}")


def _load_space(args: argparse.Namespace) -> LatticeSpace:
    if args.spec is None:
        raise InvalidNormError("a --spec file is required for this command")
    try:
        with open(args.spec) as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise InvalidNormError(f"cannot read spec file: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InvalidNormError(f"spec file is not valid JSON: {exc}") from None
    space = space_from_dict(raw)
    report = validate_lattice_norm(space, samples=500, seed=args.seed)
    if not report.passed:
        raise InvalidNormError(
            f"the supplied expression is not a lattice norm: "
            f"{report.violation['property']} fails (witness {report.violation})"
        )
    return space


def _emit(args: argparse.Namespace, payload: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json_report(space_desc, results: dict, certificates: dict) -> str:
    doc = {
        "space": space_desc,
        "results": results,
        "certificates": certificates,
        "version": __version__,
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def cmd_constants(args: argparse.Namespace) -> int:
    space = _load_space(args)
    battery = constant_battery(space, args.resolution, args.pair_budget)
    results = {name: est.to_dict() for name, est in battery.constants.items()}
    results["chain"] = battery.chain
    results["chain_ok"] = battery.chain_ok
    results["schaffer_james_product"] = battery.product
    certificates = {
        name: {"mesh_norm": est.mesh_norm, "interval_width": est.width, **est.info}
        for name, est in battery.constants.items()
    }
    _emit(args, _json_report(space.to_dict(), results, certificates))
    return EXIT_OK


def cmd_moduli(args: argparse.Namespace) -> int:
    grid = _parse_eps_grid(args.eps_grid)
    space = _load_space(args)
    sig = sigma_curve(space, grid, args.resolution, args.pair_budget)
    dlt = delta_curve(space, grid, args.resolution, args.pair_budget)
    if args.format == "csv":
        lines = ["eps,sigma_lower,sigma_estimate,sigma_upper,delta_lower,delta_estimate,delta_upper"]
        for (e, slo, sest, sup), (_, dlo, dest, dup) in zip(sig.rows(), dlt.rows()):
            nums = (e, slo, sest, sup, dlo, dest, dup)
            lines.append(",".join(f"{v:.12g}" for v in nums))
        _emit(args, "\n".join(lines) + "\n")
        return EXIT_OK
    rows = [
        {"eps": e,
         "sigma": {"lower": slo, "estimate": sest, "upper": sup},
         "delta": {"lower": dlo, "estimate": dest, "upper": dup}}
        for (e, slo, sest, sup), (_, dlo, dest, dup) in zip(sig.rows(), dlt.rows())
    ]
    certificates = {
        "sigma_mesh_norms": [v.mesh_norm for v in sig.values],
        "delta_mesh_norms": [v.mesh_norm for v in dlt.values],
    }
    _emit(args, _json_report(space.to_dict(), {"curve": rows}, certificates))
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    grid = _parse_eps_grid(args.eps_grid)
    if args.builtin_suite:
        report = run_builtin_suite(args.pair_budget, seed=args.seed)
        space_desc = {"builtin_suite": True}
    else:
        space = _load_space(args)
        report = verify_space(space, grid, args.resolution, args.pair_budget)
        space_desc = space.to_dict()
    for line in report.lines():
        print(line, file=sys.stderr)
    _emit(args, _json_report(space_desc, report.to_dict(), {"seed": args.seed}))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_embed(args: argparse.Namespace) -> int:
    space = _load_space(args)
    report = find_embedding(
        space, args.resolution, defect_cap=1.0 - args.tol, pair_budget=args.pair_budget)
    certificates = {"defect_cap": 1.0 - args.tol, "samples": report.samples}
    _emit(args, _json_report(space.to_dict(), report.to_dict(), certificates))
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="latconst",
        description="Certified sphere constants and monotonicity moduli of "
                    "finite-dimensional Banach lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("constants", "all five sphere constants with certificates"),
        ("moduli", "sigma/delta modulus curves over an eps grid"),
        ("verify", "identity and value battery (spec file or builtin suite)"),
        ("embed", "extract a near-isometric 2-D sup-norm copy"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--spec", help="JSON norm spec file {dim, norm}")
        p.add_argument("--h", type=float, default=None, dest="resolution",
                       help="coordinate grid step (default: budget-fitted per dimension)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", default=None, help="write machine output to this file")
        if name == "moduli":
            p.add_argument("--pair-budget", type=int, default=DEFAULT_MODULI_BUDGET,
                           help="max net-pair evaluations per modulus grid point")
            p.add_argument("--format", choices=("json", "csv"), default="json")
        else:
            moduli_note = (f" and min(PAIR_BUDGET, {DEFAULT_MODULI_BUDGET}) per modulus "
                           "grid point") if name == "verify" else ""
            p.add_argument("--pair-budget", type=int, default=DEFAULT_PAIR_BUDGET,
                           help="max net-pair evaluations per constant" + moduli_note)
        if name in ("moduli", "verify"):
            p.add_argument("--eps-grid", type=str, default="0:1:0.05",
                           help="modulus grid as a:b:step")
        if name == "verify":
            p.add_argument("--builtin-suite", action="store_true",
                           help="run the self-contained catalog suite")
        if name == "embed":
            p.add_argument("--tol", type=float, default=5e-3,
                           help="the source pair's defect must stay below 1 - TOL")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {
        "constants": cmd_constants,
        "moduli": cmd_moduli,
        "verify": cmd_verify,
        "embed": cmd_embed,
    }
    try:
        _check_options(args)
        return handlers[args.command](args)
    except (InvalidNormError, DimensionMismatchError, UnsupportedDimensionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_SPEC
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except EmbeddingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_EMBEDDING


if __name__ == "__main__":
    sys.exit(main())
