"""The benchmark's tracer (perfbench/tracing.py) binds latconst functions by
name and raises ``TraceError`` when one is missing, so renaming or deleting a
traced function must fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import latconst
import latconst.constants
import latconst.core
import latconst.moduli

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_binds_every_target_and_restores_them():
    tracing = _load_tracing()
    lambda_plus = latconst.constants.lambda_plus
    norm_values = latconst.core.LatticeSpace.norm_values
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert latconst.constants.lambda_plus is not lambda_plus
    finally:
        tracer.uninstall()
    assert latconst.constants.lambda_plus is lambda_plus
    assert latconst.core.LatticeSpace.norm_values is norm_values


def test_traced_calls_produce_the_benchmark_spans():
    # the spans the workloads require come from these calls, and a scan
    # span's size is read off scan_pairs's positional head (space, xs, ys)
    tracing = _load_tracing()
    space = latconst.lp_space(2, 2)
    tracer = tracing.Tracer()
    try:
        tracer.install()
        lp = latconst.constants.lambda_plus(space, None, 20_000)
        lp_spans = len(tracer.end)
        latconst.constants.james(space, None, 20_000)
        latconst.moduli.delta_m(space, 0.5, None, 20_000)
    finally:
        tracer.uninstall()
    tracer.require(["search.scan", "search.refine", "nets.positive_face_net",
                    "nets.half_sphere_net", "nets.box_grid", "core.norm_values"])
    spans = tracer.arrays()
    scans = spans["name"][:lp_spans] == tracer.names.index("search.scan")
    assert int(spans["size"][:lp_spans][scans].sum()) == lp.info["pairs_scanned"]
