"""The benchmark's tracer (perfbench/tracing.py) binds latconst functions by
name and raises ``TraceError`` when one is missing, so renaming or deleting a
traced function must fail here rather than in a traced benchmark run."""

import contextlib
import importlib.util
import sys
from pathlib import Path

import latconst
import latconst.constants
import latconst.core
import latconst.moduli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@contextlib.contextmanager
def _workloads():
    """perfbench/workloads.py, loaded read-only as tests/test_workloads.py
    loads it: it imports its sibling by the name "reference", and its
    dataclasses look their module up in sys.modules while it executes."""
    names = {"reference": "reference", "workloads": "perfbench_workloads"}
    saved = {key: sys.modules.get(key) for key in names.values()}
    try:
        for name, key in names.items():
            spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
            sys.modules[key] = module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        yield module
    finally:
        for key, module in saved.items():
            if module is None:
                sys.modules.pop(key, None)
            else:
                sys.modules[key] = module


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


def test_traced_moduli_calls_produce_the_moduli_workload_spans():
    # the curves and the battery refine whole eps lists; the per-eps spans
    # moduli.sigma and moduli.delta must still come from their calls
    # (characteristic's bisection), or a traced moduli run fails
    tracing = _load_tracing()
    space = latconst.lp_space(3, 2)
    grid = [0.0, 0.5, 1.0]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        latconst.moduli.sigma_curve(space, grid, None, 20_000)
        latconst.moduli.delta_curve(space, grid, None, 20_000)
        latconst.moduli.identity_battery(space, grid, None, 20_000)
    finally:
        tracer.uninstall()
    with _workloads() as workloads:
        tracer.require(workloads.Moduli.expected_spans)
