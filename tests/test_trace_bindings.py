"""The benchmark's tracer (perfbench/tracing.py) binds latconst functions by
name and raises ``TraceError`` when one is missing, so renaming or deleting a
traced function must fail here rather than in a traced benchmark run."""

import importlib.util
from pathlib import Path

import latconst.constants
import latconst.core

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
