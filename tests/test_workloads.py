"""One pass of each benchmark workload (perfbench/workloads.py, seed 7)
through its correctness gate: every enclosure holds its exact reference
value, so a change that breaks a benchmarked result fails here rather than
in a benchmark run.  The files are loaded read-only, as the benchmark runs
them from its own directory."""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    # workloads.py imports its sibling by the name "reference", and its
    # dataclasses look their module up in sys.modules while it executes
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


@pytest.mark.parametrize("name", ["chain", "moduli", "planar"])
def test_one_seeded_pass_passes_the_gate(workloads, name, tmp_path):
    workload = workloads.WORKLOADS[name]
    jobs = workload.run_pass(workload.setup(7, tmp_path))
    assert jobs
    assert [(job.label, job.problem) for job in jobs if not job.ok] == []
