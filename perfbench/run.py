"""Benchmark of latconst: time to certificate and certified width.

    python3 perfbench/run.py --workload chain|moduli|planar --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; latconst is imported from ./src.
One workload runs in this process as a closed loop with a single client:
its jobs run one at a time, in passes of a fixed job count.  Passes repeat
until another would overrun ``--seconds``; the first pass fixes the CLI
documents that later passes must match byte for byte.  latconst keeps no
caches between calls, so there is nothing to warm up.  Every enclosure of
every pass is checked against an exact reference (``reference.py``).

With ``--trace 0`` the end-to-end metrics are reported: medians over the
timed passes, and ``setup_s`` as the median over set-up processes started
before the first pass and after every pass.
With ``--trace 1`` the first half of the time runs untraced passes and the
second half traced ones, and the per-layer metrics come from the traced
spans (``tracing.py``).  A table goes to stdout, then one JSON line with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full report,
and the spans of a traced run, go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES_FIRST = 3
TIGHT_WIDTH = 1e-3
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "width_mean": "1",
    "width_max": "1",
    "tight_frac": "frac",
}


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _import_latconst() -> None:
    """Cap BLAS threads at nproc, then import latconst from this checkout's
    source tree and nowhere else."""
    if not (SRC / "latconst" / "__init__.py").is_file():
        raise SystemExit(f"error: no latconst source tree at {SRC}; run from a checkout root")
    for var in BLAS_ENV:
        os.environ[var] = str(_nproc())
    sys.path.insert(0, str(SRC))
    import latconst

    if Path(latconst.__file__).resolve().parent != SRC / "latconst":
        raise SystemExit(f"error: latconst was imported from {latconst.__file__}, not {SRC}")


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in paths:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes
# ---------------------------------------------------------------------------


def _setup_probe(workload: str, seed: int) -> None:
    """Child side: import, build the inputs, say so, clean up."""
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        workloads.WORKLOADS[workload].setup(seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir)


def _setup_time(workload: str, seed: int) -> float:
    """Time from spawning a fresh interpreter until the workload's inputs
    exist: interpreter start, importing latconst, building the seeded spaces
    and writing the spec files."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        raise SystemExit(f"error: set-up probe failed (exit code {code})")
    return elapsed


# ---------------------------------------------------------------------------
# passes
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    wall: float
    cpu: float
    jobs: list


def _one_pass(wl, inputs, tracer=None) -> Pass:
    c0 = time.process_time()
    t0 = time.perf_counter()
    span = tracer.begin_pass() if tracer else None
    jobs = wl.run_pass(inputs)
    if tracer:
        tracer.end_pass(span)
    wall = time.perf_counter() - t0
    return Pass(wall, time.process_time() - c0, jobs)


def _timed_passes(wl, inputs, seconds: float, tracer=None, between=None) -> list[Pass]:
    """At least one pass; stop before a further pass would overrun ``seconds``.
    ``between``, if given, runs after every pass, inside the time limit."""
    passes: list[Pass] = []
    start = time.perf_counter()
    while True:
        passes.append(_one_pass(wl, inputs, tracer))
        if between:
            between()
        spent = time.perf_counter() - start
        if spent + statistics.median(p.wall for p in passes) > seconds:
            return passes


def _width_stats(p: Pass) -> tuple[float, float, float]:
    widths = [w for job in p.jobs for w in job.widths]
    if not widths:
        return 0.0, 0.0, 0.0
    tight = sum(w <= TIGHT_WIDTH for w in widths) / len(widths)
    return statistics.fmean(widths), max(widths), tight


def _end_to_end(timed: list[Pass], setup_times: list[float]) -> dict[str, float]:
    stats = [_width_stats(p) for p in timed]
    return {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(p.wall for p in timed),
        "cpu_s": statistics.median(p.cpu for p in timed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "width_mean": statistics.median(s[0] for s in stats),
        "width_max": statistics.median(s[1] for s in stats),
        "tight_frac": statistics.median(s[2] for s in stats),
    }


def run(args) -> int:
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    env = _environment()
    setup_times: list[float] = []

    def probe() -> None:
        setup_times.append(_setup_time(args.workload, args.seed))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        inputs = wl.setup(args.seed, workdir)
        if not args.trace:
            # set-up probes run before the passes and after each one, so
            # their median samples the host over the whole run
            for _ in range(SETUP_PROBES_FIRST):
                probe()
            passes = _timed_passes(wl, inputs, args.seconds, between=probe)
            metrics = _end_to_end(passes, setup_times)
            units = END_TO_END
            walls = {"timed": [p.wall for p in passes]}
        else:
            import tracing

            untraced = _timed_passes(wl, inputs, args.seconds / 2)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = _timed_passes(wl, inputs, args.seconds / 2, tracer)
            finally:
                tracer.uninstall()
            tracer.require(wl.expected_spans)
            tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
            metrics = tracing.layer_metrics(
                tracer, [p.wall for p in traced], [p.wall for p in untraced])
            units = {name: tracing.unit_of(name) for name in metrics}
            passes = untraced + traced
            walls = {"untraced": [p.wall for p in untraced],
                     "traced": [p.wall for p in traced]}
    finally:
        shutil.rmtree(workdir)

    jobs = [job for p in passes for job in p.jobs]
    failed = [job for job in jobs if not job.ok]
    problems = {job.label: job.problem for job in failed}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "jobs_per_pass": len(passes[0].jobs),
        "pass_walls": walls,
        "setup_probes": setup_times,
        "attempted": len(jobs),
        "failed": len(failed),
        "failures": problems,
        "metrics": metrics,
    }
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")

    for label, problem in sorted(problems.items()):
        print(f"FAILED {label}: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)}  jobs/pass {len(passes[0].jobs)}")
    print("environment " + "  ".join(f"{k}={v}" for k, v in env.items()))
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    print(f"  {'failed_frac':42s} {len(failed) / len(jobs):14.6g} frac"
          f"  ({len(failed)}/{len(jobs)} jobs)")
    result = {
        "correct": not failed,
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("chain", "moduli", "planar"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_latconst()
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
