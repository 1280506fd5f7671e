"""The stage memo: calls inside one stage scope build each (kind, space,
step) stage once, and the scope can never hand one space's or step's stage
to another call, another thread, or a later scope."""

import gc
import sys
import threading
import weakref

import pytest

import latconst.constants as constants_module
from latconst import (
    BudgetExceededError,
    characteristic,
    constant_battery,
    delta_m,
    james,
    lambda_schaffer,
    lp_space,
    moduli,
    search,
    verify,
)
from latconst.constants import _plus, net_pair_extrema


def _record(est):
    return est.to_dict(), est.info, [w.tobytes() for w in est.witnesses]


@pytest.mark.parametrize("call", [
    lambda s: lambda_schaffer(s, scan=[]),
    lambda s: james(s, scan=[]),
    lambda s: delta_m(s, 0.5, scan=[]),
    lambda s: characteristic(s, "delta", scan=[]),
    lambda s: net_pair_extrema(s, "lambda_plus", _plus(s), [(2.0, True, None)], None, 4000,
                               stage=None),
], ids=["lambda_schaffer", "james", "delta_m", "characteristic", "net_pair_extrema"])
def test_stage_arguments_are_gone(call):
    # stages are shared by scope only; no call takes a precomputed one
    with pytest.raises(TypeError):
        call(lp_space(2, 2))


_CALLS = {
    "delta": lambda space, budget: delta_m(space, 0.5, None, budget),
    "lambda": lambda space, budget: lambda_schaffer(space, None, budget),
    "james": lambda space, budget: james(space, None, budget),
}


def test_one_scope_keeps_spaces_and_steps_apart():
    # the records of independent calls (no scope) against the same calls in
    # one scope: another space, or a budget that fits another step, must
    # build its own stage rather than read the first one's
    l2, l1 = lp_space(2, 2), lp_space(2, 1)
    runs = [(l2, 2_000_000), (l1, 2_000_000), (l2, 20_000), (l2, 2_000_000)]
    want = [{k: _record(fn(s, b)) for k, fn in _CALLS.items()} for s, b in runs]
    assert want[2]["delta"][1]["resolution"] != want[0]["delta"][1]["resolution"]
    assert want[2]["lambda"][1]["resolution"] != want[0]["lambda"][1]["resolution"]
    assert want[1]["james"] != want[0]["james"]
    with search._stage_scope():
        got = [{k: _record(fn(s, b)) for k, fn in _CALLS.items()} for s, b in runs]
        held = len(search._stages.get())
    assert got == want
    assert held == 6  # two kinds at three (space, step)
    assert search._stages.get() is None


def test_failed_battery_leaves_no_stage(monkeypatch):
    nets = []
    build = constants_module.half_sphere_net

    def spy(*args):
        net = build(*args)
        nets.append(weakref.ref(net))
        return net

    monkeypatch.setattr(constants_module, "half_sphere_net", spy)
    real_beta = constants_module.beta
    # lambda builds the half-sphere stage, then beta runs over its budget
    monkeypatch.setattr(constants_module, "beta", lambda space, *args: real_beta(space, None, 10))
    with pytest.raises(BudgetExceededError):
        constant_battery(lp_space(3, 2), pair_budget=200_000)
    gc.collect()
    assert len(nets) == 1 and nets[0]() is None
    assert search._stages.get() is None


def test_failed_identity_battery_leaves_no_stage(monkeypatch):
    alive = []
    real_scan = moduli._delta_scan

    def spy(*args):
        scan = real_scan(*args)
        alive.append(weakref.ref(scan[2]))  # the ||t*x|| array
        return scan

    monkeypatch.setattr(moduli, "_delta_scan", spy)
    real_lambda_plus = moduli.lambda_plus
    # the deltas build their net stage, then lambda_plus runs over its budget
    monkeypatch.setattr(moduli, "lambda_plus",
                        lambda space, *args: real_lambda_plus(space, None, 10))
    with pytest.raises(BudgetExceededError):
        moduli.identity_battery(lp_space(3, 2), [0.0, 0.5, 1.0], None, 200_000)
    gc.collect()
    assert len(alive) == 1 and alive[0]() is None
    assert search._stages.get() is None


def test_battery_threads_keep_their_own_stages():
    # two threads hold one scope each; a shared memo would give one of them
    # the other space's scan
    spaces = [lp_space(2, 2), lp_space(2, 1)]
    serial = [constant_battery(s, pair_budget=200_000) for s in spaces]
    want = [{k: _record(v) for k, v in b.constants.items()} for b in serial]
    results = [[] for _ in spaces]

    def run(k):
        for _ in range(3):
            b = constant_battery(spaces[k], pair_budget=200_000)
            results[k].append({kind: _record(v) for kind, v in b.constants.items()})

    threads = [threading.Thread(target=run, args=(k,)) for k in range(len(spaces))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [[w] * 3 for w in want]


def test_suite_l1_section_criteria_build_one_delta_stage(monkeypatch):
    # l1_section_discrepancy reads delta at its three eps in one grouped
    # call, which builds one net stage, and check_ratio_formula_falsified
    # reads delta(0.5) from the suite's memo
    calls = []
    real = moduli.box_grid
    monkeypatch.setattr(moduli, "box_grid", lambda *args: calls.append(args) or real(*args))
    ctx = verify.SuiteContext()
    section = verify.l1_section_discrepancy(ctx)
    falsified = verify.check_ratio_formula_falsified(ctx)
    assert len(calls) == 1
    space = ctx.space("l1_2")
    for e, sample in section.details["samples"].items():
        assert sample["delta"] == delta_m(space, e, pair_budget=ctx.moduli_budget).estimate
    assert falsified.passed and falsified.details["delta_half"] == section.details["samples"][0.5]["delta"]
