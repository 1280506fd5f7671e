"""Golden enclosures: every user of the certified-extremum engine must keep
returning exactly these numbers (recorded before the engine was unified).

A change to a slack, a seed count, a refinement step or a resolution fit
shows up here as a changed endpoint; a deliberate change of the numbers
must re-record them and say why.
"""

import numpy as np
import pytest

import latconst as lc

BUDGET = 4000

SPACES = {
    "l15_2": lambda: lc.lp_space(2, 1.5),
    "mix": lambda: lc.max_l2_linf_space(1.2),
    "poly": lambda: lc.random_polyhedral2_space(np.random.default_rng(7)),
}

# (lower, upper, estimate) per constant; scalars for the alpha cross-check
# estimate and the diagonal_isomorphism distortion with d = (1, 2)
GOLDEN = {
    "l15_2": {
        "lambda_plus": (1.4583687939036833, 1.5874010519681994, 1.5874010519681994),
        "beta": (1.5874010519681994, 1.5874010519681994, 1.5874010519681994),
        "alpha": (1.5874010519681994, 1.5874010519681994, 1.5874010519681994),
        "alpha_cross": 1.5874010519681994,
        "lambda_schaffer": (1.0, 1.2599210498948732, 1.2599210498948732),
        "james": (1.5874010519681994, 2.0, 1.5874010519681994),
        "sigma": (0.1268562138373507, 0.2236304073857378, 0.2236304073857378),
        "delta_m": (0.0, 0.25236703666237337, 0.25236703666237337),
        "diagonal_isomorphism": 2.0000000000000004,
    },
    "mix": {
        "lambda_plus": (1.0494790439130632, 1.1785113019775793, 1.1785113019775793),
        "beta": (1.1785113019775793, 1.1785113019775793, 1.1785113019775793),
        "alpha": (1.1785113019775793, 1.1785113019775793, 1.1785113019775793),
        "alpha_cross": 1.1785113019775793,
        "lambda_schaffer": (1.0, 1.1785113019775793, 1.1785113019775793),
        "james": (1.697056274847714, 2.0, 1.697056274847714),
        "sigma": (0.0, 0.0, 0.0),
        "delta_m": (0.0, 0.0, 0.0),
        "diagonal_isomorphism": 2.0,
    },
    "poly": {
        "lambda_plus": (1.6891651534329877, 1.8181974114975037, 1.8181974114975037),
        "beta": (1.818197411497504, 1.818197411497504, 1.818197411497504),
        "alpha": (1.818197411497504, 1.818197411497504, 1.818197411497504),
        "alpha_cross": 1.818197411497504,
        "lambda_schaffer": (1.0, 1.099990566124918, 1.099990566124918),
        "james": (1.818197411497504, 2.0, 1.818197411497504),
        "sigma": (0.2214232179491166, 0.3181974114975037, 0.3181974114975037),
        "delta_m": (0.0, 0.38890053552616943, 0.38890053552616943),
        "diagonal_isomorphism": 2.0,
    },
}


def _triple(est):
    return (est.lower, est.upper, est.estimate)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_golden_enclosures_2d(name):
    space = SPACES[name]()
    want = GOLDEN[name]
    got = {fn: _triple(getattr(lc, fn)(space, None, BUDGET))
           for fn in ("lambda_plus", "beta", "lambda_schaffer", "james")}
    est = lc.alpha(space, None, BUDGET)
    got["alpha"] = _triple(est)
    got["alpha_cross"] = est.info["cross_check_estimate"]
    got["sigma"] = _triple(lc.sigma(space, 0.5, None, BUDGET))
    got["delta_m"] = _triple(lc.delta_m(space, 0.5, None, BUDGET))
    got["diagonal_isomorphism"] = lc.diagonal_isomorphism(space, [1.0, 2.0], BUDGET)[1]
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, abs=1e-12), key


def test_golden_disjoint_support_3d():
    # multi-point sub-nets: one engine block per support pair
    space = lc.beta_gap_space()
    est = lc.beta(space, None, 200000)
    assert _triple(est) == pytest.approx(
        (1.3047342995169082, 1.36363636363638, 1.36363636363638), abs=1e-12)
    assert est.info["pairs_scanned"] == 612
    est = lc.alpha(space, None, 200000)
    assert _triple(est) == pytest.approx((2.0, 2.0, 2.0), abs=1e-12)
    assert est.info["pairs_scanned"] == 552
