"""Hypothesis strategies shared by the property tests: random lattice norm trees."""

import itertools
import math

from hypothesis import strategies as st

import latconst as lc
from latconst import BlockSum, FormMax, MaxOf, Scale, WeightedP

# weights and rows from small sets, so that equal weights and permuted rows,
# and with them symmetries, are common
_P = st.sampled_from([1.0, 1.5, 2.0, 3.0, math.inf])


def _leaves(dim):
    weighted = st.builds(WeightedP, _P, st.lists(st.sampled_from([1.0, 2.0]),
                                                 min_size=dim, max_size=dim))
    row = st.lists(st.sampled_from([0.25, 0.5, 1.0]), min_size=dim, max_size=dim)
    swap = st.sampled_from(list(itertools.combinations(range(dim), 2)))

    def closed(rows, ij):
        i, j = ij
        return FormMax(rows + [r[:i] + [r[j]] + r[i + 1 : j] + [r[i]] + r[j + 1 :]
                               for r in rows])

    forms = st.one_of(st.builds(FormMax, st.lists(row, min_size=1, max_size=3)),
                      st.builds(closed, st.lists(row, min_size=1, max_size=2), swap))
    leaves = [weighted, forms]
    if dim >= 2:
        leaves.append(st.builds(lambda p, k: BlockSum(p, [lc.lp(k, 2), lc.lp(dim - k, 2)]),
                                _P, st.integers(1, dim - 1)))
    return st.one_of(leaves)


def norm_trees(dim):
    """Random norm trees of dimension ``dim``: weighted p-norms, FormMax rows
    (some closed under a transposition) and two-block sums, under Scale and
    MaxOf, with at most four leaves."""
    return st.recursive(
        _leaves(dim),
        lambda kids: st.one_of(st.builds(Scale, st.sampled_from([0.5, 1.5]), kids),
                               st.builds(MaxOf, st.lists(kids, min_size=1, max_size=3))),
        max_leaves=4)
