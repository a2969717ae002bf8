"""The one rule of exactness on every solver's answer: at each level of every
registry scheme and of the inline golden descriptors, on a random element and
on a member, `best_approx` brackets E(x, A_n) as lower <= value with
tol = LP_TOL relative to the element, and reads "exact" exactly when
value - lower <= tol.  On the small sup column sets the lower bound lies
below the HiGHS oracle's value."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from by_path import load_by_path
from lethargy.scheme import build_scheme, list_schemes, sample_element
from lethargy.solve import LP_TOL, best_approx
from lethargy.space import _unit_scaled
from lp_oracle import sup_fit_lp

DESCRIPTORS = [*list_schemes(), *load_by_path("scripts/golden_reports.py").INLINE]
SCHEMES = [build_scheme(desc) for desc in DESCRIPTORS]
ORACLE_ROWS = 64  # sup column sets on at most this many rows are checked against HiGHS


def oracle_value(s, x, n) -> float:
    """The least HiGHS value over the column sets of level n: the basis
    columns of a chain, or every n-subset of an n-term dictionary."""
    if s.kind == "chain":
        column_sets = [s.basis[:, :s.chain_dim(n)]]
    else:
        atoms = s.dictionary.atoms
        column_sets = [atoms[:, list(subset)]
                       for subset in combinations(range(atoms.shape[1]), min(n, atoms.shape[1]))]
    return min(sup_fit_lp(cols, x)[0] for cols in column_sets)


@pytest.mark.parametrize("s", SCHEMES, ids=[s.label for s in SCHEMES])
@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), member=st.booleans())
def test_every_answer_follows_the_one_rule(s, seed, member):
    rng = np.random.default_rng(seed)
    if member:
        x = sample_element(s, int(rng.integers(0, s.n_max + 1)), rng)
    else:
        x = rng.standard_normal(s.space.shape)
    tol = math.ldexp(LP_TOL, _unit_scaled(x)[1])  # LP_TOL on the unit-scaled element
    oracle = (s.space.norm_kind == "sup" and s.kind in ("chain", "nterm")
              and s.space.shape[0] <= ORACLE_ROWS)
    for n in range(s.n_max + 1):
        res = best_approx(s.space, x, s, n, seed=seed % 1000)
        assert 0.0 <= res.lower <= res.value, (n, res.lower, res.value)
        assert res.tol == tol
        assert (res.status == "exact") == (res.value - res.lower <= res.tol)
        if oracle:
            assert res.lower <= oracle_value(s, x, n) + 1e-12, n
