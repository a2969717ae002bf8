import numpy as np
import pytest

from lethargy import scheme
from lethargy.scheme import build_scheme


@pytest.fixture(autouse=True)
def fresh_schemes():
    """`build_scheme` keeps the last scheme it built; each test starts
    without it, so that no test gets a scheme an earlier one built."""
    scheme._build_scheme.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session")
def small_monomial_chain():
    return build_scheme({
        "kind": "chain", "family": "monomial", "n_max": 8,
        "space": {"carrier": "grid", "domain": "interval", "a": 0.0, "b": 1.0,
                  "nodes": 513, "norm": "sup"},
        "label": "monomial-small",
    })


@pytest.fixture(scope="session")
def small_interleaved():
    return build_scheme({"kind": "interleaved-c0", "cap": 12, "label": "interleaved-small"})


def random_nonincreasing(rng, n, scale=1.0):
    """Non-negative, non-increasing window hitting small values at the end."""
    decrements = rng.exponential(1.0, size=n)
    vals = np.cumsum(decrements[::-1])[::-1]
    vals = vals / vals[0] * scale
    return vals
