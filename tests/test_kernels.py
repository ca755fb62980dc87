import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from torusctrl import kernels


@given(st.integers(1, 20), st.integers(1, 3), st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_synthesize_matches_direct_sum(nmax, d, seed):
    rng = np.random.default_rng(seed)
    coeffs = (rng.standard_normal((2 * nmax + 1, d))
              + 1j * rng.standard_normal((2 * nmax + 1, d)))
    ns = np.arange(-nmax, nmax + 1).astype(float)
    xs = rng.uniform(0, 2 * np.pi, 17)
    got = kernels.synthesize(coeffs, ns, xs)
    direct = np.array([[np.sum(coeffs[:, c] * np.exp(1j * ns * x))
                        for c in range(d)] for x in xs])
    assert got == pytest.approx(direct, abs=1e-10)
