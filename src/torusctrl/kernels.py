"""Fourier synthesis on arbitrary points, in dense numpy."""

import numpy as np

# no jitted path exists; the flag stays because run provenance records
# which kernel path ran
USING_NUMBA = False


def synthesize(coeffs, ns, xs):
    """Evaluate sum_a coeffs[a] * exp(i*ns[a]*x) on the grid xs.

    coeffs is (nmodes, d) complex, returns (ngrid, d) complex.
    """
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    phases = np.exp(1j * np.outer(np.asarray(xs, dtype=np.float64),
                                  np.asarray(ns, dtype=np.float64)))
    return phases @ coeffs
