"""Fourier synthesis on arbitrary points, in dense numpy.

Synthesis on the uniform grid 2 pi j / ngrid is an inverse FFT in
dynamics (synth_grid, windowed_l2_norm) and does not come here.  The
one caller left in the package is the spatial evaluator of the controls
that control._emit_block builds, which samples at whatever points its
caller asks for.  The benchmark's tracer wraps synthesize by this module
path and its run provenance reads USING_NUMBA, so both stay here.
"""

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
