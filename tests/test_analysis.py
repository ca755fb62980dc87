import numpy as np
import pytest

from torusctrl.algebra import SystemMatrices
from torusctrl.analysis import (memory_counterexample_control,
                                counterexample_energy_sums)
from torusctrl.dynamics import FourierState, evolve


# first-order form of d_t f1 = d_x f2, d_t f2 = d_xx f2 + u
MEMORY_SYS = SystemMatrices(1, 1,
                            A=np.array([[0.0, -1.0], [0.0, 0.0]]),
                            D=np.array([[1.0]]),
                            K=np.zeros((2, 2)),
                            M=np.array([[0.0], [1.0]]))


class TestMemoryCounterexample:

    def _random_data(self, rng, Nmax, decay=2.0):
        ns = np.arange(-Nmax, Nmax + 1)
        env = 1.0 / (1.0 + np.abs(ns)) ** decay
        c01 = env * (rng.standard_normal(2 * Nmax + 1)
                     + 1j * rng.standard_normal(2 * Nmax + 1))
        c01[Nmax] = 0.0
        c02 = env * (rng.standard_normal(2 * Nmax + 1)
                     + 1j * rng.standard_normal(2 * Nmax + 1))
        return c01, c02

    def test_moment_residuals_certified(self):
        rng = np.random.default_rng(0)
        c01, c02 = self._random_data(rng, 16)
        u, rep = memory_counterexample_control((c01, c02), 1.0, 16)
        assert rep["max_moment_residual"] < 1e-10

    def test_terminal_state_via_general_solver(self):
        rng = np.random.default_rng(1)
        Nmax = 12
        c01, c02 = self._random_data(rng, Nmax)
        u, rep = memory_counterexample_control((c01, c02), 1.0, Nmax)
        f0 = FourierState(Nmax, np.stack([c01, c02], axis=1))
        fT = evolve(MEMORY_SYS, f0, u, 1.0)
        assert fT.norm() < 1e-10 * f0.norm()

    def test_batched_signal_matches_scalar_and_closed_form(self):
        rng = np.random.default_rng(4)
        Nmax, T = 8, 1.0
        c01, c02 = self._random_data(rng, Nmax)
        u, rep = memory_counterexample_control((c01, c02), T, Nmax)
        ts = np.concatenate((u.time_nodes[::17], [0.3, T - 1e-9, T]))
        got = u.at(ts)
        assert got.shape == (len(ts), 2 * Nmax + 1, 1)
        ns = np.arange(-Nmax, Nmax + 1)
        for t, row in zip(ts, got):
            ref = u.at(t)
            assert ref.shape == (2 * Nmax + 1, 1)
            assert np.max(np.abs(row - ref)) <= 1e-14 * np.max(np.abs(ref))
            closed = [rep["u0"] if n == 0 else rep["alpha"][n + Nmax] * n
                      * np.exp(-float(n) ** 2 * (T - t)) + rep["beta"][n + Nmax]
                      for n in ns]
            assert np.max(np.abs(row[:, 0] - closed)) <= 1e-14 * np.max(
                np.abs(closed))

    def test_energy_dominates_h1_deficit(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            c01, c02 = self._random_data(rng, 10)
            _, rep = memory_counterexample_control((c01, c02), 1.0, 10)
            assert rep["energy"] >= rep["h1_lower_bound"] - 1e-10

    def test_nonzero_mean_rejected(self):
        c01 = np.zeros(9, dtype=complex)
        c01[4] = 1.0  # mean mode
        with pytest.raises(ValueError):
            memory_counterexample_control((c01, np.zeros(9)), 1.0, 4)

    def test_energy_sums_match_modewise_energies(self):
        rng = np.random.default_rng(3)
        Nmax = 16
        ns = np.arange(-Nmax, Nmax + 1)
        a = rng.standard_normal(2 * Nmax + 1) / (1.0 + np.abs(ns))
        b = rng.standard_normal(2 * Nmax + 1) / (1.0 + np.abs(ns))
        c01 = a.astype(complex)
        c01[Nmax] = 0.0
        c02 = b.astype(complex)
        _, rep = memory_counterexample_control((c01, c02), 1.0, Nmax)

        def law01(n):
            n = np.asarray(n)
            idx = (n + Nmax).astype(int)
            return c01[idx]

        def law02(n):
            n = np.asarray(n)
            idx = (n + Nmax).astype(int)
            return c02[idx]

        (total,) = counterexample_energy_sums(law01, law02, 1.0, [Nmax])
        assert total == pytest.approx(np.sum(rep["mode_energies"]),
                                      rel=1e-10)

    def test_divergent_law_doubling_ratios(self):
        def law01(n):
            an = np.abs(n)
            return 1.0 / (an * np.log(an + 1.0))

        def law02(n):
            return np.zeros_like(n)

        Ns = [1 << k for k in (10, 11, 12)]
        sums = counterexample_energy_sums(law01, law02, 1.0, Ns)
        assert sums[0] < sums[1] < sums[2]
        # order of the returned list follows the requested order
        rev = counterexample_energy_sums(law01, law02, 1.0, Ns[::-1])
        assert rev == pytest.approx(sums[::-1])


def _one_shot_energy_sums(f01_coeff, f02_coeff, T, nmax_list):
    """counterexample_energy_sums with each chunk and sign evaluated as one
    array expression: the blocked evaluation's reference."""
    def seg_energy(lo, hi):
        total = 0.0
        chunk = 1 << 20
        for start in range(lo, hi + 1, chunk):
            ns = np.arange(start, min(start + chunk, hi + 1)).astype(float)
            for sgn in (1.0, -1.0):
                n = sgn * ns
                c01 = np.asarray(f01_coeff(n), dtype=complex)
                c02 = np.asarray(f02_coeff(n), dtype=complex)
                exp1 = np.exp(-np.minimum(n ** 2 * T, 700.0))
                g11 = (1.0 - exp1 ** 2) / 2.0
                g12 = (1.0 - exp1) / n
                det = g11 * T - g12 ** 2
                r1 = -n * c02 * exp1
                r2 = 1j * n * c01 - c02
                total += float(np.sum(
                    (T * np.abs(r1) ** 2
                     - 2.0 * g12 * np.real(np.conj(r1) * r2)
                     + g11 * np.abs(r2) ** 2) / det))
        return total

    out = []
    running, prev = 0.0, 0
    for N in sorted(nmax_list):
        running += seg_energy(prev + 1, N)
        prev = N
        out.append(running)
    order = np.argsort(np.argsort(nmax_list))
    return [out[i] for i in order]


def _real_law(n):
    an = np.abs(n)
    return 1.0 / (an * np.log(an + 1.0))


def _complex_law(n):
    return (1.0 + 2.0j) * np.exp(1j * n) / (1.0 + n ** 2) ** 0.75


@pytest.mark.parametrize("laws", [(_real_law, np.zeros_like),
                                  (_complex_law, _real_law),
                                  (np.zeros_like, _complex_law)],
                         ids=["real", "complex", "heat-only"])
@pytest.mark.parametrize("T", [1.0, 0.05])
def test_blocked_energy_sums_are_the_one_shot_sums_bit_for_bit(laws, T):
    """Blocks of ENERGY_BLOCK modes keep every elementwise operation and
    the one np.sum per chunk and sign, so the sums keep their bits; the
    Ns cross block edges from segments that start mid-block."""
    from torusctrl.analysis import ENERGY_BLOCK
    Ns = [1, 7, ENERGY_BLOCK - 1, ENERGY_BLOCK, ENERGY_BLOCK + 1,
          3 * ENERGY_BLOCK + 5, 1 << 13, 40000, 1 << 16]
    assert counterexample_energy_sums(*laws, T, Ns) == \
        _one_shot_energy_sums(*laws, T, Ns)
