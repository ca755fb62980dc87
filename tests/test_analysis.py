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
