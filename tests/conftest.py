import numpy as np
import pytest

from torusctrl.algebra import SystemMatrices, TorusSubset
from torusctrl import spectral
# the random-data law of the CLI experiments
from torusctrl.harness import _random_state as random_state  # noqa: F401


def state_stack(states):
    """Q states as windowed_l2_norm reads them: their (2 nmax + 1, Q, d)
    coefficient stack, its modes and nmax."""
    return (np.stack([s.coeffs for s in states], axis=1), states[0].modes,
            states[0].nmax)


def nscl_system(vbar=1.0, rhobar=1.0, a=1.0, gamma=2.0, mu=1.0):
    return SystemMatrices(
        1, 1,
        A=np.array([[vbar, rhobar], [a * rhobar ** (gamma - 2.0), vbar]]),
        D=np.array([[mu / rhobar]]),
        K=np.zeros((2, 2)),
        M=np.eye(2))


def damped_wave_system(b=0.5):
    return SystemMatrices(
        1, 1,
        A=np.zeros((2, 2)),
        D=np.array([[1.0]]),
        K=np.array([[1.0, 1.0 - b], [-1.0, b - 1.0]]),
        M=np.array([[1.0], [0.0]]))


def moving_wave_system(c=1.0, b=1.0):
    return SystemMatrices(
        1, 1,
        A=np.array([[-c, 0.0], [0.0, -c]]),
        D=np.array([[1.0]]),
        K=np.array([[1.0, 1.0 - b], [-1.0, b - 1.0]]),
        M=np.array([[1.0], [0.0]]))


def decoupled_heat_system():
    # transport and heat components with no coupling at all
    return SystemMatrices(
        1, 1,
        A=np.zeros((2, 2)),
        D=np.array([[1.0]]),
        K=np.zeros((2, 2)),
        M=np.eye(2))


def two_speed_system(speeds=(1.0, -2.0)):
    # d1 = 2 transport components with two distinct speeds (a non-normal
    # Aprime), coupled to one heat component
    A = np.array([[speeds[0], 0.3, 0.5],
                  [0.0, speeds[1], 0.2],
                  [0.4, -0.3, 0.7]])
    K = np.array([[0.0, 0.0, -0.2],
                  [0.0, 0.1, 0.0],
                  [0.3, 0.0, 0.0]])
    return SystemMatrices(2, 1, A=A, D=np.array([[1.5]]), K=K, M=np.eye(3))


HALF_TORUS = TorusSubset(((0.0, np.pi),))


@pytest.fixture(scope="session")
def nscl_branches24():
    sys = nscl_system()
    consts = spectral.separation_radius(sys)
    return sys, consts, spectral.build_branch_table(sys, consts, 24)


@pytest.fixture(scope="session")
def moving_wave_branches16():
    sys = moving_wave_system()
    consts = spectral.separation_radius(sys)
    return sys, consts, spectral.build_branch_table(sys, consts, 16)
