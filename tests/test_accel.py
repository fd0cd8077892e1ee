"""Array kernels: agreement with the scalar reference."""

import math

import numpy as np
import pytest

from parityshift import accel
from parityshift.kernels import KernelParams, eval_gamma, eval_phi

A_VALUES = [0.3, 0.494, 0.7, 1.0, math.sqrt(math.pi), 2.0, 3.0, 8.0]


def grid_for(a: float, rng: np.random.Generator) -> np.ndarray:
    return np.concatenate(
        [
            rng.standard_normal(2000),
            np.linspace(-a / 2 + 1e-12, a / 2 - 1e-12, 101),
            np.array([0.0, a / 2, -a / 2, a, -a, 2.5 * a, -6.0, 6.0]),
        ]
    )


# ids name the numpy array path checked against the scalar reference
@pytest.mark.parametrize("a", A_VALUES, ids=lambda a: f"{a}-numpy")
def test_phi_gamma_matches_scalar(a):
    rng = np.random.default_rng(101)
    x = grid_for(a, rng)
    params = KernelParams(a)
    plan = accel.plan_for(a, 1e-12)
    phi, gamma = accel.phi_gamma(x, plan)
    idx = rng.choice(x.size, 250, replace=False)
    # each route certifies 1e-12 relative truncation, so 2e-12 between them
    for i in idx:
        assert abs(phi[i] - eval_phi(float(x[i]), params)) <= 2e-12
        assert abs(gamma[i] - eval_gamma(float(x[i]), params)) <= 2e-12


def test_outputs_clamped(a=1.0):
    x = grid_for(a, np.random.default_rng(17))
    phi, gamma = accel.phi_gamma(x, plan := accel.plan_for(a))
    for arr in (phi, gamma):
        assert arr.min() >= 0.0 and arr.max() <= 1.0
    assert np.all(phi + gamma <= 1.0 + plan.band)


def test_parity_labels():
    x = np.array([0.3, 0.6, -1.2, -0.5, 0.5, 1.49, 1.5])
    z, s = accel.parity_labels_and_sum(x, 1.0)
    # bins 0, 1, -1, 0, 1, 1, 2
    assert z.tolist() == [1, -1, -1, 1, -1, -1, 1]
    assert s == -1


def test_die_outcomes_intervals():
    phi = np.array([0.2, 0.2, 0.2, 0.0, 1.0])
    gamma = np.array([0.5, 0.5, 0.5, 0.0, 0.0])
    u = np.array([0.1999, 0.2, 0.6999, 0.5, 0.3])
    signs = accel.die_outcomes(phi, gamma, u)
    assert signs.tolist() == [1, 0, 0, -1, 1]
    assert signs.dtype == np.int8


def test_zero_signed_sum():
    z = np.array([1, -1, 1, 1, -1], dtype=np.int8)
    signs = np.array([0, 0, 1, 0, -1], dtype=np.int8)
    assert accel.zero_signed_sum(z, signs) == 1


def test_plan_validation():
    with pytest.raises(ValueError):
        accel.plan_for(-1.0)
    with pytest.raises(ValueError):
        accel.plan_for(1.0, rel_tol=1e-3)


def test_plan_extreme_widths():
    # far outside the experiment range on both ends: no overflow traps
    for a in (0.05, 30.0):
        plan = accel.plan_for(a)
        x = np.linspace(-a / 2 * 0.99, a / 2 * 0.99, 33)
        phi, gamma = accel.phi_gamma(x, plan)
        assert np.isfinite(phi).all() and np.isfinite(gamma).all()

