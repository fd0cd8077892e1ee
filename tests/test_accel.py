"""Array kernels: agreement with the scalar reference."""

import math

import numpy as np
import pytest

from parityshift import accel
from parityshift.kernels import KernelParams, eval_gamma, eval_phi

A_VALUES = [0.3, 0.494, 0.7, 1.0, math.sqrt(math.pi), 2.0, 3.0, 8.0, 30.0]


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


def _phi_gamma_boolean_mask(x, plan):
    # the boolean-mask gather and scatter that phi_gamma's flat indices replace
    x = np.ascontiguousarray(x, dtype=np.float64)
    a = plan.a
    forward = accel._alt_horner_inplace(np.exp(-a * np.abs(x)), plan.phi_coef)
    gamma_raw = np.zeros_like(x)
    central = np.abs(x) < 0.5 * a
    if central.any():
        xc = x[central]
        if plan.use_dual:
            s = np.zeros_like(xc)
            for m in range(plan.dual_coef.size):
                s += plan.dual_coef[m] * np.cos(plan.dual_freq[m] * xc)
            s *= accel.SQRT_TWO_PI * np.exp(0.5 * xc * xc)
            gamma_raw[central] = s
        else:
            t = np.exp(a * np.abs(xc) - 0.5 * a * a)
            gamma_raw[central] = (
                1.0 - forward[central] - accel._alt_horner_inplace(t, plan.gamma_coef)
            )
    phi_raw = np.where(x >= 0.0, forward, 1.0 - gamma_raw - forward)
    return np.clip(phi_raw, 0.0, 1.0), np.clip(gamma_raw, 0.0, 1.0)


# the dual cosine route, and the primal route at a preset's width and a wide one
ROUTES = [(0.494, True), (2.0, False), (30.0, False)]


@pytest.mark.parametrize("a, use_dual", ROUTES, ids=["dual", "primal", "primal-wide"])
def test_phi_gamma_bits_match_boolean_mask(a, use_dual):
    plan = accel.plan_for(a)
    assert plan.use_dual == use_dual
    half = a / 2
    edges = np.array(
        [0.0, -0.0, half, -half, np.nextafter(half, 0.0), np.nextafter(-half, 0.0)]
    )
    rng = np.random.default_rng(2024)
    inside = rng.uniform(-half, half, (3, 40))
    outside = np.copysign(rng.uniform(half, half + 4.0, (3, 40)), rng.standard_normal((3, 40)))
    block = rng.standard_normal((4, 300)) * max(1.0, a / 4)
    block[1, : edges.size] = edges
    cases = {
        "1-d": np.concatenate([block[0], edges]),
        "block": block,
        "no central": outside,
        "all central": inside,
    }
    for name, x in cases.items():
        got = accel.phi_gamma(x, plan)
        expected = _phi_gamma_boolean_mask(x, plan)
        for g, e in zip(got, expected):
            assert g.shape == x.shape, name
            assert g.tobytes() == e.tobytes(), name
    # the block cases reach the routes they name
    assert not (np.abs(cases["no central"]) < half).any()
    assert (np.abs(cases["all central"]) < half).all()


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


def test_die_outcomes_match_nested_where_on_blocks():
    # any inputs, including a negative gamma and NaN: up wins, then stay
    rng = np.random.default_rng(17)
    phi, gamma, u = rng.random((3, 4, 500))
    gamma -= 0.2
    phi[0, :5] = np.nan
    gamma[1, :5] = np.nan
    expected = np.where(u < phi, 1, np.where(u < phi + gamma, 0, -1))
    signs = accel.die_outcomes(phi, gamma, u)
    assert signs.dtype == np.int8 and (signs == expected).all()


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
    # far outside the experiment range on both ends: no term overflows,
    # and no infinity or NaN is formed on the way (underflow to 0 is exact enough)
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        for a in (0.05, 30.0, 100.0):
            plan = accel.plan_for(a)
            x = np.linspace(-a / 2 * 0.99, a / 2 * 0.99, 33)
            phi, gamma = accel.phi_gamma(x, plan)
            assert np.isfinite(phi).all() and np.isfinite(gamma).all()

