"""Array kernels: agreement with the scalar reference."""

import dataclasses
import math

import numpy as np
import pytest

from parityshift import accel
from parityshift.kernels import KernelParams, KernelRangeError, eval_gamma, eval_phi

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


def test_outputs_clamped():
    # both routes; the clip runs only when a bound is crossed
    for a in A_VALUES:
        x = grid_for(a, np.random.default_rng(17))
        phi, gamma = accel.phi_gamma(x, plan := accel.plan_for(a))
        for arr in (phi, gamma):
            assert arr.min() >= 0.0 and arr.max() <= 1.0, a
        assert np.all(phi + gamma <= 1.0 + plan.band), a


# the sweep-c widths c / sqrt(ln 2000), c = 1, 1.25, ..., 4, then wider dual widths
DUAL_WIDTHS = [(1.0 + 0.25 * j) / math.sqrt(math.log(2000)) for j in range(13)] + [
    1.6,
    1.7,
    float(np.nextafter(math.sqrt(math.pi), 0.0)),
]
# largest gap to the per-term cosine sum, in ulps of the largest gamma in
# the bin, by dual term count.  Two terms match bit for bit.  A third moves
# about 1 in 1e7 sums at c = 4, a fourth a few in 1e5 below sqrt(pi).  Near
# the bin edges gamma falls to 0 while each per-term cosine keeps the
# rounding of its own argument m pi x / a, so the gap is not counted in
# ulps of gamma itself there.
DUAL_ULPS = {2: 0, 3: 1, 4: 8}


@pytest.mark.parametrize("a", DUAL_WIDTHS, ids=lambda a: f"{a:.6f}")
def test_dual_recurrence_matches_per_term_cosines(a):
    plan = accel.plan_for(a)
    assert plan.use_dual
    x = np.random.default_rng(303).uniform(-a / 2, a / 2, 100_000)
    gamma = accel.phi_gamma(x, plan)[1]
    expected = _phi_gamma_boolean_mask(x, plan)[1]
    gap = np.abs(gamma - expected).max()
    assert gap <= DUAL_ULPS[plan.dual_coef.size] * np.spacing(expected.max())


def test_dual_widths_reach_every_term_count():
    assert {accel.plan_for(a).dual_coef.size for a in DUAL_WIDTHS} == set(DUAL_ULPS)


@pytest.mark.parametrize(
    "a, field, corrupt, x, bad",
    [
        # primal route outside the central bin: phi = 10 e^{-2|x|} for x >= 0
        # and 1 - 10 e^{-2|x|} below, out of range for |x| < ln(10) / 2
        (2.0, "phi_coef", lambda coef: np.array([10.0]),
         [-3.0, -1.2, -1.1, -1.0, 1.0, 1.05, 1.2, 3.0], 4),
        # dual route, every coordinate central: gamma 1000 times too large
        # everywhere, and phi = 1 - gamma - forward below zero for x < 0
        (1.0, "dual_coef", lambda coef: 1000.0 * coef, [-0.3, -0.1, 0.0, 0.2, 0.4], 7),
        # the same at x >= 0, where phi is forward and stays in range
        (1.0, "dual_coef", lambda coef: 1000.0 * coef, [0.0, 0.2, 0.4], 3),
    ],
    ids=["phi", "phi-and-gamma", "gamma"],
)
def test_range_check_counts_bad_coordinates(a, field, corrupt, x, bad):
    plan = accel.plan_for(a)
    corrupted = dataclasses.replace(plan, **{field: corrupt(getattr(plan, field))})
    with pytest.raises(KernelRangeError, match=rf"^{bad} coordinate\(s\) outside"):
        accel.phi_gamma(np.array(x), corrupted)


def test_in_band_excursions_are_clipped():
    plan = accel.plan_for(2.0)
    # phi's forward series is 1 + 5e-12 at |x| = 1.5, so phi is
    # 1 + 5e-12 there and 1 - (1 + 5e-12) at x = -1.5; both within the band
    phi_only = dataclasses.replace(plan, phi_coef=np.array([(1.0 + 5e-12) * math.exp(3.0)]))
    for x, expected in ((-1.5, 0.0), (1.5, 1.0)):
        phi, gamma = accel.phi_gamma(np.array([x]), phi_only)
        assert phi.tolist() == [expected] and gamma.tolist() == [0.0]
    # one dual term makes gamma(0) = sqrt(2 pi) * coef
    dual = accel.plan_for(1.0)
    for coef, expected in ((1.0 + 5e-12, 1.0), (-5e-12, 0.0)):
        one_term = dataclasses.replace(dual, dual_coef=np.array([coef / accel.SQRT_TWO_PI]))
        assert accel.phi_gamma(np.array([0.0]), one_term)[1].tolist() == [expected]


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

