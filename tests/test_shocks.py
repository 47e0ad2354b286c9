import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import stats

import galbank as gb

SEED = 987654321


def test_std_normal_cdf_examples():
    assert gb.std_normal_cdf(0.0) == 0.5
    assert abs(gb.std_normal_cdf(1.959964) - 0.975) < 1e-8
    assert gb.std_normal_cdf(-8.0) == pytest.approx(6.22096057427178e-16, rel=1e-10)


def test_std_normal_cdf_against_high_precision_oracle():
    mpmath.mp.dps = 40
    for z in np.linspace(-8.0, 8.0, 41):
        exact = float(mpmath.ncdf(mpmath.mpf(float(z))))
        assert abs(gb.std_normal_cdf(float(z)) - exact) <= 1e-12


def test_std_normal_cdf_array():
    z = np.array([-1.0, 0.0, 1.0])
    out = gb.std_normal_cdf(z)
    assert out.shape == (3,)
    assert out[1] == 0.5
    assert out[0] + out[2] == pytest.approx(1.0, abs=1e-15)


def test_beta_inverse_examples():
    assert gb.beta_1_4_inverse_cdf(0.0) == 0.0
    assert gb.beta_1_4_inverse_cdf(1.0) == 1.0
    # F(0.2) = 1 - 0.8^4 = 0.5904 in closed form
    assert gb.beta_1_4_inverse_cdf(0.5904) == pytest.approx(0.2, abs=1e-12)


def test_beta_inverse_domain_errors():
    for bad in (-0.01, 1.01, float("nan")):
        with pytest.raises(ValueError):
            gb.beta_1_4_inverse_cdf(bad)
    with pytest.raises(ValueError):
        gb.beta_1_4_inverse_cdf(np.array([0.5, 1.5]))


@given(u=st.floats(0.0, 1.0, allow_nan=False))
def test_beta_inverse_round_trip(u):
    x = gb.beta_1_4_inverse_cdf(u)
    assert 0.0 <= x <= 1.0
    back = 1.0 - (1.0 - x) ** 4
    assert abs(back - u) <= 1e-12


def test_beta_inverse_matches_longdouble_grid():
    u = np.linspace(0.0, 1.0, 100_001)
    ours = gb.beta_1_4_inverse_cdf(u)
    oracle = 1.0 - (1.0 - u.astype(np.longdouble)) ** np.longdouble(0.25)
    assert np.max(np.abs(ours - oracle.astype(float))) <= 1e-12


def test_sample_scenario_forced_latent():
    scenario = gb.sample_scenario(gb.ShockParams(), 7, SEED, 0, latent=(0.0, np.zeros(7)))
    expected = 1.0 - 0.5 ** 0.25
    assert np.allclose(scenario.loss_fraction, expected, atol=1e-15)
    assert scenario.loss_fraction.shape == (7,)


def test_sample_scenario_deterministic():
    params = gb.ShockParams()
    a = gb.sample_scenario(params, 100, SEED, 42)
    b = gb.sample_scenario(params, 100, SEED, 42)
    assert np.array_equal(a.loss_fraction, b.loss_fraction)
    c = gb.sample_scenario(params, 100, SEED, 43)
    assert not np.array_equal(a.loss_fraction, c.loss_fraction)
    d = gb.sample_scenario(params, 100, SEED + 1, 42)
    assert not np.array_equal(a.loss_fraction, d.loss_fraction)


def test_sample_scenario_independent_of_batching():
    params = gb.ShockParams()
    matrix = gb.shocks.sample_loss_matrix(params, 10, SEED, range(5))
    for i in range(5):
        single = gb.sample_scenario(params, 10, SEED, i)
        assert np.array_equal(matrix[i], single.loss_fraction)


def test_losses_always_in_unit_interval():
    params = gb.ShockParams()
    for idx in range(20):
        losses = gb.sample_scenario(params, 1000, SEED + idx, idx).loss_fraction
        assert losses.min() >= 0.0 and losses.max() <= 1.0


def test_marginal_fits_beta14():
    # independent marginals: one bank per scenario, no correlation
    params = gb.ShockParams(correlation=0.0)
    draws = gb.shocks.sample_loss_matrix(params, 1, SEED, range(20_000)).ravel()
    result = stats.kstest(draws, lambda x: 1.0 - (1.0 - x) ** 4)
    assert result.pvalue > 0.01
    assert draws.mean() == pytest.approx(0.2, abs=0.01)


def test_latent_correlation_quick():
    draws = np.array([gb.latent_draws(2, SEED, i) for i in range(20_000)], dtype=object)
    z = np.array([
        math.sqrt(0.25) * m + math.sqrt(0.75) * e for m, e in draws
    ])
    corr = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    assert corr == pytest.approx(0.25, abs=0.03)


def test_common_factor_monotonicity():
    params = gb.ShockParams()
    eps = np.linspace(-2.0, 2.0, 50)
    low = gb.sample_scenario(params, 50, SEED, 0, latent=(-1.0, eps)).loss_fraction
    high = gb.sample_scenario(params, 50, SEED, 0, latent=(1.5, eps)).loss_fraction
    assert (high >= low).all()


def test_general_beta_shapes_use_exact_marginal():
    params = gb.ShockParams(correlation=0.0, beta_a=2.0, beta_b=5.0)
    draws = gb.shocks.sample_loss_matrix(params, 1, SEED, range(5_000)).ravel()
    result = stats.kstest(draws, lambda x: stats.beta.cdf(x, 2.0, 5.0))
    assert result.pvalue > 0.01


def test_params_validation():
    with pytest.raises(ValueError):
        gb.ShockParams(correlation=1.0)
    with pytest.raises(ValueError):
        gb.ShockParams(correlation=-0.1)
    for shapes in ({"beta_a": 0.0}, {"beta_a": math.inf}, {"beta_b": math.nan}):
        with pytest.raises(ValueError):
            gb.ShockParams(**shapes)
    assert gb.ShockParams().mean_loss == pytest.approx(0.2)
