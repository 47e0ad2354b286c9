import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy import special, stats

import galbank as gb
from galbank.shocks import (
    _copula_transform,
    _draw_latents,
    _inverse_marginal,
    common_factors,
    sample_loss_matrix,
)
from harness import run_python, write_config

SEED = 987654321
INDEPENDENT = gb.ShockParams(correlation=0.0)
# beta(1,1) is uniform, so under it the transform returns Phi of its latents
UNIFORM = gb.ShockParams(correlation=0.0, beta_a=1.0, beta_b=1.0)


def transform(params, idio, common=0.0):
    """The pipeline's loss fractions for injected latents, one row."""
    out = np.array(idio, dtype=float, ndmin=2)
    _copula_transform(params, np.full(out.shape[0], common), out)
    return out[0]


def test_std_normal_cdf_examples():
    phi = transform(UNIFORM, [0.0, 1.959964, -8.0])
    assert phi[0] == 0.5
    assert abs(phi[1] - 0.975) < 1e-8
    assert phi[2] == pytest.approx(6.22096057427178e-16, rel=1e-10)


def test_std_normal_cdf_array():
    phi = transform(UNIFORM, np.array([-1.0, 0.0, 1.0]))
    assert phi.shape == (3,)
    assert phi[1] == 0.5
    assert phi[0] + phi[2] == pytest.approx(1.0, abs=1e-15)


def test_normal_cdf_against_high_precision_oracle():
    mpmath.mp.dps = 40
    z = np.linspace(-8.0, 8.0, 41)
    phi = transform(UNIFORM, z)
    for zi, ours in zip(z, phi):
        exact = float(mpmath.ncdf(mpmath.mpf(float(zi))))
        assert abs(ours - exact) <= 1e-12


def test_beta_inverse_examples():
    # F(0.2) = 1 - 0.8^4 = 0.5904 in closed form
    x = transform(INDEPENDENT, [-np.inf, np.inf, special.ndtri(0.5904)])
    assert x[0] == 0.0
    assert x[1] == 1.0
    assert x[2] == pytest.approx(0.2, abs=1e-12)


@given(u=st.floats(0.0, 1.0, allow_nan=False))
def test_beta_inverse_round_trip(u):
    x = transform(INDEPENDENT, [special.ndtri(u)])[0]
    assert 0.0 <= x <= 1.0
    back = 1.0 - (1.0 - x) ** 4
    assert abs(back - u) <= 1e-12


def test_beta_inverse_matches_longdouble_grid():
    z = special.ndtri(np.linspace(0.0, 1.0, 100_001))
    ours = transform(INDEPENDENT, z)
    # the oracle inverts the very uniforms the transform's marginal receives
    u = transform(UNIFORM, z).astype(np.longdouble)
    oracle = 1.0 - (1.0 - u) ** np.longdouble(0.25)
    assert np.max(np.abs(ours - oracle.astype(float))) <= 1e-12


def test_transform_forced_latent():
    losses = transform(gb.ShockParams(), np.zeros(7))
    expected = 1.0 - 0.5 ** 0.25
    assert np.allclose(losses, expected, atol=1e-15)
    assert losses.shape == (7,)


def test_loss_matrix_deterministic():
    params = gb.ShockParams()
    a = sample_loss_matrix(params, 100, SEED, [42])
    b = sample_loss_matrix(params, 100, SEED, [42])
    assert np.array_equal(a, b)
    c = sample_loss_matrix(params, 100, SEED, [43])
    assert not np.array_equal(a, c)
    d = sample_loss_matrix(params, 100, SEED + 1, [42])
    assert not np.array_equal(a, d)


@pytest.mark.parametrize("params", [
    gb.ShockParams(), gb.ShockParams(beta_a=2.0, beta_b=5.0),
], ids=["beta_1_4", "beta_2_5"])
def test_loss_matrix_independent_of_chunking(params):
    # thread invariance rests on this: a scenario's row never depends on
    # which other scenarios share its chunk
    whole = sample_loss_matrix(params, 10, SEED, range(5))
    split = np.concatenate([
        sample_loss_matrix(params, 10, SEED, [0, 1]),
        sample_loss_matrix(params, 10, SEED, [2, 3, 4]),
    ])
    assert np.array_equal(whole, split)
    picked = sample_loss_matrix(params, 10, SEED, [4, 0, 3])
    assert np.array_equal(picked, whole[[4, 0, 3]])


def test_common_factors_are_the_rows_first_draws():
    # `simulate` orders its blocks by M before it draws their rows
    common = _draw_latents(SEED, range(3, 9), np.empty((6, 4)))
    assert np.array_equal(common_factors(SEED, range(3, 9)), common)
    assert np.array_equal(common_factors(SEED, [8, 3]), common[[5, 0]])
    assert common_factors(SEED, []).shape == (0,)


# sha256 of the float64 bytes of a 50-bank, 8-scenario draw at the documented
# seed.  The golden CSVs run only the default beta(1,4) marginal; these pin the
# general-beta branch and the other correlations bit for bit.
PINNED = {
    "beta_2_5": (gb.ShockParams(beta_a=2.0, beta_b=5.0),
                 "e5315d99104a115a1e7ae6599f1f45da47117e1ee19f23d5fdab08684387e53d"),
    "correlation_0": (gb.ShockParams(correlation=0.0),
                      "69cc0e9b07f7fcde34b5b0fa0d77a0d6809e9b675bf7cf3981fd8c2084e67623"),
    "correlation_0.6": (gb.ShockParams(correlation=0.6),
                        "62f9fc210648f61256ea3244b4376ccb9c909c81690c9eb37738cee7e730f30d"),
}


@pytest.mark.parametrize("name", PINNED)
def test_loss_matrix_bits_pinned(name):
    params, digest = PINNED[name]
    losses = sample_loss_matrix(params, 50, 19770525, range(8))
    assert hashlib.sha256(losses.tobytes()).hexdigest() == digest


# four runs of 150 banks: no floor, two floors inside [0, 1], one above it
RUN_FLOORS = np.repeat([-np.inf, 0.3, 0.6, 2.0], 150)


@pytest.mark.parametrize("name", PINNED)
def test_floor_skips_only_losses_at_or_below_it(name):
    params, _ = PINNED[name]
    full = sample_loss_matrix(params, 600, SEED, range(40))
    part = sample_loss_matrix(params, 600, SEED, range(40), floor=RUN_FLOORS)
    skipped = np.isneginf(part)
    assert np.array_equal(part[~skipped], full[~skipped])
    assert np.all(full <= RUN_FLOORS, where=skipped)
    assert not skipped[:, :150].any() and skipped[:, 450:].all()
    assert skipped[:, 150:450].any()


def test_floor_leaves_rows_past_the_crossover_whole(monkeypatch):
    # at a floor of 0.01 about 96% of a row lies above its cuts
    floor = np.full(600, 0.01)
    full = sample_loss_matrix(gb.ShockParams(), 600, SEED, range(40))
    assert np.array_equal(sample_loss_matrix(gb.ShockParams(), 600, SEED, range(40),
                                             floor=floor), full)
    monkeypatch.setattr(gb.shocks, "SKIP_CROSSOVER", 1.0)
    part = sample_loss_matrix(gb.ShockParams(), 600, SEED, range(40), floor=floor)
    skipped = np.isneginf(part)
    assert skipped.any() and np.array_equal(part[~skipped], full[~skipped])


@pytest.mark.parametrize("floor", [None, RUN_FLOORS], ids=["no-floor", "floor"])
def test_loss_matrix_into_a_reused_buffer(floor):
    # each draw writes the leading rows of the buffer and returns them as a
    # view, with the bits of a fresh draw, whatever the buffer held before
    params = gb.ShockParams()
    buffer = np.full((16, 600), np.nan)
    for indices in (range(16), range(16, 21), [40, 3]):
        fresh = sample_loss_matrix(params, 600, SEED, indices, floor=floor)
        drawn = sample_loss_matrix(params, 600, SEED, indices, floor=floor, out=buffer)
        assert drawn.base is buffer and drawn.shape == fresh.shape
        assert np.array_equal(drawn, fresh)


@pytest.mark.parametrize("out", [
    np.empty((4, 600)),                    # too few rows
    np.empty((16, 599)),                   # too few banks
    np.empty(600 * 16),                    # not a matrix
    np.empty((16, 600), dtype=np.float32),
    np.empty((600, 16)).T,                 # not C-contiguous
    np.empty((16, 1200))[:, ::2],
], ids=["rows", "banks", "flat", "float32", "transposed", "strided"])
def test_loss_matrix_buffer_checked(out):
    with pytest.raises(ValueError, match=r"C-contiguous float64 array of shape \(5, 600\)"):
        sample_loss_matrix(gb.ShockParams(), 600, SEED, range(5), out=out)


def test_floor_shape_checked():
    with pytest.raises(ValueError, match="floor"):
        sample_loss_matrix(gb.ShockParams(), 10, SEED, range(2), floor=np.zeros(9))
    # no scenarios: an empty draw of the network's width
    empty = sample_loss_matrix(gb.ShockParams(), 10, SEED, [], floor=np.zeros(10))
    assert empty.shape == (0, 10)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_64_bits_rejected(seed):
    # masked to 64 bits, -1 would alias 2**64 - 1 and 2**64 would alias 0
    with pytest.raises(OverflowError):
        sample_loss_matrix(gb.ShockParams(), 3, seed, range(1))


def test_losses_always_in_unit_interval():
    params = gb.ShockParams()
    for idx in range(20):
        losses = sample_loss_matrix(params, 1000, SEED + idx, [idx])
        assert losses.min() >= 0.0 and losses.max() <= 1.0


def test_marginal_fits_beta14():
    # independent marginals: one bank per scenario, no correlation
    draws = sample_loss_matrix(INDEPENDENT, 1, SEED, range(20_000)).ravel()
    result = stats.kstest(draws, lambda x: 1.0 - (1.0 - x) ** 4)
    assert result.pvalue > 0.01
    assert draws.mean() == pytest.approx(0.2, abs=0.01)


def test_latent_correlation_quick():
    idio = np.empty((20_000, 2))
    common = _draw_latents(SEED, range(20_000), idio)
    z = math.sqrt(0.25) * common[:, None] + math.sqrt(0.75) * idio
    corr = np.corrcoef(z[:, 0], z[:, 1])[0, 1]
    assert corr == pytest.approx(0.25, abs=0.03)


def test_common_factor_monotonicity():
    params = gb.ShockParams()
    eps = np.linspace(-2.0, 2.0, 50)
    low = transform(params, eps, common=-1.0)
    high = transform(params, eps, common=1.5)
    assert (high >= low).all()


def test_general_beta_shapes_use_exact_marginal():
    params = gb.ShockParams(correlation=0.0, beta_a=2.0, beta_b=5.0)
    draws = sample_loss_matrix(params, 1, SEED, range(5_000)).ravel()
    result = stats.kstest(draws, lambda x: stats.beta.cdf(x, 2.0, 5.0))
    assert result.pvalue > 0.01


@pytest.mark.parametrize("shapes", [(2.0, 5.0), (0.5, 3.0), (3.0, 0.7)])
def test_general_beta_marginal_has_the_bits_of_stats_beta_ppf(shapes):
    params = gb.ShockParams(beta_a=shapes[0], beta_b=shapes[1])
    idio = np.empty((20, 5_000))
    common = _draw_latents(SEED, range(20), idio)
    u = special.ndtr(0.5 * common[:, None] + math.sqrt(0.75) * idio).ravel()
    u = np.concatenate([[0.0, 1.0, 1.0 - 2.0**-53], u])
    got = u.copy()
    _inverse_marginal(params, got)
    assert np.array_equal(got.view(np.int64), stats.beta.ppf(u, *shapes).view(np.int64))
    assert got[0] == 0.0 and got[1] == 1.0
    # in the lower tail, where stats.beta.ppf (scipy 1.17) is off (at
    # beta(0.5, 3) it returns 5.5e-23 for 2.8e-8, whose quantile is 2.2e-16),
    # each quantile still inverts the exact CDF
    tail = 10.0 ** -np.arange(1.0, 31.0)
    got = tail.copy()
    _inverse_marginal(params, got)
    for x, p in zip(got, tail):
        assert float(mpmath.betainc(*shapes, 0, x, regularized=True)) == pytest.approx(
            p, rel=1e-13)


def test_cli_import_leaves_scipy_stats_out(tmp_path):
    # scipy.stats takes most of a second to import; neither the CLI's import
    # nor a general-beta simulate, whose marginal is `special.betaincinv`,
    # may pull it in
    config = write_config(tmp_path, {"shock": {"beta_a": 2.0}})
    probe = ("import sys, galbank.cli\n"
             "print('scipy.stats' in sys.modules)\n"
             "code = galbank.cli.main(sys.argv[1:])\n"
             "print(code, 'scipy.stats' in sys.modules)\n")
    lines = run_python(probe, "simulate", "--config", config, "--scenarios", "8",
                       "--out", tmp_path / "out").stdout.splitlines()
    assert lines[0] == "False" and lines[-1] == "0 False"


def test_params_validation():
    with pytest.raises(ValueError):
        gb.ShockParams(correlation=1.0)
    with pytest.raises(ValueError):
        gb.ShockParams(correlation=-0.1)
    for shapes in ({"beta_a": 0.0}, {"beta_a": math.inf}, {"beta_b": math.nan}):
        with pytest.raises(ValueError):
            gb.ShockParams(**shapes)
    default = gb.ShockParams()
    assert default.beta_a / (default.beta_a + default.beta_b) == pytest.approx(0.2)
