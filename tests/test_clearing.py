import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import galbank as gb
from galbank import clearing
from galbank.clearing import (
    SortedTiers,
    _TierSystem,
    _block_rows,
    clear_tier_sums,
    clear_tiered_batch,
    clearing_dense,
    expand_network,
    least_clearing_vector,
)
from galbank.network import _claims_face


def dense(liabilities, external, assets):
    return gb.DenseNetwork(
        np.array(liabilities, dtype=float),
        np.array(external, dtype=float),
        np.array(assets, dtype=float),
    )


def tiered(counts, profiles, ggp=100.0):
    tiers = tuple(gb.BankTier(t, counts[t]) for t in gb.Tier)
    sheets = tuple(
        gb.BalanceSheet(0.0, _claims_face(counts, profiles, t), 0.0, 0.0)
        for t in gb.Tier
    )
    return gb.GalacticNetwork(tiers, profiles, sheets, ggp=ggp, outstanding_debt=0.0)


def random_tiered(rng):
    counts = (1, int(rng.integers(2, 11)), int(rng.integers(2, 51)))
    profiles = (
        gb.LiabilityProfile(owed_external=float(rng.uniform(0.5, 30.0))),
        gb.LiabilityProfile(*rng.uniform(0.0, 3.0, size=3), 0.0),
        gb.LiabilityProfile(*rng.uniform(0.0, 1.0, size=3), 0.0),
    )
    net = tiered(counts, profiles)
    assets = rng.uniform(0.0, 2.0, size=net.n_banks)
    return net, assets


# --- dense reference solver -----------------------------------------------

def test_dense_solvent_identity():
    net = dense(
        [[0.0, 2.0, 0.0], [0.0, 0.0, 3.0], [1.0, 0.0, 0.0]],
        [1.0, 0.5, 0.0],
        [10.0, 10.0, 10.0],
    )
    out = clearing_dense(net)
    assert np.allclose(out.payments, net.p_bar)
    assert not out.defaulted.any()
    assert out.shortfall.max() == 0.0


def test_dense_two_bank_example():
    # A owes B 10 with assets 5; B owes the sink 10 with assets 2
    net = dense([[0.0, 10.0], [0.0, 0.0]], [0.0, 10.0], [5.0, 2.0])
    out = clearing_dense(net)
    assert out.payments == pytest.approx([5.0, 7.0], rel=1e-12)
    assert out.external_paid == pytest.approx(7.0, rel=1e-12)
    assert out.defaulted.tolist() == [True, True]
    assert out.shortfall == pytest.approx([5.0, 3.0], rel=1e-12)


def test_dense_three_cycle_lattice_endpoints():
    liab = [[0.0, 10.0, 0.0], [0.0, 0.0, 10.0], [10.0, 0.0, 0.0]]
    net = dense(liab, [0.0, 0.0, 0.0], [0.0, 0.0, 0.0])
    greatest = clearing_dense(net)
    least = least_clearing_vector(net)
    assert greatest.payments == pytest.approx([10.0, 10.0, 10.0], abs=1e-8)
    assert least.payments == pytest.approx([0.0, 0.0, 0.0], abs=1e-12)


def test_dense_least_equals_greatest_when_solvent():
    net = dense([[0.0, 4.0], [0.0, 0.0]], [0.0, 4.0], [5.0, 1.0])
    top = clearing_dense(net)
    bottom = least_clearing_vector(net, tolerance=1e-12)
    assert np.allclose(top.payments, bottom.payments, atol=1e-7)


def test_dense_all_zero_obligations():
    net = dense(np.zeros((3, 3)), np.zeros(3), np.ones(3))
    out = clearing_dense(net)
    assert np.allclose(out.payments, 0.0)
    assert not out.defaulted.any()
    assert out.iterations == 0


def test_dense_validation():
    with pytest.raises(ValueError):
        dense([[1.0]], [0.0], [0.0])  # self-liability
    with pytest.raises(ValueError):
        dense([[0.0, -1.0], [0.0, 0.0]], [0.0, 0.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        clearing_dense(dense([[0.0]], [1.0], [0.0]), tolerance=0.0)


@pytest.mark.parametrize("field", ["liabilities", "external", "assets"])
def test_dense_rejects_nan_at_construction(field):
    inputs = {
        "liabilities": [[0.0, 10.0], [0.0, 0.0]],
        "external": [0.0, 10.0],
        "assets": [5.0, 2.0],
    }
    if field == "liabilities":
        inputs[field][0][1] = np.nan
    else:
        inputs[field][0] = np.nan
    with pytest.raises(ValueError, match="NaN"):
        dense(inputs["liabilities"], inputs["external"], inputs["assets"])


def test_dense_non_convergence_names_iterations_residuals_and_tolerance(monkeypatch):
    # from the greatest start: (10, 10) -> (5, 10) -> (5, 7) -> (5, 7)
    net = dense([[0.0, 10.0], [0.0, 0.0]], [0.0, 10.0], [5.0, 2.0])
    needed = clearing_dense(net).iterations
    assert needed == 2
    monkeypatch.setattr(clearing, "MAX_ITERATIONS", needed)
    with pytest.raises(RuntimeError) as info:
        clearing_dense(net)
    message = str(info.value)
    assert f"in {needed} iterations" in message
    assert "last residuals 5, 3 " in message
    assert f"against tolerance {clearing.DEFAULT_TOLERANCE * 10.0:.3g}" in message


@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_dense_bounds_and_conservation(data):
    n = data.draw(st.integers(2, 6))
    liab = np.array(
        data.draw(
            st.lists(
                st.lists(st.floats(0.0, 5.0), min_size=n, max_size=n),
                min_size=n, max_size=n,
            )
        )
    )
    np.fill_diagonal(liab, 0.0)
    ext = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=n, max_size=n)))
    assets = np.array(data.draw(st.lists(st.floats(0.0, 4.0), min_size=n, max_size=n)))
    net = dense(liab, ext, assets)
    out = clearing_dense(net)
    p_bar = net.p_bar
    assert (out.payments >= -1e-12).all()
    assert (out.payments <= p_bar + 1e-9).all()
    # fixed point: payments equal min(p_bar, assets + inflows)
    with np.errstate(divide="ignore", invalid="ignore"):
        pi = np.where(p_bar[:, None] > 0, liab / p_bar[:, None], 0.0)
    image = np.minimum(p_bar, assets + pi.T @ out.payments)
    assert np.allclose(image, out.payments, atol=1e-6)


def test_dense_monotone_in_assets():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = 5
        liab = rng.uniform(0.0, 3.0, size=(n, n))
        np.fill_diagonal(liab, 0.0)
        ext = rng.uniform(0.0, 2.0, size=n)
        assets = rng.uniform(0.0, 2.0, size=n)
        bumped = assets.copy()
        bumped[rng.integers(0, n)] += rng.uniform(0.1, 2.0)
        p_low = clearing_dense(dense(liab, ext, assets)).payments
        p_high = clearing_dense(dense(liab, ext, bumped)).payments
        assert (p_high >= p_low - 1e-8).all()


# --- tier-compressed solver -----------------------------------------------

def test_compressed_matches_dense_on_toy():
    profiles = (
        gb.LiabilityProfile(owed_external=5.0),
        gb.LiabilityProfile(1.0, 0.4, 0.6, 0.0),
        gb.LiabilityProfile(0.2, 0.5, 0.1, 0.0),
    )
    net = tiered((1, 2, 2), profiles)
    assets = np.array([0.5, 0.8, 0.3, 0.2, 0.9])
    comp = clear_tiered_batch(net, assets[None])
    ref = clearing_dense(expand_network(net, assets))
    scale = np.maximum(np.abs(ref.payments), 1e-12)
    assert np.max(np.abs(comp.payments[0] - ref.payments) / scale) < 1e-10
    assert comp.external_paid[0] == pytest.approx(ref.external_paid, rel=1e-10)


def test_compressed_matches_dense_random():
    rng = np.random.default_rng(20240301)
    for _ in range(20):
        net, assets = random_tiered(rng)
        comp = clear_tiered_batch(net, assets[None])
        ref = clearing_dense(expand_network(net, assets))
        scale = max(float(np.abs(ref.payments).max()), 1e-9)
        assert np.max(np.abs(comp.payments[0] - ref.payments)) / scale < 1e-8


def test_compressed_solvent_identity_zero_iterations():
    profiles = (
        gb.LiabilityProfile(owed_external=1.0),
        gb.LiabilityProfile(0.1, 0.0, 0.1, 0.0),
        gb.LiabilityProfile(0.05, 0.05, 0.0, 0.0),
    )
    net = tiered((1, 3, 4), profiles)
    p_bar = np.array([1.0] + [0.2] * 3 + [0.1] * 4)
    out = clear_tiered_batch(net, (p_bar + 1.0)[None])
    assert np.allclose(out.payments[0], p_bar)
    assert out.iterations == 0
    assert not out.defaulted.any()


def test_compressed_default_network_no_shock_bonds_honored():
    net = gb.build_network()
    assets = (
        net.external_assets_vector() + net.bond_face_vector()
    )  # bonds paid in full, no shock
    out = clear_tiered_batch(net, assets[None])
    assert not out.defaulted.any()
    assert out.external_paid[0] == pytest.approx(2500.0, rel=1e-12)


def test_compressed_batch_consistent_with_single():
    net = gb.build_network()
    params = gb.ShockParams()
    losses = gb.shocks.sample_loss_matrix(params, net.n_banks, 5, range(3))
    ext = net.external_assets_vector()
    assets = (1.0 - losses) * ext[None, :]
    batch = clear_tiered_batch(net, assets)
    for row in range(3):
        single = clear_tiered_batch(net, assets[row][None])
        # batched rows stop on the batch-wide residual, so agreement is
        # within the convergence tolerance rather than bitwise
        assert np.allclose(batch.payments[row], single.payments[0], atol=1e-5)


def test_compressed_greatest_equals_least_on_calibrated():
    net = gb.build_network()
    params = gb.ShockParams()
    losses = gb.shocks.sample_loss_matrix(params, net.n_banks, 77, range(3))
    assets = (1.0 - losses) * net.external_assets_vector()[None, :]
    top = clear_tiered_batch(net, assets, tolerance=1e-11)
    bottom = clear_tiered_batch(net, assets, tolerance=1e-11, start="least")
    assert np.max(np.abs(top.payments - bottom.payments)) < 1e-5


def test_compressed_degenerate_self_split():
    profiles = (
        gb.LiabilityProfile(owed_external=1.0),
        gb.LiabilityProfile(0.0, 0.5, 0.0, 0.0),  # single massive owing its own tier
        gb.LiabilityProfile(),
    )
    tiers = (
        gb.BankTier(gb.Tier.CENTRAL, 1),
        gb.BankTier(gb.Tier.MASSIVE, 1),
        gb.BankTier(gb.Tier.BIG, 2),
    )
    with pytest.raises(gb.DegenerateNetworkError):
        sheets = tuple(gb.BalanceSheet(0.0, 0.0, 0.0, 0.0) for _ in range(3))
        net = gb.GalacticNetwork(tiers, profiles, sheets, ggp=1.0, outstanding_debt=0.0)
        clear_tiered_batch(net, np.zeros(4)[None])


def test_picard_residuals_decrease():
    rng = np.random.default_rng(5)
    net, assets = random_tiered(rng)
    batch = clear_tiered_batch(net, assets[None, :])
    residuals = np.array(batch.residuals)
    assert batch.iterations == len(residuals)
    if len(residuals) > 1:
        assert (np.diff(residuals) <= 1e-12).all()


def test_compressed_rejects_bad_inputs():
    net = gb.build_network()
    with pytest.raises(ValueError):
        clear_tiered_batch(net, np.zeros(5)[None])
    with pytest.raises(ValueError):
        clear_tiered_batch(net, -np.ones(net.n_banks)[None])
    with pytest.raises(ValueError):
        clear_tiered_batch(net, np.zeros((1, net.n_banks)), start="sideways")


def test_compressed_shortfall_in_own_buffer_and_assets_untouched():
    net = gb.build_network()
    params = gb.ShockParams()
    losses = gb.shocks.sample_loss_matrix(params, net.n_banks, 11, range(4))
    assets = (1.0 - losses) * net.external_assets_vector()[None, :]
    before = assets.copy()
    batch = clear_tiered_batch(net, assets)
    # the result carries no shortfall array: a caller derives it from payments
    shortfall = np.maximum(_TierSystem(net).p_bar_row[None, :] - batch.payments, 0.0)
    assert np.array_equal(batch.defaulted, shortfall > clearing.DEFAULT_FLAG_TOL)
    assert batch.defaulted.any() and not batch.defaulted.all()
    assert not np.shares_memory(batch.payments, assets)
    # callers may keep reusing their asset matrix, e.g. a cached pre-bailout base
    assert np.array_equal(assets, before)


def test_compressed_rejects_nan_assets_at_once(monkeypatch):
    net = gb.build_network()
    assets = np.ones((3, net.n_banks))
    assets[1, 42] = np.nan
    monkeypatch.setattr(clearing, "_TierSystem", None)  # no iteration may start
    with pytest.raises(ValueError, match="NaN"):
        clear_tiered_batch(net, assets)


def test_non_convergence_names_iterations_residuals_and_row(monkeypatch):
    profiles = (
        gb.LiabilityProfile(owed_external=5.0),
        gb.LiabilityProfile(1.0, 0.4, 0.6, 0.0),
        gb.LiabilityProfile(0.2, 0.5, 0.1, 0.0),
    )
    net = tiered((1, 2, 2), profiles)
    # row 0 is solvent and settles at once; row 1 needs several iterations
    assets = np.array([[10.0] * 5, [0.5, 0.8, 0.3, 0.2, 0.9]])
    needed = clear_tiered_batch(net, assets, start="least")
    assert needed.iterations >= 3
    monkeypatch.setattr(clearing, "MAX_ITERATIONS", needed.iterations)
    with pytest.raises(RuntimeError) as info:
        clear_tiered_batch(net, assets, start="least")
    message = str(info.value)
    assert f"in {needed.iterations} iterations" in message
    assert f"{needed.residuals[-1]:.3g}" in message
    assert "scenario row 1" in message


# --- blocked sweep against the full-width loop ------------------------------

def full_width_reference(network, assets, tolerance=clearing.DEFAULT_TOLERANCE,
                         flag_tol=clearing.DEFAULT_FLAG_TOL, start="greatest"):
    """The tiered Picard loop as one full-width sweep per iteration.

    The blocked solver must reproduce it bit for bit.
    """
    sys = _TierSystem(network)
    if start == "greatest":
        p = np.tile(sys.p_bar_row, (assets.shape[0], 1))
    else:
        p = np.zeros_like(assets)
    p_new = np.empty_like(p)
    scratch = np.empty_like(p)
    residuals = []
    for iterations in range(clearing.MAX_ITERATIONS):
        sums = np.stack([p[:, s].sum(axis=1) for s in sys.slices], axis=1)
        base = sums @ sys.cross + sums * sys.self_coef[None, :]
        for d, sl in enumerate(sys.slices):
            blk = p_new[:, sl]
            np.multiply(p[:, sl], -sys.self_coef[d], out=blk)
            blk += base[:, d, None]
            blk += assets[:, sl]
            np.minimum(blk, sys.p_bar_tier[d], out=blk)
        np.subtract(p_new, p, out=scratch)
        np.abs(scratch, out=scratch)
        resid = float(scratch.max(initial=0.0))
        p, p_new = p_new, p
        if resid <= tolerance * sys.scale:
            break
        residuals.append(resid)
    else:
        raise RuntimeError("reference loop did not converge")
    shortfall = np.maximum(sys.p_bar_row[None, :] - p, 0.0)
    return {
        "payments": p,
        "defaulted": shortfall > flag_tol,
        "external_paid": p @ sys.ext_share_row,
        "iterations": iterations,
        "residuals": tuple(residuals),
    }


def assert_matches_reference(network, assets, start, tolerance=clearing.DEFAULT_TOLERANCE):
    batch = clear_tiered_batch(network, assets, tolerance=tolerance, start=start)
    ref = full_width_reference(network, assets, tolerance=tolerance, start=start)
    for field, expected in ref.items():
        assert np.array_equal(getattr(batch, field), expected), field


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 2, 3, 7, None]),
       shape=st.sampled_from(["one", "block-1", "block", "block+1", "ragged"]))
def test_blocked_sweep_bitwise_equals_full_width(seed, block, shape):
    rng = np.random.default_rng(seed)
    net, _ = random_tiered(rng)
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            # shrink the cache so the sweep uses `block` rows per block
            mp.setattr(clearing, "L2_CACHE_BYTES", block * 3 * 8 * net.n_banks)
        b = _block_rows(net.n_banks)
        assert block is None or b == block
        rows = {
            "one": 1,
            "block-1": max(1, b - 1),
            "block": b,
            "block+1": b + 1,
            "ragged": 2 * b + max(1, b // 2),
        }[shape]
        assets = rng.uniform(0.0, 2.0, size=(rows, net.n_banks))
        for start in ("greatest", "least"):
            assert_matches_reference(net, assets, start)


def test_blocked_sweep_bitwise_on_calibrated_partial_block():
    net = gb.build_network()
    params = gb.ShockParams()
    losses = gb.shocks.sample_loss_matrix(params, net.n_banks, 19770525, range(37))
    assets = (1.0 - losses) * net.external_assets_vector()[None, :]
    assert 37 % _block_rows(net.n_banks) != 0
    for start in ("greatest", "least"):
        assert_matches_reference(net, assets, start)


def graded_draw():
    """A random tiered network and six asset rows, from deep default to solvent.

    Alone, the rows stop after 44, 37, 10, 7, 0 and 5 sweeps from the
    greatest start and 41, 41, 13, 10, 4 and 6 from the least.
    """
    rng = np.random.default_rng(30)
    net, _ = random_tiered(rng)
    scale = np.array([0.2, 0.5, 1.0, 1.0, 2.0, 4.0])[:, None]
    return net, rng.uniform(0.0, 2.0, size=(6, net.n_banks)) * scale


def one_block_of(monkeypatch, net, rows):
    monkeypatch.setattr(clearing, "L2_CACHE_BYTES", rows * 3 * 8 * net.n_banks)
    assert _block_rows(net.n_banks) == rows


@pytest.mark.parametrize("start", ["greatest", "least"])
@pytest.mark.parametrize("rows,block", [([5, 0], 1), ([4, 5, 2, 3, 0], 2)],
                         ids=["top-up", "ragged"])
def test_blocked_sweep_bitwise_when_early_blocks_stop_first(monkeypatch, start, rows, block):
    net, assets = graded_draw()
    one_block_of(monkeypatch, net, block)
    batch = assets[rows]
    # the first block settles alone before the batch does, and the sweeps up
    # to the batch's stop still move its bits: it must be run on from
    # `payments` after the last block (ragged in the second case)
    alone = full_width_reference(net, batch[:block], start=start)
    ref = full_width_reference(net, batch, start=start)
    assert alone["iterations"] < ref["iterations"]
    assert not np.array_equal(alone["payments"], ref["payments"][:block])
    assert_matches_reference(net, batch, start)


def stop_sweep(residuals, limit, first=0):
    return next(s for s in range(first, len(residuals)) if residuals[s] <= limit)


@pytest.mark.parametrize("start,rows,limit", [("greatest", [1, 2], 0.85),
                                              ("least", [1, 4], 1.02)])
def test_blocked_sweep_bitwise_when_a_stopped_block_rebounds(monkeypatch, start, rows,
                                                             limit):
    net, assets = graded_draw()
    one_block_of(monkeypatch, net, 1)
    tolerance = limit / _TierSystem(net).scale
    first, second = (full_width_reference(net, assets[r:r + 1], tolerance=1e-14,
                                          start=start)["residuals"] for r in rows)
    # the first row is within the limit before the second row is, and above
    # it again at the sweep where the second row first is
    a = stop_sweep(first, limit)
    b = stop_sweep(second, limit, a)
    assert a < b and first[b] > limit
    assert_matches_reference(net, assets[rows], start, tolerance)


def test_blocked_sweep_holds_no_batch_wide_scratch():
    net = gb.build_network()
    losses = gb.shocks.sample_loss_matrix(gb.ShockParams(), net.n_banks, 19770525, range(64))
    assets = (1.0 - losses) * net.external_assets_vector()[None, :]
    del losses
    block = _block_rows(net.n_banks)
    tracemalloc.start()
    try:
        clear_tiered_batch(net, assets)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # payments and defaulted are the result; the sweep adds its block buffers
    # (measured 11.5 MB in all; a full-width iterate and shortfall took 20.2 MB)
    allowed = assets.nbytes + assets.size + 3 * block * net.n_banks * 8 + 2**20
    assert peak <= allowed


CLEAR_DIGESTS = """
import hashlib
import galbank as gb
net = gb.build_network()
shock = gb.ShockParams()
losses = gb.sample_loss_matrix(shock, net.n_banks, 19770525, range(40))
cleared = gb.clear_tiered_batch(net, gb.risk._base_assets(net, shock, losses, gb.LossConfig()))
for array in (cleared.payments, cleared.defaulted, cleared.external_paid):
    print(hashlib.sha256(array.tobytes()).hexdigest())
"""


def test_tiered_batch_bits_independent_of_blas_threads():
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    env["PYTHONPATH"] = str(Path(gb.__file__).resolve().parents[1])
    digests = [
        subprocess.run([sys.executable, "-c", CLEAR_DIGESTS], env=env | extra, check=True,
                       capture_output=True, text=True, timeout=300).stdout
        for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})
    ]
    assert len(digests[0].split()) == 3
    assert digests[0] == digests[1]


# --- fictitious-default solve on sorted tiers --------------------------------

def tier_totals(network, per_bank):
    """Per-tier sums of a (rows, n_banks) array, as (rows, 3)."""
    return np.stack([per_bank[..., network.tier_slice(t)].sum(axis=-1) for t in gb.Tier],
                    axis=-1)


def tier_obligations(network):
    return np.array(network.counts) * network.obligations_per_tier()


def sort_tiers(network, assets):
    return SortedTiers.from_assets(network, np.array(assets, dtype=float))


def test_sorted_tiers_layout_and_bytes():
    rng = np.random.default_rng(3)
    net, _ = random_tiered(rng)
    assets = rng.uniform(0.0, 2.0, size=(4, net.n_banks))
    work = assets.copy()
    tiers = SortedTiers.from_assets(net, work)
    for t in gb.Tier:
        expected = np.sort(assets[:, net.tier_slice(t)], axis=1)
        assert np.array_equal(tiers.values[t], expected)
        assert np.shares_memory(tiers.values[t], work)  # sorted in place
    lo = rng.integers(0, 3, size=(4, 3)) * np.array(net.counts) // 3
    hi = np.minimum(lo + rng.integers(0, 4, size=(4, 3)), net.counts)
    between = tiers.sums_between(lo, hi)
    for r in range(4):
        for t in gb.Tier:
            assert between[r, t] == tiers.values[t][r, lo[r, t]:hi[r, t]].sum()
    assert (between[hi == lo] == 0.0).all()
    assert tiers.rows == 4
    assert tiers.nbytes == 4 * SortedTiers.bytes_per_row(net.n_banks)


# the solve against the dense oracle: tier sums within this fraction of the
# tier's total obligation (300 random cases measured at most 7.2e-13)
TIER_SUM_REL = 1e-10


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4),
       shift=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.5)), min_size=3, max_size=3))
def test_tier_sums_match_dense_and_picard(seed, rows, shift):
    rng = np.random.default_rng(seed)
    net, _ = random_tiered(rng)
    assets = rng.uniform(0.0, 2.0, size=(rows, net.n_banks))
    per_bank = assets + np.repeat(shift, net.counts)
    out = clear_tier_sums(net, sort_tiers(net, assets), shift)
    bound = TIER_SUM_REL * np.maximum(tier_obligations(net), 1e-12)
    picard = clear_tiered_batch(net, per_bank, tolerance=1e-13)
    assert (np.abs(out.sums - tier_totals(net, picard.payments)) <= bound).all()
    scale = net.obligations_per_tier().max()
    for r in range(rows):
        ref = clearing_dense(expand_network(net, per_bank[r]), tolerance=1e-13)
        assert (np.abs(out.sums[r] - tier_totals(net, ref.payments)) <= bound).all()
        # a bank whose shortfall is within rounding of flag_tol may go either way
        near = 1e-9 * scale
        flag = clearing.DEFAULT_FLAG_TOL
        surely = tier_totals(net, ref.shortfall > flag + near)
        maybe = tier_totals(net, ref.shortfall > flag - near)
        assert (surely <= out.defaults[r]).all() and (out.defaults[r] <= maybe).all()


@pytest.fixture(scope="module")
def headline_draw():
    net = gb.build_network()
    shock = gb.ShockParams()
    losses = gb.shocks.sample_loss_matrix(shock, net.n_banks, 19770525, range(37))
    assets = gb.risk._base_assets(net, shock, losses, gb.LossConfig())
    return net, assets, sort_tiers(net, assets)


@pytest.mark.parametrize("per_massive,per_big", [(0.0, 0.0), (1.0, 0.05), (0.3, 0.01),
                                                 (2.0, 0.2)])
def test_tier_sums_match_picard_on_headline_draw(headline_draw, per_massive, per_big):
    net, assets, tiers = headline_draw
    shift = np.array([0.0, per_massive, per_big])
    out = clear_tier_sums(net, tiers, shift)
    picard = clear_tiered_batch(net, assets + np.repeat(shift, net.counts))
    # measured at most 2.3e-12 of the tier obligation over a 500-row chunk
    rel = np.abs(out.sums - tier_totals(net, picard.payments)) / tier_obligations(net)
    assert rel.max() < 1e-11
    assert np.array_equal(out.defaults, tier_totals(net, picard.defaulted))
    assert 0 < out.defaults[:, gb.Tier.BIG].min()
    assert 1 <= out.rounds <= 3


def test_tier_sums_solvent_batch_needs_no_round():
    profiles = (
        gb.LiabilityProfile(owed_external=1.0),
        gb.LiabilityProfile(0.1, 0.0, 0.1, 0.0),
        gb.LiabilityProfile(0.05, 0.05, 0.0, 0.0),
    )
    net = tiered((1, 3, 4), profiles)
    out = clear_tier_sums(net, sort_tiers(net, np.full((2, net.n_banks), 5.0)), [0, 0, 0])
    assert out.rounds == 0
    assert np.array_equal(out.sums, np.tile(tier_obligations(net), (2, 1)))
    assert not out.defaults.any()


def toy_net():
    profiles = (
        gb.LiabilityProfile(owed_external=5.0),
        gb.LiabilityProfile(1.0, 0.4, 0.6, 0.0),
        gb.LiabilityProfile(0.2, 0.5, 0.1, 0.0),
    )
    # row 0 is solvent and settles at once; row 1 needs several rounds
    return tiered((1, 2, 2), profiles), [[10.0] * 5, [0.5, 0.8, 0.3, 0.2, 0.9]]


def test_tier_sums_round_cap_names_row(monkeypatch):
    net, assets = toy_net()
    needed = clear_tier_sums(net, sort_tiers(net, assets), [0, 0, 0]).rounds
    assert needed >= 2
    monkeypatch.setattr(clearing, "MAX_ROUNDS", needed - 1)
    with pytest.raises(RuntimeError) as info:
        clear_tier_sums(net, sort_tiers(net, assets), [0, 0, 0])
    message = str(info.value)
    assert f"did not settle in {needed - 1} rounds" in message
    assert "1 scenario row(s) still gaining defaults, first row 1" in message


def test_tier_sums_residual_checked_per_row(monkeypatch):
    net, assets = toy_net()
    real_solve = np.linalg.solve

    def off_in_row_1(a, b):
        x = real_solve(a, b)
        if x.shape[0] > 1:
            x[1] += 1e-3
        return x

    monkeypatch.setattr(np.linalg, "solve", off_in_row_1)
    with pytest.raises(RuntimeError, match=r"residual .* in scenario row 1 exceeds tolerance"):
        clear_tier_sums(net, sort_tiers(net, assets), [0, 0, 0])


def test_tier_sums_zero_threshold_tie_pays_in_full():
    # a massive tier that owes only itself: with no assets its members'
    # threshold is exactly zero, which rounds to 1.4e-17; each still receives
    # what it owes, so the greatest clearing vector is full payment
    profiles = (
        gb.LiabilityProfile(owed_external=1.0),
        gb.LiabilityProfile(owed_to_massive=0.1),
        gb.LiabilityProfile(owed_to_central=0.5),
    )
    net = tiered((1, 7, 2), profiles)
    assets = np.full((2, net.n_banks), 5.0)
    assets[1, net.tier_slice(gb.Tier.MASSIVE)] = 0.0
    out = clear_tier_sums(net, sort_tiers(net, assets), [0, 0, 0])
    picard = clear_tiered_batch(net, assets)
    assert not picard.defaulted.any()
    assert np.allclose(out.sums, tier_totals(net, picard.payments), rtol=1e-15, atol=0)
    assert np.array_equal(out.sums, np.tile(tier_obligations(net), (2, 1)))
    assert not out.defaults.any() and out.rounds == 0


def test_tier_sums_singular_system_names_row(monkeypatch):
    # the solvent row's system is the identity (condition number 1); any
    # defaulting row's is worse, and a bound just above 1 calls it singular
    net, assets = toy_net()
    monkeypatch.setattr(clearing, "SINGULAR_COND", 1.0 + 1e-9)
    with pytest.raises(RuntimeError, match=r"singular tier system in scenario row 1 "
                                           r"\(condition number .*defaults per tier \["):
        clear_tier_sums(net, sort_tiers(net, assets), [0, 0, 0])


def test_tier_sums_reject_bad_inputs():
    net, assets = toy_net()
    tiers = sort_tiers(net, assets)
    for bad in ([0.0, np.nan, 0.0], [0.0, 0.0, -0.1], [np.inf, 0.0, 0.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match="shift"):
            clear_tier_sums(net, tiers, bad)
    other, _ = random_tiered(np.random.default_rng(1))
    with pytest.raises(ValueError, match="banks per tier"):
        clear_tier_sums(other, tiers, [0, 0, 0])
    for value in (np.nan, -1.0):
        broken = np.array(assets)
        broken[1, 3] = value
        with pytest.raises(ValueError, match="non-negative and not NaN"):
            SortedTiers.from_assets(net, broken)
    with pytest.raises(ValueError, match="rows"):
        SortedTiers.from_assets(net, np.zeros((2, 4)))
