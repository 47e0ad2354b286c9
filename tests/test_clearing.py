import os
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import galbank as gb
from galbank import clearing
from galbank.clearing import (
    SortedTiers,
    _TierSystem,
    _block_rows,
    clear_tier_sums,
    clear_tiered_batch,
    defaulting_prefixes,
)
import oracles
from harness import (ACCEPTANCE, assert_tables_equal, random_tiered, record_calls, run_python,
                     tiered)
from oracles import (
    DenseNetwork,
    clearing_dense,
    expand_network,
    full_width_reference,
    least_clearing_vector,
)


def dense(liabilities, external, assets):
    return DenseNetwork(
        np.array(liabilities, dtype=float),
        np.array(external, dtype=float),
        np.array(assets, dtype=float),
    )


def toy_net():
    """A 5-bank tiered network and two asset rows: row 0 is solvent and
    settles at once; row 1 needs several sweeps or rounds."""
    profiles = (
        gb.LiabilityProfile(owed_external=5.0),
        gb.LiabilityProfile(1.0, 0.4, 0.6, 0.0),
        gb.LiabilityProfile(0.2, 0.5, 0.1, 0.0),
    )
    return tiered((1, 2, 2), profiles), np.array([[10.0] * 5, [0.5, 0.8, 0.3, 0.2, 0.9]])


def solvent_net():
    """An 8-bank tiered network whose banks each owe 1.0, 0.2 or 0.1."""
    profiles = (
        gb.LiabilityProfile(owed_external=1.0),
        gb.LiabilityProfile(0.1, 0.0, 0.1, 0.0),
        gb.LiabilityProfile(0.05, 0.05, 0.0, 0.0),
    )
    return tiered((1, 3, 4), profiles)


# a massive tier that owes only itself
SELF_OWING = (
    gb.LiabilityProfile(owed_external=1.0),
    gb.LiabilityProfile(owed_to_massive=0.1),
    gb.LiabilityProfile(owed_to_central=0.5),
)


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
    monkeypatch.setattr(oracles, "MAX_ITERATIONS", needed)
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
    net, rows = toy_net()
    assets = rows[1]
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
    net = solvent_net()
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


def test_compressed_greatest_equals_least_on_calibrated(monkeypatch):
    net = gb.build_network()
    params = gb.ShockParams()
    losses = gb.shocks.sample_loss_matrix(params, net.n_banks, 77, range(3))
    assets = (1.0 - losses) * net.external_assets_vector()[None, :]
    monkeypatch.setattr(clearing, "DEFAULT_TOLERANCE", 1e-11)
    top = clear_tiered_batch(net, assets)
    bottom = full_width_reference(net, assets, tolerance=1e-11, start="least")
    assert np.max(np.abs(top.payments - bottom["payments"])) < 1e-5


def test_compressed_degenerate_self_split():
    profiles = (
        gb.LiabilityProfile(owed_external=1.0),
        gb.LiabilityProfile(0.0, 0.5, 0.0, 0.0),  # single massive owing its own tier
        gb.LiabilityProfile(),
    )
    with pytest.raises(gb.DegenerateNetworkError):
        clear_tiered_batch(tiered((1, 1, 2), profiles), np.zeros(4)[None])


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
    net, assets = toy_net()
    needed = clear_tiered_batch(net, assets)
    assert needed.iterations >= 3
    monkeypatch.setattr(clearing, "MAX_ITERATIONS", needed.iterations)
    with pytest.raises(RuntimeError) as info:
        clear_tiered_batch(net, assets)
    message = str(info.value)
    assert f"in {needed.iterations} iterations" in message
    assert f"{needed.residuals[-1]:.3g}" in message
    assert "scenario row 1" in message


# --- blocked sweep against the full-width loop ------------------------------

def blockwise(mp, network, assets):
    """`simulate_records` on `assets` as one chunk, its rows drawn as given
    and in row order.  Returns the chunk's fields assembled from the last
    pass's calls, and the passes run."""
    rows = assets.shape[0]
    mp.setattr(gb.risk, "DEFAULT_BATCH_SIZE", rows)
    mp.setattr(gb.risk, "_draw_base", lambda network, shock, config, seed, idx, floor:
               assets[list(idx)])
    mp.setattr(gb.risk, "common_factors", lambda seed, idx: np.zeros(len(idx)))
    calls = simulate_calls(mp)
    table = gb.simulate_records(network, gb.ShockParams(), gb.BailoutAllocation(),
                                gb.LossConfig(), rows, 0)
    # each pass clears every block once, in row order, each block's rows as drawn
    block = _block_rows(network.n_banks)
    blocks = -(-rows // block)
    passes, extra = divmod(len(calls), blocks)
    assert extra == 0
    for p in range(passes):
        drawn = [a for a, _ in calls[p * blocks:(p + 1) * blocks]]
        assert [len(a) for a in drawn] == [min(block, rows - r0) for r0 in range(0, rows, block)]
        assert np.array_equal(np.concatenate(drawn), assets)
    last = [batch for _, batch in calls[-blocks:]]
    got = {field: np.concatenate([getattr(batch, field) for batch in last])
           for field in ("payments", "defaulted", "external_paid")}
    # every block of the last pass stopped at the chunk's sweep; a sweep's
    # residual is the largest of the blocks'
    iterations = {batch.iterations for batch in last}
    assert len(iterations) == 1
    got["iterations"] = iterations.pop()
    got["residuals"] = tuple(
        float(r) for r in np.max([batch.residuals for batch in last], axis=0))
    assert_tables_equal(table, gb.ScenarioTable.from_clearing(
        network, clear_tiered_batch(network, assets)))
    return got, passes


def assert_matches_reference(network, assets):
    """The whole batch at once and `simulate` block by block equal the
    full-width loop from the greatest start, at `clearing.DEFAULT_TOLERANCE`,
    in every field; returns the passes `simulate` ran."""
    ref = full_width_reference(network, assets, tolerance=clearing.DEFAULT_TOLERANCE)
    whole = clear_tiered_batch(network, assets)
    with pytest.MonkeyPatch.context() as mp:
        got, passes = blockwise(mp, network, assets)
    for field, expected in ref.items():
        assert np.array_equal(getattr(whole, field), expected), field
        assert np.array_equal(got[field], expected), field
    return passes


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
        assert_matches_reference(net, assets)


def test_blocked_sweep_bitwise_on_calibrated_partial_block():
    net = gb.build_network()
    params = gb.ShockParams()
    losses = gb.shocks.sample_loss_matrix(params, net.n_banks, 19770525, range(37))
    assets = (1.0 - losses) * net.external_assets_vector()[None, :]
    assert 37 % _block_rows(net.n_banks) != 0
    assert_matches_reference(net, assets)


def graded_draw():
    """A random tiered network and six asset rows, from deep default to solvent.

    Alone, the rows stop after 44, 37, 10, 7, 0 and 5 sweeps.
    """
    rng = np.random.default_rng(30)
    net, _ = random_tiered(rng)
    scale = np.array([0.2, 0.5, 1.0, 1.0, 2.0, 4.0])[:, None]
    return net, rng.uniform(0.0, 2.0, size=(6, net.n_banks)) * scale


def one_block_of(monkeypatch, net, rows):
    monkeypatch.setattr(clearing, "L2_CACHE_BYTES", rows * 3 * 8 * net.n_banks)
    assert _block_rows(net.n_banks) == rows


# the ids of this test and the next two name the start they sweep from, the greatest
@pytest.mark.parametrize("rows,block", [([5, 0], 1), ([4, 5, 2, 3, 0], 2)],
                         ids=["top-up-greatest", "ragged-greatest"])
def test_blocked_sweep_bitwise_when_early_blocks_stop_first(monkeypatch, rows, block):
    net, assets = graded_draw()
    one_block_of(monkeypatch, net, block)
    batch = assets[rows]
    # the first block settles alone before the batch does, and the sweeps up
    # to the batch's stop still move its bits: the pass must run again from
    # the stop the last block (ragged in the second case) set
    alone = full_width_reference(net, batch[:block])
    ref = full_width_reference(net, batch)
    assert alone["iterations"] < ref["iterations"]
    assert not np.array_equal(alone["payments"], ref["payments"][:block])
    assert assert_matches_reference(net, batch) == 2


def stop_sweep(residuals, limit, first=0):
    return next(s for s in range(first, len(residuals)) if residuals[s] <= limit)


@pytest.mark.parametrize("rows,limit", [([1, 2], 0.85)], ids=["greatest-rows0-0.85"])
def test_blocked_sweep_bitwise_when_a_stopped_block_rebounds(monkeypatch, rows, limit):
    net, assets = graded_draw()
    one_block_of(monkeypatch, net, 1)
    monkeypatch.setattr(clearing, "DEFAULT_TOLERANCE", limit / _TierSystem(net).scale)
    first, second = (full_width_reference(net, assets[r:r + 1], tolerance=1e-14)["residuals"]
                     for r in rows)
    # the first row is within the limit before the second row is, and above
    # it again at the sweep where the second row first is: in the second
    # pass the first block stops past that sweep, and the second block follows
    a = stop_sweep(first, limit)
    b = stop_sweep(second, limit, a)
    assert a < b and first[b] > limit
    assert assert_matches_reference(net, assets[rows]) == 2


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), block=st.sampled_from([1, 2, 3]),
       rows=st.integers(1, 10))
def test_blocked_sweep_bitwise_in_any_row_order(seed, block, rows):
    rng = np.random.default_rng(seed)
    net, _ = random_tiered(rng)
    # rows from deep default to solvent in random order, so blocks stop at
    # different sweeps and later blocks often raise the stop
    scale = rng.choice([0.2, 0.5, 1.0, 4.0], size=(rows, 1))
    assets = rng.uniform(0.0, 2.0, size=(rows, net.n_banks)) * scale
    with pytest.MonkeyPatch.context() as mp:
        one_block_of(mp, net, block)
        assert_matches_reference(net, assets)


@pytest.mark.parametrize("solvent,deep", [(4, 0)], ids=["greatest"])
def test_worst_block_first_clears_no_block_again(monkeypatch, solvent, deep):
    net, assets = graded_draw()
    one_block_of(monkeypatch, net, 1)
    # alone, the solvent row stops after 0 sweeps, the deep one after 44: the
    # solvent block first, the deep one raises the stop and the pass runs
    # again; the deep one first, one pass clears both
    assert assert_matches_reference(net, assets[[solvent, deep]]) == 2
    assert assert_matches_reference(net, assets[[deep, solvent]]) == 1


def test_min_iterations_delays_the_stop():
    net, assets = graded_draw()
    row = assets[4:5]  # solvent: stops after 0 sweeps alone
    later = clear_tiered_batch(net, row, min_iterations=3)
    assert clear_tiered_batch(net, row).iterations == 0 and later.iterations == 3
    assert len(later.residuals) == 3


def test_several_central_banks_pay_outside_within_tolerance(monkeypatch):
    # the outside payment sums the central banks' own terms: with two central
    # banks it may differ in the last bits from a dot over the whole row, and
    # it agrees with the dense solver within the clearing tolerance
    profiles = (
        gb.LiabilityProfile(0.4, 0.3, 0.2, 6.0),
        gb.LiabilityProfile(1.0, 0.4, 0.6, 0.0),
        gb.LiabilityProfile(0.2, 0.5, 0.1, 0.0),
    )
    rng = np.random.default_rng(11)
    net = tiered((2, 3, 4), profiles)
    assert net.counts[gb.Tier.CENTRAL] == 2
    assets = rng.uniform(0.0, 4.0, size=(5, net.n_banks))
    monkeypatch.setattr(clearing, "DEFAULT_TOLERANCE", 1e-13)
    batch = clear_tiered_batch(net, assets)
    dot = batch.payments @ np.repeat(_TierSystem(net).ext_share_tier, net.counts)
    assert np.allclose(batch.external_paid, dot, rtol=4 * np.finfo(float).eps, atol=0)
    for row in range(5):
        ref = clearing_dense(expand_network(net, assets[row]), tolerance=1e-13)
        assert batch.external_paid[row] == pytest.approx(ref.external_paid, rel=1e-10)
        assert np.array_equal(batch.defaulted[row], ref.defaulted)


def simulate_calls(monkeypatch):
    """Record every `clear_tiered_batch` call `simulate` makes: its assets and result."""
    return record_calls(monkeypatch, gb.risk, "clear_tiered_batch",
                        lambda call: (call.arguments["scenario_assets"].copy(), call.result))


@pytest.mark.parametrize("order", ["worst-first", "best-first"])
def test_simulate_sweep_bitwise_equals_full_width(monkeypatch, order):
    # `simulate` draws each block just before it clears it: whatever the
    # block order, each row's last call holds the full-width loop's payments,
    # flags, outside payment, iterations and residuals on the chunk's drawn
    # matrix, and the table keeps its bits.  Each pass makes one call per
    # block: worst first, every chunk clears in one pass; best first, the
    # first pass raises its stop block by block, so every chunk runs a second
    net = gb.build_network(ACCEPTANCE.calibration)
    shock, config = ACCEPTANCE.shock, gb.LossConfig(deposit_insurance=True)
    bailout = gb.BailoutAllocation(per_massive=1.0, per_big=0.05)
    rows, chunk, seed = 60, 40, 19770525
    monkeypatch.setattr(gb.risk, "DEFAULT_BATCH_SIZE", chunk)
    expected = gb.simulate_records(net, shock, bailout, config, rows, seed, 1)
    if order == "best-first":
        real = gb.risk.common_factors
        monkeypatch.setattr(gb.risk, "common_factors", lambda seed, idx: -real(seed, idx))
    calls = simulate_calls(monkeypatch)
    table = gb.simulate_records(net, shock, bailout, config, rows, seed, 1)
    assert_tables_equal(table, expected)
    injections = gb.risk._injection_vector(net, bailout)[None, :]
    blocks = 0
    for lo in range(0, rows, chunk):
        assets = gb.risk._draw_base(net, shock, config, seed, range(lo, min(lo + chunk, rows)),
                                    gb.risk._loss_floor(net, shock, config, bailout))
        assets += injections
        ref = full_width_reference(net, assets)
        final = {}  # per row, its last call
        for drawn, batch in calls:
            at = [np.flatnonzero((assets == row).all(axis=1)) for row in drawn]
            if all(len(a) == 1 for a in at):
                final.update({int(a[0]): (batch, i) for i, a in enumerate(at)})
        assert sorted(final) == list(range(len(assets)))
        blocks += -(-len(assets) // _block_rows(net.n_banks))
        for r, (batch, i) in final.items():
            for field in ("payments", "defaulted", "external_paid"):
                assert np.array_equal(getattr(batch, field)[i], ref[field][r]), field
            assert batch.iterations == ref["iterations"]
            assert np.all(np.array(batch.residuals) <= ref["residuals"])
        assert ref["residuals"] == tuple(float(r) for r in np.max(
            [batch.residuals for batch, _ in final.values()], axis=0))
    assert len(calls) == blocks * (1 if order == "worst-first" else 2)


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
    digests = [run_python(CLEAR_DIGESTS, env=env | extra).stdout
               for extra in ({}, {"OPENBLAS_NUM_THREADS": "1"})]
    assert len(digests[0].split()) == 3
    assert digests[0] == digests[1]


# --- fictitious-default solve on sorted tiers --------------------------------

def tier_totals(network, per_bank):
    """Per-tier sums of a (rows, n_banks) array, as (rows, 3)."""
    return np.stack([per_bank[..., network.tier_slice(t)].sum(axis=-1) for t in gb.Tier],
                    axis=-1)


def tier_obligations(network):
    return np.array(network.counts) * _TierSystem(network).p_bar_tier


def sort_tiers(network, assets):
    return SortedTiers.from_assets(network, np.array(assets, dtype=float))


def kept(tiers, row, tier):
    """The sorted assets `tiers` keeps for one row and tier."""
    start = tiers.starts[row, tier]
    return tiers.values[start:start + tiers.lengths[row, tier]]


def row_range(tiers, lo, hi):
    """Rows lo to hi - 1 of `tiers`: a slice of its values and its lengths."""
    first, last = tiers.lengths[:lo].sum(), tiers.lengths[:hi].sum()
    return SortedTiers(tiers.values[first:last], tiers.lengths[lo:hi])


def cut_in_blocks(net, assets, block):
    """`defaulting_prefixes` of each `block` rows of `assets`, joined."""
    return SortedTiers.concat((defaulting_prefixes(net, np.array(assets[r:r + block]))
                               for r in range(0, len(assets), block)))


def test_sorted_tiers_layout_and_bytes():
    rng = np.random.default_rng(3)
    net, _ = random_tiered(rng)
    assets = rng.uniform(0.0, 2.0, size=(4, net.n_banks))
    work = assets.copy()
    tiers = SortedTiers.from_assets(net, work)
    assert np.shares_memory(tiers.values, work)  # sorted in place
    assert (tiers.lengths == net.counts).all()
    for r in range(4):
        for t in gb.Tier:
            assert tiers.starts[r, t] == r * net.n_banks + net.tier_slice(t).start
            assert np.array_equal(kept(tiers, r, t), np.sort(assets[r, net.tier_slice(t)]))
    lo = rng.integers(0, 3, size=(4, 3)) * np.array(net.counts) // 3
    hi = np.minimum(lo + rng.integers(0, 4, size=(4, 3)), net.counts)
    between = tiers.sums_between(lo, hi)
    bound = rng.uniform(0.0, 2.0, size=(4, 3))
    below = tiers.count_below(bound)
    for r in range(4):
        for t in gb.Tier:
            assert between[r, t] == kept(tiers, r, t)[lo[r, t]:hi[r, t]].sum()
            assert below[r, t] == (kept(tiers, r, t) < bound[r, t]).sum()
    assert (between[hi == lo] == 0.0).all()
    assert tiers.rows == 4
    assert tiers.nbytes == work.nbytes + tiers.starts.nbytes + tiers.lengths.nbytes


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
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(clearing, "DEFAULT_TOLERANCE", 1e-13)
        picard = clear_tiered_batch(net, per_bank)
    assert (np.abs(out.sums - tier_totals(net, picard.payments)) <= bound).all()
    scale = _TierSystem(net).p_bar_tier.max()
    for r in range(rows):
        ref = clearing_dense(expand_network(net, per_bank[r]), tolerance=1e-13)
        assert (np.abs(out.sums[r] - tier_totals(net, ref.payments)) <= bound).all()
        # a bank whose shortfall is within rounding of flag_tol may go either way
        near = 1e-9 * scale
        flag = clearing.DEFAULT_FLAG_TOL
        surely = tier_totals(net, ref.shortfall > flag + near)
        maybe = tier_totals(net, ref.shortfall > flag - near)
        assert (surely <= out.defaults[r]).all() and (out.defaults[r] <= maybe).all()


def assert_results_equal(a, b):
    for field in ("sums", "defaults", "rounds", "defaulting", "external_paid"):
        assert np.array_equal(getattr(a, field), getattr(b, field)), field


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 4), block=st.integers(1, 3),
       shift=st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.5)), min_size=3, max_size=3),
       inf_share=st.sampled_from([0.0, 0.3, 0.9]))
def test_kept_prefixes_give_the_bits_of_the_full_sort(seed, rows, block, shift, inf_share):
    rng = np.random.default_rng(seed)
    net, _ = random_tiered(rng)
    assets = rng.uniform(0.0, 2.0, size=(rows, net.n_banks))
    # banks the shock sampler skipped hold +inf; in the first row one tier
    # has no finite asset and another only finite ones
    assets[rng.uniform(size=assets.shape) < inf_share] = np.inf
    none, whole = rng.permutation(len(gb.Tier))[:2]
    assets[0, net.tier_slice(none)] = np.inf
    assets[0, net.tier_slice(whole)] = rng.uniform(0.0, 2.0, size=net.counts[whole])
    full = sort_tiers(net, assets)
    prefixes = cut_in_blocks(net, assets, block)
    k0 = clear_tier_sums(net, full, [0.0, 0.0, 0.0]).defaulting
    assert np.array_equal(prefixes.lengths, np.minimum(k0 + 1, net.counts))
    # a bank holding +inf never defaults: a tier of them keeps one
    assert prefixes.lengths[0, none] == 1
    for r in range(rows):
        for t in gb.Tier:
            assert np.array_equal(kept(prefixes, r, t),
                                  kept(full, r, t)[:prefixes.lengths[r, t]])
    out = clear_tier_sums(net, full, shift)
    assert_results_equal(clear_tier_sums(net, prefixes, shift), out)
    # each row clears alone to the bits it has in the batch
    for r in range(rows):
        alone = clear_tier_sums(net, row_range(full, r, r + 1), shift)
        for field in ("sums", "defaults", "defaulting"):
            assert np.array_equal(getattr(alone, field)[0], getattr(out, field)[r]), field


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
    net = solvent_net()
    out = clear_tier_sums(net, sort_tiers(net, np.full((2, net.n_banks), 5.0)), [0, 0, 0])
    assert out.rounds == 0
    assert np.array_equal(out.sums, np.tile(tier_obligations(net), (2, 1)))
    assert not out.defaults.any()


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

    def off(a, b):
        # only rows that gained a default are solved: here row 1 alone
        assert a.shape[0] == 1
        return real_solve(a, b) + 1e-3

    monkeypatch.setattr(np.linalg, "solve", off)
    with pytest.raises(RuntimeError, match=r"residual .* in scenario row 1 exceeds tolerance"):
        clear_tier_sums(net, sort_tiers(net, assets), [0, 0, 0])


def test_tier_sums_zero_threshold_tie_pays_in_full():
    # a massive tier that owes only itself: with no assets its members'
    # threshold is exactly zero, which rounds to 1.4e-17; each still receives
    # what it owes, so the greatest clearing vector is full payment
    net = tiered((1, 7, 2), SELF_OWING)
    assets = np.full((2, net.n_banks), 5.0)
    assets[1, net.tier_slice(gb.Tier.MASSIVE)] = 0.0
    out = clear_tier_sums(net, sort_tiers(net, assets), [0, 0, 0])
    picard = clear_tiered_batch(net, assets)
    assert not picard.defaulted.any()
    assert np.allclose(out.sums, tier_totals(net, picard.payments), rtol=1e-15, atol=0)
    assert np.array_equal(out.sums, np.tile(tier_obligations(net), (2, 1)))
    assert not out.defaults.any() and out.rounds == 0


# a planted bank's offset below its exact threshold, in ulps of pbar_d (1 + c_d);
# -1 is one ulp above it
tie_offsets = st.one_of(st.integers(0, 1_000), st.just(-1))


@settings(max_examples=150, deadline=None)
@given(counts=st.tuples(st.just(1), st.integers(2, 6), st.integers(2, 8)),
       owed=st.lists(st.floats(0.0, 1.0), min_size=9, max_size=9),
       owed_external=st.floats(0.5, 30.0),
       offsets=st.lists(tie_offsets, min_size=3, max_size=3))
def test_tier_sums_tie_margin_counts_a_bank_just_below_its_threshold(counts, owed, owed_external,
                                                                     offsets):
    # exact zero-shift thresholds from the liability schedule: with every bank
    # paying in full, bank j of tier d pays in full exactly when a_j + inflow_d
    # >= pbar_d, the inflow being its face claims
    scale = ((0.0, 0.5, 0.5), (3.0, 3.0, 3.0), (1.0, 1.0, 1.0))  # no one-bank self-debt
    net = tiered(counts, tuple(
        gb.LiabilityProfile(*(scale[c][d] * owed[3 * c + d] for d in gb.Tier),
                            owed_external if c == gb.Tier.CENTRAL else 0.0)
        for c in gb.Tier))
    exact = [[Fraction(net.profiles[c].owed_to(d)) for d in gb.Tier] for c in gb.Tier]
    pbar = [sum(exact[d]) + Fraction(net.profiles[d].owed_external) for d in gb.Tier]
    # pbar_d (1 + c_d), the own-tier coefficient c_d being owed(d->d) / pbar_d / (count_d - 1)
    level = [pbar[d] + (exact[d][d] / (counts[d] - 1) if exact[d][d] else 0) for d in gb.Tier]
    far = np.repeat([float(2 * v) for v in level], counts)  # far above every threshold
    ulp = Fraction(np.finfo(float).eps)
    rows, expected = [], []
    for d, offset in zip(gb.Tier, offsets):
        # each bank of a tier owing itself is owed back what it owes
        inflow = exact[d][d] + sum(counts[c] * exact[c][d] / counts[d]
                                   for c in gb.Tier if c != d)
        threshold = pbar[d] - inflow
        planted = threshold - offset * ulp * level[d]
        # a tier whose claims cover its debt cannot default; near the band's
        # edge the threshold's own rounding decides
        if threshold <= 0 or planted < 0 or abs(offset - clearing.TIE_ULPS) <= 2:
            continue
        assert 1_000 * ulp * level[d] < clearing.DEFAULT_FLAG_TOL
        row = far.copy()
        row[net.tier_slice(d).start] = float(planted)
        rows.append(row)
        expected.append([int(t == d and offset > clearing.TIE_ULPS) for t in gb.Tier])
    assume(rows)
    out = clear_tier_sums(net, sort_tiers(net, rows), [0, 0, 0])
    # only a bank below the band defaults; its shortfall is far below the
    # flag tolerance, so the defaulting set shows it and `defaults` does not
    assert out.defaulting.tolist() == expected
    assert not out.defaults.any()


def test_tier_sums_singular_system_names_row(monkeypatch):
    # the solvent row's system is the identity (condition number 1); any
    # defaulting row's is worse, and a bound just above 1 calls it singular
    net, assets = toy_net()
    monkeypatch.setattr(clearing, "SINGULAR_COND", 1.0 + 1e-9)
    with pytest.raises(RuntimeError, match=r"singular tier system in scenario row 1 "
                                           r"\(condition number .*defaults per tier \["):
        clear_tier_sums(net, sort_tiers(net, assets), [0, 0, 0])


def test_prefix_cut_at_a_bailout_fails_at_zero_shift():
    net, assets = toy_net()
    full = sort_tiers(net, assets)
    shift = [0.0, 5.0, 5.0]
    k = clear_tier_sums(net, full, shift).defaulting
    cut = full.prefixes(np.minimum(k + 1, full.lengths))
    assert_results_equal(clear_tier_sums(net, cut, shift), clear_tier_sums(net, full, shift))
    # without the bailout row 1 defaults in both tiers, past the one asset each kept
    with pytest.raises(RuntimeError, match=r"scenario row 1, tier MASSIVE: all 1 kept assets "
                                           r"of 2 lie below the threshold.*monotonicity"):
        clear_tier_sums(net, cut, [0.0, 0.0, 0.0])


def test_tier_sums_reject_bad_inputs():
    net, assets = toy_net()
    tiers = sort_tiers(net, assets)
    for bad in ([0.0, np.nan, 0.0], [0.0, 0.0, -0.1], [np.inf, 0.0, 0.0], [0.0, 0.0]):
        with pytest.raises(ValueError, match="shift"):
            clear_tier_sums(net, tiers, bad)
    for value in (np.nan, -1.0):
        broken = np.array(assets)
        broken[1, 3] = value
        with pytest.raises(ValueError, match="non-negative and not NaN"):
            SortedTiers.from_assets(net, broken)
    with pytest.raises(ValueError, match="rows"):
        SortedTiers.from_assets(net, np.zeros((2, 4)))
    for keep in (tiers.lengths + 1, tiers.lengths - tiers.lengths.max(), tiers.lengths[:1]):
        with pytest.raises(ValueError, match="prefix lengths"):
            tiers.prefixes(keep)


# --- the solve against its step-by-step reference ----------------------------

def random_tier_network(rng):
    """A tiered network with 1-2 central, 1-10 massive and 1-40 big banks; a
    tier of one bank owes nothing to its own tier."""
    counts = (int(rng.integers(1, 3)), int(rng.integers(1, 11)), int(rng.integers(1, 41)))
    owed = rng.uniform(0.0, [[0.5, 1.0, 1.0], [3.0, 3.0, 3.0], [1.0, 1.0, 1.0]])
    for t in gb.Tier:
        if counts[t] == 1:
            owed[t, t] = 0.0
    profiles = tuple(
        gb.LiabilityProfile(*owed[t], float(rng.uniform(0.5, 30.0)) if t == gb.Tier.CENTRAL
                            else 0.0)
        for t in gb.Tier
    )
    return tiered(counts, profiles)


def random_tier_assets(rng, net, rows):
    """Uniform assets with some banks at exactly 0 and some at +inf (a bank
    the shock sampler skipped)."""
    assets = rng.uniform(0.0, 2.0, size=(rows, net.n_banks))
    kind = rng.uniform(size=assets.shape)
    assets[kind < 0.05] = 0.0
    assets[kind > 0.8] = np.inf
    return assets


tier_shifts = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.5)), min_size=3, max_size=3)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 40), block=st.integers(1, 40),
       shift=tier_shifts, cut=st.booleans())
def test_tier_sums_equal_the_reference_bit_for_bit(seed, rows, block, shift, cut):
    rng = np.random.default_rng(seed)
    net = random_tier_network(rng)
    assets = random_tier_assets(rng, net, rows)
    if cut:
        tiers = cut_in_blocks(net, assets, block)
    else:
        tiers = sort_tiers(net, assets)
    assert_results_equal(clear_tier_sums(net, tiers, shift),
                     oracles.reference_tier_sums(net, tiers, shift))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), chunk_rows=st.lists(st.integers(1, 40), min_size=1,
                                                           max_size=4),
       shift=tier_shifts)
def test_one_solve_over_joined_chunks_equals_the_chunks_solved_apart(seed, chunk_rows, shift):
    rng = np.random.default_rng(seed)
    net = random_tier_network(rng)
    chunks = [defaulting_prefixes(net, random_tier_assets(rng, net, rows))
              for rows in chunk_rows]
    apart = [clear_tier_sums(net, tiers, shift) for tiers in chunks]
    joined = clear_tier_sums(net, SortedTiers.concat(chunks), shift)
    for field in ("sums", "defaults", "defaulting", "external_paid"):
        assert np.array_equal(getattr(joined, field),
                              np.concatenate([getattr(a, field) for a in apart])), field
    assert joined.rounds == max(a.rounds for a in apart)
    # and each chunk's rows of the joined buffer solve alone to the same bits
    whole, row = SortedTiers.concat(chunks), 0
    for tiers, alone in zip(chunks, apart):
        view = row_range(whole, row, row + tiers.rows)
        assert view.nbytes == tiers.nbytes
        assert_results_equal(clear_tier_sums(net, view, shift), alone)
        row += tiers.rows



@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), with_guess=st.booleans())
def test_count_below_from_any_bracket_and_guess(seed, rows, with_guess):
    # the count clamped to [lo, hi], whatever bracket and guess it starts from
    rng = np.random.default_rng(seed)
    net = random_tier_network(rng)
    tiers = sort_tiers(net, np.round(random_tier_assets(rng, net, rows), 1))
    bound = rng.choice([0.0, 0.5, 1.0, 1.05, 2.5, np.inf], size=(rows, 3))
    ends = np.sort(rng.integers(0, np.array(net.counts) + 1, size=(3, rows, 3)), axis=0)
    lo, guess, hi = ends
    found = tiers.count_below(bound, lo, hi, guess if with_guess else None)
    for r in range(rows):
        for t in gb.Tier:
            count = (kept(tiers, r, t) < bound[r, t]).sum()
            assert found[r, t] == min(max(count, lo[r, t]), hi[r, t])


# --- the singular-system guard --------------------------------------------------

def test_condition_number_from_adjugate_matches_lapack():
    rng = np.random.default_rng(11)
    stacks = [rng.uniform(-1.0, 1.0, size=(500, 3, 3))]
    # near-singular: a third row within 10^-e of a combination of the first two
    near = rng.uniform(-1.0, 1.0, size=(500, 3, 3))
    mix = rng.uniform(-1.0, 1.0, size=(500, 2, 1))
    offset = 10.0 ** -rng.uniform(3, 10, size=(500, 1))
    near[:, 2] = (mix * near[:, :2]).sum(axis=1) + offset * rng.uniform(-1, 1, size=(500, 3))
    stacks.append(near)
    for a in stacks:
        ours, lapack = clearing._condition_1(a), np.linalg.cond(a, 1)
        # both are exact up to rounding that grows with the condition number
        # (measured at most 3.8 eps times it); the infinity-norm or 2-norm
        # condition number differs from the 1-norm one by up to 2.6x here
        eps = np.finfo(float).eps
        assert (np.abs(ours - lapack) <= 16 * eps * lapack * lapack).all()
    assert np.linalg.cond(near, 1).max() > clearing.SINGULAR_COND
    assert clearing._condition_1(np.eye(3)[None])[0] == 1.0
    singular = np.array([[[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [1.0, 0.0, 1.0]]])
    assert clearing._condition_1(singular)[0] == np.inf


def test_tier_sums_exactly_singular_system_names_row(monkeypatch):
    # a two-bank massive tier owing only itself, with no assets: its banks'
    # threshold is 0 and the tie margin keeps them solvent; a margin on the
    # other side counts both as defaulting, and the tier's equation reads
    # 0 = 0, a system whose determinant is exactly 0
    net = tiered((1, 2, 2), SELF_OWING)
    assets = np.full((2, net.n_banks), 5.0)
    assets[1, net.tier_slice(gb.Tier.MASSIVE)] = 0.0
    monkeypatch.setattr(clearing, "TIE_ULPS", -clearing.TIE_ULPS)
    with pytest.raises(RuntimeError, match=r"singular tier system in scenario row 1 "
                                           r"\(condition number inf, defaults per tier "
                                           r"\[0, 2, 0\]\)"):
        clear_tier_sums(net, sort_tiers(net, assets), [0, 0, 0])
