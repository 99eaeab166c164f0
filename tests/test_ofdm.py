import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from fso_isac.config import OfdmConfig
from fso_isac.ofdm import (
    generate_frame,
    to_time_domain,
    validate_p_norm,
)

from conftest import lp_step_allocation, mirrored_grid, uniform_allocation


def test_config_derived_fields():
    cfg = OfdmConfig(n_symbols=64, n_subcarriers=1024, delta_f=0.2e6,
                     guard_s=2e-6, power_w=1.0)
    assert cfg.symbol_s == pytest.approx(5e-6)
    assert cfg.total_symbol_s == pytest.approx(7e-6)
    assert cfg.bandwidth_hz == pytest.approx(204.8e6)
    assert cfg.sample_rate == pytest.approx(204.8e6)
    assert cfg.n_data_subcarriers == 511
    # exact arithmetic identities
    assert cfg.total_symbol_s == cfg.symbol_s + cfg.guard_s
    assert cfg.bandwidth_hz == cfg.n_subcarriers * cfg.delta_f


@pytest.mark.parametrize("kwargs", [
    dict(n_subcarriers=6), dict(n_subcarriers=255), dict(n_symbols=0),
    dict(delta_f=0.0), dict(guard_s=-1e-9), dict(power_w=0.0),
])
def test_config_rejects_invalid(kwargs):
    base = dict(n_symbols=4, n_subcarriers=64, delta_f=1e5, guard_s=0.0, power_w=1.0)
    base.update(kwargs)
    with pytest.raises(ValueError):
        OfdmConfig(**base)


def test_grid_structure_small():
    cfg = OfdmConfig(n_symbols=3, n_subcarriers=8, delta_f=1e5, guard_s=0.0, power_w=1.0)
    p = np.array([1/6, 1/6, 1/6])
    grid = generate_frame(cfg, p, rng_seed=0)
    assert grid.x.shape == (5, 3)
    assert (grid.n_subcarriers, grid.n_symbols) == (8, 3)
    assert_array_equal(grid.x[0], 0)
    assert_array_equal(grid.x[4], 0)
    assert np.all(grid.x[1:4] != 0)


def test_grid_table1_shape():
    cfg = OfdmConfig(n_symbols=64, n_subcarriers=1024, delta_f=0.2e6,
                     guard_s=2e-6, power_w=1.0)
    grid = generate_frame(cfg, uniform_allocation(cfg), rng_seed=7)
    assert grid.x.shape == (513, 64)
    assert cfg.sample_rate == pytest.approx(204.8e6)


def test_generate_frame_deterministic(desk_cfg):
    p = uniform_allocation(desk_cfg)
    a = generate_frame(desk_cfg, p, rng_seed=123)
    b = generate_frame(desk_cfg, p, rng_seed=123)
    assert_array_equal(a.x, b.x)
    c = generate_frame(desk_cfg, p, rng_seed=124)
    assert np.any(a.x != c.x)


def test_generate_frame_validation(desk_cfg):
    n = desk_cfg.n_data_subcarriers
    with pytest.raises(ValueError):
        generate_frame(desk_cfg, np.full(n - 1, 0.5 / (n - 1)), 0)
    bad = np.full(n, 0.5 / n)
    bad[0] = -bad[0]
    bad[1] += 2 * bad[0]
    with pytest.raises(ValueError):
        generate_frame(desk_cfg, bad, 0)
    with pytest.raises(ValueError):
        generate_frame(desk_cfg, np.full(n, 0.6 / n), 0)


def test_time_domain_real_and_parseval(desk_cfg):
    p = uniform_allocation(desk_cfg)
    grid = generate_frame(desk_cfg, p, rng_seed=5)
    n = desk_cfg.n_subcarriers
    full = mirrored_grid(grid.x, n)
    core = np.fft.ifft(full, axis=0) * np.sqrt(n)
    sigma_x = np.sqrt(desk_cfg.power_w / n)
    assert np.max(np.abs(core.imag)) < 1e-10 * sigma_x
    ts = to_time_domain(grid, desk_cfg)
    # Parseval per symbol: time power == sum over all N bins of |X|^2 / N
    x = ts.symbol_cores()
    lhs = np.sum(x**2, axis=1)
    rhs = np.sum(np.abs(full) ** 2, axis=0)
    assert_allclose(lhs, rhs, rtol=1e-9)


def test_time_domain_variance_mc(clip_cfg):
    # sample variance of the unbiased signal ~ (P - b^2)/N at 1%
    p = uniform_allocation(clip_cfg)
    b = 0.3
    samples = []
    for t in range(40):
        grid = generate_frame(clip_cfg, p, rng_seed=[9, t], bias=b)
        samples.append(to_time_domain(grid, clip_cfg).symbol_cores())
    var = np.concatenate(samples).var()
    assert var == pytest.approx((clip_cfg.power_w - b**2) / clip_cfg.n_subcarriers, rel=0.01)


def test_zero_grid_bias():
    # the stream is unbiased: a zero grid gives a zero stream
    cfg = OfdmConfig(n_symbols=2, n_subcarriers=16, delta_f=1e5, guard_s=0.0, power_w=1.0)
    grid = generate_frame(cfg, np.full(7, 0.5 / 7), rng_seed=0)
    zero = type(grid)(x=np.zeros_like(grid.x))
    assert_array_equal(to_time_domain(zero, cfg).pre_clip, 0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), bias_frac=st.floats(0.0, 0.9))
def test_grid_hermitian_and_real_property(seed, bias_frac):
    # the half-spectrum synthesis equals the complex IDFT of the mirrored
    # full grid, whose imaginary part vanishes
    cfg = OfdmConfig(n_symbols=2, n_subcarriers=32, delta_f=1e5, guard_s=0.0, power_w=1.0)
    p = np.full(cfg.n_data_subcarriers, 0.5 / cfg.n_data_subcarriers)
    b = bias_frac * np.sqrt(cfg.power_w)
    grid = generate_frame(cfg, p, rng_seed=seed, bias=b)
    n = cfg.n_subcarriers
    assert grid.x.shape == (n // 2 + 1, cfg.n_symbols)
    ts = to_time_domain(grid, cfg)
    assert ts.pre_clip.dtype == np.float64
    assert ts.pre_clip.shape == (cfg.n_symbols * (n + cfg.guard_samples),)
    full = np.fft.ifft(mirrored_grid(grid.x, n), axis=0) * np.sqrt(n)
    sigma_x = np.sqrt((cfg.power_w - b**2) / n)
    assert np.max(np.abs(full.imag)) <= 1e-15 * sigma_x * n
    assert np.max(np.abs(ts.symbol_cores() - full.real.T)) <= 1e-15 * sigma_x * n


def test_half_spectrum_matches_full_ifft(table1_cfg):
    # irfft of the half spectrum against ifft of the mirrored grid, with
    # the cyclic prefix, at N = 1024
    p = lp_step_allocation(table1_cfg.n_data_subcarriers, 0.01)
    b = 0.3
    grid = generate_frame(table1_cfg, p, rng_seed=17, bias=b)
    n, cp = table1_cfg.n_subcarriers, table1_cfg.guard_samples
    core = (np.fft.ifft(mirrored_grid(grid.x, n), axis=0) * np.sqrt(n)).real
    expected = np.concatenate([core[n - cp :], core]).T.reshape(-1)
    sigma_x = np.sqrt((table1_cfg.power_w - b**2) / n)
    ts = to_time_domain(grid, table1_cfg)
    assert np.max(np.abs(ts.pre_clip - expected)) <= 1e-15 * sigma_x * n


@pytest.mark.parametrize("k", [0, 8])
def test_nonzero_edge_bin_rejected(k):
    # irfft would drop the imaginary part of bin 0 or N/2 without a trace
    cfg = OfdmConfig(n_symbols=2, n_subcarriers=16, delta_f=1e5, guard_s=0.0, power_w=1.0)
    grid = generate_frame(cfg, np.full(7, 0.5 / 7), rng_seed=0)
    for value in (1e-3, 1e-3j):
        x = grid.x.copy()
        x[k, 1] = value
        with pytest.raises(ValueError, match="bins 0 and N/2"):
            to_time_domain(type(grid)(x=x), cfg)


def test_stacked_equals_single_frames(desk_cfg):
    # a (T, N/2+1, M) block draws and synthesizes each frame bit for bit
    # as a single-frame call with the same generator would
    p = lp_step_allocation(desk_cfg.n_data_subcarriers, 0.04)
    b, seeds = 0.2, [[3, t] for t in range(5)]
    block = generate_frame(desk_cfg, p, [np.random.default_rng(s) for s in seeds], bias=b)
    singles = [generate_frame(desk_cfg, p, rng_seed=s, bias=b) for s in seeds]
    assert block.x.shape == (5, desk_cfg.n_subcarriers // 2 + 1, desk_cfg.n_symbols)
    assert (block.n_subcarriers, block.n_symbols) == (singles[0].n_subcarriers,
                                                      singles[0].n_symbols)
    assert_array_equal(block.x, np.stack([g.x for g in singles]))
    ts = to_time_domain(block, desk_cfg)
    assert ts.n_symbols == desk_cfg.n_symbols
    for t, grid in enumerate(singles):
        single = to_time_domain(grid, desk_cfg)
        assert_array_equal(ts.pre_clip[t], single.pre_clip)
        assert_array_equal(ts.symbol_cores()[t], single.symbol_cores())
