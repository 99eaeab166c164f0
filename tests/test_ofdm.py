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

from conftest import uniform_allocation


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
    assert grid.x.shape == (8, 3)
    assert_array_equal(grid.x[0], 0)
    assert_array_equal(grid.x[4], 0)
    for k in (1, 2, 3):
        assert_allclose(grid.x[8 - k], np.conj(grid.x[k]), rtol=0, atol=0)


def test_grid_table1_shape():
    cfg = OfdmConfig(n_symbols=64, n_subcarriers=1024, delta_f=0.2e6,
                     guard_s=2e-6, power_w=1.0)
    grid = generate_frame(cfg, uniform_allocation(cfg), rng_seed=7)
    assert grid.x.shape == (1024, 64)
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
    core = np.fft.ifft(grid.x, axis=0) * np.sqrt(desk_cfg.n_subcarriers)
    sigma_x = np.sqrt(desk_cfg.signal_variance(0.0))
    assert np.max(np.abs(core.imag)) < 1e-10 * sigma_x
    ts = to_time_domain(grid, desk_cfg, bias=0.0, clip=False)
    # Parseval per symbol: time power == sum |X|^2 / N
    x = ts.symbol_cores()
    lhs = np.sum(x**2, axis=1)
    rhs = np.sum(np.abs(grid.x) ** 2, axis=0)
    assert_allclose(lhs, rhs, rtol=1e-9)


def test_time_domain_variance_mc(clip_cfg):
    # sample variance of the unbiased signal ~ (P - b^2)/N at 1%
    p = uniform_allocation(clip_cfg)
    b = 0.3
    samples = []
    for t in range(40):
        grid = generate_frame(clip_cfg, p, rng_seed=[9, t], bias=b)
        samples.append(to_time_domain(grid, clip_cfg, bias=b, clip=False).symbol_cores())
    var = np.concatenate(samples).var()
    assert var == pytest.approx(clip_cfg.signal_variance(b), rel=0.01)


def test_zero_grid_bias():
    cfg = OfdmConfig(n_symbols=2, n_subcarriers=16, delta_f=1e5, guard_s=0.0, power_w=1.0)
    grid = generate_frame(cfg, np.full(7, 0.5 / 7), rng_seed=0)
    zero = type(grid)(x=np.zeros_like(grid.x), p_norm=grid.p_norm)
    ts = to_time_domain(zero, cfg, bias=0.5, clip=True)
    assert_allclose(ts.samples, 0.5, rtol=0, atol=0)
    ts0 = to_time_domain(zero, cfg, bias=0.0, clip=True)
    assert_array_equal(ts0.samples, 0.0)


def test_clip_fraction_at_zero_bias(clip_cfg):
    # Q(0) = 1/2 of the samples clip at b = 0
    p = uniform_allocation(clip_cfg)
    total = zeros = 0
    for t in range(10):
        grid = generate_frame(clip_cfg, p, rng_seed=[11, t])
        ts = to_time_domain(grid, clip_cfg, bias=0.0, clip=True)
        zeros += int(np.sum(ts.samples == 0.0))
        total += ts.samples.size
    assert total >= 1e5
    assert zeros / total == pytest.approx(0.5, abs=0.005)


def test_clipping_idempotent(desk_cfg):
    p = uniform_allocation(desk_cfg)
    grid = generate_frame(desk_cfg, p, rng_seed=3)
    ts = to_time_domain(grid, desk_cfg, bias=0.1, clip=True)
    assert_array_equal(np.maximum(ts.samples, 0.0), ts.samples)
    assert np.all(ts.samples >= 0.0)


def test_bias_out_of_range(desk_cfg):
    grid = generate_frame(desk_cfg, uniform_allocation(desk_cfg), rng_seed=0)
    with pytest.raises(ValueError):
        to_time_domain(grid, desk_cfg, bias=-0.1)
    with pytest.raises(ValueError):
        to_time_domain(grid, desk_cfg, bias=1.5)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31), bias_frac=st.floats(0.0, 0.9))
def test_grid_hermitian_and_real_property(seed, bias_frac):
    cfg = OfdmConfig(n_symbols=2, n_subcarriers=32, delta_f=1e5, guard_s=0.0, power_w=1.0)
    p = np.full(cfg.n_data_subcarriers, 0.5 / cfg.n_data_subcarriers)
    b = bias_frac * np.sqrt(cfg.power_w)
    grid = generate_frame(cfg, p, rng_seed=seed, bias=b)
    n = cfg.n_subcarriers
    assert_allclose(grid.x[1:n//2], np.conj(grid.x[:n//2:-1]), rtol=0, atol=0)
    ts = to_time_domain(grid, cfg, bias=b, clip=True)
    assert np.all(ts.samples >= 0)
    assert ts.pre_clip.shape == ts.samples.shape
