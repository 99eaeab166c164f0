import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose

from fso_isac.allocator import solve_bias
from fso_isac.config import OfdmConfig
from fso_isac.monte_carlo import (
    McCampaign,
    delayed_clipped_stream,
    estimate_tof,
    reference_stream,
    rmse_vs_crb,
    verify_clipping_model,
)
from fso_isac.ofdm import generate_frame, to_time_domain
from fso_isac.system import SystemModel

from conftest import lp_step_allocation, reference_channel, uniform_allocation


@pytest.fixture(scope="module")
def small_cfg():
    return OfdmConfig(n_symbols=8, n_subcarriers=64, delta_f=2e5, guard_s=2e-6,
                      power_w=1.0)


def lowband_allocation(cfg, frac=0.7):
    n = cfg.n_data_subcarriers
    used = max(8, int(frac * n))
    p = np.zeros(n)
    p[:used] = 0.5 / used
    return p


class TestEstimateTof:
    def test_exact_integer_lag(self, small_cfg):
        p = uniform_allocation(small_cfg)
        grid = generate_frame(small_cfg, p, rng_seed=1, bias=0.2)
        rs = small_cfg.sample_rate
        tof = 9.0 / rs
        rx = delayed_clipped_stream(grid, small_cfg, 0.2, tof)
        tau = estimate_tof(rx - rx.mean(), reference_stream(grid, small_cfg), rs,
                           interpolation="none", max_lag=small_cfg.guard_samples)
        assert tau == tof

    def test_fractional_against_fine_grid_oracle(self, desk_cfg):
        # brute-force oracle: correlate against delayed replicas on a fine
        # sub-sample delay grid and take the arg-max
        p = lowband_allocation(desk_cfg)
        grid = generate_frame(desk_cfg, p, rng_seed=2, bias=0.15)
        rs = desk_cfg.sample_rate
        tof = (30 + 0.37) / rs
        rx = delayed_clipped_stream(grid, desk_cfg, 0.15, tof)
        rx = rx - rx.mean()
        ref = reference_stream(grid, desk_cfg)
        tau = estimate_tof(rx, ref, rs, "parabolic", max_lag=desk_cfg.guard_samples)

        fine = np.arange(29.5, 31.5, 0.01) / rs
        scores = []
        for cand in fine:
            repl = delayed_clipped_stream(grid, desk_cfg, 0.15, float(cand))
            scores.append(float(np.dot(rx, repl - repl.mean())))
        oracle = fine[int(np.argmax(scores))]
        assert abs(oracle - tof) * rs < 0.02  # oracle sanity
        assert abs(tau - oracle) * rs < 0.1
        assert abs(tau - tof) * rs < 0.1

    def test_high_noise_spread(self, small_cfg):
        # no-signal limit: estimates scatter over the whole search window
        p = uniform_allocation(small_cfg)
        rs = small_cfg.sample_rate
        grid = generate_frame(small_cfg, p, rng_seed=3, bias=0.0)
        ref = reference_stream(grid, small_cfg)
        rng = np.random.default_rng(0)
        lags = []
        for _ in range(200):
            rx = rng.standard_normal(ref.size)
            lags.append(estimate_tof(rx, ref, rs, "none",
                                     max_lag=small_cfg.guard_samples) * rs)
        lags = np.asarray(lags)
        assert lags.std() > 0.2 * small_cfg.guard_samples
        assert lags.min() < 5 and lags.max() > small_cfg.guard_samples - 5

    def test_fft_equals_direct_correlation(self):
        rng = np.random.default_rng(7)
        rx = rng.standard_normal(64)
        ref = rng.standard_normal(64)
        max_lag = 16
        direct = [float(np.dot(ref[: 64 - lag], rx[lag:])) for lag in range(max_lag)]
        best = int(np.argmax(direct))
        tau = estimate_tof(rx, ref, 1.0, "none", max_lag=max_lag)
        assert tau == best

    def test_empty_buffers(self):
        with pytest.raises(ValueError):
            estimate_tof(np.array([]), np.array([]), 1.0)


class TestDelayedStream:
    def test_integer_shift_equivalence(self, small_cfg):
        p = uniform_allocation(small_cfg)
        grid = generate_frame(small_cfg, p, rng_seed=11, bias=0.3)
        rs = small_cfg.sample_rate
        d = 7
        plain = to_time_domain(grid, small_cfg, bias=0.3, clip=True).samples
        shifted = delayed_clipped_stream(grid, small_cfg, 0.3, d / rs)
        assert_allclose(shifted[d:], plain[:-d], atol=1e-14)

    def test_tof_domain(self, small_cfg):
        grid = generate_frame(small_cfg, uniform_allocation(small_cfg), rng_seed=0)
        with pytest.raises(ValueError):
            delayed_clipped_stream(grid, small_cfg, 0.1, small_cfg.guard_s)

    def test_clipping_applied(self, small_cfg):
        grid = generate_frame(small_cfg, uniform_allocation(small_cfg), rng_seed=1)
        out = delayed_clipped_stream(grid, small_cfg, 0.05, 3.3 / small_cfg.sample_rate)
        assert np.all(out >= 0)


@pytest.fixture(scope="module")
def mc_model(desk_cfg):
    return SystemModel(cfg=desk_cfg, chan=reference_channel(cn2=0.0))


class TestRmseVsCrb:
    def test_reproducible(self, mc_model):
        p = lowband_allocation(mc_model.cfg)
        tof = 30.31 / mc_model.cfg.sample_rate
        camp = McCampaign(trials=20, rng_seed=5, true_tof=tof, snr_sweep=(-100.0,))
        r1 = rmse_vs_crb(camp, mc_model, 0.18, p)
        r2 = rmse_vs_crb(camp, mc_model, 0.18, p)
        assert r1 == r2

    def test_unbiased_at_grid_delay(self, mc_model):
        # on-sample true delay: parabolic bias vanishes by symmetry
        p = lowband_allocation(mc_model.cfg)
        b, _ = solve_bias("fisher", p, mc_model)
        tof = 30.0 / mc_model.cfg.sample_rate
        camp = McCampaign(trials=400, rng_seed=8, true_tof=tof, snr_sweep=(-100.0,))
        pt = rmse_vs_crb(camp, mc_model, b, p).points[0]
        assert abs(pt.bias_m) < 3.0 * pt.rmse_m / np.sqrt(camp.trials)

    def test_doubling_symbols_shrinks_crb_sqrt2(self, mc_model):
        cfg2 = OfdmConfig(n_symbols=32, n_subcarriers=256, delta_f=2e5,
                          guard_s=2e-6, power_w=1.0)
        model2 = SystemModel(cfg=cfg2, chan=mc_model.chan)
        p = lowband_allocation(mc_model.cfg)
        b = 0.18
        tof = 30.31 / mc_model.cfg.sample_rate
        camp = McCampaign(trials=500, rng_seed=9, true_tof=tof, snr_sweep=(-100.0,))
        pt1 = rmse_vs_crb(camp, mc_model, b, p).points[0]
        pt2 = rmse_vs_crb(camp, model2, b, p).points[0]
        assert pt2.crb_m == pytest.approx(pt1.crb_m / np.sqrt(2), rel=1e-9)
        assert pt2.rmse_m == pytest.approx(pt1.rmse_m / np.sqrt(2), rel=0.10)

    def test_sensing_lp_beats_lowband(self, mc_model):
        # sensing-optimal allocation (upper half at cap) yields strictly
        # lower RMSE than the same power squeezed onto the low bins
        from fso_isac.allocator import sensing_lp

        cfg = mc_model.cfg
        n = cfg.n_data_subcarriers
        p_low = np.zeros(n)
        p_low[:16] = 0.5 / 16
        p_lp = sensing_lp(np.ones(n), 0.5 / 63.5)
        tof = 30.31 / cfg.sample_rate
        camp = McCampaign(trials=300, rng_seed=10, true_tof=tof, snr_sweep=(-101.0,))
        low = rmse_vs_crb(camp, mc_model, 0.18, p_low).points[0]
        high = rmse_vs_crb(camp, mc_model, 0.18, p_lp).points[0]
        assert high.crb_m < low.crb_m
        assert high.rmse_m < low.rmse_m

    def test_turbulence_off_matches_awgn(self, desk_cfg):
        # sigma_t2 = 0 must follow the exact AWGN-only code path
        chan0 = reference_channel(cn2=0.0)
        assert chan0.sigma_t2_s == 0.0
        p = lowband_allocation(desk_cfg)
        tof = 30.31 / desk_cfg.sample_rate
        camp = McCampaign(trials=50, rng_seed=12, true_tof=tof, snr_sweep=(-100.0,))
        a = rmse_vs_crb(camp, SystemModel(cfg=desk_cfg, chan=chan0), 0.18, p)
        b = rmse_vs_crb(camp, SystemModel(cfg=desk_cfg, chan=chan0), 0.18, p)
        assert a == b

    def test_campaign_validation(self):
        with pytest.raises(ValueError):
            McCampaign(trials=0, rng_seed=0, true_tof=0.0, snr_sweep=(-100.0,))


class TestVerifyClippingModel:
    def test_zero_bias_bussgang(self, clip_cfg):
        report = verify_clipping_model(clip_cfg, 0.0, uniform_allocation(clip_cfg),
                                       trials=16, seed=24)
        k_row = next(r for r in report.rows if r.quantity == "bussgang_gain")
        assert k_row.analytic == 0.5
        assert k_row.empirical == pytest.approx(0.5, rel=0.005)
        assert report.passed

    def test_deep_bias_all_floors(self, clip_cfg):
        b = 3.5 * np.sqrt(clip_cfg.signal_variance(0.0))
        report = verify_clipping_model(clip_cfg, b, uniform_allocation(clip_cfg),
                                       trials=10, seed=22)
        assert report.passed

    def test_step_allocation_passes(self, clip_cfg):
        p = lp_step_allocation(clip_cfg.n_data_subcarriers, 0.02)
        report = verify_clipping_model(clip_cfg, 0.08, p, trials=30, seed=23)
        assert report.passed
        rows = {r.quantity: r for r in report.rows}
        assert rows["r_wp_lag0"].error < 0.02
        assert rows["corr_wp_x"].error <= rows["corr_wp_x"].tolerance

    def test_csv_shape(self, clip_cfg):
        report = verify_clipping_model(clip_cfg, 0.0, uniform_allocation(clip_cfg),
                                       trials=4, seed=1)
        rows = list(report.csv_rows())
        assert rows[0].startswith("quantity,")
        assert len(rows) == 1 + 4 + 32 + 2  # header + scalars + lags + psd/corr
