import gc
import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from numpy.testing import assert_allclose, assert_array_equal

from fso_isac import monte_carlo
from fso_isac.allocator import solve_bias
from fso_isac.channel import sample_turbulence
from fso_isac.clipping import compute_clipping_stats
from fso_isac.config import SPEED_OF_LIGHT, OfdmConfig
from fso_isac.monte_carlo import (
    McCampaign,
    RmseReport,
    _correlate_symbols,
    _fft_len,
    _peak_delay,
    delayed_clipped_stream,
    rmse_vs_crb,
    verify_clipping_model,
)
from fso_isac.ofdm import generate_frame, to_time_domain
from fso_isac.system import SystemModel

from conftest import (
    lp_step_allocation,
    mirrored_grid,
    reference_channel,
    uniform_allocation,
)


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


def full_grid_stream(full, cfg):
    """Unbiased stream of a full N-bin grid by complex IDFT, with prefixes."""
    n, cp = cfg.n_subcarriers, cfg.guard_samples
    core = (np.fft.ifft(full, axis=0) * np.sqrt(n)).real
    return np.concatenate([core[n - cp :], core]).T.reshape(-1)


def correlate_template(rx, grid, cfg):
    """`_correlate_symbols` of streams (..., S) against the frame's
    template on lags [0, cp), windowed as rmse_vs_crb does: each stream
    shifted by cp and followed by cp zeros, in symbols of N + cp samples."""
    cp = cfg.guard_samples
    padded = np.concatenate([rx, np.zeros((*rx.shape[:-1], cp))], axis=-1)
    windows = padded[..., cp:].reshape(*rx.shape[:-1], cfg.n_symbols, -1)
    return _correlate_symbols(windows, to_time_domain(grid, cfg).cores, cp)


def direct_correlation(rx, ref, max_lag):
    """sum_n ref[n] rx[n + lag] on lags [0, max_lag), one np.dot per lag."""
    size = rx.shape[-1]
    return np.array([np.dot(ref[: size - lag], rx[lag:]) for lag in range(max_lag)])


def oracle_rmse_errors(campaign, model, b, p):
    """Range errors of a one-trial-at-a-time loop: full mirrored grid,
    complex IDFT, per-lag dot-product correlation and peak search; draws
    frame, turbulence, noise.  Every SNR point redraws trial t from the key
    (seed, 0, t) and builds its own rx = clean + sigma_v noise, mean
    removed as a whole."""
    cfg, chan = model.cfg, model.chan
    n, cp, rs = cfg.n_subcarriers, cfg.guard_samples, cfg.sample_rate
    norm = 2.0 * chan.reflectivity**2 * chan.gain_sq_s()
    ramp = np.exp(-2j * np.pi * np.fft.fftfreq(n, d=1.0 / rs) * campaign.true_tof)
    d_prev = int(np.ceil(campaign.true_tof * rs - 1e-9))
    out = []
    for snr_db in campaign.snr_sweep:
        sigma_v = np.sqrt(10.0 ** (snr_db / 10.0) * cfg.bandwidth_hz / norm)
        errors = []
        for t in range(campaign.trials):
            rng = np.random.default_rng([campaign.rng_seed, 0, t])
            full = mirrored_grid(generate_frame(cfg, p, rng_seed=rng, bias=b).x, n)
            windows = full_grid_stream(full * ramp[:, None], cfg).reshape(cfg.n_symbols, -1)
            windows[1:, :d_prev] = windows[:-1, cp : cp + d_prev]
            clean = np.maximum(windows.reshape(-1) + b, 0.0)
            if chan.sigma_t2_s > 0:
                clean = clean * sample_turbulence(chan.sigma_t2_s, rng, 1)
            rx = clean + sigma_v * rng.standard_normal(clean.size)
            rx -= rx.mean()
            ref = full_grid_stream(full, cfg).reshape(cfg.n_symbols, -1)
            ref[:, :cp] = 0.0
            tau = float(_peak_delay(direct_correlation(rx, ref.reshape(-1), cp), rs))
            errors.append(0.5 * SPEED_OF_LIGHT * (tau - campaign.true_tof))
        out.append(np.array(errors))
    return out


def oracle_clipping_rows(cfg, b, p, trials, seed):
    """verify_clipping_model as a one-frame-at-a-time loop over full
    mirrored grids, with a complex FFT and IFFT per frame."""
    stats = compute_clipping_stats(b, p, cfg)
    k_gain, n = stats.bussgang, cfg.n_subcarriers
    k, mean, power, wx = [], [], [], []
    sum_xx = sum_wp2 = 0.0
    r_sum, psd_sum, psd_sumsq = np.zeros(n), np.zeros(n), np.zeros(n)
    for t in range(trials):
        grid = generate_frame(cfg, p, rng_seed=[seed, t], bias=b)
        stream = full_grid_stream(mirrored_grid(grid.x, n), cfg)
        x = stream.reshape(cfg.n_symbols, -1)[:, cfg.guard_samples :]
        xp = np.maximum(x + b, 0.0)
        wp = xp - b - k_gain * x
        sum_xx += float(np.sum(x * x))
        sum_wp2 += float(np.sum(wp * wp))
        k.append(np.sum(x * xp) / np.sum(x * x))
        mean.append(wp.mean())
        power.append(np.mean(wp * wp))
        wx.append(np.sum(wp * x))
        spec = np.fft.fft(wp, axis=1)
        frame_psd = np.mean((spec * np.conj(spec)).real, axis=0) / n
        psd_sum += frame_psd
        psd_sumsq += frame_psd**2
        r_sum += np.mean(np.fft.ifft(spec * np.conj(spec), axis=1).real, axis=0) / n

    def t_stat(values):
        arr = np.asarray(values)
        return float(arr.mean()), float(arr.std(ddof=1) / np.sqrt(trials))

    emp_k, se_k = t_stat(k)
    emp_mean, se_mean = t_stat(mean)
    emp_power, se_power = t_stat(power)
    pooled = np.sqrt(sum_xx * max(sum_wp2, 1e-300))
    emp_rho = float(np.sum(wx) / pooled)
    se_rho = float(np.std(wx, ddof=1) * np.sqrt(trials) / pooled)
    r_emp, psd_emp = r_sum / trials, psd_sum / trials
    psd_se = np.sqrt(np.maximum(psd_sumsq / trials - psd_emp**2, 0.0) / trials)
    floor_amp = 1e-4 * np.sqrt(stats.sigma_x2)
    floor_pow = 1e-4 * stats.sigma_x2

    def row(name, ana, emp, floor, tol, se):
        err = abs(emp - ana) / max(abs(ana), floor)
        return (name, ana, emp, err, max(tol, 4.0 * se / max(abs(ana), floor)))

    rows = [
        row("bussgang_gain", k_gain, emp_k, 1e-12, monte_carlo.TOL_MOMENTS, se_k),
        row("mean_wp", stats.mean_wp, emp_mean, floor_amp, monte_carlo.TOL_MOMENTS, se_mean),
        row("power_wp", stats.power_wp, emp_power, floor_pow, monte_carlo.TOL_MOMENTS,
            se_power),
        row("r_wp_lag0", stats.r_wp[0], r_emp[0], floor_pow, monte_carlo.TOL_R0, se_power),
    ]
    lag_floor = 0.25 * stats.power_wp + floor_pow
    for lag in range(1, monte_carlo.VERIFY_LAGS + 1):
        rows.append(row(f"r_wp_lag{lag}", stats.r_wp[lag], r_emp[lag], lag_floor,
                        monte_carlo.TOL_PSD, se_power))
    psd_scale = max(float(np.mean(stats.p_wp[1:])), n * floor_pow * 1e-2)
    worst = int(np.argmax(np.abs(psd_emp[1:] - stats.p_wp[1:]))) + 1
    rows.append(("psd_scaled_max", stats.p_wp[worst], psd_emp[worst],
                 abs(psd_emp[worst] - stats.p_wp[worst]) / psd_scale,
                 max(monte_carlo.TOL_PSD, 4.0 * float(np.max(psd_se[1:])) / psd_scale)))
    rows.append(("corr_wp_x", 0.0, emp_rho, abs(emp_rho), max(3.0 * se_rho, 1e-9)))
    return rows


class TestEstimateTof:
    """The estimator of rmse_vs_crb: `_correlate_symbols` against the
    template's symbol cores, then `_peak_delay` (argmax plus parabolic
    refinement)."""

    def test_exact_integer_lag(self, small_cfg):
        p = uniform_allocation(small_cfg)
        grid = generate_frame(small_cfg, p, rng_seed=1, bias=0.2)
        _, rx = delayed_clipped_stream(grid, small_cfg, 0.2, 9.0 / small_cfg.sample_rate)
        corr = correlate_template(rx - rx.mean(), grid, small_cfg)
        assert np.argmax(corr) == 9

    def test_fractional_against_fine_grid_oracle(self, desk_cfg):
        # brute-force oracle: correlate against delayed replicas on a fine
        # sub-sample delay grid and take the arg-max
        p = lowband_allocation(desk_cfg)
        grid = generate_frame(desk_cfg, p, rng_seed=2, bias=0.15)
        rs = desk_cfg.sample_rate
        tof = (30 + 0.37) / rs
        _, rx = delayed_clipped_stream(grid, desk_cfg, 0.15, tof)
        rx = rx - rx.mean()
        tau = _peak_delay(correlate_template(rx, grid, desk_cfg), rs)

        fine = np.arange(29.5, 31.5, 0.01) / rs
        scores = []
        for cand in fine:
            _, repl = delayed_clipped_stream(grid, desk_cfg, 0.15, float(cand))
            scores.append(float(np.dot(rx, repl - repl.mean())))
        oracle = fine[int(np.argmax(scores))]
        assert abs(oracle - tof) * rs < 0.02  # oracle sanity
        assert abs(tau - oracle) * rs < 0.1
        assert abs(tau - tof) * rs < 0.1

    def test_high_noise_spread(self, small_cfg):
        # no-signal limit: estimates scatter over the whole search window
        p = uniform_allocation(small_cfg)
        grid = generate_frame(small_cfg, p, rng_seed=3, bias=0.0)
        size = small_cfg.n_symbols * (small_cfg.n_subcarriers + small_cfg.guard_samples)
        rx = np.random.default_rng(0).standard_normal((200, size))
        lags = np.argmax(correlate_template(rx, grid, small_cfg), axis=-1)
        assert lags.std() > 0.2 * small_cfg.guard_samples
        assert lags.min() < 5 and lags.max() > small_cfg.guard_samples - 5

    def test_fft_equals_direct_correlation(self):
        # the symbol-wise correlation equals the stream correlation against
        # the template with prefixes zeroed; at every lag above 0 the last
        # core runs into the zero tail after the stream, by cp - 1 samples
        # at the top lag
        rng = np.random.default_rng(7)
        for n_symbols, n, cp in (
            (8, 64, 26),  # small_cfg
            (16, 256, 103),  # desk: windows of 359 samples pad to 360
            (64, 1024, 410),  # reference: 1434 pads to 1440
            (5, 16, 40),  # prefix longer than the core
        ):
            size = n_symbols * (n + cp)
            rx = rng.standard_normal(size)
            ref = rng.standard_normal((n_symbols, n + cp))
            ref[:, :cp] = 0.0
            direct = direct_correlation(rx, ref.reshape(-1), cp)
            windows = np.concatenate([rx, np.zeros(cp)])[cp:].reshape(n_symbols, n + cp)
            corr = _correlate_symbols(windows, ref[:, cp:], cp)
            assert_allclose(corr, direct, rtol=0, atol=1e-12 * size)
            assert np.argmax(corr) == np.argmax(direct)

    def test_fft_len_brute_force(self):
        # each 5-smooth s up to the limit with s - 1 and s + 1, where an
        # off-by-one in a power-of-two step shows, and a seeded sample of
        # the lengths between them
        limit = 2 * 10**5
        smooth = np.array(sorted(
            2**a * 3**b * 5**c
            for a in range(19) for b in range(12) for c in range(9)
            if 2**a * 3**b * 5**c <= 2 * limit
        ))
        near = smooth[smooth <= limit]
        sample = np.random.default_rng(24).integers(1, limit + 1, 4000)
        ns = np.unique(np.concatenate([near - 1, near, near + 1, sample]))[1:]
        assert ns[0] == 1 and ns.size > 5000
        expected = smooth[np.searchsorted(smooth, ns)]
        assert [_fft_len(int(n)) for n in ns] == expected.tolist()

    def test_stacked_rows_match_single(self):
        # a (2, T, M, W) stack of windows against (T, M, N) cores, as
        # rmse_vs_crb stacks the clean and noise streams of a block,
        # correlates and estimates each row bit for bit as a single call
        rng = np.random.default_rng(8)
        cores = rng.standard_normal((5, 4, 20))
        windows = rng.standard_normal((2, 5, 4, 59))
        windows[..., 9:29] += cores
        corr = _correlate_symbols(windows, cores, 40)
        assert corr.shape == (2, 5, 40)
        single = [[_correlate_symbols(w, c, 40) for w, c in zip(ws, cores)]
                  for ws in windows]
        assert_array_equal(corr, single)
        assert_array_equal(np.argmax(corr, axis=-1), np.argmax(single, axis=-1))
        assert np.all(np.argmax(corr, axis=-1) == 9)
        taus = _peak_delay(corr, 2.0)
        assert taus.shape == (2, 5)
        assert_array_equal(taus, [[_peak_delay(c, 2.0) for c in row] for row in single])


class TestDelayedStream:
    def test_integer_shift_equivalence(self, small_cfg):
        p = uniform_allocation(small_cfg)
        grid = generate_frame(small_cfg, p, rng_seed=11, bias=0.3)
        rs = small_cfg.sample_rate
        d = 7
        ts = to_time_domain(grid, small_cfg)
        plain = np.maximum(ts.stream() + 0.3, 0.0)
        cores, shifted = delayed_clipped_stream(grid, small_cfg, 0.3, d / rs)
        assert_allclose(shifted[d:], plain[:-d], atol=1e-14)
        # the template cores come out of the same synthesis, bit for bit
        assert_array_equal(cores, ts.cores)

    def test_writes_into_buffer_view(self, small_cfg):
        # as rmse_vs_crb passes it: rows of a zero-tailed buffer, stacked
        # frames; the tail stays zero and the stream equals a fresh one
        cfg, cp = small_cfg, small_cfg.guard_samples
        rngs = [np.random.default_rng([4, t]) for t in range(3)]
        grid = generate_frame(cfg, uniform_allocation(cfg), rngs, bias=0.1)
        size = cfg.n_symbols * (cfg.n_subcarriers + cp)
        buf = np.zeros((3, size + cp))
        tof = 5.4 / cfg.sample_rate
        cores, stream = delayed_clipped_stream(grid, cfg, 0.1, tof, out=buf[:, :size])
        assert np.shares_memory(stream, buf)
        fresh_cores, fresh = delayed_clipped_stream(grid, cfg, 0.1, tof)
        assert_array_equal(buf[:, :size], fresh)
        assert_array_equal(buf[:, size:], 0.0)
        assert_array_equal(cores, fresh_cores)
        assert cores.shape == (3, cfg.n_symbols, cfg.n_subcarriers)

    def test_tof_domain(self, small_cfg):
        grid = generate_frame(small_cfg, uniform_allocation(small_cfg), rng_seed=0)
        with pytest.raises(ValueError):
            delayed_clipped_stream(grid, small_cfg, 0.1, small_cfg.guard_s)

    def test_clipping_applied(self, small_cfg):
        grid = generate_frame(small_cfg, uniform_allocation(small_cfg), rng_seed=1)
        _, out = delayed_clipped_stream(grid, small_cfg, 0.05, 3.3 / small_cfg.sample_rate)
        assert np.all(out >= 0)

    def test_zero_grid_bias(self, small_cfg):
        grid = generate_frame(small_cfg, uniform_allocation(small_cfg), rng_seed=0)
        zero = type(grid)(x=np.zeros_like(grid.x))
        assert_array_equal(delayed_clipped_stream(zero, small_cfg, 0.5, 0.0)[1], 0.5)
        assert_array_equal(delayed_clipped_stream(zero, small_cfg, 0.0, 0.0)[1], 0.0)

    def test_clip_fraction_at_zero_bias(self, clip_cfg):
        # Q(0) = 1/2 of the samples clip at b = 0
        p = uniform_allocation(clip_cfg)
        total = zeros = 0
        for t in range(10):
            grid = generate_frame(clip_cfg, p, rng_seed=[11, t])
            _, out = delayed_clipped_stream(grid, clip_cfg, 0.0, 0.0)
            zeros += int(np.sum(out == 0.0))
            total += out.size
        assert total >= 1e5
        assert zeros / total == pytest.approx(0.5, abs=0.005)


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

    @pytest.mark.parametrize("cn2", [0.0, 5e-14])
    def test_blocks_match_per_trial_oracle(self, small_cfg, cn2, monkeypatch):
        # 7 trials in blocks of 3, 3 and 1 against the one-trial loop; the
        # turbulent channel also checks the frame, fade, noise draw order
        model = SystemModel(cfg=small_cfg, chan=reference_channel(cn2=cn2))
        assert (model.chan.sigma_t2_s > 0) == (cn2 > 0)
        p = lowband_allocation(small_cfg)
        cfg = small_cfg
        tof = (round(0.3 * cfg.guard_samples) + 0.31) / cfg.sample_rate
        camp = McCampaign(trials=7, rng_seed=21, true_tof=tof, snr_sweep=(-98.0, -100.0))
        stream = cfg.n_symbols * (cfg.n_subcarriers + cfg.guard_samples)
        monkeypatch.setattr(monte_carlo, "BLOCK_SAMPLES", 3 * stream)
        report = rmse_vs_crb(camp, model, 0.18, p)
        expected = []
        for pt, err in zip(report.points, oracle_rmse_errors(camp, model, 0.18, p)):
            rmse = float(np.sqrt(np.mean(err**2)))
            assert pt.rmse_m == pytest.approx(rmse, rel=1e-12)
            assert pt.bias_m == pytest.approx(float(np.mean(err)), rel=1e-12, abs=1e-12 * rmse)
            expected.append(replace(pt, rmse_m=rmse, ratio=rmse / pt.crb_m,
                                    bias_m=float(np.mean(err))))
        assert list(report.csv_rows()) == list(RmseReport(tuple(expected)).csv_rows())
        # one trial per block gives the same report, and so do peak searches
        # over groups of 3, 3 and 1 single-trial blocks
        monkeypatch.setattr(monte_carlo, "BLOCK_SAMPLES", 1)
        assert rmse_vs_crb(camp, model, 0.18, p) == report
        monkeypatch.setattr(monte_carlo, "BLOCK_SAMPLES", 3 * 2 * cfg.guard_samples)
        assert rmse_vs_crb(camp, model, 0.18, p) == report

    @pytest.mark.parametrize("cn2", [0.0, 5e-14])
    def test_point_independent_of_sweep(self, small_cfg, cn2):
        # the points share their trials, so a level reads the same alone,
        # first or last in the sweep
        model = SystemModel(cfg=small_cfg, chan=reference_channel(cn2=cn2))
        p = lowband_allocation(small_cfg)
        tof = (round(0.3 * small_cfg.guard_samples) + 0.31) / small_cfg.sample_rate
        found = []
        for sweep in ((-98.0,), (-96.0, -98.0, -100.0), (-100.0, -98.0)):
            camp = McCampaign(trials=40, rng_seed=31, true_tof=tof, snr_sweep=sweep)
            points = rmse_vs_crb(camp, model, 0.18, p).points
            found.append(points[sweep.index(-98.0)])
        assert found[0] == found[1] == found[2]

    def test_one_synthesis_per_block(self, small_cfg, monkeypatch):
        # frames are drawn and synthesized once per block of trials (7
        # trials in blocks of 3, 3 and 1), whatever the number of SNR
        # points, through the names the tracer wraps; the blocks form one
        # peak-search group
        model = SystemModel(cfg=small_cfg, chan=reference_channel(cn2=0.0))
        p = lowband_allocation(small_cfg)
        stream = small_cfg.n_symbols * (small_cfg.n_subcarriers + small_cfg.guard_samples)
        monkeypatch.setattr(monte_carlo, "BLOCK_SAMPLES", 3 * stream)
        calls = []

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapped

        for name in ("generate_frame", "to_time_domain", "_peak_delay"):
            monkeypatch.setattr(monte_carlo, name, counted(name, getattr(monte_carlo, name)))
        counts = []
        for sweep in ((-100.0,), (-96.0, -98.0, -100.0)):
            calls.clear()
            camp = McCampaign(trials=7, rng_seed=3, true_tof=0.0, snr_sweep=sweep)
            rmse_vs_crb(camp, model, 0.18, p)
            counts.append([calls.count(name) for name in
                           ("generate_frame", "to_time_domain", "_peak_delay")])
        assert counts == [[3, 3, 1], [3, 3, 1]]
        # the clipping check budgets the M N samples of the cores alone
        monkeypatch.setattr(monte_carlo, "BLOCK_SAMPLES",
                            3 * small_cfg.n_symbols * small_cfg.n_subcarriers)
        calls.clear()
        verify_clipping_model(small_cfg, 0.18, p, trials=7, seed=3)
        assert calls == ["generate_frame", "to_time_domain"] * 3

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
        b = 3.5 * np.sqrt(clip_cfg.power_w / clip_cfg.n_subcarriers)
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

    def test_blocks_match_per_frame_oracle(self, clip_cfg, monkeypatch):
        # 7 frames in blocks of 3, 3 and 1 against the one-frame loop.
        # Sums run in another order and R_wp comes from one inverse
        # transform of the summed spectra, so values move in the last
        # bits: empirical values agree to 1e-12 of the row's scale, and
        # errors and tolerances, already relative, to 1e-12
        p = lp_step_allocation(clip_cfg.n_data_subcarriers, 0.02)
        frame = clip_cfg.n_symbols * clip_cfg.n_subcarriers
        monkeypatch.setattr(monte_carlo, "BLOCK_SAMPLES", 3 * frame)
        report = verify_clipping_model(clip_cfg, 0.08, p, trials=7, seed=25)
        oracle = oracle_clipping_rows(clip_cfg, 0.08, p, trials=7, seed=25)
        assert [r.quantity for r in report.rows] == [o[0] for o in oracle]
        for r, (name, ana, emp, err, tol) in zip(report.rows, oracle):
            assert r.analytic == ana, name
            assert abs(r.empirical - emp) <= 1e-12 * max(abs(ana), abs(emp)), name
            assert r.error == pytest.approx(err, rel=1e-12, abs=1e-12), name
            assert r.tolerance == pytest.approx(tol, rel=1e-12, abs=1e-12), name
            assert r.passed == (err <= tol), name
        monkeypatch.setattr(monte_carlo, "BLOCK_SAMPLES", 1)
        assert verify_clipping_model(clip_cfg, 0.08, p, trials=7, seed=25) == report

    def test_csv_shape(self, clip_cfg):
        report = verify_clipping_model(clip_cfg, 0.0, uniform_allocation(clip_cfg),
                                       trials=4, seed=1)
        rows = list(report.csv_rows())
        assert rows[0].startswith("quantity,")
        assert len(rows) == 1 + 4 + 32 + 2  # header + scalars + lags + psd/corr


@pytest.mark.parametrize("loop", ["rmse", "clipping"])
def test_peak_memory_bounded_by_block_budget(loop, monkeypatch):
    # peak traced memory grows with the trial count only by the per-trial
    # result arrays (3 error rows, or 5 per-frame sums), one more row for
    # their reductions, and a small slack; a budget of two streams keeps
    # blocks and peak-search groups full at both counts.  Peak searches
    # over all trials at once would add about 1.6 kB per trial here.
    cfg = OfdmConfig(n_symbols=2, n_subcarriers=64, delta_f=2e5, guard_s=2e-6,
                     power_w=1.0)
    monkeypatch.setattr(monte_carlo, "BLOCK_SAMPLES",
                        2 * cfg.n_symbols * (cfg.n_subcarriers + cfg.guard_samples))
    model = SystemModel(cfg=cfg, chan=reference_channel(cn2=0.0))
    p = uniform_allocation(cfg)
    tof = 8.31 / cfg.sample_rate
    sweep = (-96.0, -98.0, -100.0)
    if loop == "rmse":
        rows = len(sweep)

        def run(trials):
            camp = McCampaign(trials=trials, rng_seed=3, true_tof=tof, snr_sweep=sweep)
            rmse_vs_crb(camp, model, 0.18, p)
    else:
        rows = 5

        def run(trials):
            verify_clipping_model(cfg, 0.18, p, trials=trials, seed=3)

    def peak(trials):
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            run(trials)
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    run(8)  # first calls fill lasting caches (FFT plans)
    low, high = 20, 140
    grown = peak(high) - peak(low)
    assert grown <= (high - low) * 8 * (rows + 1) + 32_000
