"""Monte Carlo verification: ToF estimation versus the CRB, and empirical
clipping statistics versus the analytical model.

Sensing trials run in the gain-normalized domain: the received stream is
the clipped transmitted frame delayed by the true time of flight (clipping
noise arises physically in it), plus white Gaussian noise of per-sample
variance N_s B / (2 R^2 E(h_s)^2).  With that normalization the Fisher
information of the simulated estimation problem equals the analytical
delay-domain value, so the RMSE/CRB ratio tends to one.

The correlation template is the unclipped, unbiased transmitted stream
with the cyclic-prefix regions zeroed: the analytical information counts
M*N samples per frame, so the estimator must not collect extra energy from
the prefixes.

Trials run in blocks.  Each trial draws from its own generator, seeded by
(seed, SNR index, trial) or (seed, trial), in the order frame, turbulence,
noise, so a report does not depend on the block size.  A block then goes
through each NumPy stage as one stacked call: half-spectrum synthesis of
the template and the delayed stream, the prefix patch, the clip, the mean
removal and the FFT correlation.  A block holds max(1, BLOCK_SAMPLES // S)
trials, S = M (N + N_cp) samples per stream, so the memory a block adds is
bounded by the sample budget, not by the trial count: 4 trials of 5744
samples on the desk scenario (about 1 MB more peak memory than one trial at
a time), 1 trial of 91776 on the reference one.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import sample_turbulence
from .clipping import compute_clipping_stats
from .config import SPEED_OF_LIGHT, OfdmConfig
from .metrics import crb_distance
from .ofdm import FrequencyGrid, generate_frame, to_time_domain
from .system import SystemModel

# verify_clipping_model compares R_wp on lags 1..VERIFY_LAGS; nominal relative
# tolerances of the w_p moments, of R_wp(0), and of the lags and the PSD
VERIFY_LAGS = 32
TOL_MOMENTS = 0.01
TOL_R0 = 0.02
TOL_PSD = 0.05
# samples per stream times trials per block, at most (one trial at least)
BLOCK_SAMPLES = 24_000


@dataclass(frozen=True)
class McCampaign:
    """A sensing Monte Carlo campaign.

    snr_sweep lists sensing-noise PSD levels in dB/Hz (lower = higher SNR).
    true_tof must lie in [0, T_g) so the echo stays within the unambiguous
    search window.
    """

    trials: int
    rng_seed: int
    true_tof: float
    snr_sweep: tuple

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.true_tof < 0:
            raise ValueError("true_tof must be non-negative")


@lru_cache(maxsize=16)
def _fft_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n.

    A zero-padded correlation may use any length >= n, but at a length with
    a large prime factor the FFT runs about ten times slower; the desk
    scenario correlates over n = 5847 = 3 * 1949 samples.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest power of two that lifts p35 to n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _blocks(trials: int, cfg: OfdmConfig):
    """Consecutive trial ranges, each as many whole streams as fit in
    BLOCK_SAMPLES (one at least)."""
    stream = cfg.n_symbols * (cfg.n_subcarriers + cfg.guard_samples)
    size = max(1, BLOCK_SAMPLES // stream)
    for start in range(0, trials, size):
        yield range(start, min(start + size, trials))


def estimate_tof(
    rx: np.ndarray,
    ref: np.ndarray,
    rate: float,
    interpolation: str = "parabolic",
    max_lag: int | None = None,
) -> float | np.ndarray:
    """Cross-correlation delay estimate over integer lags in [0, max_lag).

    The correlation is computed in the frequency domain (zero-padded, so it
    equals the direct linear correlation), and the integer-lag peak is
    refined by three-point parabolic interpolation when requested.  rx and
    ref are (..., S) stacks of streams, paired row by row; a 1-D pair gives
    a float, a stack an array of the leading shape.
    """
    rx = np.asarray(rx, dtype=float)
    ref = np.asarray(ref, dtype=float)
    if rx.shape[-1] == 0 or ref.shape[-1] == 0:
        raise ValueError("empty sample buffers")
    size = rx.shape[-1]
    if max_lag is None:
        max_lag = size
    max_lag = min(max_lag, size)
    nfft = _fft_len(size + max_lag)
    cross = np.conj(np.fft.rfft(ref, nfft))
    cross *= np.fft.rfft(rx, nfft)
    corr = np.fft.irfft(cross, nfft)[..., :max_lag]
    peak = np.argmax(corr, axis=-1)
    delta = np.zeros(peak.shape)
    if interpolation == "parabolic" and max_lag >= 3:
        mid = np.clip(peak, 1, max_lag - 2)
        near = np.take_along_axis(corr, mid[..., None] + np.arange(-1, 2), axis=-1)
        left, centre, right = np.moveaxis(near, -1, 0)
        denom = left - 2.0 * centre + right
        # only an interior peak with a concave neighbourhood is refined
        refine = (mid == peak) & (denom < 0)
        step = 0.5 * (left - right) / np.where(refine, denom, -1.0)
        delta = np.where(refine, np.clip(step, -0.5, 0.5), 0.0)
    tau = (peak + delta) / rate
    return float(tau) if tau.ndim == 0 else tau


def delayed_clipped_stream(
    grid: FrequencyGrid,
    cfg: OfdmConfig,
    bias: float,
    tof: float,
) -> np.ndarray:
    """Sample stream of the clipped transmission delayed by `tof` seconds.

    Each symbol is delayed exactly via a frequency-domain phase ramp (the
    waveform is band-limited within its symbol), then re-serialized with
    its cyclic prefix.  The leading ceil(tof * R_s) samples of every symbol
    window belong to the previous symbol's tail and are patched in, which
    reproduces the exact serial delayed stream (verified against integer
    shifts).  Requires tof < T_g.  A stacked grid gives one stream per
    frame, shape (..., S).
    """
    if not 0.0 <= tof < cfg.guard_s:
        raise ValueError("tof must lie in [0, T_g)")
    n = cfg.n_subcarriers
    freqs = np.fft.rfftfreq(n, d=1.0 / cfg.sample_rate)
    ramp = np.exp(-2j * np.pi * freqs * tof)
    delayed = FrequencyGrid(x=grid.x * ramp[:, None], p_norm=grid.p_norm)
    ts = to_time_domain(delayed, cfg, bias=0.0)
    stream = ts.pre_clip
    d_prev = int(np.ceil(tof * cfg.sample_rate - 1e-9))
    if d_prev > 0:
        windows = stream.reshape(*stream.shape[:-1], cfg.n_symbols, ts.cp_samples + n)
        cores = windows[..., ts.cp_samples:]
        windows[..., 1:, :d_prev] = cores[..., :-1, :d_prev]
    stream += bias
    return np.maximum(stream, 0.0, out=stream)


def reference_stream(grid: FrequencyGrid, cfg: OfdmConfig) -> np.ndarray:
    """Unclipped, unbiased template with cyclic-prefix regions zeroed."""
    ts = to_time_domain(grid, cfg, bias=0.0)
    ref = ts.pre_clip
    windows = ref.reshape(*ref.shape[:-1], cfg.n_symbols, ts.cp_samples + ts.n_fft)
    windows[..., : ts.cp_samples] = 0.0
    return ref


@dataclass(frozen=True)
class RmsePoint:
    snr_db: float
    trials: int
    rmse_m: float
    crb_m: float
    ratio: float
    bias_m: float


@dataclass(frozen=True)
class RmseReport:
    points: tuple

    def csv_rows(self):
        yield "snr_db,trials,rmse_m,crb_m,ratio"
        for p in self.points:
            yield f"{p.snr_db:.6g},{p.trials},{p.rmse_m:.10g},{p.crb_m:.10g},{p.ratio:.10g}"


def rmse_vs_crb(
    campaign: McCampaign,
    model: SystemModel,
    b: float,
    p_norm: np.ndarray,
) -> RmseReport:
    """Estimate the ToF over many noisy frames and compare RMSE to the CRB."""
    cfg = model.cfg
    chan = model.chan
    if campaign.true_tof >= cfg.guard_s:
        raise ValueError("true_tof must be below the guard duration")
    max_lag = cfg.guard_samples
    norm = 2.0 * chan.reflectivity**2 * chan.gain_sq_s()
    points = []
    for i_snr, snr_db in enumerate(campaign.snr_sweep):
        noise_psd = 10.0 ** (snr_db / 10.0)
        model_i = SystemModel(cfg=cfg, chan=replace(chan, noise_psd_s=noise_psd))
        info = model_i.fisher(b, p_norm)
        crb_m = crb_distance(info)
        sigma_v = np.sqrt(noise_psd * cfg.bandwidth_hz / norm)
        errors = np.empty(campaign.trials)
        for trials in _blocks(campaign.trials, cfg):
            rngs = [np.random.default_rng([campaign.rng_seed, i_snr, t]) for t in trials]
            grid = generate_frame(cfg, p_norm, rng_seed=rngs, bias=b)
            clean = delayed_clipped_stream(grid, cfg, b, campaign.true_tof)
            if chan.sigma_t2_s > 0:
                clean *= np.stack(
                    [sample_turbulence(chan.sigma_t2_s, rng, 1) for rng in rngs]
                )
            rx = np.empty_like(clean)
            for row, rng in zip(rx, rngs):
                rng.standard_normal(out=row)
            rx *= sigma_v
            rx += clean
            rx -= rx.mean(axis=-1, keepdims=True)
            tau_hat = estimate_tof(
                rx, reference_stream(grid, cfg), cfg.sample_rate, max_lag=max_lag
            )
            errors[trials.start : trials.stop] = 0.5 * SPEED_OF_LIGHT * (
                tau_hat - campaign.true_tof
            )
        rmse = float(np.sqrt(np.mean(errors**2)))
        points.append(
            RmsePoint(
                snr_db=snr_db,
                trials=campaign.trials,
                rmse_m=rmse,
                crb_m=crb_m,
                ratio=rmse / crb_m if crb_m > 0 else float("inf"),
                bias_m=float(np.mean(errors)),
            )
        )
    return RmseReport(points=tuple(points))


@dataclass(frozen=True)
class VerifyRow:
    quantity: str
    analytic: float
    empirical: float
    error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tolerance


@dataclass(frozen=True)
class ClippingVerifyReport:
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.rows)

    def csv_rows(self):
        yield "quantity,analytic,empirical,error,tolerance,passed"
        for r in self.rows:
            yield (
                f"{r.quantity},{r.analytic:.10g},{r.empirical:.10g},"
                f"{r.error:.6g},{r.tolerance:.6g},{int(r.passed)}"
            )


def verify_clipping_model(
    cfg: OfdmConfig,
    b: float,
    p_norm: np.ndarray,
    trials: int,
    seed: int = 0,
) -> ClippingVerifyReport:
    """Compare empirical clipping statistics over `trials` frames with the
    analytical model.

    Relative errors are floored: quantities below 1e-4 of the natural
    sigma_x scale are compared absolutely at that floor (vanishing-clipping
    regime).  Each tolerance is additionally guarded at four standard
    errors of its own Monte Carlo estimate (frames are independent, so SEs
    come from across-frame t-statistics); in deep-tail bias regimes the
    moments are rare-event averages whose sampling noise at feasible sample
    counts exceeds the nominal tolerance, and a tighter gate would only
    test the noise.  The PSD error is the worst bin deviation scaled by the
    mean analytic level over the nonzero bins.
    """
    if trials < 2:
        raise ValueError("verification needs at least 2 frames")
    stats = compute_clipping_stats(b, p_norm, cfg)
    k_gain = stats.bussgang
    n = cfg.n_subcarriers
    # per-frame sums of x.x, x.xp, wp.wp, wp.x and wp
    sum_xx, sum_xxp, sum_wp2, sum_wx, sum_wp = np.empty((5, trials))
    psd_sum = np.zeros(n // 2 + 1)
    psd_sumsq = np.zeros(n // 2 + 1)
    for block in _blocks(trials, cfg):
        rngs = [np.random.default_rng([seed, t]) for t in block]
        grid = generate_frame(cfg, p_norm, rng_seed=rngs, bias=b)
        x = to_time_domain(grid, cfg, bias=b).symbol_cores()
        xp = np.maximum(x + b, 0.0)
        wp = xp - b - k_gain * x
        spec = np.fft.rfft(wp, axis=-1)
        for row in np.mean(spec.real**2 + spec.imag**2, axis=-2) / n:
            psd_sum += row
            psd_sumsq += row**2
        x, xp, wp = (a.reshape(len(block), -1) for a in (x, xp, wp))
        frames = slice(block.start, block.stop)
        sum_xx[frames] = np.sum(x * x, axis=-1)
        sum_xxp[frames] = np.sum(x * xp, axis=-1)
        sum_wp2[frames] = np.sum(wp * wp, axis=-1)
        sum_wx[frames] = np.sum(wp * x, axis=-1)
        sum_wp[frames] = np.sum(wp, axis=-1)
    samples = cfg.n_symbols * n

    def t_stat(values):
        return float(values.mean()), float(values.std(ddof=1) / np.sqrt(trials))

    emp_k, se_k = t_stat(sum_xxp / sum_xx)
    emp_mean, se_mean = t_stat(sum_wp / samples)
    emp_power, se_power = t_stat(sum_wp2 / samples)
    # pooled correlation: per-frame ratios carry an O(1/samples-per-frame)
    # normalization bias amplified by sigma_x / sigma_wp
    pooled_denom = np.sqrt(float(np.sum(sum_xx)) * max(float(np.sum(sum_wp2)), 1e-300))
    emp_rho = float(np.sum(sum_wx) / pooled_denom)
    se_rho = float(np.std(sum_wx, ddof=1) * np.sqrt(trials) / pooled_denom)
    # bins 0..N/2 of the mean periodogram (the rest mirror them), and the
    # mean circular autocorrelation as its inverse transform
    psd_emp = psd_sum / trials
    psd_se = np.sqrt(np.maximum(psd_sumsq / trials - psd_emp**2, 0.0) / trials)
    r_emp = np.fft.irfft(psd_emp, n)

    sigma_x = np.sqrt(stats.sigma_x2)
    floor_amp = 1e-4 * sigma_x
    floor_pow = 1e-4 * stats.sigma_x2

    def rel(emp, ana, floor):
        return abs(emp - ana) / max(abs(ana), floor)

    def guarded(tol, se, ana, floor):
        return max(tol, 4.0 * se / max(abs(ana), floor))

    rows = [
        VerifyRow("bussgang_gain", k_gain, emp_k, rel(emp_k, k_gain, 1e-12),
                  guarded(TOL_MOMENTS, se_k, k_gain, 1e-12)),
        VerifyRow("mean_wp", stats.mean_wp, emp_mean,
                  rel(emp_mean, stats.mean_wp, floor_amp),
                  guarded(TOL_MOMENTS, se_mean, stats.mean_wp, floor_amp)),
        VerifyRow("power_wp", stats.power_wp, emp_power,
                  rel(emp_power, stats.power_wp, floor_pow),
                  guarded(TOL_MOMENTS, se_power, stats.power_wp, floor_pow)),
        VerifyRow("r_wp_lag0", stats.r_wp[0], r_emp[0],
                  rel(r_emp[0], stats.r_wp[0], floor_pow),
                  guarded(TOL_R0, se_power, stats.r_wp[0], floor_pow)),
    ]
    lag_floor = 0.25 * stats.power_wp + floor_pow
    for lag in range(1, VERIFY_LAGS + 1):
        rows.append(
            VerifyRow(
                f"r_wp_lag{lag}", stats.r_wp[lag], r_emp[lag],
                rel(r_emp[lag], stats.r_wp[lag], lag_floor),
                guarded(TOL_PSD, se_power, stats.r_wp[lag], lag_floor),
            )
        )
    psd_scale = max(float(np.mean(stats.p_wp[1:])), n * floor_pow * 1e-2)
    worst = int(np.argmax(np.abs(psd_emp[1:] - stats.p_wp[1 : n // 2 + 1]))) + 1
    psd_err = abs(psd_emp[worst] - stats.p_wp[worst]) / psd_scale
    psd_tol = max(TOL_PSD, 4.0 * float(np.max(psd_se[1:])) / psd_scale)
    rows.append(VerifyRow("psd_scaled_max", stats.p_wp[worst], psd_emp[worst],
                          psd_err, psd_tol))
    rows.append(VerifyRow("corr_wp_x", 0.0, emp_rho, abs(emp_rho),
                          max(3.0 * se_rho, 1e-9)))
    return ClippingVerifyReport(rows=tuple(rows))
