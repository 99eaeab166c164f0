"""Monte Carlo verification: ToF estimation versus the CRB, and empirical
clipping statistics versus the analytical model.

Sensing trials run in the gain-normalized domain: the received stream is
the clipped transmitted frame delayed by the true time of flight (clipping
noise arises physically in it), plus white Gaussian noise of per-sample
variance N_s B / (2 R^2 E(h_s)^2).  With that normalization the Fisher
information of the simulated estimation problem equals the analytical
delay-domain value, so the RMSE/CRB ratio tends to one.

The correlation template is the unclipped, unbiased transmitted frame
without its cyclic prefixes, the M symbol cores of N samples: the
analytical information counts M*N samples per frame, so the estimator must
not collect extra energy from the prefixes.  At the lags of the search
window, [0, N_cp), the core of symbol m meets only its own window of the
received stream: N + N_cp samples from the start of that core to the end
of the next symbol's prefix, or of a zero tail after the last symbol.  The
windows are disjoint, so the stream correlation is a sum over symbols of
short correlations: one FFT of length _fft_len(N + N_cp) per symbol, the
products summed in the frequency domain, one inverse FFT per stream (block
FFT correlation; Oppenheim & Schafer, Discrete-Time Signal Processing,
section 8.7).

Trials run in blocks.  Each trial draws from its own generator, in the
order frame, turbulence, noise, so a report does not depend on the block
size; verification frame t is seeded by (seed, t).  Each NumPy stage runs
once per block, stacked.  A block holds max(1, BLOCK_SAMPLES // S) trials
of S samples: S = M N in the clipping check, which reads cores only, and
S = M (N + N_cp) in the ToF loop (4 trials on desk, 1 on reference).
There one synthesis of the stacked grid [X, X ramp] gives the template
cores and the echo, which goes with its prefixes straight into a
zero-tailed stream buffer allocated once per campaign.  The peak search
runs once per group of whole blocks whose (point, trial, lag) array fits
in BLOCK_SAMPLES: 76 trials on desk and 19 on reference at three SNR
points.  So memory grows with the trial count only by the per-trial
results.

The SNR points of a ToF campaign share their trials (common random
numbers).  Trial t draws one frame, one fade and one unit-variance noise
stream from the generator seeded by (seed, 0, t), for every point.  The
clean stream (delayed, clipped, faded) and the noise stream each have
their own mean removed and are correlated against the template once;
correlation and mean removal are linear, so point i's correlation is
c_clean + sigma_v[i] c_noise, and the peak search runs stacked over
(point, trial).  Each point keeps the distribution it would have with
draws of its own, and its result does not depend on the other levels in
the sweep, but the points are dependent: their errors come from the same
frames and noise, so differences between points vary less than between
independent runs.
"""

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import sample_turbulence
from .clipping import compute_clipping_stats
from .config import SPEED_OF_LIGHT, OfdmConfig
from .metrics import crb_distance
from .ofdm import FrequencyGrid, TimeSignal, generate_frame, to_time_domain
from .system import SystemModel

# verify_clipping_model compares R_wp on lags 1..VERIFY_LAGS; nominal relative
# tolerances of the w_p moments, of R_wp(0), and of the lags and the PSD
VERIFY_LAGS = 32
TOL_MOMENTS = 0.01
TOL_R0 = 0.02
TOL_PSD = 0.05
# samples per trial times trials per block, at most (one trial at least)
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
    a large prime factor the FFT runs several times slower; the symbol
    windows of the desk scenario hold n = 359 samples, a prime, and pad to
    360; those of the reference scenario hold 1434 = 2 * 3 * 239 and pad to
    1440.
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


def _chunks(items: range, size: int):
    """Consecutive sub-ranges of `items`, `size` long (the last may be less)."""
    return (items[i : i + size] for i in range(0, len(items), size))


def _correlate_symbols(windows: np.ndarray, cores: np.ndarray, max_lag: int) -> np.ndarray:
    """Sum over symbols m of the linear cross-correlations
    sum_j cores[..., m, j] windows[..., m, j + lag] on lags [0, max_lag),
    shape (..., max_lag) of the leading axes of windows; those of cores
    broadcast against them, so one template spectrum serves a stack of
    streams.  Each window must hold N + max_lag - 1 samples at least, N
    the core length, so that no lag wraps around."""
    nfft = _fft_len(windows.shape[-1])
    # the product overwrites the spectrum of the windows: one stack-sized
    # array less
    spec = np.fft.rfft(windows, nfft)
    cross = np.multiply(np.conj(np.fft.rfft(cores, nfft)), spec, out=spec)
    return np.fft.irfft(cross.sum(axis=-2), nfft)[..., :max_lag]


def _peak_delay(corr: np.ndarray, rate: float) -> np.ndarray:
    """Delay in seconds of the peak of each correlation row of (..., L),
    refined by three-point parabolic interpolation."""
    max_lag = corr.shape[-1]
    peak = np.argmax(corr, axis=-1)
    if max_lag < 3:
        return peak / rate
    mid = np.clip(peak, 1, max_lag - 2)
    near = np.take_along_axis(corr, mid[..., None] + np.arange(-1, 2), axis=-1)
    left, centre, right = np.moveaxis(near, -1, 0)
    denom = left - 2.0 * centre + right
    # only an interior peak with a concave neighbourhood is refined
    refine = (mid == peak) & (denom < 0)
    step = 0.5 * (left - right) / np.where(refine, denom, -1.0)
    delta = np.where(refine, np.clip(step, -0.5, 0.5), 0.0)
    return (peak + delta) / rate


def delayed_clipped_stream(
    grid: FrequencyGrid,
    cfg: OfdmConfig,
    bias: float,
    tof: float,
    out: np.ndarray | None = None,
) -> tuple:
    """(cores, stream): the grid's unbiased symbol cores (..., M, N) and
    the clipped transmission delayed by `tof` seconds (..., S), written
    into `out` when given, from one synthesis of the stacked [X, X ramp].

    Each symbol is delayed exactly via a frequency-domain phase ramp (the
    waveform is band-limited within its symbol), then re-serialized with
    its cyclic prefix.  The leading ceil(tof * R_s) samples of every symbol
    window belong to the previous symbol's tail and are patched in, which
    reproduces the exact serial delayed stream (verified against integer
    shifts).  Requires tof < T_g.
    """
    if not 0.0 <= tof < cfg.guard_s:
        raise ValueError("tof must lie in [0, T_g)")
    n, cp = cfg.n_subcarriers, cfg.guard_samples
    ramp = np.exp(-2j * np.pi * np.fft.rfftfreq(n, d=1.0 / cfg.sample_rate) * tof)
    # symbol-major, so that the synthesis reads it without a transposed copy
    x = np.swapaxes(grid.x, -1, -2)
    both = np.empty((2, *x.shape), dtype=complex)
    both[0] = x
    np.multiply(x, ramp, out=both[1])
    cores, delayed = to_time_domain(FrequencyGrid(x=np.swapaxes(both, -1, -2)), cfg).cores
    stream = TimeSignal(cores=delayed, cp_samples=cp).stream(out)
    d_prev = int(np.ceil(tof * cfg.sample_rate - 1e-9))
    if d_prev > 0:
        windows = stream.reshape(*stream.shape[:-1], cfg.n_symbols, cp + n)
        windows[..., 1:, :d_prev] = delayed[..., :-1, :d_prev]
    stream += bias
    return cores, np.maximum(stream, 0.0, out=stream)


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
    """Estimate the ToF over many noisy frames and compare RMSE to the CRB.

    Every SNR point sees the same trials; see the module docstring.
    """
    cfg, chan, tof = model.cfg, model.chan, campaign.true_tof
    if tof >= cfg.guard_s:
        raise ValueError("true_tof must be below the guard duration")
    n, cp = cfg.n_subcarriers, cfg.guard_samples
    size = cfg.n_symbols * (n + cp)
    norm = 2.0 * chan.reflectivity**2 * chan.gain_sq_s()
    noise_psd = [10.0 ** (snr_db / 10.0) for snr_db in campaign.snr_sweep]
    sigma_v = np.sqrt(np.array(noise_psd) * cfg.bandwidth_hz / norm)
    errors = np.empty((len(noise_psd), campaign.trials))
    block = max(1, BLOCK_SAMPLES // size)
    # whole blocks whose (point, trial, lag) peak search fits the budget
    group = block * max(1, BLOCK_SAMPLES // (block * len(noise_psd) * cp))
    # the clean echo and the unit noise of each trial, each stream followed
    # by cp zeros; sized for the largest block
    buf = np.zeros((2, min(block, campaign.trials), size + cp))
    for members in _chunks(range(campaign.trials), group):
        first = members.start
        corr = np.empty((2, len(members), cp))
        for trials in _chunks(members, block):
            rngs = [np.random.default_rng([campaign.rng_seed, 0, t]) for t in trials]
            grid = generate_frame(cfg, p_norm, rng_seed=rngs, bias=b)
            padded = buf[:, : len(trials)]
            streams = padded[..., :size]
            cores, clean = delayed_clipped_stream(grid, cfg, b, tof, out=streams[0])
            if chan.sigma_t2_s > 0:
                clean *= np.stack([sample_turbulence(chan.sigma_t2_s, rng, 1) for rng in rngs])
            for row, rng in zip(streams[1], rngs):
                rng.standard_normal(out=row)
            streams -= streams.mean(axis=-1, keepdims=True)
            # symbol m's core and the next prefix (or the zero tail): all
            # that its core meets at lags below cp
            windows = padded[..., cp:].reshape(*padded.shape[:-1], cfg.n_symbols, n + cp)
            corr[:, trials.start - first : trials.stop - first] = _correlate_symbols(
                windows, cores, cp
            )
        c_clean, c_noise = corr
        tau_hat = _peak_delay(c_clean + sigma_v[:, None, None] * c_noise, cfg.sample_rate)
        errors[:, first : members.stop] = 0.5 * SPEED_OF_LIGHT * (tau_hat - tof)
    points = []
    for snr_db, psd, err in zip(campaign.snr_sweep, noise_psd, errors):
        model_i = SystemModel(cfg=cfg, chan=replace(chan, noise_psd_s=psd))
        crb_m = crb_distance(model_i.fisher(b, p_norm))
        rmse = float(np.sqrt(np.mean(err**2)))
        points.append(
            RmsePoint(
                snr_db=snr_db,
                trials=campaign.trials,
                rmse_m=rmse,
                crb_m=crb_m,
                ratio=rmse / crb_m if crb_m > 0 else float("inf"),
                bias_m=float(np.mean(err)),
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
    psd_sum, psd_sumsq = np.zeros((2, n // 2 + 1))
    for block in _chunks(range(trials), max(1, BLOCK_SAMPLES // (cfg.n_symbols * n))):
        rngs = [np.random.default_rng([seed, t]) for t in block]
        grid = generate_frame(cfg, p_norm, rng_seed=rngs, bias=b)
        x = to_time_domain(grid, cfg).cores
        xp = np.maximum(x + b, 0.0)
        wp = xp - b - k_gain * x
        spec = np.fft.rfft(wp, axis=-1)
        rows = np.mean(spec.real**2 + spec.imag**2, axis=-2) / n
        # frame by frame onto the running sums, in the order of a loop
        psd_sum = np.add.reduce(np.concatenate([psd_sum[None], rows]), axis=0)
        psd_sumsq = np.add.reduce(np.concatenate([psd_sumsq[None], rows**2]), axis=0)
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
