"""DCO-OFDM frame synthesis.

Draws Gaussian subcarrier symbols and converts them to real, unbiased
time-domain symbols, the cores (inverse real DFT).  A synthesis holds the
cores only; the cyclic prefix is prepended where a serialized stream is
read.  The Monte Carlo harness adds the DC bias and clips.

Frames are stored as half spectra: a grid holds bins k = 0..N/2 only, and
bins N/2+1..N-1 are implied as the conjugates of N/2-1..1, so the grid is
Hermitian by construction and `to_time_domain` is one `irfft`.  Bins 0 and
N/2 stay null.  A grid may carry leading axes, one frame per index:
`generate_frame` makes one `standard_normal` call per frame and stores
the stack symbol-major, the order in which `to_time_domain` synthesizes
it in one call; each frame comes out bit for bit as it would alone.

Power conventions: a normalized allocation p_norm over data subcarriers
k in [1, N/2) sums to 1/2; each bin of a Hermitian pair carries
E|X(k,m)|^2 = (P - b^2) * p_norm(k), which makes the time-domain variance
of the unbiased signal exactly sigma_x^2 = (P - b^2) / N.
"""

from dataclasses import dataclass

import numpy as np

from .config import OfdmConfig

P_NORM_SUM_TOL = 1e-9


def validate_p_norm(p_norm: np.ndarray, cfg: OfdmConfig) -> np.ndarray:
    """Check shape, non-negativity, and the sum-to-1/2 budget."""
    p = np.asarray(p_norm, dtype=float)
    if p.shape != (cfg.n_data_subcarriers,):
        raise ValueError(
            f"p_norm must have {cfg.n_data_subcarriers} entries, got {p.shape}"
        )
    if np.any(p < 0):
        raise ValueError("p_norm entries must be non-negative")
    total = p.sum()
    if abs(total - 0.5) > P_NORM_SUM_TOL:
        raise ValueError(f"p_norm must sum to 1/2, got {total!r}")
    return p


@dataclass(frozen=True)
class FrequencyGrid:
    """Half-spectrum frame: complex amplitudes indexed (..., k, m).

    x[..., k, m] is the symbol on subcarrier k in [0, N/2] of OFDM symbol
    m; leading axes index frames.  The mirror bins N/2+1..N-1 are the
    implied conjugates, and bins 0 and N/2 must be null.
    """

    x: np.ndarray

    @property
    def n_subcarriers(self) -> int:
        return 2 * (self.x.shape[-2] - 1)


@dataclass(frozen=True)
class TimeSignal:
    """Real, unbiased OFDM symbols at rate R_s, before any prefix: `cores`
    holds the N samples x(n) of each symbol, shape (..., M, N) with the
    leading axes of the grid, and `cp_samples` is the prefix length."""

    cores: np.ndarray
    cp_samples: int

    def stream(self, out: np.ndarray | None = None) -> np.ndarray:
        """The serialized stream (..., M (N + N_cp)), each core preceded by
        its last N_cp samples; written into `out` when given (a view whose
        last axis is contiguous will do)."""
        *lead, m, n = self.cores.shape
        cp = self.cp_samples
        if out is None:
            out = np.empty((*lead, m * (n + cp)))
        windows = out.reshape(*lead, m, n + cp)
        windows[..., cp:] = self.cores
        windows[..., :cp] = self.cores[..., n - cp :]
        return out


def generate_frame(
    cfg: OfdmConfig,
    p_norm: np.ndarray,
    rng_seed,
    bias: float = 0.0,
) -> FrequencyGrid:
    """Draw frames of circular complex Gaussian subcarrier symbols.

    Each data bin k in [1, N/2) gets variance (P - b^2) * p_norm(k); bins
    0 and N/2 stay null.  The draw is deterministic for a fixed seed: a
    frame's generator draws the real parts of the data bins, (N/2-1, M) in
    row order, then their imaginary parts.

    `rng_seed` is anything `np.random.default_rng` accepts, for one frame
    of shape (N/2+1, M).  A list of Generators draws a stack (T, N/2+1, M):
    frame t takes from generator t the same values it would draw alone.
    """
    p = validate_p_norm(p_norm, cfg)
    ac_power = cfg.power_w - bias**2
    if ac_power <= 0:
        raise ValueError("bias consumes the whole power budget")
    stacked = isinstance(rng_seed, list) and all(
        isinstance(g, np.random.Generator) for g in rng_seed
    )
    rngs = rng_seed if stacked else [np.random.default_rng(rng_seed)]
    n, m = cfg.n_subcarriers, cfg.n_symbols
    draws = np.empty((len(rngs), 2, cfg.n_data_subcarriers, m))
    for out, rng in zip(draws, rngs):
        rng.standard_normal(out=out)
    x = np.swapaxes(np.zeros((len(rngs), m, n // 2 + 1), dtype=complex), -1, -2)
    data = x[:, 1 : n // 2]
    scale = np.sqrt(ac_power * p / 2.0)[:, None]
    np.multiply(draws[:, 0], scale, out=data.real)
    np.multiply(draws[:, 1], scale, out=data.imag)
    return FrequencyGrid(x=x if stacked else x[0])


def to_time_domain(grid: FrequencyGrid, cfg: OfdmConfig) -> TimeSignal:
    """Inverse real DFT of each symbol (1/sqrt(N) normalization), for
    every frame of the grid's leading axes.

    The symbols are unbiased: the caller adds the DC bias and clips.
    `irfft` would drop the imaginary parts of bins 0 and N/2 without a
    trace, so a grid with either bin nonzero is rejected.
    """
    n = cfg.n_subcarriers
    if grid.n_subcarriers != n:
        raise ValueError("grid size does not match cfg.n_subcarriers")
    if np.any(grid.x[..., :: n // 2, :]):
        raise ValueError("bins 0 and N/2 of the grid must be null")
    # symbol-major and contiguous, so that the cores are too (irfft keeps
    # the strides of a transposed view)
    spectra = np.ascontiguousarray(np.swapaxes(grid.x, -1, -2))
    cores = np.fft.irfft(spectra, n, axis=-1)
    cores *= np.sqrt(n)
    return TimeSignal(cores=cores, cp_samples=cfg.guard_samples)
