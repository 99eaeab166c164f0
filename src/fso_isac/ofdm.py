"""DCO-OFDM frame synthesis.

Builds Hermitian-symmetric frequency grids with Gaussian subcarrier symbols
and converts them to real, unbiased time-domain sample streams (IDFT and
cyclic prefix); the Monte Carlo harness adds the DC bias and clips.

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
    """Frequency-domain frame: complex amplitudes indexed (k, m).

    x[k, m] is the symbol on subcarrier k of OFDM symbol m.  Hermitian
    symmetry x[k] = conj(x[N-k]) and null bins k = 0, N/2 are enforced by
    the constructor path.
    """

    x: np.ndarray
    p_norm: np.ndarray

    @property
    def n_subcarriers(self) -> int:
        return self.x.shape[0]

    @property
    def n_symbols(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class TimeSignal:
    """Real sample stream at rate R_s, serialized symbol-by-symbol with CP.

    Attributes:
        pre_clip: the unbiased, unclipped stream x(n).
        cp_samples: cyclic-prefix length per symbol.
        n_fft: IDFT size (subcarriers per symbol).
    """

    pre_clip: np.ndarray
    cp_samples: int
    n_fft: int

    @property
    def n_symbols(self) -> int:
        return self.pre_clip.size // (self.n_fft + self.cp_samples)

    def symbol_cores(self) -> np.ndarray:
        """Pre-clip sample matrix (n_symbols, N) with prefixes stripped."""
        span = self.n_fft + self.cp_samples
        mat = self.pre_clip.reshape(self.n_symbols, span)
        return mat[:, self.cp_samples:]


def generate_frame(
    cfg: OfdmConfig,
    p_norm: np.ndarray,
    rng_seed,
    bias: float = 0.0,
) -> FrequencyGrid:
    """Draw one frame of circular complex Gaussian subcarrier symbols.

    Each data bin k in [1, N/2) gets variance (P - b^2) * p_norm(k); the
    mirror bins are the conjugates, bins 0 and N/2 stay null.  The draw is
    deterministic for a fixed seed.
    """
    p = validate_p_norm(p_norm, cfg)
    ac_power = cfg.power_w - bias**2
    if ac_power <= 0:
        raise ValueError("bias consumes the whole power budget")
    n, m = cfg.n_subcarriers, cfg.n_symbols
    rng = np.random.default_rng(rng_seed)
    scale = np.sqrt(ac_power * p / 2.0)[:, None]
    data = scale * (
        rng.standard_normal((cfg.n_data_subcarriers, m))
        + 1j * rng.standard_normal((cfg.n_data_subcarriers, m))
    )
    x = np.zeros((n, m), dtype=complex)
    x[1 : n // 2, :] = data
    x[n // 2 + 1 :, :] = np.conj(data[::-1, :])
    return FrequencyGrid(x=x, p_norm=p)


def to_time_domain(
    grid: FrequencyGrid,
    cfg: OfdmConfig,
    bias: float,
) -> TimeSignal:
    """IDFT each symbol (1/sqrt(N) normalization) and prepend the cyclic
    prefix.  The bias, in [0, sqrt(P)], sets the signal variance
    (P - b^2) / N that the Hermitian-symmetry check scales with; it is not
    added to the stream."""
    if not 0.0 <= bias <= cfg.power_w**0.5:
        raise ValueError("bias must lie in [0, sqrt(P)]")
    n = cfg.n_subcarriers
    if grid.n_subcarriers != n:
        raise ValueError("grid size does not match cfg.n_subcarriers")
    core = np.fft.ifft(grid.x, axis=0) * np.sqrt(n)
    resid = np.max(np.abs(core.imag)) if core.size else 0.0
    sigma_x = np.sqrt(cfg.signal_variance(bias)) if cfg.power_w > bias**2 else 0.0
    if sigma_x > 0 and resid > 1e-10 * max(sigma_x, 1e-300) * n:
        raise ValueError("grid is not Hermitian-symmetric (imaginary residue)")
    core = core.real
    cp = cfg.guard_samples
    with_cp = np.concatenate([core[n - cp :, :], core], axis=0) if cp else core
    return TimeSignal(pre_clip=with_cp.T.reshape(-1), cp_samples=cp, n_fft=n)
