"""Frame geometry and power budget for the DCO-OFDM waveform."""

from dataclasses import dataclass

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class OfdmConfig:
    """DCO-OFDM frame parameters.

    Attributes:
        n_symbols: OFDM symbols per frame (M).
        n_subcarriers: subcarriers per symbol (N, even).
        delta_f: subcarrier spacing in Hz.
        guard_s: guard-interval duration in seconds (cyclic prefix).
        power_w: total electrical power budget in W, shared between the
            DC bias and the data subcarriers.
    """

    n_symbols: int
    n_subcarriers: int
    delta_f: float
    guard_s: float
    power_w: float

    def __post_init__(self):
        if self.n_subcarriers < 8 or self.n_subcarriers % 2 != 0:
            raise ValueError("n_subcarriers must be even and >= 8")
        if self.n_symbols < 1:
            raise ValueError("n_symbols must be >= 1")
        if self.delta_f <= 0:
            raise ValueError("delta_f must be positive")
        if self.guard_s < 0:
            raise ValueError("guard_s must be non-negative")
        if self.power_w <= 0:
            raise ValueError("power_w must be positive")

    @property
    def symbol_s(self) -> float:
        """Elementary symbol duration T = 1/delta_f."""
        return 1.0 / self.delta_f

    @property
    def total_symbol_s(self) -> float:
        """Total symbol duration T_o = T + T_g."""
        return self.symbol_s + self.guard_s

    @property
    def bandwidth_hz(self) -> float:
        """Occupied bandwidth B = N * delta_f."""
        return self.n_subcarriers * self.delta_f

    @property
    def sample_rate(self) -> float:
        """Sampling rate R_s = N / T."""
        return self.n_subcarriers / self.symbol_s

    @property
    def n_data_subcarriers(self) -> int:
        """Independent data subcarriers per symbol: k in [1, N/2)."""
        return self.n_subcarriers // 2 - 1

    @property
    def guard_samples(self) -> int:
        """Cyclic-prefix length in samples, ceil(T_g * R_s)."""
        import math

        return math.ceil(self.guard_s * self.sample_rate - 1e-12)
