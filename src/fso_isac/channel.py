"""Free-space-optical channel: stationary gains and turbulence statistics.

The stationary gain composes atmospheric attenuation (combined alpha*V^beta
figure in dB/km), log-normal scintillation with unit mean, geometric beam
spreading loss, and transmitter/receiver gains.  The sensing path is a round
trip off a point re-radiator; because the exact round-trip composition is a
modelling choice, directly specified override gains are also accepted so
that reference scenarios can pin the link budgets.
"""

import warnings
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LinkParams:
    """Link-budget and noise parameters for one path.

    Attributes:
        path_m: one-way path length L in m.
        wavelength_m: optical wavelength in m.
        cn2: refractive-index structure constant in m^(-2/3).
        atten_db_per_km: combined attenuation figure in dB/km (signed;
            a loss is negative, e.g. -12.8).
        theta_rad: full beam divergence angle in rad.
        aperture_m2: receiver aperture area A in m^2.
        gain_tx, gain_rx: transmitter/receiver gains (linear).
        reflectivity: target reflectivity in (0, 1] (sensing path).
        noise_psd: electrical noise PSD in W/Hz.
    """

    path_m: float
    wavelength_m: float
    cn2: float
    atten_db_per_km: float
    theta_rad: float
    aperture_m2: float
    gain_tx: float = 1.0
    gain_rx: float = 1.0
    reflectivity: float = 1.0
    noise_psd: float = 1e-10

    def __post_init__(self):
        for name in ("path_m", "wavelength_m", "theta_rad", "aperture_m2",
                     "gain_tx", "gain_rx", "noise_psd"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.cn2 < 0:
            raise ValueError("cn2 must be non-negative")
        if not 0 < self.reflectivity <= 1:
            raise ValueError("reflectivity must lie in (0, 1]")


@dataclass(frozen=True)
class ChannelState:
    """Stationary gains and noise for both paths, and the sensing path's turbulence.

    h_bar_* are the mean gains (unit-mean turbulence folded out); both
    paths are line of sight, with a flat response over the subcarriers.
    The comm SNR uses E(h_c)^2 alone, so only the round-trip sensing path
    carries a scintillation index, sigma_t2_s, for the Monte Carlo fades.
    Carries the noise PSDs and reflectivity so downstream SNR evaluation
    needs no extra plumbing.
    """

    h_bar_c: float
    h_bar_s: float
    sigma_t2_s: float
    noise_psd_c: float
    noise_psd_s: float
    reflectivity: float

    def __post_init__(self):
        if self.h_bar_c <= 0 or self.h_bar_s <= 0:
            raise ValueError("stationary gains must be positive")
        if self.sigma_t2_s < 0:
            raise ValueError("the scintillation index must be non-negative")

    def gain_sq_c(self) -> float:
        """Gain term E(h_c)^2 of the comm-path SNR."""
        return self.h_bar_c**2

    def gain_sq_s(self) -> float:
        """Gain term E(h_s)^2 of the sensing-path SNR."""
        return self.h_bar_s**2


def scintillation_index(link: LinkParams, path_m: float | None = None) -> float:
    """Rytov weak-turbulence scintillation index.

    sigma_t^2 = 1.23 * (2 pi / lambda)^(7/6) * L^(11/6) * Cn^2
    """
    length = link.path_m if path_m is None else path_m
    return 1.23 * (2 * np.pi / link.wavelength_m) ** (7 / 6) * length ** (11 / 6) * link.cn2


def sample_turbulence(sigma_t2: float, rng_seed, n: int) -> np.ndarray:
    """Unit-mean log-normal scintillation draws.

    L_t = exp(Z) with Z ~ Normal(-sigma_t2/2, sigma_t2), so E(L_t) = 1.
    """
    if sigma_t2 < 0:
        raise ValueError("sigma_t2 must be non-negative")
    rng = np.random.default_rng(rng_seed)
    if sigma_t2 == 0:
        return np.ones(n)
    z = rng.normal(-sigma_t2 / 2.0, np.sqrt(sigma_t2), size=n)
    return np.exp(z)


def attenuation_gain(atten_db_per_km: float, path_m: float) -> float:
    """Linear gain over the path from the signed dB/km figure."""
    return 10.0 ** (atten_db_per_km * (path_m / 1000.0) / 10.0)


def geometric_loss(aperture_m2: float, path_m: float, theta_rad: float) -> float:
    """Beam-spreading loss A / (pi (L theta / 2)^2), clamped at 1."""
    footprint = np.pi * (path_m * theta_rad / 2.0) ** 2
    loss = aperture_m2 / footprint
    if loss > 1.0:
        warnings.warn(
            "aperture exceeds beam footprint; geometric loss clamped to 1",
            stacklevel=2,
        )
        return 1.0
    return loss


def stationary_gains(
    link_c: LinkParams,
    link_s: LinkParams,
    override_gain_c_db: float | None = None,
    override_gain_s_db: float | None = None,
) -> ChannelState:
    """Compose the mean channel gains for the comm and sensing paths.

    Comm: one-way attenuation and geometric loss over L.  Sensing:
    attenuation over 2L and geometric loss over the round-trip path with
    the target treated as a point re-radiator.  Either gain can be pinned
    directly via the dB overrides.
    """
    if override_gain_c_db is not None:
        h_c = 10.0 ** (override_gain_c_db / 10.0)
    else:
        h_c = (
            attenuation_gain(link_c.atten_db_per_km, link_c.path_m)
            * geometric_loss(link_c.aperture_m2, link_c.path_m, link_c.theta_rad)
            * link_c.gain_tx
            * link_c.gain_rx
        )
    if override_gain_s_db is not None:
        h_s = 10.0 ** (override_gain_s_db / 10.0)
    else:
        h_s = (
            attenuation_gain(link_s.atten_db_per_km, 2.0 * link_s.path_m)
            * geometric_loss(link_s.aperture_m2, 2.0 * link_s.path_m, link_s.theta_rad)
            * link_s.gain_tx
            * link_s.gain_rx
        )
    return ChannelState(
        h_bar_c=h_c,
        h_bar_s=h_s,
        sigma_t2_s=scintillation_index(link_s, path_m=2.0 * link_s.path_m),
        noise_psd_c=link_c.noise_psd,
        noise_psd_s=link_s.noise_psd,
        reflectivity=link_s.reflectivity,
    )
