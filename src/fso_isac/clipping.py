"""Analytical clipping-noise statistics for DCO-OFDM.

Non-negative clipping of the biased Gaussian signal x(n) + b is decomposed
as x^+(n) = K x(n) + w_p(n) with the linear gain K = Q(-b/sigma_x); the
residual w_p is uncorrelated with x.  Lag 0 of its autocorrelation is the
closed-form E(w_p^2); every other lag is a function of the normalized
signal autocorrelation rho = r_x / sigma_x^2, evaluated one of two ways.

Where |rho| <= 1/2 (almost every lag of a spread allocation) it is the
Mehler (Hermite) expansion of the clipper (Van Vleck & Middleton 1966):
with lam = -b/sigma_x, the clipper's Hermite coefficients for n >= 2 are
sigma_x phi(lam) He_{n-2}(lam), so

    R_wp(rho) = E(w_p)^2 + sigma_x^2 phi(lam)^2
                * sum_{n>=2} He_{n-2}(lam)^2 rho^n / n!.

Cramer's bound on He_m limits the tail beyond a fixed number of terms at
|rho| <= 1/2, and Horner's rule sums them.

Above 1/2 the series converges too slowly, and the lag falls back to the
Price-integral form

    R_wp(r) = I(r) + C1 * r + C2,

where I(r) is a double integral of the bivariate-Gaussian level-crossing
kernel.  Swapping the integration order collapses it to a single integral,
and the substitution t = sigma_x^2 sin(theta) removes the inverse-square-
root edge singularity:

    I(r) = sigma_x^2 / (2 pi) * int_{-pi/2}^{arcsin(r/sigma_x^2)}
           (r/sigma_x^2 - sin th) * exp(-c / (1 + sin th)) dth,
    c = (b / sigma_x)^2.

The integrand is smooth and bounded, so fixed-order Gauss-Legendre rules
evaluate it directly.  The signal autocorrelation is even,
r_x(n) = r_x(N - n), so the solvers evaluate the N/2 + 1 distinct lags
and mirror the result onto the rest.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .config import OfdmConfig
from .channel import ChannelState
from .ofdm import validate_p_norm

R_X_DOMAIN_TOL = 1e-9
# Lags with |rho| <= MEHLER_CUT take the Mehler series and the rest the
# quadrature: the series tail shrinks like |rho|^n / n^2, so near |rho| = 1
# no short series reaches double precision.
MEHLER_CUT = 0.5
# Series terms n = 2..47.  Cramer's bound |He_m| <= 1.09 sqrt(m!) e^{lam^2/4}
# caps the tail beyond them at 5.8e-19 sigma_x^2 for |rho| <= 1/2.
MEHLER_TERMS = 46


def gaussian_q(x: float) -> float:
    """Standard normal complementary CDF of a scalar via math.erfc."""
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def gaussian_pdf(x: float) -> float:
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def bussgang_gain(b: float, sigma_x: float) -> float:
    """Linear-equivalent gain of the clipper, K = Q(-b/sigma_x)."""
    if sigma_x <= 0:
        raise ValueError("sigma_x must be positive (degenerate signal)")
    if b < 0:
        raise ValueError("bias must be non-negative")
    return gaussian_q(-b / sigma_x)


def clip_moments(b: float, sigma_x: float) -> tuple[float, float]:
    """First and second moments of the clipping noise w_p.

    E(w_p)   = sigma_x * |phi(lam) + lam * (1 - Q(lam))|
    E(w_p^2) = sigma_x^2 * (lam^2 (1 - Q(lam)) + lam phi(lam) + Q(lam) - K^2)

    with lam = -b/sigma_x.  Both reduce to sigma_x/sqrt(2 pi) and
    sigma_x^2/4 at b = 0 and vanish as b/sigma_x grows.
    """
    if sigma_x <= 0:
        raise ValueError("sigma_x must be positive (degenerate signal)")
    lam = -b / sigma_x
    q = gaussian_q(lam)
    phi = gaussian_pdf(lam)
    k = q
    mean_wp = abs(sigma_x * (phi + lam * (1.0 - q)))
    power_wp = sigma_x**2 * (lam**2 * (1.0 - q) + lam * phi + q - k * k)
    return mean_wp, max(power_wp, 0.0)


def _row_dot(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """m @ v with a per-row summation order that ignores the row count.

    BLAS gemv sums a one-row and a many-row product in different orders,
    so `m @ v` changes a row's result in the last bits with the batch
    size; einsum reduces each row on its own, without BLAS threads.
    """
    return np.einsum("ij,j->i", m, v)


@lru_cache(maxsize=8)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return np.polynomial.legendre.leggauss(n)


def _price_core(rho: np.ndarray, c: float, n_gl: int = 192) -> np.ndarray:
    """Normalized integral J(rho; c) = I(rho * sigma^2) / sigma^2.

    Vectorized fixed-order Gauss-Legendre over theta in [-pi/2, arcsin rho].
    Each output depends only on its own rho, not on the batch shape: the
    quadrature sum runs row by row in a fixed order, so a lag evaluated
    alone and inside a vector gives bit-identical results.
    """
    rho = np.clip(np.atleast_1d(np.asarray(rho, dtype=float)), -1.0, 1.0)
    psi = np.arcsin(rho)
    nodes, weights = _leggauss(n_gl)
    half = (psi + np.pi / 2.0) / 2.0
    theta = half[:, None] * (nodes[None, :] + 1.0) - np.pi / 2.0
    s = np.sin(theta)
    if c > 0:
        with np.errstate(divide="ignore"):
            kernel = np.exp(-c / (1.0 + s))
    else:
        kernel = np.ones_like(s)
    g = (rho[:, None] - s) * kernel
    return (half / (2.0 * np.pi)) * _row_dot(g, weights)


def signal_autocorrelation(p_norm: np.ndarray, ac_power: float, n: int) -> np.ndarray:
    """Autocorrelation of the OFDM signal from its power allocation.

    R_x(n) = (ac_power / N) * sum_k 2 p_norm(k) cos(2 pi k n / N), i.e. the
    inverse DFT of the Hermitian-symmetric per-bin power spectrum.
    """
    p = np.asarray(p_norm, dtype=float)
    spectrum = np.zeros(n)
    spectrum[1 : n // 2] = ac_power * p
    spectrum[n // 2 + 1 :] = ac_power * p[::-1]
    return np.fft.ifft(spectrum).real


def _mehler_series(rho: np.ndarray, lam: float) -> np.ndarray:
    """sum_{n>=2} phi(lam)^2 He_{n-2}(lam)^2 rho^n / n! by Horner's rule.

    g_m = phi(lam) He_m(lam) / sqrt(m!) follows the normalized Hermite
    recurrence; carrying phi(lam) keeps every g_m below 1.09/sqrt(2 pi)
    (Cramer's bound), where the unscaled values overflow at deep bias.
    The sum runs elementwise in a fixed order, so a lag evaluated alone
    and inside a vector gives bit-identical results.
    """
    phi = float(gaussian_pdf(lam))
    coef = np.empty(MEHLER_TERMS)
    g_prev, g = 0.0, phi
    for m in range(MEHLER_TERMS):
        coef[m] = g * g / ((m + 2) * (m + 1))
        g_prev, g = g, (lam * g - math.sqrt(m) * g_prev) / math.sqrt(m + 1)
    acc = np.full_like(rho, coef[-1])
    for a in coef[-2::-1]:
        acc *= rho
        acc += a
    return acc * rho * rho


def _r_wp(b: float, sigma_x: float, r: np.ndarray) -> tuple[float, float, np.ndarray]:
    """(E(w_p), E(w_p^2), R_wp) at the lags r, where r[0] is lag 0.

    R_wp as in `autocorrelation`: the Mehler series where |rho| <= 1/2,
    the quadrature form with the endpoint integrals I(0) and I(var) at
    high order above that.  The caller validates r: `compute_clipping_stats`
    admits allocations whose r[0] lies up to 2e-9 off var, beyond the
    domain check of `autocorrelation`.

    Once phi(lam)^2 is subnormal (lam = -b/sigma_x below about -26.6),
    Cramer's bound puts R_wp - E(w_p)^2 below 1e-154 var at every
    |rho| <= 1, and every lag but 0 is E(w_p)^2: computed, the remainder
    comes out subnormal, too coarse for the PSD's evenness check.
    """
    var = sigma_x**2
    mean_wp, power_wp = clip_moments(b, sigma_x)
    lam = -b / sigma_x
    r_wp = np.full(r.size, mean_wp**2)
    r_wp[0] = power_wp
    phi = float(gaussian_pdf(lam))
    if phi * phi < np.finfo(float).tiny:
        return mean_wp, power_wp, r_wp
    rho = r[1:] / var
    quad = np.abs(rho) > MEHLER_CUT
    lags = r_wp[1:]
    lags[~quad] += var * _mehler_series(rho[~quad], lam)
    if quad.any():
        c = (b / sigma_x) ** 2
        i_zero, i_var = var * _price_core(np.array([0.0, 1.0]), c, n_gl=384)
        c2 = mean_wp**2 - i_zero
        c1 = (power_wp - c2 - i_var) / var
        lags[quad] = var * _price_core(rho[quad], c) + c1 * r[1:][quad] + c2
    return mean_wp, power_wp, r_wp


def autocorrelation(b: float, sigma_x: float, r_x: np.ndarray) -> np.ndarray:
    """Clipping-noise autocorrelation over the lags of r_x.

    Lag 0 is pinned to E(w_p^2) exactly.  Other lags take the Mehler
    series where |r| <= var/2, and R_wp = I(r) + C1 r + C2 above that, with
    C2 = E(w_p)^2 - I(0) and C1 = (E(w_p^2) - C2 - I(var)) / var.
    """
    r_x = np.asarray(r_x, dtype=float)
    var = sigma_x**2
    if abs(r_x[0] - var) > R_X_DOMAIN_TOL * var:
        raise ValueError("r_x[0] must equal sigma_x^2")
    if np.any(np.abs(r_x) > var * (1.0 + R_X_DOMAIN_TOL)):
        raise ValueError("every |r_x(n)| must be <= sigma_x^2")
    return _r_wp(b, sigma_x, r_x)[2]


def clipping_psd(r_wp: np.ndarray) -> np.ndarray:
    """PSD of the clipping noise: DFT of its autocorrelation."""
    spec = np.fft.fft(np.asarray(r_wp, dtype=float))
    scale = np.max(np.abs(spec))
    if scale > 0 and np.max(np.abs(spec.imag)) > 1e-9 * scale:
        raise ValueError("autocorrelation is not even: PSD has imaginary parts")
    return spec.real


@dataclass(frozen=True)
class ClippingStats:
    """Clipping-noise statistics for one (bias, allocation) operating point."""

    sigma_x2: float
    bussgang: float
    mean_wp: float
    power_wp: float
    r_x: np.ndarray
    r_wp: np.ndarray
    p_wp: np.ndarray


@dataclass(frozen=True)
class SnrProfile:
    """Normalized per-subcarrier SNRs over k in [1, N/2)."""

    gamma_c: np.ndarray
    gamma_s: np.ndarray

    def __post_init__(self):
        for name, vec in (("gamma_c", self.gamma_c), ("gamma_s", self.gamma_s)):
            arr = np.asarray(vec)
            if np.any(~np.isfinite(arr)) or np.any(arr < 0):
                raise ValueError(f"{name} entries must be non-negative and finite")


def compute_clipping_stats(b: float, p_norm: np.ndarray, cfg: OfdmConfig) -> ClippingStats:
    """Full analytical clipping model at bias b and allocation p_norm."""
    p = validate_p_norm(p_norm, cfg)
    ac_power = cfg.power_w - b * b
    if ac_power <= 0:
        raise ValueError("bias consumes the whole power budget")
    n = cfg.n_subcarriers
    var = ac_power / n
    sigma_x = np.sqrt(var)
    r_x = signal_autocorrelation(p, ac_power, n)
    # r_x is even: evaluate lags 0..N/2 and mirror them onto N/2+1..N-1
    mean_wp, power_wp, half = _r_wp(b, sigma_x, r_x[: n // 2 + 1])
    r_wp = np.concatenate([half, half[1 : n - n // 2][::-1]])
    p_wp = clipping_psd(r_wp)
    return ClippingStats(
        sigma_x2=var,
        bussgang=bussgang_gain(b, sigma_x),
        mean_wp=mean_wp,
        power_wp=power_wp,
        r_x=r_x,
        r_wp=r_wp,
        p_wp=p_wp,
    )


def snr_profiles(
    stats: ClippingStats,
    chan: ChannelState,
    cfg: OfdmConfig,
    b: float,
) -> SnrProfile:
    """Per-subcarrier normalized SNRs for the comm and sensing paths.

    gamma_c(k) = |H_c(k)|^2 K^2 (P - b^2)
                 / (N_c df / (2 E(h_c)^2) + |H_c(k)|^2 P_wp(k))
    and analogously for sensing with the reflectivity folded into the
    noise term.  The k = 0 bin of the clipping PSD never enters.
    """
    n_data = cfg.n_data_subcarriers
    ac_power = cfg.power_w - b * b
    k2 = stats.bussgang**2
    p_wp = stats.p_wp[1 : n_data + 1]
    hc2 = chan.response_c(n_data) ** 2
    hs2 = chan.response_s(n_data) ** 2
    noise_c = chan.noise_psd_c * cfg.delta_f / (2.0 * chan.gain_sq_c())
    noise_s = chan.noise_psd_s * cfg.delta_f / (
        2.0 * chan.reflectivity**2 * chan.gain_sq_s()
    )
    gamma_c = hc2 * k2 * ac_power / (noise_c + hc2 * p_wp)
    gamma_s = hs2 * k2 * ac_power / (noise_s + hs2 * p_wp)
    return SnrProfile(gamma_c=gamma_c, gamma_s=gamma_s)
