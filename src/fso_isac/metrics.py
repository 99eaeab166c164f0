"""Scalar performance metrics: spectral efficiency and Fisher information.

Spectral efficiency is reported in bits/s/Hz.  The time-of-flight Fisher
information I_tau (1/s^2) converts to the distance domain through
L = c * tau / 2, so var(L) = (c/2)^2 var(tau) and the root-CRB on distance
is c / (2 sqrt(I_tau)).
"""

from dataclasses import dataclass

import numpy as np

from .config import SPEED_OF_LIGHT, OfdmConfig
from .clipping import SnrProfile


@dataclass(frozen=True)
class MetricReport:
    """Achieved metrics for one (bias, allocation) operating point.

    fisher_tau is the delay-domain information in 1/s^2; fisher_distance
    its 1/m^2 counterpart (2/c)^2 * fisher_tau.
    """

    spectral_efficiency: float
    fisher_tau: float
    fisher_distance: float
    crb_distance_m: float


def _data_indices(cfg: OfdmConfig) -> np.ndarray:
    return np.arange(1, cfg.n_subcarriers // 2)


def spectral_efficiency(snr: SnrProfile, p_norm: np.ndarray, cfg: OfdmConfig) -> float:
    """C = (1 / (B T_o)) * sum_k log2(1 + gamma_c(k) p_norm(k)), bits/s/Hz."""
    p = np.asarray(p_norm, dtype=float)
    return float(
        np.sum(np.log2(1.0 + snr.gamma_c * p))
        / (cfg.bandwidth_hz * cfg.total_symbol_s)
    )


def fisher_information(snr: SnrProfile, p_norm: np.ndarray, cfg: OfdmConfig) -> float:
    """Delay-domain Fisher information of the ToF estimate, 1/s^2.

    I_tau = (8 pi^2 M df^2 / N) * sum_k k^2 gamma_s(k) p_norm(k).
    """
    p = np.asarray(p_norm, dtype=float)
    k = _data_indices(cfg)
    front = 8.0 * np.pi**2 * cfg.n_symbols * cfg.delta_f**2 / cfg.n_subcarriers
    return float(front * np.sum(k**2 * snr.gamma_s * p))


def crb_distance(fisher_tau: float) -> float:
    """Root-CRB of the distance estimate, c / (2 sqrt(I_tau)), in meters."""
    if fisher_tau <= 0:
        return float("inf")
    return SPEED_OF_LIGHT / (2.0 * np.sqrt(fisher_tau))


def varsigma_sq_from_precision(precision_m: float) -> float:
    """Delay-domain information threshold for a desired distance precision.

    precision = c / (2 varsigma)  =>  varsigma^2 = (c / (2 precision))^2.
    """
    if precision_m <= 0:
        raise ValueError("precision must be positive")
    return (SPEED_OF_LIGHT / (2.0 * precision_m)) ** 2


def metric_report(snr: SnrProfile, p_norm: np.ndarray, cfg: OfdmConfig) -> MetricReport:
    c = spectral_efficiency(snr, p_norm, cfg)
    i_tau = fisher_information(snr, p_norm, cfg)
    return MetricReport(
        spectral_efficiency=c,
        fisher_tau=i_tau,
        fisher_distance=i_tau * (2.0 / SPEED_OF_LIGHT) ** 2,
        crb_distance_m=crb_distance(i_tau),
    )
