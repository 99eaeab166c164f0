"""Glue between the waveform, channel, clipping, and metric layers.

A SystemModel bundles the frame configuration with one channel state and
exposes the (bias, allocation) -> statistics/SNR/metric pipeline that the
solvers and the Monte Carlo harness both consume.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ChannelState
from .clipping import ClippingStats, SnrProfile, compute_clipping_stats, snr_profiles
from .config import OfdmConfig
from .metrics import MetricReport, fisher_information, metric_report


@dataclass(frozen=True)
class SystemModel:
    cfg: OfdmConfig
    chan: ChannelState

    def clipping_stats(self, b: float, p_norm: np.ndarray) -> ClippingStats:
        return compute_clipping_stats(b, p_norm, self.cfg)

    def snr(self, b: float, p_norm: np.ndarray) -> SnrProfile:
        stats = self.clipping_stats(b, p_norm)
        return snr_profiles(stats, self.chan, self.cfg, b)

    def fisher(self, b: float, p_norm: np.ndarray) -> float:
        return fisher_information(self.snr(b, p_norm), p_norm, self.cfg)

    def metrics(self, b: float, p_norm: np.ndarray) -> MetricReport:
        return metric_report(self.snr(b, p_norm), p_norm, self.cfg)
