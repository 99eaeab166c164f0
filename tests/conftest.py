import math
from pathlib import Path

import numpy as np
import pytest

from fso_isac.channel import LinkParams, stationary_gains
from fso_isac.config import OfdmConfig
from fso_isac.system import SystemModel

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def table1_link(cn2=5e-14, noise_psd=1e-10):
    return LinkParams(
        path_m=200.0,
        wavelength_m=905e-9,
        cn2=cn2,
        atten_db_per_km=-12.8,
        theta_rad=0.5e-3,
        aperture_m2=10e-4,
        gain_tx=1.0,
        gain_rx=10.0,
        reflectivity=0.5,
        noise_psd=noise_psd,
    )


def reference_channel(cn2=5e-14):
    # gain overrides of the shipped reference scenario: the comm override
    # equals reflectivity * sensing gain so both paths share one
    # noise-to-gain ratio
    return stationary_gains(
        table1_link(cn2=cn2),
        table1_link(cn2=cn2),
        override_gain_c_db=-9.0103,
        override_gain_s_db=-6.0,
    )


def lp_step_allocation(n_data: int, p_max: float) -> np.ndarray:
    """Sensing-LP-shaped step allocation: caps on the high bins."""
    l_m = math.floor((n_data + 1) - 1.0 / (2.0 * p_max))
    p = np.zeros(n_data)
    p[l_m:] = p_max
    p[l_m - 1] = 0.5 - (n_data - l_m) * p_max
    return p


def mirrored_grid(x: np.ndarray, n: int) -> np.ndarray:
    """Full N-bin grid (..., N, M) of a half-spectrum grid (..., N/2+1, M):
    bins N/2+1..N-1 are the conjugates of N/2-1..1."""
    full = np.zeros(x.shape[:-2] + (n, x.shape[-1]), dtype=complex)
    full[..., : n // 2 + 1, :] = x
    full[..., n // 2 + 1 :, :] = np.conj(x[..., n // 2 - 1 : 0 : -1, :])
    return full


@pytest.fixture(scope="session")
def desk_cfg():
    return OfdmConfig(n_symbols=16, n_subcarriers=256, delta_f=2e5,
                      guard_s=2e-6, power_w=1.0)


@pytest.fixture(scope="session")
def clip_cfg():
    # more symbols per frame for the million-sample clipping campaigns
    return OfdmConfig(n_symbols=64, n_subcarriers=256, delta_f=2e5,
                      guard_s=2e-6, power_w=1.0)


@pytest.fixture(scope="session")
def table1_cfg():
    return OfdmConfig(n_symbols=64, n_subcarriers=1024, delta_f=2e5,
                      guard_s=2e-6, power_w=1.0)


@pytest.fixture(scope="session")
def desk_model(desk_cfg):
    return SystemModel(cfg=desk_cfg, chan=reference_channel(cn2=0.0))


@pytest.fixture(scope="session")
def reference_model(table1_cfg):
    return SystemModel(cfg=table1_cfg, chan=reference_channel())


@pytest.fixture(scope="session")
def scenario_dir():
    return SCENARIO_DIR


def uniform_allocation(cfg: OfdmConfig) -> np.ndarray:
    n = cfg.n_data_subcarriers
    return np.full(n, 0.5 / n)
