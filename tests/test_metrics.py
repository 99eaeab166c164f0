import numpy as np
import pytest
from numpy.testing import assert_allclose

from fso_isac.clipping import SnrProfile
from fso_isac.config import SPEED_OF_LIGHT, OfdmConfig
from fso_isac.metrics import (
    crb_distance,
    fisher_information,
    metric_report,
    spectral_efficiency,
    varsigma_sq_from_precision,
)

from conftest import uniform_allocation


@pytest.fixture(scope="module")
def cfg():
    return OfdmConfig(n_symbols=8, n_subcarriers=64, delta_f=2e5, guard_s=2e-6,
                      power_w=1.0)


def flat_snr(cfg, gamma_c=100.0, gamma_s=50.0):
    n = cfg.n_data_subcarriers
    return SnrProfile(gamma_c=np.full(n, gamma_c), gamma_s=np.full(n, gamma_s))


def random_feasible(cfg, rng):
    n = cfg.n_data_subcarriers
    p = rng.dirichlet(np.ones(n)) * 0.5
    return p


def test_capacity_zero_snr(cfg):
    snr = flat_snr(cfg, gamma_c=0.0)
    assert spectral_efficiency(snr, uniform_allocation(cfg), cfg) == 0.0


def test_capacity_flat_closed_form(cfg):
    gamma = 37.5
    n = cfg.n_data_subcarriers
    snr = flat_snr(cfg, gamma_c=gamma)
    got = spectral_efficiency(snr, uniform_allocation(cfg), cfg)
    expected = n * np.log2(1 + gamma * 0.5 / n) / (cfg.bandwidth_hz * cfg.total_symbol_s)
    assert got == pytest.approx(expected, rel=1e-14)


def test_fisher_zero_snr(cfg):
    snr = flat_snr(cfg, gamma_s=0.0)
    assert fisher_information(snr, uniform_allocation(cfg), cfg) == 0.0


def test_fisher_flat_closed_form(cfg):
    # flat gamma_s and uniform allocation: sum k^2 has the closed form
    # (N/2-1)(N/2)(N-1)/6
    gamma = 4.2
    n_half = cfg.n_subcarriers // 2
    snr = flat_snr(cfg, gamma_s=gamma)
    got = fisher_information(snr, uniform_allocation(cfg), cfg)
    sum_k2 = (n_half - 1) * n_half * (cfg.n_subcarriers - 1) / 6
    expected = (8 * np.pi**2 * cfg.n_symbols * cfg.delta_f**2 * gamma
                / (cfg.n_subcarriers * (cfg.n_subcarriers - 2))) * sum_k2
    assert got == pytest.approx(expected, rel=1e-12)


def test_fisher_prefers_high_subcarriers(cfg):
    snr = flat_snr(cfg)
    p = uniform_allocation(cfg)
    q = p.copy()
    shift = p[0] / 2
    q[0] -= shift
    q[-1] += shift
    assert fisher_information(snr, q, cfg) > fisher_information(snr, p, cfg)


def test_fisher_linear_in_allocation(cfg):
    rng = np.random.default_rng(0)
    snr = SnrProfile(gamma_c=rng.uniform(1, 100, cfg.n_data_subcarriers),
                     gamma_s=rng.uniform(1, 100, cfg.n_data_subcarriers))
    p, q = random_feasible(cfg, rng), random_feasible(cfg, rng)
    for lam in (0.25, 0.5, 0.9):
        mix = lam * p + (1 - lam) * q
        lhs = fisher_information(snr, mix, cfg)
        rhs = (lam * fisher_information(snr, p, cfg)
               + (1 - lam) * fisher_information(snr, q, cfg))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_capacity_concave_midpoints(cfg):
    rng = np.random.default_rng(1)
    snr = SnrProfile(gamma_c=rng.uniform(1, 500, cfg.n_data_subcarriers),
                     gamma_s=np.ones(cfg.n_data_subcarriers))
    for _ in range(50):
        p, q = random_feasible(cfg, rng), random_feasible(cfg, rng)
        mid = spectral_efficiency(snr, (p + q) / 2, cfg)
        avg = (spectral_efficiency(snr, p, cfg) + spectral_efficiency(snr, q, cfg)) / 2
        assert mid >= avg - 1e-12


def test_distance_conversion_and_report(cfg):
    snr = flat_snr(cfg)
    p = uniform_allocation(cfg)
    report = metric_report(snr, p, cfg)
    assert report.fisher_distance == pytest.approx(
        report.fisher_tau * (2 / SPEED_OF_LIGHT) ** 2, rel=1e-15
    )
    assert report.crb_distance_m == pytest.approx(
        SPEED_OF_LIGHT / (2 * np.sqrt(report.fisher_tau)), rel=1e-15
    )
    assert report.crb_distance_m == pytest.approx(1 / np.sqrt(report.fisher_distance))
    assert report.spectral_efficiency >= 0
    assert crb_distance(0.0) == np.inf


def test_varsigma_round_trip():
    precision = 0.036
    vs2 = varsigma_sq_from_precision(precision)
    assert SPEED_OF_LIGHT / (2 * np.sqrt(vs2)) == pytest.approx(precision, rel=1e-15)
    with pytest.raises(ValueError):
        varsigma_sq_from_precision(0.0)
