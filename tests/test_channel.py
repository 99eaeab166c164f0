import numpy as np
import pytest
from scipy import stats as sps

from fso_isac.channel import (
    LinkParams,
    attenuation_gain,
    geometric_loss,
    sample_turbulence,
    scintillation_index,
    stationary_gains,
)

from conftest import table1_link

# independent high-precision evaluation of the Rytov formula with the
# reference link values (lambda = 905 nm, L = 200 m, Cn2 = 5e-14)
SIGMA_T2_REFERENCE = 0.0975476051851562


def test_scintillation_reference_value():
    assert scintillation_index(table1_link()) == pytest.approx(
        SIGMA_T2_REFERENCE, rel=1e-12
    )


def test_scintillation_linear_in_cn2():
    base = scintillation_index(table1_link(cn2=5e-14))
    assert scintillation_index(table1_link(cn2=0.0)) == 0.0
    assert scintillation_index(table1_link(cn2=1e-13)) == pytest.approx(2 * base)


def test_turbulence_degenerate():
    assert np.all(sample_turbulence(0.0, 1, 100) == 1.0)


def test_turbulence_moments():
    s2 = SIGMA_T2_REFERENCE
    draws = sample_turbulence(s2, 42, 1_000_000)
    assert draws.mean() == pytest.approx(1.0, rel=0.01)
    assert draws.var() == pytest.approx(np.exp(s2) - 1.0, rel=0.05)


def test_turbulence_ks():
    s2 = 0.0975
    draws = sample_turbulence(s2, 7, 100_000)
    sigma = np.sqrt(s2)
    res = sps.kstest(draws, "lognorm", args=(sigma, 0.0, np.exp(-s2 / 2)))
    assert res.pvalue > 0.01


def test_turbulence_rejects_negative():
    with pytest.raises(ValueError):
        sample_turbulence(-0.1, 0, 10)


def test_attenuation_and_geometry():
    assert attenuation_gain(-12.8, 200.0) == pytest.approx(10 ** (-1.28 / 10 * 2))
    # reference-link geometric loss: A / (pi (L theta / 2)^2)
    g = geometric_loss(10e-4, 200.0, 0.5e-3)
    assert g == pytest.approx(1e-3 / (np.pi * 0.05**2))


def test_geometric_clamp_warns():
    with pytest.warns(UserWarning):
        assert geometric_loss(1.0, 1.0, 1e-6) == 1.0


def test_gain_overrides():
    chan = stationary_gains(table1_link(), table1_link(),
                            override_gain_c_db=-2.2, override_gain_s_db=-23.2)
    assert 10 * np.log10(chan.h_bar_c) == pytest.approx(-2.2)
    assert 10 * np.log10(chan.h_bar_s) == pytest.approx(-23.2)


def test_default_composition():
    link = table1_link()
    chan = stationary_gains(link, link)
    expected_c = (
        attenuation_gain(link.atten_db_per_km, link.path_m)
        * geometric_loss(link.aperture_m2, link.path_m, link.theta_rad)
        * link.gain_tx * link.gain_rx
    )
    assert chan.h_bar_c == pytest.approx(expected_c)
    # sensing: attenuation and geometry over the 2L round trip
    expected_s = (
        attenuation_gain(link.atten_db_per_km, 2 * link.path_m)
        * geometric_loss(link.aperture_m2, 2 * link.path_m, link.theta_rad)
        * link.gain_tx * link.gain_rx
    )
    assert chan.h_bar_s == pytest.approx(expected_s)
    assert chan.sigma_t2_s == pytest.approx(scintillation_index(link, 2 * link.path_m))
    assert chan.noise_psd_c == link.noise_psd
    assert chan.reflectivity == link.reflectivity


def test_gains_decrease_with_distance():
    gains = []
    for dist in (200.0, 400.0, 800.0, 1600.0):
        link = LinkParams(path_m=dist, wavelength_m=905e-9, cn2=5e-14,
                          atten_db_per_km=-12.8, theta_rad=0.5e-3,
                          aperture_m2=10e-4, gain_tx=1, gain_rx=10,
                          reflectivity=0.5, noise_psd=1e-10)
        gains.append(stationary_gains(link, link).h_bar_c)
    assert all(a > b > 0 for a, b in zip(gains, gains[1:]))


def test_gain_moment_switch():
    chan = stationary_gains(table1_link(), table1_link())
    assert chan.gain_sq_c() == pytest.approx(chan.h_bar_c**2)


def test_default_responses_flat():
    chan = stationary_gains(table1_link(), table1_link())
    assert np.all(chan.response_c(16) == 1.0)
    assert np.all(chan.response_s(16) == 1.0)


def test_link_params_validation():
    with pytest.raises(ValueError):
        LinkParams(path_m=0.0, wavelength_m=905e-9, cn2=0, atten_db_per_km=-12.8,
                   theta_rad=0.5e-3, aperture_m2=1e-3)
    with pytest.raises(ValueError):
        LinkParams(path_m=100.0, wavelength_m=905e-9, cn2=0, atten_db_per_km=-12.8,
                   theta_rad=0.5e-3, aperture_m2=1e-3, reflectivity=1.5)
