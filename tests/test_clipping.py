import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy.integrate import quad

from fso_isac.channel import ChannelState
from fso_isac.clipping import (
    MEHLER_CUT,
    _price_core,
    _r_wp,
    bussgang_gain,
    clip_moments,
    clipping_psd,
    compute_clipping_stats,
    signal_autocorrelation,
    snr_profiles,
)
from fso_isac.config import OfdmConfig
from fso_isac.ofdm import generate_frame, to_time_domain

from conftest import lp_step_allocation, uniform_allocation

# high-precision reference constants (40-digit evaluation)
Q_MINUS_3 = 0.9986501019683699
MEAN_WP_B1 = 0.0833154705876863
POWER_WP_B1 = 0.0501682937437156
# lam = -b/sigma_x from half the samples clipped (lam = 0) to almost none
SERIES_LAMS = (0.0, -0.3, -1.0, -2.0, -3.5, -6.0, -10.0)
PRICE_LAMS = (0.0, -0.05, -0.3, -1.0, -3.5, -9.0)


def closed_form_b0(r, var=1.0):
    """I(r) at b = 0: (r asin(r/var) + r pi/2 + sqrt(var^2 - r^2)) / (2 pi)."""
    return (r * np.arcsin(r / var) + r * np.pi / 2 + np.sqrt(var**2 - r**2)) / (2 * np.pi)


def price_integral(r, b, sigma_x):
    """Adaptive-quadrature oracle for I(r) in the sine-substituted form that
    `_price_core` evaluates by fixed Gauss-Legendre rules (absolute error
    << 1e-10 sigma^2)."""
    if sigma_x <= 0:
        raise ValueError("sigma_x must be positive")
    var = sigma_x**2
    if abs(r) > var * (1.0 + 1e-12):
        raise ValueError(f"r must lie in [-sigma_x^2, sigma_x^2], got {r!r}")
    rho = min(max(r / var, -1.0), 1.0)
    c = (b / sigma_x) ** 2

    def integrand(theta):
        s = np.sin(theta)
        w = np.exp(-c / (1.0 + s)) if s > -1.0 else 0.0
        return (rho - s) * w / (2.0 * np.pi)

    val, _ = quad(integrand, -np.pi / 2.0, np.arcsin(rho), epsabs=1e-13, epsrel=1e-12, limit=200)
    return var * val


def gauss_legendre_price(rho, c, n_gl=384):
    """J(rho; c) = I(rho sigma^2) / sigma^2 by an n_gl-node Gauss-Legendre
    rule in the sine-substituted form, twice the order the package uses."""
    nodes, weights = np.polynomial.legendre.leggauss(n_gl)
    half = (np.arcsin(rho) + np.pi / 2.0) / 2.0
    s = np.sin(half[:, None] * (nodes[None, :] + 1.0) - np.pi / 2.0)
    kernel = np.exp(-c / (1.0 + s)) if c > 0 else np.ones_like(s)
    return half / (2.0 * np.pi) * np.einsum("ij,j->i", (rho[:, None] - s) * kernel, weights)


def quadrature_r_wp(b, sigma_x, r):
    """I(r) + C1 r + C2 with every integral by 384-node Gauss-Legendre, C1
    and C2 fitted to the endpoint integrals I(0) and I(sigma_x^2)."""
    var = sigma_x**2
    c = (b / sigma_x) ** 2
    mean, power = clip_moments(b, sigma_x)
    i_zero, i_var = var * gauss_legendre_price(np.array([0.0, 1.0]), c)
    c2 = mean**2 - i_zero
    c1 = (power - c2 - i_var) / var
    return var * gauss_legendre_price(r / var, c) + c1 * r + c2


def nested_quad_oracle(r, b, sigma_x=1.0):
    """Independent nested quadrature of the raw double integral.

    Works in the original (t, s) coordinates; the inverse-square-root edge
    singularities go into QUADPACK algebraic weights instead of the
    production path's sine substitution.
    """
    var = sigma_x**2

    def expo(t):
        dt = var + t
        if dt <= 0:
            return 0.0 if b > 0 else 1.0
        return np.exp(-b * b / dt)

    def inner(s):
        if s <= -var:
            return 0.0
        if s >= var * (1 - 1e-13):
            f = lambda t: expo(t) / (2 * np.pi)
            val, _ = quad(f, -var, var, weight="alg", wvar=(-0.5, -0.5),
                          epsabs=1e-13, epsrel=1e-12, limit=200)
            return val
        f = lambda t: expo(t) / (2 * np.pi * np.sqrt(var - t))
        val, _ = quad(f, -var, s, weight="alg", wvar=(-0.5, 0.0),
                      epsabs=1e-13, epsrel=1e-12, limit=200)
        return val

    val, _ = quad(inner, -var, r, epsabs=1e-11, epsrel=1e-10, limit=200)
    return val


class TestBussgangGain:
    def test_zero_bias(self):
        assert bussgang_gain(0.0, 1.0) == 0.5

    def test_three_sigma(self):
        assert bussgang_gain(3.0, 1.0) == pytest.approx(Q_MINUS_3, rel=1e-12)

    def test_monotone_to_one(self):
        ks = [bussgang_gain(b, 1.0) for b in np.linspace(0, 6, 25)]
        assert all(a < b for a, b in zip(ks, ks[1:]))
        assert bussgang_gain(10.0, 1.0) > 1 - 1e-12

    def test_degenerate_sigma(self):
        with pytest.raises(ValueError):
            bussgang_gain(1.0, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(b=st.floats(0.0, 20.0), sigma=st.floats(1e-3, 1e3))
    def test_range_property(self, b, sigma):
        k = bussgang_gain(b, sigma)
        assert 0.5 <= k < 1.0 + 1e-12


class TestClipMoments:
    def test_closed_form_zero_bias(self):
        mean, power = clip_moments(0.0, 1.0)
        assert mean == pytest.approx(1.0 / np.sqrt(2 * np.pi), rel=1e-14)
        assert power == pytest.approx(0.25, rel=1e-14)

    def test_reference_value_b1(self):
        mean, power = clip_moments(1.0, 1.0)
        assert mean == pytest.approx(MEAN_WP_B1, rel=1e-12)
        assert power == pytest.approx(POWER_WP_B1, rel=1e-12)

    def test_sigma_scaling(self):
        m1, p1 = clip_moments(0.7, 1.0)
        m2, p2 = clip_moments(0.7 * 3.0, 3.0)
        assert m2 == pytest.approx(3.0 * m1, rel=1e-12)
        assert p2 == pytest.approx(9.0 * p1, rel=1e-12)

    def test_deep_bias_negligible(self):
        mean, power = clip_moments(5.0, 1.0)
        assert mean < 1e-5
        assert power < 1e-5

    def test_mc_oracle(self):
        rng = np.random.default_rng(99)
        x = rng.standard_normal(2_000_000)
        for b in (0.0, 0.5, 1.0, 1.7):
            wp = np.maximum(x + b, 0.0) - b - bussgang_gain(b, 1.0) * x
            mean, power = clip_moments(b, 1.0)
            assert wp.mean() == pytest.approx(mean, rel=0.01)
            assert (wp**2).mean() == pytest.approx(power, rel=0.01)

    def test_power_monotone_in_bias(self):
        powers = [clip_moments(b, 1.0)[1] for b in np.linspace(0, 4, 33)]
        assert all(b < a for a, b in zip(powers, powers[1:]))


class TestPriceIntegral:
    def test_empty_interval(self):
        assert price_integral(-1.0, 0.3, 1.0) == 0.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            price_integral(1.5, 0.3, 1.0)

    def test_closed_form_b0(self):
        for r in (-0.99, -0.4, 0.0, 0.3, 0.85, 1.0):
            assert price_integral(r, 0.0, 1.0) == pytest.approx(
                closed_form_b0(r), abs=1e-12
            )

    @pytest.mark.parametrize("b", [0.0, 0.6, 1.2])
    def test_nested_quad_oracle(self, b):
        for r in np.linspace(-1.0, 1.0, 9):
            assert price_integral(float(r), b, 1.0) == pytest.approx(
                nested_quad_oracle(float(r), b), abs=1e-10
            )

    def test_monotone_and_convex(self):
        rs = np.linspace(-1.0, 1.0, 41)
        vals = np.array([price_integral(float(r), 0.8, 1.0) for r in rs])
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-14)
        assert np.all(np.diff(diffs) >= -1e-12)

    def test_sigma_scaling(self):
        v1 = price_integral(0.4, 0.5, 1.0)
        v2 = price_integral(0.4 * 4.0, 0.5 * 2.0, 2.0)
        assert v2 == pytest.approx(4.0 * v1, rel=1e-10)


def mp_price_integral(rho, lam):
    """I(rho) at sigma_x = 1 and b = -lam by 40-digit tanh-sinh quadrature.

    With t = theta + pi/2 the kernel's 1 + sin(theta) is 2 sin(t/2)^2,
    which keeps its digits where theta nears -pi/2.  mpmath stops on an
    absolute error, so the kernel is scaled by e^c and the result by e^-c:
    at lam = -9, I(0) is 1.5e-40.
    """
    with mpmath.workdps(40):
        rho, c = mpmath.mpf(rho), mpmath.mpf(lam) ** 2

        def integrand(t):
            cos_t = mpmath.cos(t)
            return (rho + cos_t) * mpmath.exp(-c * cos_t / (2 * mpmath.sin(t / 2) ** 2))

        upper = mpmath.asin(rho) + mpmath.pi / 2
        return mpmath.quad(integrand, [0, upper]) * mpmath.exp(-c) / (2 * mpmath.pi)


class TestPriceConstants:
    @pytest.mark.parametrize("lam", PRICE_LAMS)
    def test_closed_form(self, lam):
        # R_wp(r) = I(r) - Q(b/sigma_x)^2 r, i.e. C2 = 0 and C1 = -(1 - K)^2:
        # E(w_p)^2 = I(0) and E(w_p^2) + Q(b/sigma_x)^2 sigma_x^2 = I(sigma_x^2),
        # with clip_moments' formulas and I in 40 digits (residuals measure
        # below 1e-38 relative)
        with mpmath.workdps(40):
            lam_mp = mpmath.mpf(lam)
            phi, k, q = mpmath.npdf(lam_mp), mpmath.ncdf(-lam_mp), mpmath.ncdf(lam_mp)
            mean = abs(phi + lam_mp * q)
            power = lam_mp**2 * q + lam_mp * phi + k * q
            i_zero, i_var = mp_price_integral(0, lam), mp_price_integral(1, lam)
            assert abs(mean**2 - i_zero) <= 1e-30 * i_zero
            assert abs(power + q**2 - i_var) <= 1e-30 * i_var

    @pytest.mark.parametrize("lam", PRICE_LAMS)
    def test_negative_lags(self, lam):
        # quadrature lags below -1/2 against the 40-digit closed form: over
        # 201 lam in [-10, 0] they err by at most 4.7e-16, against 3.2e-15
        # with C1 and C2 fitted to 384-node endpoint integrals
        rho = np.array([-0.999, -0.9, -0.75, -0.6, np.nextafter(-MEHLER_CUT, -1.0)])
        r_wp = _r_wp(-lam, 1.0, np.concatenate([[1.0], rho]))[2][1:]
        with mpmath.workdps(40):
            q = mpmath.ncdf(lam)
            expected = [float(mp_price_integral(r, lam) - q**2 * r) for r in rho]
        assert_allclose(r_wp, expected, rtol=0, atol=1e-15)


class TestPriceCore:
    def test_vector_and_scalar(self):
        rho = np.linspace(-1.0, 1.0, 7)
        vec = _price_core(rho, 0.0625)
        assert_allclose(vec, [_price_core(float(x), 0.0625)[0] for x in rho],
                        rtol=0, atol=1e-15)
        # a full lag vector as compute_clipping_stats builds it at N = 1024:
        # every lag must come out bit-identical to its scalar evaluation
        r_x = signal_autocorrelation(lp_step_allocation(511, 0.02), 1.0, 1024)
        rho = r_x / r_x[0]
        assert_array_equal(
            _price_core(rho, 0.25), [_price_core(float(x), 0.25)[0] for x in rho]
        )


class TestAutocorrelation:
    def test_white_case(self):
        sigma = 0.8
        mean, power = clip_moments(0.3, sigma)
        r_x = np.zeros(32)
        r_x[0] = sigma**2
        r_wp = _r_wp(0.3, sigma, r_x)[2]
        assert r_wp[0] == pytest.approx(power, rel=1e-12)
        assert_allclose(r_wp[1:], mean**2, rtol=1e-8)

    def test_adaptive_quad_oracle(self):
        # R_wp = I(r) + C1 r + C2 with every integral by adaptive quadrature
        rng = np.random.default_rng(4)
        rs = np.concatenate([rng.uniform(-1, 1, 60), [-1.0, 1.0, 0.0]])
        r_x = np.concatenate([[1.0], rs])
        for b in (0.0, 0.4, 1.1, 2.5):
            mean, power = clip_moments(b, 1.0)
            c2 = mean**2 - price_integral(0.0, b, 1.0)
            c1 = power - c2 - price_integral(1.0, b, 1.0)
            expected = [price_integral(float(r), b, 1.0) + c1 * r + c2 for r in rs]
            r_wp = _r_wp(b, 1.0, r_x)[2]
            assert np.max(np.abs(r_wp[1:] - expected)) < 1e-8

    def test_stats_match_autocorrelation(self, table1_cfg):
        # compute_clipping_stats evaluates lags 0..N/2 and mirrors them
        n = table1_cfg.n_subcarriers
        p = lp_step_allocation(table1_cfg.n_data_subcarriers, 0.005)
        stats = compute_clipping_stats(0.05, p, table1_cfg)  # b ~ 1.6 sigma_x
        full = _r_wp(0.05, np.sqrt(stats.sigma_x2), stats.r_x)[2]
        assert_array_equal(stats.r_wp[: n // 2 + 1], full[: n // 2 + 1])
        assert_allclose(stats.r_wp, full, rtol=0, atol=1e-15 * stats.power_wp)

    def test_budget_edge_accepted(self, desk_cfg):
        # validate_p_norm admits |sum p - 1/2| <= 1e-9, which puts r_x[0] up
        # to 2e-9 off sigma_x^2: the stats path must accept that allocation
        n_data = desk_cfg.n_data_subcarriers
        p = np.full(n_data, (0.5 + 0.9e-9) / n_data)
        stats = compute_clipping_stats(0.1, p, desk_cfg)
        assert stats.r_x[0] > stats.sigma_x2 * (1.0 + 1e-9)
        assert stats.r_wp[0] == stats.power_wp
        assert np.all(np.isfinite(stats.p_wp))

    def test_even_symmetry(self, desk_cfg):
        p = lp_step_allocation(desk_cfg.n_data_subcarriers, 0.02)
        stats = compute_clipping_stats(0.12, p, desk_cfg)
        assert_allclose(stats.r_wp[1:], stats.r_wp[:0:-1], rtol=1e-10)
        assert_allclose(stats.r_x[1:], stats.r_x[:0:-1], rtol=0, atol=1e-18)

    def test_b0_closed_form(self):
        # at b = 0 the clipper is |x|/2 + x/2 - x/2: R_wp has the arcsine form
        sigma = 1.3
        var = sigma**2
        rho = np.linspace(-1, 1, 21)
        r_x = rho * var
        r_x[0] = var
        r_wp = _r_wp(0.0, sigma, r_x)[2]
        expected = (var / (2 * np.pi)) * (np.sqrt(1 - rho**2) + rho * np.arcsin(rho)) \
            + var * rho / 4.0 - var * rho / 4.0  # arcsine law of E(|x1||x2|)/4
        # w_p = |x|/2 at b=0, so R_wp = E(|x_n||x_m|)/4
        arcsine = (2 * var / np.pi) * (np.sqrt(1 - rho**2) + rho * np.arcsin(rho)) / 4.0
        assert_allclose(r_wp[1:], arcsine[1:], rtol=1e-10)

    def test_theorem_consistency_identity(self):
        # C2 + I(0) = E(w_p)^2 and I(var) + C1 var + C2 = E(w_p^2), to 1e-8
        sigma = 0.6
        for b in (0.0, 0.25, 0.8):
            mean, power = clip_moments(b, sigma)
            r_x = np.zeros(16)
            r_x[0] = sigma**2
            r_wp = _r_wp(b, sigma, r_x)[2]
            assert r_wp[3] == pytest.approx(mean**2, rel=1e-8, abs=1e-20)
            assert r_wp[0] == pytest.approx(power, rel=1e-8)


class TestMehlerSeries:
    @pytest.mark.parametrize("lam", SERIES_LAMS)
    def test_matches_quadrature(self, lam):
        sigma = 1.3
        var = sigma**2
        r = np.linspace(-0.5, 0.5, 201) * var
        r_wp = _r_wp(-lam * sigma, sigma, np.concatenate([[var], r]))[2]
        err = np.max(np.abs(r_wp[1:] - quadrature_r_wp(-lam * sigma, sigma, r)))
        assert err <= 2e-15 * var

    @pytest.mark.parametrize("lam", SERIES_LAMS + (-0.05,))
    def test_seam(self, lam):
        # the series at rho = 1/2 against the quadrature one float above it.
        # The gap is the 192-node quadrature's own error: against a 40-digit
        # evaluation that side errs by 1.8e-15 at lam = -0.3 and by 7.1e-15
        # at lam = -0.05 (the worst of 201 lam in [-10, 0]), the series side
        # by less than 1e-16
        rho = np.array([1.0, MEHLER_CUT, np.nextafter(MEHLER_CUT, 1.0)])
        r_wp = _r_wp(-lam, 1.0, rho)[2]
        assert abs(r_wp[1] - r_wp[2]) <= 1.2e-14

    @pytest.mark.parametrize("n", [256, 1024, 4096])
    def test_deep_bias_finite(self, n):
        # b = sqrt(P)(1 - 1e-12) leaves lam ~ -4.5e7 at N = 4096, where the
        # Hermite values overflow unless scaled by phi(lam)
        cfg = OfdmConfig(n_symbols=1, n_subcarriers=n, delta_f=2e5,
                         guard_s=2e-6, power_w=1.0)
        b = np.sqrt(cfg.power_w) * (1.0 - 1e-12)
        stats = compute_clipping_stats(b, uniform_allocation(cfg), cfg)
        assert np.all(np.isfinite(stats.p_wp))

    def test_subnormal_bias_window(self, desk_cfg):
        # lam from -26.4 to -30.4 on a low-band allocation with no lag above
        # the cut: phi(lam)^2 turns subnormal here, and a sum of subnormal
        # terms fails the PSD evenness check (b = 0.875, lam = -28.9)
        p = np.zeros(desk_cfg.n_data_subcarriers)
        p[:88] = 0.5 / 88
        for b in np.linspace(0.855, 0.885, 61):
            stats = compute_clipping_stats(b, p, desk_cfg)
            assert np.all(np.isfinite(stats.p_wp))

    @pytest.mark.parametrize("n, p_max, lo, hi", [
        (256, 0.04, 0.9201, 0.9220),
        (1024, 0.01, 0.7613, 0.7658),
        (4096, 0.0025, 0.5059, 0.5114),
    ])
    def test_subnormal_bias_window_above_cut(self, n, p_max, lo, hi):
        # lam near -37.5 on a sensing-LP step allocation, which has lags
        # above the cut: the quadrature lags came out subnormal there and
        # most of these biases failed the PSD evenness check
        cfg = OfdmConfig(n_symbols=1, n_subcarriers=n, delta_f=2e5,
                         guard_s=2e-6, power_w=1.0)
        p = lp_step_allocation(cfg.n_data_subcarriers, p_max)
        rho = np.abs(signal_autocorrelation(p, 1.0, n)[1:]) * n
        assert np.any(rho > MEHLER_CUT)
        for b in np.linspace(lo, hi, 13):
            stats = compute_clipping_stats(b, p, cfg)
            assert_array_equal(stats.r_wp[1:], stats.mean_wp**2)
            assert np.all(np.isfinite(stats.p_wp))

    def test_per_lag_matches_vector(self):
        # N = 1024 with lags on both sides of the cut: every lag of the
        # full vector must equal its own scalar evaluation bit for bit
        r_x = signal_autocorrelation(lp_step_allocation(511, 0.01), 1.0, 1024)
        sigma = np.sqrt(r_x[0])
        rho = np.abs(r_x[1:]) / r_x[0]
        assert np.any(rho > MEHLER_CUT) and np.any(rho <= MEHLER_CUT)
        b = 0.8 * sigma
        full = _r_wp(b, sigma, r_x)[2]
        single = [_r_wp(b, sigma, r_x[[0, k]])[2][1] for k in range(1, r_x.size)]
        assert_array_equal(full[1:], single)


class TestClippingPsd:
    def test_constant_autocorrelation(self):
        r = np.full(16, 0.3)
        p = clipping_psd(r)
        assert p[0] == pytest.approx(16 * 0.3)
        assert_allclose(p[1:], 0.0, atol=1e-12)

    def test_white_flat(self):
        sigma = 1.0
        mean, power = clip_moments(0.4, sigma)
        r_x = np.zeros(64)
        r_x[0] = 1.0
        r_wp = _r_wp(0.4, sigma, r_x)[2]
        p = clipping_psd(r_wp)
        assert_allclose(p[1:], power - mean**2, rtol=1e-7)

    def test_total_power_identity(self, desk_cfg):
        p_alloc = lp_step_allocation(desk_cfg.n_data_subcarriers, 0.02)
        stats = compute_clipping_stats(0.15, p_alloc, desk_cfg)
        assert np.sum(stats.p_wp) / desk_cfg.n_subcarriers == pytest.approx(
            stats.r_wp[0], rel=1e-8
        )

    def test_nonnegative_and_even(self, desk_cfg):
        stats = compute_clipping_stats(0.1, uniform_allocation(desk_cfg), desk_cfg)
        assert np.min(stats.p_wp) >= -1e-12 * np.max(stats.p_wp)
        assert_allclose(stats.p_wp[1:], stats.p_wp[:0:-1], rtol=1e-8)

    def test_asymmetric_rejected(self):
        r = np.zeros(8)
        r[1] = 1.0  # odd part only: DFT is complex
        with pytest.raises(ValueError):
            clipping_psd(r)


class TestSignalAutocorrelation:
    def test_lag0_is_variance(self, desk_cfg):
        p = uniform_allocation(desk_cfg)
        r_x = signal_autocorrelation(p, 0.9, desk_cfg.n_subcarriers)
        assert r_x[0] == pytest.approx(0.9 / desk_cfg.n_subcarriers, rel=1e-12)

    def test_matches_empirical(self, desk_cfg):
        p = lp_step_allocation(desk_cfg.n_data_subcarriers, 0.02)
        ac = 1.0
        r_x = signal_autocorrelation(p, ac, desk_cfg.n_subcarriers)
        acc = np.zeros(desk_cfg.n_subcarriers)
        n_frames = 150
        for t in range(n_frames):
            grid = generate_frame(desk_cfg, p, rng_seed=[31, t], bias=0.0)
            x = to_time_domain(grid, desk_cfg).cores
            spec = np.fft.fft(x, axis=1)
            acc += np.mean(np.fft.ifft(spec * np.conj(spec), axis=1).real, axis=0)
        emp = acc / n_frames / desk_cfg.n_subcarriers
        # MC standard error ~ r_x[0] / sqrt(frames * symbols * N) ~ 5e-6
        assert_allclose(emp[:8], r_x[:8], atol=5e-3 * r_x[0])


class TestSnrProfiles:
    @staticmethod
    def _chan(n_c=1e-10, n_s=1e-10):
        return ChannelState(h_bar_c=0.6, h_bar_s=0.005, sigma_t2_s=0.0,
                            noise_psd_c=n_c, noise_psd_s=n_s,
                            reflectivity=0.5)

    def test_clipping_free_limit(self, desk_cfg):
        # with P_wp ~ 0 (deep bias) the profile is flat:
        # gamma_c = 2 E(h_c)^2 K^2 (P - b^2) / (N_c df)
        b = 0.7  # lambda_b ~ -13 at N = 256
        p = uniform_allocation(desk_cfg)
        stats = compute_clipping_stats(b, p, desk_cfg)
        chan = self._chan()
        snr = snr_profiles(stats, chan, desk_cfg, b)
        expect = (2 * chan.h_bar_c**2 * stats.bussgang**2
                  * (desk_cfg.power_w - b**2) / (chan.noise_psd_c * desk_cfg.delta_f))
        assert_allclose(snr.gamma_c, expect, rtol=1e-9)

    def test_large_noise_kills_snr(self, desk_cfg):
        p = uniform_allocation(desk_cfg)
        stats = compute_clipping_stats(0.2, p, desk_cfg)
        snr = snr_profiles(stats, self._chan(n_c=1e8), desk_cfg, 0.2)
        assert np.all(snr.gamma_c < 1e-12)

    def test_hand_evaluation(self, desk_cfg):
        b = 0.1
        p = lp_step_allocation(desk_cfg.n_data_subcarriers, 0.02)
        stats = compute_clipping_stats(b, p, desk_cfg)
        chan = self._chan()
        snr = snr_profiles(stats, chan, desk_cfg, b)
        k = 5  # spot-check one subcarrier by direct formula evaluation
        num = stats.bussgang**2 * (desk_cfg.power_w - b**2)
        den_c = chan.noise_psd_c * desk_cfg.delta_f / (2 * chan.h_bar_c**2) + stats.p_wp[k]
        den_s = (chan.noise_psd_s * desk_cfg.delta_f
                 / (2 * chan.reflectivity**2 * chan.h_bar_s**2) + stats.p_wp[k])
        assert snr.gamma_c[k - 1] == pytest.approx(num / den_c, rel=1e-12)
        assert snr.gamma_s[k - 1] == pytest.approx(num / den_s, rel=1e-12)
        assert np.all(np.isfinite(snr.gamma_c)) and np.all(snr.gamma_c > 0)


class TestMonteCarloAgreement:
    def test_moments_with_real_frames(self, clip_cfg):
        # mid-clipping operating point: b = 1.5 sigma_x
        p = uniform_allocation(clip_cfg)
        sigma0 = np.sqrt(clip_cfg.power_w / clip_cfg.n_subcarriers)
        b = 1.5 * sigma0
        stats = compute_clipping_stats(b, p, clip_cfg)
        acc_m = acc_p = n = 0.0
        for t in range(70):
            grid = generate_frame(clip_cfg, p, rng_seed=[41, t], bias=b)
            x = to_time_domain(grid, clip_cfg).cores
            wp = np.maximum(x + b, 0.0) - b - stats.bussgang * x
            acc_m += wp.sum()
            acc_p += (wp**2).sum()
            n += wp.size
        assert n >= 1e6
        assert acc_m / n == pytest.approx(stats.mean_wp, rel=0.01)
        assert acc_p / n == pytest.approx(stats.power_wp, rel=0.01)
