"""Rate model tests: closed forms, cumulative curves, smoothing."""

import numpy as np
import pytest
from oracles import brute_force_interval_value

from csisched.ratemodel import (
    MF,
    ZF,
    RateTableBank,
    SystemConfig,
    UserLink,
    build_rate_table,
    build_rate_tables,
    g_extended,
    g_smoothed,
    rate,
    s_of_p,
    s_smoothed,
    sinr,
    total_snr,
)

MF_CFG = SystemConfig(M=64, K=1, C=50, precoder=MF)
ZF_CFG = SystemConfig(M=64, K=40, C=50, precoder=ZF)


def random_user(rng):
    return UserLink(snr=float(rng.uniform(0.5, 20.0)), rho=float(rng.uniform(0.0, 0.99)))


def random_table(rng, cfg=None):
    cfg = cfg or SystemConfig(M=64, K=40, C=50, precoder=rng.choice([MF, ZF]))
    user = random_user(rng)
    return cfg, user, build_rate_table(cfg, user, float(rng.uniform(1.0, 500.0)))


class TestSinr:
    def test_mf_hand_evaluated(self):
        # snr*M*rho^0 / (1 + isum) = 10*64 / 11
        got = sinr(MF_CFG, UserLink(snr=10, rho=0.9), 10.0, 0)
        assert got == pytest.approx(640.0 / 11.0, rel=1e-12)

    def test_rho_one_age_invariant(self):
        u = UserLink(snr=3.0, rho=1.0)
        for cfg in (MF_CFG, ZF_CFG):
            for n in (1, 7, 400):
                assert sinr(cfg, u, 50.0, n) == sinr(cfg, u, 50.0, 0)

    def test_zf_hand_evaluated(self):
        # 10*24*0.8^4 / (1 + (1 - 0.8^4)*400) = 98.304 / 237.16
        got = sinr(ZF_CFG, UserLink(snr=10, rho=0.8), 400.0, 2)
        assert got == pytest.approx(98.304 / 237.16, rel=1e-12)

    def test_zf_requires_more_antennas_than_users(self):
        with pytest.raises(ValueError):
            SystemConfig(M=40, K=40, C=50, precoder=ZF)

    def test_negative_age_rejected(self):
        with pytest.raises(ValueError):
            sinr(MF_CFG, UserLink(snr=1, rho=0.5), 1.0, -1)

    def test_monotone_in_age(self):
        rng = np.random.default_rng(7)
        ages = np.arange(51)
        for _ in range(50):
            for cfg in (MF_CFG, ZF_CFG):
                u = random_user(rng)
                vals = sinr(cfg, u, float(rng.uniform(0.0, 500.0)), ages)
                assert np.all(np.diff(vals) <= 1e-15)


class TestRate:
    def test_zero_sinr_gives_zero_rate(self):
        assert rate(MF_CFG, UserLink(snr=0.0, rho=0.5), 10.0, 0) == 0.0

    def test_mf_bits_hand_evaluated(self):
        got = rate(MF_CFG, UserLink(snr=10, rho=0.9), 10.0, 0)
        assert got == pytest.approx(np.log2(1 + 640.0 / 11.0), rel=1e-12)

    def test_natural_log_base(self):
        cfg = SystemConfig(M=64, K=1, C=50, precoder=MF, log_base="natural")
        got = rate(cfg, UserLink(snr=10, rho=0.9), 10.0, 0)
        assert got == pytest.approx(np.log(1 + 640.0 / 11.0), rel=1e-12)

    def test_rho_zero_stale_rate_is_zero(self):
        for cfg in (MF_CFG, ZF_CFG):
            assert rate(cfg, UserLink(snr=10, rho=0.0), 400.0, 3) == 0.0


class TestRateTable:
    def test_rho_zero_table_ends_at_one(self):
        t = build_rate_table(MF_CFG, UserLink(snr=10, rho=0.0), 10.0)
        assert t.n_max == 1
        assert t.rates[1] == 0.0

    def test_rho_one_hits_hard_cap(self):
        t = build_rate_table(MF_CFG, UserLink(snr=10, rho=1.0), 10.0, n_max_hard=512)
        assert t.n_max == 512
        assert np.all(t.rates == t.rates[0])

    def test_rates_match_pointwise_and_decrease(self):
        cfg = SystemConfig(M=64, K=40, C=50, precoder=MF)
        u = UserLink(snr=10, rho=0.9)
        t = build_rate_table(cfg, u, 400.0)
        direct = rate(cfg, u, 400.0, np.arange(t.n_max + 1))
        assert np.allclose(t.rates, direct, rtol=0, atol=0)
        assert np.all(np.diff(t.rates) < 0)
        assert t.rates[t.n_max] < 1e-9 <= t.rates[t.n_max - 1]

    def test_prefix_sums_are_cumulative(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            _, _, t = random_table(rng)
            assert t.prefix[0] == 0.0
            assert np.allclose(t.prefix[1:], np.cumsum(t.rates), rtol=0, atol=0)

    def test_concavity_of_g(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            _, _, t = random_table(rng)
            second = np.diff(t.prefix, n=2)
            assert np.all(second <= 1e-15)

    def test_rate_at_age_clamps_to_tail(self):
        t = build_rate_table(MF_CFG, UserLink(snr=10, rho=0.3), 20.0)
        ages = np.array([0, 2, t.n_max, t.n_max + 1, 10_000])
        expect = t.rates[[0, 2, t.n_max, t.n_max, t.n_max]]
        assert np.array_equal(t.rate_at_age(ages), expect)
        assert t.rate_at_age(10_000) == t.rates[-1]


class TestGExtended:
    def setup_method(self):
        self.t = build_rate_table(ZF_CFG, UserLink(snr=10, rho=0.85), 400.0)

    def test_anchor_values(self):
        assert g_extended(self.t, 0.0) == 0.0
        assert g_extended(self.t, 1.0) == self.t.rates[0]
        mid = 0.5 * (self.t.prefix[1] + self.t.prefix[2])
        assert g_extended(self.t, 1.5) == pytest.approx(mid, rel=1e-14)

    def test_matches_interpolation_oracle(self):
        # Independent oracle: np.interp over the tabulated integers.
        grid_n = np.arange(self.t.n_max + 2)
        grid_g = self.t.prefix
        xs = np.linspace(0.0, self.t.n_max + 1, 517)
        expect = np.interp(xs, grid_n, grid_g)
        assert np.allclose(g_extended(self.t, xs), expect, atol=1e-12)

    def test_tail_extrapolates_linearly(self):
        n = self.t.n_max
        g_far = g_extended(self.t, n + 10.0)
        assert g_far == pytest.approx(self.t.prefix[n] + 10.0 * self.t.rates[n], rel=1e-12)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            g_extended(self.t, -0.5)


class TestSOfP:
    def setup_method(self):
        self.t = build_rate_table(MF_CFG, UserLink(snr=10, rho=0.9), 10.0)

    def test_endpoints(self):
        assert s_of_p(self.t, 1.0) == self.t.rates[0]
        assert s_of_p(self.t, 0.0) == 0.0

    def test_half(self):
        expect = 0.5 * (self.t.rates[0] + self.t.rates[1])
        assert s_of_p(self.t, 0.5) == pytest.approx(expect, rel=1e-14)

    def test_rejects_out_of_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                s_of_p(self.t, bad)

    def test_never_beaten_by_other_interval_distributions(self):
        # Independent oracle: the best mean-constrained distribution on
        # supports of up to three interval lengths in {1..6}; pairs are
        # solved exactly, triples scanned on a 1e-3 weight grid.
        rng = np.random.default_rng(23)
        for _ in range(10):
            _, _, t = random_table(rng)
            for p in (0.5, 0.4, 0.75):
                best = brute_force_interval_value(t, p)
                assert best <= s_of_p(t, p) + 1e-6


def one_sided_slope(f, x, h):
    """Derivative of f at x from x, x + h, x + 2h (h < 0 for the left side);
    exact up to rounding where f is a parabola on that side."""
    return (-3.0 * f(x) + 4.0 * f(x + h) - f(x + 2.0 * h)) / (2.0 * h)


class TestSmoothing:
    def setup_method(self):
        self.t = build_rate_table(ZF_CFG, UserLink(snr=10, rho=0.8), 400.0)
        self.delta = 0.05

    def test_window_boundary_joins(self):
        t, d = self.t, self.delta
        for n in (1, 2, 5):
            x = n - d
            assert g_smoothed(t, x, d) == pytest.approx(g_extended(t, x), abs=1e-12)
            # linear to the left, parabola to the right: the slopes must meet
            for h in (-1e-3, 1e-3):
                slope = one_sided_slope(lambda y: g_smoothed(t, y, d), x, h)
                assert slope == pytest.approx(t.rates[n - 1], abs=1e-9)

    def test_value_and_slope_at_integers(self):
        t, d = self.t, self.delta
        for n in (1, 3, 4):
            r_n, r_p = t.rates[n], t.rates[n - 1]
            assert g_smoothed(t, float(n), d) == pytest.approx(
                t.prefix[n] + d * (r_n - r_p) / 4.0, rel=1e-12
            )
            # a central difference inside the window is exact on the parabola
            h = 1e-3
            slope = (g_smoothed(t, n + h, d) - g_smoothed(t, n - h, d)) / (2.0 * h)
            assert slope == pytest.approx(0.5 * (r_n + r_p), rel=1e-9)

    def test_flat_slope_between_windows(self):
        t, d = self.t, self.delta
        for n in (0, 1, 2, 6):
            xs = np.linspace(n + d, n + 1 - d, 9)
            slopes = np.diff(g_smoothed(t, xs, d)) / np.diff(xs)
            assert np.allclose(slopes, t.rates[min(n, t.n_max)])

    def test_equals_g_outside_windows(self):
        t, d = self.t, self.delta
        rng = np.random.default_rng(5)
        xs = rng.uniform(0, t.n_max + 3, 2000)
        frac = xs - np.floor(xs)
        outside = (frac >= d) & (frac <= 1 - d)
        xs = xs[outside]
        assert np.allclose(g_smoothed(t, xs, d), g_extended(t, xs), atol=0)

    def test_smoothing_bias_bound(self):
        t, d = self.t, self.delta
        xs = np.linspace(0, t.n_max + 2, 4001)
        gap = np.abs(g_smoothed(t, xs, d) - g_extended(t, xs))
        bound = d * np.max(np.abs(np.diff(t.rates))) / 4.0
        assert np.all(gap <= bound + 1e-12)

    def test_rejects_bad_delta(self):
        for bad in (0.0, 0.5, -0.1):
            with pytest.raises(ValueError):
                g_smoothed(self.t, 1.0, bad)


class TestSmoothedS:
    def setup_method(self):
        self.t = build_rate_table(ZF_CFG, UserLink(snr=10, rho=0.8), 400.0)
        self.delta = 0.05

    def test_derivative_at_one(self):
        t, d = self.t, self.delta
        r0, r1 = t.rates[0], t.rates[1]
        expect = (t.prefix[1] + d * (r1 - r0) / 4.0) - 0.5 * (r1 + r0)
        # S(p) = p g(1/p) is not a parabola in p; the three-point error is
        # about 2 h^2 |r1 - r0| / (4 d), 7e-9 for this table at h = 1e-5
        slope = one_sided_slope(lambda q: s_smoothed(t, q, d), 1.0, -1e-5)
        assert slope == pytest.approx(expect, abs=1e-7)

    def test_constant_rate_user_has_zero_gradient(self):
        t = build_rate_table(MF_CFG, UserLink(snr=10, rho=1.0), 10.0, n_max_hard=256)
        ps = np.linspace(0.01, 1.0, 57)
        assert np.allclose(s_smoothed(t, ps, self.delta), t.rates[0], rtol=0, atol=1e-12)

    def test_concavity_on_grid(self):
        rng = np.random.default_rng(41)
        ps = np.linspace(0.01, 1.0, 100)
        for _ in range(40):
            _, _, t = random_table(rng)
            vals = s_smoothed(t, ps, self.delta)
            assert np.all(np.diff(vals, n=2) <= 1e-9)

    def test_rejects_nonpositive_p(self):
        with pytest.raises(ValueError):
            s_smoothed(self.t, 0.0, self.delta)


class TestRateTableBank:
    def test_matches_single_table_functions(self):
        rng = np.random.default_rng(59)
        cfg = ZF_CFG
        users = [random_user(rng) for _ in range(12)]
        tables = build_rate_tables(cfg, users)
        bank = RateTableBank(tables)
        for _ in range(20):
            p = rng.uniform(1e-4, 1.0, len(users))
            s_ref = np.array([s_of_p(t, pk) for t, pk in zip(tables, p)])
            assert np.allclose(bank.s(p), s_ref, rtol=1e-12, atol=1e-12)


class TestValidation:
    def test_config_invariants(self):
        with pytest.raises(ValueError):
            SystemConfig(M=0, K=1, C=1)
        with pytest.raises(ValueError):
            SystemConfig(M=4, K=2, C=2, precoder="dirty")
        with pytest.raises(ValueError):
            UserLink(snr=-1.0, rho=0.5)
        with pytest.raises(ValueError):
            UserLink(snr=1.0, rho=1.5)

    def test_total_snr(self):
        users = [UserLink(snr=1.5, rho=0.5), UserLink(snr=2.5, rho=0.7)]
        assert total_snr(users) == 4.0
