"""Simulator tests: channel evolution, precoders, moment validation."""

import numpy as np
import pytest

from csisched import simulator
from csisched.ratemodel import MF, ZF, SystemConfig, UserLink, sinr, total_snr
from csisched.simulator import (
    MAX_TRIALS,
    autocorrelation_check,
    complex_gaussian,
    evolve_channel,
    mf_precoder,
    validate_closed_form,
    zf_precoder,
)


class TestChannelModel:
    def test_unit_variance_entries(self):
        rng = np.random.default_rng(1)
        h = complex_gaussian(rng, 100_000)
        var = np.mean(np.abs(h) ** 2)
        assert 0.98 <= var <= 1.02
        # circular symmetry: real/imag parts each carry half the power
        assert np.var(h.real) == pytest.approx(0.5, abs=0.01)
        assert np.var(h.imag) == pytest.approx(0.5, abs=0.01)

    def test_zero_age_is_identity(self):
        rng = np.random.default_rng(2)
        h = complex_gaussian(rng, 64)
        assert evolve_channel(h, 0.9, 0, rng) is h

    def test_rho_zero_draws_fresh(self):
        rng = np.random.default_rng(3)
        h = complex_gaussian(rng, 100_000)
        h2 = evolve_channel(h, 0.0, 1, rng)
        corr = np.abs(np.vdot(h, h2)) / np.sqrt(
            (np.abs(h) ** 2).sum() * (np.abs(h2) ** 2).sum()
        )
        assert corr < 0.01

    def test_aged_correlation_matches_power(self):
        rng = np.random.default_rng(4)
        h = complex_gaussian(rng, 100_000)
        h3 = evolve_channel(h, 0.9, 3, rng)
        corr = np.real(np.vdot(h, h3)) / np.sqrt(
            (np.abs(h) ** 2).sum() * (np.abs(h3) ** 2).sum()
        )
        assert corr == pytest.approx(0.9**3, abs=0.01)

    def test_variance_stationary_after_many_steps(self):
        rng = np.random.default_rng(5)
        h = complex_gaussian(rng, 100_000)
        for _ in range(10):
            h = evolve_channel(h, 0.8, 1, rng)
        assert 0.98 <= np.mean(np.abs(h) ** 2) <= 1.02

    def test_rejects_bad_arguments(self):
        rng = np.random.default_rng(6)
        h = complex_gaussian(rng, 4)
        with pytest.raises(ValueError):
            evolve_channel(h, 1.5, 1, rng)
        with pytest.raises(ValueError):
            evolve_channel(h, 0.5, -1, rng)


class TestAutocorrelation:
    def test_rho_one_all_lags_unity(self):
        corr = autocorrelation_check(1.0, 5, 10_000, seed=7)
        assert np.allclose(corr, 1.0, atol=1e-12)

    def test_rho_zero_decorrelates(self):
        corr = autocorrelation_check(0.0, 4, 100_000, seed=8)
        assert np.all(np.abs(corr[1:]) <= 3.0 / np.sqrt(100_000))

    def test_geometric_decay(self):
        corr = autocorrelation_check(0.75, 4, 100_000, seed=9)
        assert corr[4] == pytest.approx(0.75**4, abs=0.01)
        for lag in range(5):
            assert corr[lag] == pytest.approx(0.75**lag, abs=0.01)


class TestPrecoders:
    def test_mf_columns_are_scaled_conjugates(self):
        rng = np.random.default_rng(10)
        H = complex_gaussian(rng, (5, 16))
        V = mf_precoder(H)
        assert V.shape == (16, 5)
        assert np.allclose(V[:, 2], np.conj(H[2]) / 4.0)

    def test_mf_expected_column_norm(self):
        rng = np.random.default_rng(11)
        H = complex_gaussian(rng, (2000, 4, 32))
        V = mf_precoder(H)
        norms = (np.abs(V) ** 2).sum(axis=1)
        assert np.mean(norms) == pytest.approx(1.0, abs=0.05)

    def test_mf_single_antenna(self):
        V = mf_precoder(np.array([[1.0 + 0.0j]]))
        assert V == pytest.approx(1.0)

    def test_mf_cross_user_power_is_unity(self):
        # No orthogonality: |h_j^T v_k|^2 averages to 1 across draws.
        rng = np.random.default_rng(12)
        H = complex_gaussian(rng, (4000, 3, 24))
        V = mf_precoder(H)
        dots = np.einsum("bm,bmk->bk", H[:, 0, :], V)
        cross = np.abs(dots[:, 1:]) ** 2
        assert np.mean(cross) == pytest.approx(1.0, abs=0.05)

    def test_zf_zero_forcing_identity(self):
        rng = np.random.default_rng(13)
        H = complex_gaussian(rng, (40, 64))
        V = zf_precoder(H)
        G = H @ V
        scale = np.sqrt(64 - 40)
        off = G - scale * np.eye(40)
        assert np.max(np.abs(np.diag(G) - scale)) <= 1e-8 * scale
        assert np.max(np.abs(off)) <= 1e-6 * scale

    def test_zf_single_user_parallel_to_mf(self):
        rng = np.random.default_rng(14)
        H = complex_gaussian(rng, (1, 8))
        V_zf = zf_precoder(H)
        V_mf = mf_precoder(H)
        ratio = V_zf / V_mf
        assert np.allclose(ratio, ratio[0, 0])

    def test_zf_rejects_square_or_fat(self):
        rng = np.random.default_rng(15)
        with pytest.raises(ValueError):
            zf_precoder(complex_gaussian(rng, (8, 8)))


class TestValidateClosedForm:
    def test_mf_moments_small_run(self):
        cfg = SystemConfig(M=32, K=4, C=50, precoder=MF)
        users = [UserLink(snr=4.0, rho=0.8)] * 4
        rep = validate_closed_form(cfg, users, 2, trials=20_000, seed=21)
        assert rep.signal_cf == pytest.approx(4.0 * 32 * 0.8**4, rel=1e-12)
        assert rep.variance_cf == 4.0
        assert rep.interference_cf == 12.0
        assert rep.rel_err(rep.signal_emp, rep.signal_cf) < 0.05
        assert rep.rel_err(rep.variance_emp, rep.variance_cf) < 0.10
        assert rep.rel_err(rep.interference_emp, rep.interference_cf) < 0.05
        assert rep.sinr_cf == pytest.approx(sinr(cfg, users[0], total_snr(users), 2))

    def test_zf_moments_small_run(self):
        cfg = SystemConfig(M=24, K=8, C=50, precoder=ZF)
        users = [UserLink(snr=4.0, rho=0.8)] * 8
        rep = validate_closed_form(cfg, users, 1, trials=20_000, seed=22)
        decay = 0.8**2
        assert rep.signal_cf == pytest.approx(4.0 * 16 * decay, rel=1e-12)
        assert rep.variance_cf == pytest.approx(4.0 * (1 - decay), rel=1e-12)
        assert rep.interference_cf == pytest.approx((1 - decay) * 28.0, rel=1e-12)
        assert rep.sinr_rel_err < 0.08

    def test_zf_exact_at_age_zero(self):
        cfg = SystemConfig(M=16, K=4, C=50, precoder=ZF)
        users = [UserLink(snr=2.0, rho=0.7)] * 4
        rep = validate_closed_form(cfg, users, 0, trials=2000, seed=23)
        # age 0: the estimate is the channel, so every term is deterministic
        assert rep.sinr_emp == pytest.approx(rep.sinr_cf, rel=1e-9)

    def test_reproducible_reports(self):
        cfg = SystemConfig(M=16, K=3, C=50, precoder=MF)
        users = [UserLink(snr=1.0, rho=0.9)] * 3
        a = validate_closed_form(cfg, users, 1, trials=5000, seed=77)
        b = validate_closed_form(cfg, users, 1, trials=5000, seed=77)
        assert a == b

    def test_rows_schema(self):
        cfg = SystemConfig(M=16, K=3, C=50, precoder=MF)
        users = [UserLink(snr=1.0, rho=0.9)] * 3
        rep = validate_closed_form(cfg, users, 1, trials=1000, seed=5)
        rows = rep.rows()
        assert [r[0] for r in rows] == ["signal", "variance", "interference", "sinr"]
        for term, emp, cf, err, trials, seed in rows:
            assert np.isfinite(emp) and np.isfinite(cf) and np.isfinite(err)
            assert trials == 1000 and seed == 5

    def test_rejects_bad_arguments(self):
        cfg = SystemConfig(M=16, K=2, C=50, precoder=MF)
        users = [UserLink(snr=1.0, rho=0.9)] * 2
        with pytest.raises(ValueError):
            validate_closed_form(cfg, users, 1, trials=0, seed=1)

    def test_max_trials_spawns_one_seed_per_batch(self, monkeypatch):
        # An up-front spawn at MAX_TRIALS makes about 400,000 seeds before
        # the first batch; the guard turns that into a test failure.
        real_seeds = np.random.SeedSequence

        class GuardedSeeds(real_seeds):
            def spawn(self, n_children):
                assert n_children <= 4096, "seed spawn too large for a test"
                return super().spawn(n_children)

        class FirstBatch(Exception):
            pass

        def first_batch(*args):
            raise FirstBatch

        monkeypatch.setattr(np.random, "SeedSequence", GuardedSeeds)
        monkeypatch.setattr(simulator, "_batch_moments", first_batch)
        cfg = SystemConfig(M=16, K=2, C=50, precoder=MF)
        users = [UserLink(snr=1.0, rho=0.9)] * 2
        with pytest.raises(FirstBatch):
            validate_closed_form(cfg, users, 1, trials=MAX_TRIALS, seed=1)
