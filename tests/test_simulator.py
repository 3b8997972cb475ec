"""Simulator tests: channel evolution, precoders, moment validation."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import mf_precoder, raw_channel_moments, zf_precoder

from csisched import simulator
from csisched.ratemodel import MF, ZF, SystemConfig, UserLink, sinr, total_snr
from csisched.simulator import (
    MAX_TRIALS,
    autocorrelation_check,
    complex_gaussian,
    evolve_channel,
    validate_closed_form,
)

TERMS = ("signal", "variance", "interference")


class TestChannelModel:
    def test_unit_variance_entries(self):
        rng = np.random.default_rng(1)
        h = complex_gaussian(rng, 100_000)
        var = np.mean(np.abs(h) ** 2)
        assert 0.98 <= var <= 1.02
        # circular symmetry: real/imag parts each carry half the power
        assert np.var(h.real) == pytest.approx(0.5, abs=0.01)
        assert np.var(h.imag) == pytest.approx(0.5, abs=0.01)

    def test_one_draw_of_interleaved_pairs(self):
        z = complex_gaussian(np.random.default_rng(8), (3, 2))
        pairs = np.random.default_rng(8).standard_normal((3, 2, 2)) * np.sqrt(0.5)
        assert np.array_equal(z, pairs[..., 0] + 1j * pairs[..., 1])

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

    @pytest.mark.parametrize(
        "max_n, samples, seed, name", [(3, 0, 1, "samples"), (-1, 10, 1, "max_n"), (3, 10, -1, "seed")]
    )
    def test_rejects_bad_arguments(self, max_n, samples, seed, name):
        with pytest.raises(ValueError, match=name):
            autocorrelation_check(0.9, max_n, samples, seed)


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
        for M in (7, 8):
            with pytest.raises(ValueError, match="M > K"):
                SystemConfig(M=M, K=8, C=50, precoder=ZF)

    def test_zf_rejects_singular_gram(self):
        H = complex_gaussian(np.random.default_rng(16), (4, 16))
        H[2] = H[1]
        with pytest.raises(np.linalg.LinAlgError, match="ill-conditioned"):
            zf_precoder(H)


class TestKernel:
    """The batch kernel against the explicit precoders and the raw-channel
    kernel of the oracles, and the conditioning screen against
    ``np.linalg.cond``."""

    @pytest.mark.parametrize("precoder", [MF, ZF])
    @pytest.mark.parametrize("age", [0, 3])
    def test_batch_matches_explicit_precoder(self, precoder, age):
        # fixed estimates H and innovation e: with L = chol(conj(G)) and
        # z = L^-1 conj(H) e the dot formulas are exact algebra
        cfg = SystemConfig(M=12, K=5, C=50, precoder=precoder)
        rng = np.random.default_rng(31)
        H = complex_gaussian(rng, (64, 5, 12))
        e = complex_gaussian(rng, (64, 12))
        decay = 0.9**age
        spread = np.sqrt(1.0 - decay * decay)
        L = np.linalg.cholesky(np.conj(H) @ np.swapaxes(H, -1, -2))
        z = np.linalg.solve(L, (np.conj(H) @ e[:, :, None]))[:, :, 0]
        dots = simulator._dots(cfg, L, decay, spread * z if age else None)
        V = mf_precoder(H) if precoder == MF else zf_precoder(H)
        expected = np.einsum("bm,bmk->bk", decay * H[:, 0, :] + spread * e, V)
        assert np.allclose(dots, expected, rtol=1e-10, atol=1e-10 * np.abs(expected).max())

    @pytest.mark.parametrize("K, M", [(6, 10), (6, 4)])
    def test_bartlett_factor_moments(self, K, M):
        n = 20_000
        L = simulator._bartlett_factor(np.random.default_rng(32), n, K, M)
        cols = min(K, M)
        assert L.shape == (n, K, cols)
        assert np.array_equal(L, np.tril(L))
        diag = L.diagonal(axis1=-2, axis2=-1)
        assert np.all(diag.imag == 0.0) and np.all(diag.real > 0.0)
        # |L_ii|^2 ~ Gamma(M - i, 1) has mean and variance M - i
        shape = M - np.arange(cols)
        mean_sq = (diag.real**2).mean(axis=0)
        assert np.all(np.abs(mean_sq - shape) <= 6.0 * np.sqrt(shape / n))
        # conj(G) = L L^H has mean M I; each entry's variance is at most M
        gram = L @ np.conj(np.swapaxes(L, -1, -2))
        assert np.all(np.abs(gram.mean(axis=0) - M * np.eye(K)) <= 6.0 * np.sqrt(M / n))

    @pytest.mark.parametrize(
        "precoder, M, K, rho, age",
        [
            (ZF, 64, 40, 0.8, 2),
            (ZF, 41, 40, 0.9, 1),
            (ZF, 24, 8, 0.8, 3),
            (MF, 64, 40, 0.8, 2),
            (MF, 4, 6, 0.8, 2),
            (MF, 6, 6, 0.8, 2),
        ],
    )
    def test_terms_agree_with_raw_channel_kernel(self, monkeypatch, precoder, M, K, rho, age):
        cfg = SystemConfig(M=M, K=K, C=50, precoder=precoder)
        users = [UserLink(snr=4.0, rho=rho)] * K
        rep = validate_closed_form(cfg, users, age, trials=5120, seed=41)
        monkeypatch.setattr(simulator, "_batch_moments", raw_channel_moments)
        ref = validate_closed_form(cfg, users, age, trials=5120, seed=42)
        for term in TERMS:
            emp, cf, se = (getattr(rep, f"{term}_{part}") for part in ("emp", "cf", "se"))
            ref_emp, ref_se = getattr(ref, f"{term}_emp"), getattr(ref, f"{term}_se")
            assert abs(emp - cf) <= 6.0 * se, term
            assert abs(emp - ref_emp) <= 6.0 * np.hypot(se, ref_se), term

    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(
        K=st.integers(1, 12),
        extra=st.integers(1, 24),
        duplicate=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(K=40, extra=1, duplicate=False, seed=0)  # bound above the cut, cond below
    def test_log_bound_covers_log_cond(self, K, extra, duplicate, seed):
        # near-square (extra = 1) and nearly rank-deficient Grams: a row
        # repeated with 1e-7 noise puts cond near 1e15
        rng = np.random.default_rng(seed)
        H = complex_gaussian(rng, (8, K, K + extra))
        if duplicate:
            H[:, -1] = H[:, 0] + 1e-7 * complex_gaussian(rng, (8, K + extra))
        try:
            L = np.linalg.cholesky(H @ np.conj(np.swapaxes(H, -1, -2)))
        except np.linalg.LinAlgError:
            return  # no factor to screen
        cond = np.linalg.cond(L @ np.conj(np.swapaxes(L, -1, -2)))
        assert np.array_equal(simulator._bad_draws(L), cond > simulator._COND_LIMIT)
        bound = simulator._log_cond_bound(L)
        # exact up to rounding: about eps * K * cond from the smallest
        # eigenvalue, 3e-3 at the screen's cut (K=40, cond near 4e11) against
        # its margin of 1, plus 1e-12 for the sums of logs
        assert np.all(bound >= np.log(cond) - np.finfo(float).eps * K * cond - 1e-12)

    def test_zero_or_subnormal_diagonal_is_bad(self):
        L = simulator._bartlett_factor(np.random.default_rng(33), 3, 4, 16)
        L[0, 2, 2] = 0.0
        L[1, 1, 1] = 5e-324
        # no RuntimeWarning (an error under the test configuration)
        assert simulator._bad_draws(L).tolist() == [True, True, False]

    def test_ill_conditioned_draw_is_redrawn_and_counted(self, monkeypatch):
        draw = simulator._bartlett_factor
        shapes = []

        def first_factor_near_singular(rng, n, K, M):
            L = draw(rng, n, K, M)
            if not shapes:
                L[0, 1, 1] = 1e-9  # trial 0: cond(L L^H) near 1e20
            shapes.append(L.shape)
            return L

        monkeypatch.setattr(simulator, "_bartlett_factor", first_factor_near_singular)
        cfg = SystemConfig(M=16, K=4, C=50, precoder=ZF)
        users = [UserLink(snr=2.0, rho=0.7)] * 4
        rep = validate_closed_form(cfg, users, 0, trials=300, seed=23)
        assert rep.resamples == 1
        assert shapes == [(256, 4, 4), (1, 4, 4), (44, 4, 4)]
        # the near-singular draw took no part: age 0 stays exact
        assert rep.sinr_emp == pytest.approx(rep.sinr_cf, rel=1e-9)


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

    @pytest.mark.parametrize("precoder, M, K", [(MF, 32, 4), (ZF, 24, 8)])
    def test_terms_within_six_standard_errors(self, precoder, M, K):
        cfg = SystemConfig(M=M, K=K, C=50, precoder=precoder)
        users = [UserLink(snr=4.0, rho=0.8)] * K
        rep = validate_closed_form(cfg, users, 2, trials=20_000, seed=24)
        for term in TERMS:
            emp, cf, se = (getattr(rep, f"{term}_{part}") for part in ("emp", "cf", "se"))
            assert 0.0 < se < 0.05 * cf, term
            assert abs(emp - cf) <= 6.0 * se, term

    def test_one_batch_has_no_standard_error(self):
        cfg = SystemConfig(M=16, K=3, C=50, precoder=MF)
        users = [UserLink(snr=1.0, rho=0.9)] * 3
        rep = validate_closed_form(cfg, users, 1, trials=256, seed=5)
        assert np.isnan([rep.signal_se, rep.variance_se, rep.interference_se]).all()

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
        with pytest.raises(ValueError, match="trials"):
            validate_closed_form(cfg, users, 1, trials=0, seed=1)
        with pytest.raises(ValueError, match="seed"):
            validate_closed_form(cfg, users, 1, trials=10, seed=-1)

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
