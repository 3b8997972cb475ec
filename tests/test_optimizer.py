"""Optimizer tests: capped-simplex projection against a QP oracle, the
water-fill against grid search and against a per-T fill, endpoint
identities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import grid_best_objective, per_t_water_fill, projection_oracle

from csisched.optimizer import (
    FrequencyAllocation,
    optimize_frequencies,
    optimize_pilot_length,
    project_capped_simplex,
)
from csisched.ratemodel import (
    MF,
    N_MAX_HARD,
    ZF,
    RateTable,
    SystemConfig,
    UserLink,
    build_rate_table,
    build_rate_tables,
    s_of_p,
)


def random_feasible_points(rng, K, T, count):
    """Sequentially sampled points of {sum = T, 0 <= q <= 1}."""
    q = np.zeros((count, K))
    remaining = np.full(count, float(T))
    for k in range(K):
        slack = K - k - 1
        lo = np.maximum(0.0, remaining - slack)
        hi = np.minimum(1.0, remaining)
        q[:, k] = lo + (hi - lo) * rng.random(count)
        remaining -= q[:, k]
    return q


class TestProjection:
    def test_identity_when_feasible(self):
        p = project_capped_simplex(np.array([0.2, 0.3]), 0.5)
        assert np.allclose(p, [0.2, 0.3], atol=1e-15)

    def test_symmetric_shift(self):
        p = project_capped_simplex(np.array([0.6, 0.6]), 1.0)
        assert np.allclose(p, [0.5, 0.5], atol=1e-15)

    def test_pins_both_ends(self):
        p = project_capped_simplex(np.array([2.0, -1.0]), 1.0)
        assert np.allclose(p, [1.0, 0.0], atol=1e-15)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            project_capped_simplex(np.array([0.5, 0.5]), -0.1)
        with pytest.raises(ValueError):
            project_capped_simplex(np.array([0.5, 0.5]), 2.5)

    def test_literal_pin_branch_counterexamples(self):
        # Inputs where pinning by the size of x_lo + x_hi would go wrong;
        # the certified pin must still match the oracle.
        for x, T in (([-0.05, 1.15], 0.5), ([-1.0, 2.5], 0.3), ([0.3, 100.0], 1.2)):
            x = np.array(x)
            assert np.allclose(project_capped_simplex(x, T), projection_oracle(x, T), atol=1e-9)

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(101)
        for trial in range(1000):
            K = int(rng.integers(1, 9))
            scale = rng.choice([0.5, 1.0, 3.0, 10.0])
            x = rng.normal(0.0, scale, K)
            T = float(rng.uniform(0.0, K))
            if trial % 7 == 0:
                T = float(rng.integers(0, K + 1))
            got = project_capped_simplex(x, T)
            want = projection_oracle(x, T)
            assert np.linalg.norm(got - want) <= 1e-6
            assert abs(got.sum() - T) <= 1e-9
            assert got.min() >= -1e-12 and got.max() <= 1 + 1e-12

    def test_feasibility_bulk(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            K = int(rng.integers(1, 41))
            x = rng.normal(0.0, 2.0, K)
            T = float(rng.uniform(0.0, K))
            p = project_capped_simplex(x, T)
            assert abs(p.sum() - T) <= 1e-9
            assert p.min() >= -1e-12 and p.max() <= 1 + 1e-12

    def test_never_farther_than_random_feasible_points(self):
        rng = np.random.default_rng(13)
        for _ in range(1000):
            K = int(rng.integers(2, 9))
            x = rng.normal(0.0, 2.0, K)
            T = float(rng.uniform(0.0, K))
            p = project_capped_simplex(x, T)
            q = random_feasible_points(rng, K, T, 1000)
            dp = np.linalg.norm(p - x)
            dq = np.linalg.norm(q - x[None, :], axis=1)
            assert dp <= dq.min() + 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            K = int(rng.integers(1, 12))
            x = rng.normal(0.0, 3.0, K)
            T = float(rng.uniform(0.0, K))
            p1 = project_capped_simplex(x, T)
            p2 = project_capped_simplex(p1, T)
            assert np.allclose(p1, p2, atol=1e-12)

    def test_order_preserving(self):
        rng = np.random.default_rng(19)
        for _ in range(500):
            K = int(rng.integers(2, 10))
            x = rng.normal(0.0, 2.0, K)
            T = float(rng.uniform(0.0, K))
            p = project_capped_simplex(x, T)
            idx = np.argsort(x, kind="stable")
            assert np.all(np.diff(p[idx]) >= -1e-12)


def make_table(rates):
    """Hand-built table from an explicit non-increasing rate sequence."""
    rates = np.asarray(rates, dtype=float)
    prefix = np.concatenate([[0.0], np.cumsum(rates)])
    return RateTable(
        user=UserLink(snr=1.0, rho=0.5), rates=rates, prefix=prefix, n_max=len(rates) - 1
    )


class TestOptimizeFrequencies:
    def setup_method(self):
        self.cfg = SystemConfig(M=64, K=3, C=50, precoder=ZF)
        self.users = [UserLink(snr=10, rho=r) for r in (0.6, 0.75, 0.9)]
        self.tables = build_rate_tables(self.cfg, self.users)

    def test_zero_budget(self):
        alloc = optimize_frequencies(self.cfg, self.tables, 0)
        assert np.all(alloc.p == 0.0)
        assert alloc.objective == 0.0

    def test_full_budget_forces_ones(self):
        alloc = optimize_frequencies(self.cfg, self.tables, 3)
        assert np.all(alloc.p == 1.0)
        expect = (1 - 3 / 50) * sum(t.rates[0] for t in self.tables)
        assert alloc.objective == pytest.approx(expect, abs=1e-12)

    def test_identical_users_split_evenly(self):
        cfg = SystemConfig(M=64, K=2, C=50, precoder=MF)
        users = [UserLink(snr=10, rho=0.8)] * 2
        tables = build_rate_tables(cfg, users)
        alloc = optimize_frequencies(cfg, tables, 1)
        assert np.allclose(alloc.p, [0.5, 0.5], atol=1e-9)

    def test_matches_grid_oracle_k3(self):
        for T in (1, 2):
            alloc = optimize_frequencies(self.cfg, self.tables, T)
            best = grid_best_objective(self.tables, T, self.cfg.C)
            assert alloc.objective >= best - 1e-3
            # the grid can only undershoot the true optimum by quantization
            assert alloc.objective <= best + 2e-3

    def test_matches_grid_oracle_hand_built(self):
        cfg = SystemConfig(M=8, K=3, C=20, precoder=MF)
        tables = [
            make_table([3.0, 1.2, 0.4, 0.1, 0.0]),
            make_table([5.0, 4.5, 4.0, 3.0, 1.0, 0.0]),
            make_table([2.0, 0.0]),
        ]
        for T in (1, 2):
            alloc = optimize_frequencies(cfg, tables, T)
            best = grid_best_objective(tables, T, cfg.C)
            assert alloc.objective == pytest.approx(best, abs=2e-3)

    # Non-increasing rates in steps of 0.2, which make equal slopes across
    # users common.  A table whose last rate is positive has a positive tail,
    # as a table cut at the hard cap does, so its S_k jumps at p = 0.
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(
        st.lists(
            st.lists(st.integers(0, 50), min_size=1, max_size=8),
            min_size=2,
            max_size=3,
        )
    )
    def test_matches_grid_oracle_property(self, draws):
        tables = [make_table(sorted((i / 5 for i in d), reverse=True)) for d in draws]
        K = len(tables)
        cfg = SystemConfig(M=8, K=K, C=20, precoder=MF)
        # Away from the jump S_k is steepest next to p = 0, where its slope
        # is at most G_k(n_max + 1); the best grid point with every jumping
        # user at p >= one step is at most 4 steps from the optimum in l1.
        lipschitz = max(t.prefix[-1] for t in tables)
        for T in range(1, K):
            alloc = optimize_frequencies(cfg, tables, T)
            assert abs(alloc.p.sum() - T) <= 1e-9
            assert alloc.p.min() >= 0.0 and alloc.p.max() <= 1.0
            best = grid_best_objective(tables, T, cfg.C)
            assert alloc.objective >= best - 1e-9
            assert alloc.objective <= best + (1 - T / cfg.C) * 4e-3 * lipschitz + 1e-9

    @pytest.mark.parametrize(
        "precoder,former", [(MF, 16.821686836076747), (ZF, 35.13684833758777)], ids=[MF, ZF]
    )
    def test_hard_cap_users_collect_their_tail_rate(self, precoder, former):
        # rho = 1 tables are cut at the hard cap with R(n_max) = R(0) > 0, so
        # S_k jumps to R(0) just above p = 0.  The former gradient solver
        # reached ``former`` here by keeping those users at small positive p.
        cfg = SystemConfig(M=64, K=6, C=50, precoder=precoder)
        users = [UserLink(snr=10.0, rho=r) for r in (0.6, 0.8, 1.0, 0.7, 1.0, 0.9)]
        tables = build_rate_tables(cfg, users)
        assert tables[2].n_max == N_MAX_HARD and tables[2].rates[-1] > 0.0
        alloc = optimize_frequencies(cfg, tables, 1)
        assert alloc.objective >= former
        assert 0.0 < alloc.p[2] <= 1e-12 and 0.0 < alloc.p[4] <= 1e-12
        assert abs(alloc.p.sum() - 1.0) <= 1e-12
        rates = [float(s_of_p(t, pk)) for t, pk in zip(tables, alloc.p)]
        assert rates[2] == pytest.approx(tables[2].rates[0], rel=1e-12)
        assert alloc.objective == pytest.approx((1 - 1 / 50) * sum(rates), rel=1e-12)

    def test_zero_snr_users_get_uniform_split(self):
        # Every rate table is R(0) = 0 alone (n_max = 0), so every S_k is
        # constant for p > 0 and the uniform split is optimal.
        cfg = SystemConfig(M=64, K=4, C=50, precoder=ZF)
        users = [UserLink(snr=0.0, rho=r) for r in (0.6, 0.7, 0.8, 0.9)]
        tables = build_rate_tables(cfg, users)
        assert all(t.n_max == 0 for t in tables)
        for T in (1, 2, 3):
            alloc = optimize_frequencies(cfg, tables, T)
            assert np.array_equal(alloc.p, np.full(4, T / 4))
            assert alloc.objective == 0.0

    def test_feasible_output(self):
        rng = np.random.default_rng(3)
        cfg = SystemConfig(M=64, K=6, C=50, precoder=ZF)
        users = [UserLink(snr=10, rho=float(r)) for r in rng.uniform(0.3, 0.95, 6)]
        tables = build_rate_tables(cfg, users)
        for T in range(7):
            alloc = optimize_frequencies(cfg, tables, T)
            assert abs(alloc.p.sum() - T) <= 1e-9
            assert alloc.p.min() >= 0.0 and alloc.p.max() <= 1.0
            assert alloc.converged
            s_sum = sum(s_of_p(t, pk) for t, pk in zip(tables, alloc.p))
            assert alloc.objective == pytest.approx((1 - T / cfg.C) * s_sum, rel=1e-12)

    def test_rejects_bad_budget(self):
        with pytest.raises(ValueError):
            optimize_frequencies(self.cfg, self.tables, -1)
        with pytest.raises(ValueError):
            optimize_frequencies(self.cfg, self.tables, 4)

    def test_rejects_pilot_length_above_block_length(self):
        # T = 5 > C = 4 gave the discount 1 - T/C < 0 and a negative objective.
        cfg = SystemConfig(M=64, K=6, C=4, precoder=ZF)
        users = [UserLink(snr=10, rho=float(r)) for r in np.linspace(0.6, 0.85, 6)]
        tables = build_rate_tables(cfg, users)
        with pytest.raises(ValueError, match=r"pilot length T=5 .*K=6, C=4"):
            optimize_frequencies(cfg, tables, 5)
        assert optimize_frequencies(cfg, tables, 4).objective == 0.0


class TestOptimizePilotLength:
    def test_single_persistent_user(self):
        cfg = SystemConfig(M=8, K=1, C=10, precoder=MF)
        users = [UserLink(snr=5.0, rho=1.0)]
        tables = build_rate_tables(cfg, users)
        best_T, best, curve = optimize_pilot_length(cfg, tables)
        assert best_T == 1
        assert curve[0].objective == 0.0
        assert best.objective == pytest.approx((1 - 1 / 10) * tables[0].rates[0], rel=1e-12)

    def test_memoryless_users_curve_closed_form(self):
        # rho = 0: each update helps exactly one block, so the optimum value
        # at pilot length T is (1 - T/C) * (T/K) * sum_k R_k(0).
        cfg = SystemConfig(M=8, K=2, C=10, precoder=MF)
        users = [UserLink(snr=5.0, rho=0.0)] * 2
        tables = build_rate_tables(cfg, users)
        _, _, curve = optimize_pilot_length(cfg, tables)
        r0_sum = sum(t.rates[0] for t in tables)
        for T, alloc in enumerate(curve):
            expect = (1 - T / 10) * (T / 2) * r0_sum
            assert alloc.objective == pytest.approx(expect, abs=1e-9)

    def test_endpoints(self):
        cfg = SystemConfig(M=64, K=5, C=50, precoder=ZF)
        rng = np.random.default_rng(11)
        users = [UserLink(snr=10, rho=float(r)) for r in rng.uniform(0.5, 0.9, 5)]
        tables = build_rate_tables(cfg, users)
        _, _, curve = optimize_pilot_length(cfg, tables)
        assert curve[0].objective == 0.0
        expect = (1 - 5 / 50) * sum(t.rates[0] for t in tables)
        assert curve[5].objective == pytest.approx(expect, abs=1e-12)

    def test_caps_at_block_length(self):
        cfg = SystemConfig(M=64, K=12, C=8, precoder=ZF)
        users = [UserLink(snr=10, rho=0.8)] * 12
        tables = build_rate_tables(cfg, users)
        best_T, _, curve = optimize_pilot_length(cfg, tables)
        assert len(curve) == 9  # T in 0..8
        assert 0 < best_T < 8

    def test_interior_optimum_on_reference_scenario(self):
        cfg = SystemConfig(M=64, K=40, C=50, precoder=ZF)
        rng = np.random.default_rng(2)
        users = [UserLink(snr=10, rho=float(r)) for r in rng.uniform(0.6, 0.9, 40)]
        tables = build_rate_tables(cfg, users)
        best_T, best, curve = optimize_pilot_length(cfg, tables)
        assert 0 < best_T < 40
        assert best.objective > curve[40].objective


# Rate tables for the plan's property test: hand-built steps of 0.2 (equal
# slopes within and across users; a positive last rate is a positive tail),
# model tables of rho 0.6 and 0.9, a rho = 1 table cut at the hard cap, and
# the all-zero table of a zero-SNR user (n_max = 0).
_MODEL_CFG = SystemConfig(M=64, K=6, C=50, precoder=MF)
_STEP_TABLE = st.lists(st.integers(0, 50), min_size=1, max_size=12).map(
    lambda d: make_table(sorted((i / 5 for i in d), reverse=True))
)
_MODEL_TABLE = st.sampled_from([(10.0, 0.6), (10.0, 0.9), (10.0, 1.0), (0.0, 0.8)]).map(
    lambda link: build_rate_table(_MODEL_CFG, UserLink(*link), 60.0)
)


class TestFillPlan:
    # Picks index a pool of distinct tables, so users repeat and tie groups
    # span users.  C = 3 caps the T-search below K for K > 3.
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(
        pool=st.lists(st.one_of(_STEP_TABLE, _MODEL_TABLE), min_size=1, max_size=6),
        picks=st.lists(st.integers(0, 5), min_size=1, max_size=6),
        C=st.sampled_from([3, 50]),
    )
    @example(pool=[make_table([0.0])], picks=[0, 0, 0], C=50)
    @example(pool=[make_table([2.0, 1.0, 1.0, 1.0, 0.0])], picks=[0, 0, 0, 0, 0, 0], C=50)
    @example(
        pool=[build_rate_table(_MODEL_CFG, UserLink(10.0, r), 60.0) for r in (0.6, 1.0, 0.9)],
        picks=[0, 1, 2, 1, 0, 2],
        C=50,
    )
    def test_matches_per_t_water_fill_property(self, pool, picks, C):
        tables = [pool[i % len(pool)] for i in picks]
        K = len(tables)
        cfg = SystemConfig(M=64, K=K, C=C, precoder=MF)
        want = [per_t_water_fill(tables, T, C) for T in range(min(K, C) + 1)]
        best_T, best, curve = optimize_pilot_length(cfg, tables)
        assert [a.T for a in curve] == list(range(len(want)))
        for T, (alloc, (p, objective)) in enumerate(zip(curve, want)):
            single = optimize_frequencies(cfg, tables, T)
            for got in (alloc, single):
                assert np.array_equal(got.p, p)
                assert got.objective == objective
        # argmax keeps the first of equal objectives: ties go to the smaller T.
        assert best_T == int(np.argmax([objective for _, objective in want]))
        assert best is curve[best_T]


class TestSettings:
    def test_allocation_fields(self):
        alloc = FrequencyAllocation(
            p=np.array([0.5, 0.5]), T=1, objective=1.0, iterations=3, converged=True
        )
        assert alloc.T == 1 and alloc.converged
