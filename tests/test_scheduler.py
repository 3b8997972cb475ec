"""Scheduler tests: interval law, credit scheduler, exact replay."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import block_replay

from csisched.ratemodel import (
    MF,
    ZF,
    SystemConfig,
    UserLink,
    build_rate_tables,
    s_of_p,
)
from csisched.scheduler import (
    Schedule,
    build_schedule,
    exact_average_rate,
    interval_distribution,
    read_schedule,
    schedule_stats,
    write_schedule,
)


class TestIntervalDistribution:
    def test_integer_reciprocal_is_periodic(self):
        d = interval_distribution(0.5)
        assert d.as_dict() == {2: 1.0}

    def test_three_quarters(self):
        d = interval_distribution(0.75)
        assert d.n_low == 1
        assert d.weight_low == pytest.approx(2 / 3, rel=1e-12)
        assert d.weight_high == pytest.approx(1 / 3, rel=1e-12)
        assert d.mean_interval() == pytest.approx(4 / 3, rel=1e-12)

    def test_two_fifths(self):
        d = interval_distribution(0.4)
        assert d.as_dict() == pytest.approx({2: 0.5, 3: 0.5}, rel=1e-9)

    def test_mean_is_exact_reciprocal(self):
        rng = np.random.default_rng(5)
        for p in rng.uniform(0.01, 1.0, 500):
            d = interval_distribution(float(p))
            assert d.mean_interval() == pytest.approx(1.0 / p, abs=1e-12)
            assert d.weight_low <= 1.0 and d.weight_high <= 1.0

    def test_rejects_out_of_range(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                interval_distribution(bad)


class TestBuildSchedule:
    def test_four_user_pattern(self):
        # p = (3/4, 1, 3/4, 1/2), T = 3: one user estimated every block, two
        # in three blocks of four, one in two of four.
        s = build_schedule(np.array([0.75, 1.0, 0.75, 0.5]), 3, 4, seed=None)
        expect = np.array([[0, 1, 2], [0, 1, 3], [1, 2, 3], [0, 1, 2]])
        assert np.array_equal(s.assignments, expect)
        freq, _ = schedule_stats(s)
        assert np.allclose(freq, [0.75, 1.0, 0.75, 0.5])

    def test_exactly_t_pilots_every_block(self):
        rng = np.random.default_rng(3)
        for seed in range(5):
            K = int(rng.integers(2, 12))
            T = int(rng.integers(1, K + 1))
            p = np.full(K, T / K)
            s = build_schedule(p, T, 200, seed=seed)
            assert s.assignments.shape == (200, T)
            for row in s.assignments:
                assert len(set(row.tolist())) == T

    def test_uniform_frequencies_rotate_fairly(self):
        K, T = 6, 2
        s = build_schedule(np.full(K, T / K), T, K * 30, seed=None)
        freq, _ = schedule_stats(s)
        assert np.allclose(freq, T / K, atol=1e-12)

    def test_longrun_frequency_drift_bound(self):
        rng = np.random.default_rng(11)
        K, T, horizon = 10, 4, 10_000
        raw = rng.uniform(0.05, 1.0, K)
        p = raw * (T / raw.sum())
        s = build_schedule(p, T, horizon, seed=42)
        freq, _ = schedule_stats(s)
        assert np.all(np.abs(freq - p) <= 2.0 / horizon + 1e-6)

    def test_quasi_periodic_realization(self):
        # A single tracked user at a rational frequency a/b races one
        # complementary filler for the block's single pilot; the credit race
        # realizes the two-point interval law with support {low, low+1} and
        # the exact mean.
        for a, b in ((1, 2), (2, 5), (3, 4), (9, 10), (1, 1), (5, 7), (1, 6), (7, 12)):
            p = a / b
            s = build_schedule(np.array([p, 1.0 - p]), 1, b * 40, seed=None)
            _, hists = schedule_stats(s)
            hist = hists[0]
            low = int(np.floor(1.0 / p))
            support = sorted(hist)
            if 1.0 / p == low:
                assert support == [low]
            else:
                assert set(support) <= {low, low + 1}
            n_gaps = b * 40 * p - 1
            mean = sum(gap * mass for gap, mass in hist.items())
            assert mean == pytest.approx(1.0 / p, abs=2.0 / n_gaps)

    def test_mixed_frequencies_mean_interval(self):
        # Replicated users can trade intervals when ties collide, but the
        # mean updating interval still converges to 1/p for every user.
        for a, b in ((2, 5), (3, 7)):
            p = a / b
            s = build_schedule(np.full(b, p), a, b * 100, seed=None)
            _, hists = schedule_stats(s)
            for hist in hists:
                mean = sum(gap * mass for gap, mass in hist.items())
                assert mean == pytest.approx(1.0 / p, abs=2e-2)

    def test_seeded_phases_reproducible(self):
        p = np.array([0.3, 0.7, 0.5, 0.5])
        a = build_schedule(p, 2, 100, seed=9)
        b = build_schedule(p, 2, 100, seed=9)
        assert np.array_equal(a.assignments, b.assignments)

    def test_rejects_infeasible(self):
        with pytest.raises(ValueError):
            build_schedule(np.array([0.5, 0.5]), 3, 10, seed=None)
        with pytest.raises(ValueError):
            build_schedule(np.array([0.1, 0.1]), 2, 10, seed=None)

    def test_rejects_frequencies_outside_unit_interval(self):
        # Each sum stays within the 0.5 tolerance of T, so only the
        # per-user range check can reject them.
        for p, k in (([1.4, 0.1, 0.0], 0), ([0.5, -0.2, 0.7], 1), ([0.5, 0.5, np.nan], 2)):
            with pytest.raises(ValueError, match=re.escape(f"frequency {p[k]} of user {k} ")):
                build_schedule(np.array(p), 1, 10, seed=None)


class TestScheduleStats:
    def test_histogram_of_blue_user(self):
        s = build_schedule(np.array([0.75, 1.0, 0.75, 0.5]), 3, 4000, seed=None)
        _, hists = schedule_stats(s)
        assert hists[0][1] == pytest.approx(2 / 3, abs=1e-3)
        assert hists[0][2] == pytest.approx(1 / 3, abs=1e-3)
        assert hists[1] == {1: 1.0}

    def test_never_scheduled_user(self):
        s = build_schedule(np.array([1.0, 1.0, 0.0]), 2, 50, seed=None)
        freq, hists = schedule_stats(s)
        assert freq[2] == 0.0
        assert hists[2] == {}

    def test_histogram_masses_sum_to_one(self):
        rng = np.random.default_rng(23)
        p = rng.uniform(0.2, 1.0, 8)
        p *= 4 / p.sum()
        p = np.clip(p, 0.0, 1.0)
        s = build_schedule(p, 4, 500, seed=1)
        _, hists = schedule_stats(s)
        for hist in hists:
            if hist:
                assert sum(hist.values()) == pytest.approx(1.0, abs=1e-12)


class TestExactAverageRate:
    def setup_method(self):
        self.cfg = SystemConfig(M=64, K=4, C=50, precoder=MF)
        self.users = [UserLink(snr=10, rho=r) for r in (0.9, 0.8, 0.7, 0.6)]
        self.tables = build_rate_tables(self.cfg, self.users)

    def test_everyone_every_block(self):
        s = build_schedule(np.ones(4), 4, 300, seed=None)
        stats = exact_average_rate(s, self.cfg, self.tables)
        expect = (1 - 4 / 50) * sum(t.rates[0] for t in self.tables)
        assert stats.discounted_sum_rate == pytest.approx(expect, rel=1e-12)

    def test_single_user_period_two(self):
        # One user at p = 1/2 alternating with a zero-snr filler: the
        # discounted average approaches (1 - T/C) (R(0) + R(1)) / 2.
        cfg2 = SystemConfig(M=64, K=2, C=50, precoder=MF)
        users2 = [UserLink(snr=10, rho=0.9), UserLink(snr=0.0, rho=0.5)]
        tables2 = build_rate_tables(cfg2, users2)
        s2 = build_schedule(np.array([0.5, 0.5]), 1, 10_000, seed=None)
        stats = exact_average_rate(s2, cfg2, tables2)
        expect = (1 - 1 / 50) * s_of_p(tables2[0], 0.5)
        assert stats.discounted_sum_rate == pytest.approx(expect, rel=1e-3)

    def test_periodic_interval_matches_s_exactly(self):
        # Integer 1/p and a horizon that is a multiple of the period: the
        # average rate equals (1 - T/C) p G(1/p) up to the cold start.
        cfg = SystemConfig(M=64, K=3, C=50, precoder=MF)
        users = [UserLink(snr=10, rho=0.85)] * 3
        tables = build_rate_tables(cfg, users)
        s = build_schedule(np.full(3, 1 / 3), 1, 9999, seed=None)
        stats = exact_average_rate(s, cfg, tables)
        expect = (1 - 1 / 50) * 3 * s_of_p(tables[0], 1 / 3)
        assert stats.discounted_sum_rate == pytest.approx(expect, rel=1e-3)

    def test_single_user_periodic_schedule_is_exact(self):
        # Explicit periodic schedule starting at block 0: no cold start, so
        # the identity holds to machine precision for integer 1/p.
        from csisched.scheduler import Schedule

        cfg = SystemConfig(M=64, K=2, C=50, precoder=MF)
        users = [UserLink(snr=10, rho=0.9), UserLink(snr=0.0, rho=0.5)]
        tables = build_rate_tables(cfg, users)
        for m in (1, 2, 4, 7):
            horizon = m * 60
            rows = np.where(np.arange(horizon) % m == 0, 0, 1).reshape(-1, 1)
            sched = Schedule(num_users=2, assignments=rows)
            stats = exact_average_rate(sched, cfg, tables)
            expect = (1 - 1 / 50) * s_of_p(tables[0], 1.0 / m)
            assert stats.discounted_sum_rate == pytest.approx(expect, rel=1e-12)

    def test_rearranging_intervals_leaves_rate_unchanged(self):
        from csisched.scheduler import Schedule

        rng = np.random.default_rng(7)
        cfg = SystemConfig(M=64, K=1, C=50, precoder=MF)
        users = [UserLink(snr=10, rho=0.8)]
        tables = build_rate_tables(cfg, users)
        gaps = rng.integers(1, 5, 40)
        for perm in range(3):
            order = rng.permutation(len(gaps))
            blocks = np.cumsum(np.concatenate([[0], gaps[order][:-1]]))
            horizon = int(gaps.sum())
            mask = np.zeros(horizon, dtype=bool)
            mask[blocks] = True
            # one-user schedule with T varying is not allowed; emulate with
            # rate replay over explicit assignment rows of width 1 against a
            # 2-user system where the filler user has zero snr.
            cfg2 = SystemConfig(M=64, K=2, C=50, precoder=MF)
            users2 = [users[0], UserLink(snr=0.0, rho=0.5)]
            tables2 = build_rate_tables(cfg2, users2)
            rows = np.where(mask, 0, 1).reshape(-1, 1)
            sched = Schedule(num_users=2, assignments=rows)
            stats = exact_average_rate(sched, cfg2, tables2)
            if perm == 0:
                first = stats.discounted_sum_rate
            else:
                assert stats.discounted_sum_rate == pytest.approx(first, rel=1e-12)

    def test_rejects_user_index_outside_user_set(self):
        # The replay reads only users 0..K-1, so an index outside would be
        # dropped silently.
        for rows in ([[0], [2]], [[-1], [0]]):
            with pytest.raises(ValueError, match=re.escape("user index outside [0, 2)")):
                Schedule(num_users=2, assignments=rows)

    def test_rejects_assignments_that_are_not_2d(self):
        for rows in ([0, 1, 0], [[[0]], [[1]]]):
            with pytest.raises(ValueError, match=re.escape("(horizon, T) array")):
                Schedule(num_users=2, assignments=rows)

    def test_horizon_and_t_come_from_the_array(self):
        sched = Schedule(num_users=3, assignments=np.zeros((5, 2), dtype=int))
        assert (sched.horizon, sched.T) == (5, 2)

    def test_rejects_tables_of_another_user_set(self):
        s = build_schedule(np.full(3, 1 / 3), 1, 30, seed=None)
        with pytest.raises(ValueError, match="2 rate tables for 3 scheduled users"):
            exact_average_rate(s, self.cfg, self.tables[:2])

    def test_cold_start_contributes_zero(self):
        cfg = SystemConfig(M=64, K=2, C=50, precoder=MF)
        users = [UserLink(snr=10, rho=0.9), UserLink(snr=10, rho=0.9)]
        tables = build_rate_tables(cfg, users)
        from csisched.scheduler import Schedule

        rows = np.array([[0], [0], [1], [0]])
        sched = Schedule(num_users=2, assignments=rows)
        stats = exact_average_rate(sched, cfg, tables)
        # user 1 idle during blocks 0-1, age 0 at block 2, age 1 at block 3
        r = tables[1].rates
        assert stats.per_user_rate[1] == pytest.approx((r[0] + r[1]) / 4, rel=1e-12)


class TestPerUserReplay:
    # Random schedules: each block estimates T distinct users drawn from an
    # active subset, so users outside it are never estimated.  rho = 1 gives
    # tables cut at the hard cap; rho = 0 gives one-age tables.
    @settings(derandomize=True, database=None, deadline=None, max_examples=80)
    @given(
        st.lists(st.sampled_from([0.0, 0.3, 0.6, 0.8, 0.9, 0.99, 1.0]), min_size=1, max_size=6),
        st.data(),
    )
    def test_matches_block_replay_property(self, rhos, data):
        K = len(rhos)
        T = data.draw(st.integers(0, K), label="T")
        horizon = data.draw(st.integers(1, 500), label="horizon")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        precoder = data.draw(st.sampled_from([MF, ZF]), label="precoder")
        cfg = SystemConfig(M=64, K=K, C=50, precoder=precoder)
        users = [UserLink(snr=10.0, rho=r) for r in rhos]
        tables = build_rate_tables(cfg, users)
        active = rng.permutation(K)[: int(rng.integers(T, K + 1))]
        rows = [np.sort(rng.permutation(active)[:T]) for _ in range(horizon)]
        sched = Schedule(num_users=K, assignments=rows)
        freq, hists, rates = block_replay(sched, tables)
        stats = exact_average_rate(sched, cfg, tables)
        assert np.array_equal(stats.per_user_rate, rates)
        assert np.array_equal(stats.frequencies, freq)
        assert stats.interval_histograms == hists
        freq2, hists2 = schedule_stats(sched)
        assert np.array_equal(freq2, freq) and hists2 == hists


class TestSerialization:
    def test_round_trip(self, tmp_path):
        s = build_schedule(np.array([0.75, 1.0, 0.75, 0.5]), 3, 32, seed=5)
        path = tmp_path / "sched.txt"
        write_schedule(s, path)
        back = read_schedule(path, num_users=4)
        assert back.horizon == s.horizon
        assert back.T == s.T
        assert np.array_equal(back.assignments, s.assignments)

    def test_format_is_line_per_block(self, tmp_path):
        s = build_schedule(np.array([1.0, 1.0]), 2, 3, seed=None)
        path = tmp_path / "sched.txt"
        write_schedule(s, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "0 0 1"
        assert lines[2] == "2 0 1"

    def test_rejects_ragged_file(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n1 3\n")
        with pytest.raises(ValueError):
            read_schedule(path)

    @pytest.mark.parametrize(
        "text, line, what",
        [
            ("0 1 2\n1 7 7\n5 0 1\n", 2, "user index outside [0, 3)"),
            ("0 1 2\n1 -1 2\n", 2, "user index outside [0, 3)"),
            ("0 1 2\n\n1 2 2\n", 3, "user repeated within the block"),
            ("0 1 2\n1 0 2\n5 0 1\n", 3, "block indices must run 0..2 in order"),
            ("1 1 2\n2 0 2\n", 1, "block indices must run 0..1 in order"),
            ("0 1 2\n1 0 x\n", 2, "expected integer indices"),
        ],
        ids=["user-too-large", "user-negative", "user-repeated", "block-skipped",
             "block-starts-at-1", "not-an-integer"],
    )
    def test_rejects_bad_rows_naming_the_line(self, tmp_path, text, line, what):
        path = tmp_path / "bad.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}:{line}: {what}")):
            read_schedule(path, num_users=3)
