"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s`.  The Monte Carlo criteria
are the slow part (several minutes total); everything is seeded and
deterministic.
"""

import time

import numpy as np
import pytest
from oracles import brute_force_interval_value, projection_oracle

from csisched.optimizer import (
    optimize_frequencies,
    optimize_pilot_length,
    project_capped_simplex,
)
from csisched.ratemodel import (
    MF,
    ZF,
    SystemConfig,
    UserLink,
    build_rate_table,
    build_rate_tables,
    s_of_p,
    s_smoothed,
)
from csisched.scheduler import build_schedule, exact_average_rate
from csisched.simulator import validate_closed_form

SNR_10_DB = 10.0  # linear


def report(criterion, ok, detail):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def reference_users(seed, K=40):
    rng = np.random.default_rng(seed)
    return [UserLink(snr=SNR_10_DB, rho=float(r)) for r in rng.uniform(0.6, 0.9, K)]


def test_criterion_01_closed_form_mf():
    cfg = SystemConfig(M=64, K=40, C=50, precoder=MF)
    users = [UserLink(snr=SNR_10_DB, rho=0.8)] * 40
    worst = 0.0
    for age in (0, 1, 2, 5):
        t0 = time.time()
        rep = validate_closed_form(cfg, users, age, trials=100_000, seed=1000 + age)
        elapsed = time.time() - t0
        worst = max(worst, rep.sinr_rel_err)
        assert rep.sinr_rel_err <= 0.02, f"age {age}: rel err {rep.sinr_rel_err:.3%}"
        assert elapsed <= 60.0, f"age {age} took {elapsed:.1f}s"
    report(1, worst <= 0.02, f"MF SINR vs closed form, worst rel err {worst:.3%} over ages 0,1,2,5")


def test_criterion_02_closed_form_zf():
    cfg = SystemConfig(M=64, K=40, C=50, precoder=ZF)
    users = [UserLink(snr=SNR_10_DB, rho=0.8)] * 40
    worst = 0.0
    for age in (0, 1, 2, 5):
        t0 = time.time()
        rep = validate_closed_form(cfg, users, age, trials=100_000, seed=2000 + age)
        elapsed = time.time() - t0
        worst = max(worst, rep.sinr_rel_err)
        assert rep.sinr_rel_err <= 0.05, f"age {age}: rel err {rep.sinr_rel_err:.3%}"
        assert elapsed <= 180.0, f"age {age} took {elapsed:.1f}s"
        assert rep.resamples == 0
    report(2, worst <= 0.05, f"ZF SINR vs closed form, worst rel err {worst:.3%} over ages 0,1,2,5")


def test_criterion_03_pilot_length_gain():
    cfg = SystemConfig(M=64, K=40, C=50, precoder=ZF)
    t0 = time.time()
    ratios = []
    for seed in range(20):
        users = reference_users(seed)
        tables = build_rate_tables(cfg, users)
        _, best, curve = optimize_pilot_length(cfg, tables)
        ratios.append(best.objective / curve[40].objective)
    elapsed = time.time() - t0
    mean_ratio = float(np.mean(ratios))
    ok = 1.55 <= mean_ratio <= 1.95 and elapsed <= 300.0
    report(
        3,
        ok,
        f"best-T / T=40 objective ratio {mean_ratio:.3f} "
        f"(band [1.55, 1.95]), 20 seeds in {elapsed:.0f}s",
    )


def test_criterion_04_user_count_sweep():
    cfg_base = dict(M=64, C=50, precoder=ZF)
    k_values = list(range(5, 55, 5))
    retentions = []
    ces_at_50 = []
    for seed in range(20):
        curve_over_k = []
        for K in k_values:
            users = reference_users(seed * 101 + K, K=K)
            cfg = SystemConfig(K=K, **cfg_base)
            tables = build_rate_tables(cfg, users)
            _, best, curve = optimize_pilot_length(cfg, tables)
            curve_over_k.append(best.objective)
            if K == 50:
                ces_at_50.append(curve[50].objective)
        retentions.append(curve_over_k[-1] / max(curve_over_k))
    mean_retention = float(np.mean(retentions))
    ok = 0.75 <= mean_retention <= 0.95 and all(c == 0.0 for c in ces_at_50)
    report(
        4,
        ok,
        f"IES rate at K=50 retains {mean_retention:.3f} of its peak over K "
        f"(band [0.75, 0.95]); CES at K=C is exactly 0 in all 20 seeds",
    )


def _zero_threshold(users, p, tol=1e-6):
    """Largest rho among zero-frequency users, or None if nobody is at zero;
    also reports whether the zero set is downward closed in rho."""
    rhos = np.array([u.rho for u in users])
    zero = p <= tol
    if not zero.any():
        return None, True
    thr = rhos[zero].max()
    closed = rhos[~zero].min() >= thr if (~zero).any() else True
    return thr, closed


def test_criterion_05_correlation_thresholds():
    k_scarce, k_ample = 5, 30
    good_seeds = 0
    ample_ok = True
    for seed in range(20):
        users = reference_users(seed + 500)
        thresholds = {}
        for precoder in (MF, ZF):
            cfg = SystemConfig(M=64, K=40, C=50, precoder=precoder)
            tables = build_rate_tables(cfg, users)
            alloc = optimize_frequencies(cfg, tables, k_scarce)
            thr, closed = _zero_threshold(users, alloc.p)
            thresholds[precoder] = (thr, closed)
            alloc30 = optimize_frequencies(cfg, tables, k_ample)
            lowest = int(np.argmin([u.rho for u in users]))
            ample_ok = ample_ok and alloc30.p[lowest] >= 1.0 - 1e-6
        thr_mf, closed_mf = thresholds[MF]
        thr_zf, closed_zf = thresholds[ZF]
        if (
            thr_mf is not None
            and thr_zf is not None
            and closed_mf
            and closed_zf
            and thr_zf >= thr_mf - 1e-12
        ):
            good_seeds += 1
    ok = good_seeds >= 18 and ample_ok
    report(
        5,
        ok,
        f"T=5 zero-frequency threshold exists with thr(ZF) >= thr(MF) in "
        f"{good_seeds}/20 seeds; T=30 gives the lowest-rho user p=1 in all seeds",
    )


def test_criterion_06_projection_oracle():
    rng = np.random.default_rng(606)
    worst = 0.0
    violations = 0
    for trial in range(1000):
        K = int(rng.integers(1, 9))
        x = rng.normal(0.0, rng.choice([0.5, 1.0, 3.0, 10.0]), K)
        T = float(rng.uniform(0.0, K)) if trial % 5 else float(rng.integers(0, K + 1))
        got = project_capped_simplex(x, T)
        want = projection_oracle(x, T)
        worst = max(worst, float(np.linalg.norm(got - want)))
        if abs(got.sum() - T) > 1e-9 or got.min() < -1e-12 or got.max() > 1 + 1e-12:
            violations += 1
    ok = worst <= 1e-6 and violations == 0
    report(
        6,
        ok,
        f"projection vs pin-pattern QP oracle: worst distance {worst:.2e} over "
        f"1000 instances, {violations} feasibility violations",
    )


def test_criterion_07_interval_distribution_optimality():
    rng = np.random.default_rng(707)
    worst_excess = -np.inf
    for _ in range(50):
        precoder = rng.choice([MF, ZF])
        cfg = SystemConfig(M=64, K=40, C=50, precoder=precoder)
        user = UserLink(snr=float(rng.uniform(0.5, 20.0)), rho=float(rng.uniform(0.0, 0.98)))
        table = build_rate_table(cfg, user, float(rng.uniform(1.0, 500.0)))
        for p in (0.5, 0.4, 0.75, 0.9):
            excess = brute_force_interval_value(table, p) - s_of_p(table, p)
            worst_excess = max(worst_excess, excess)
    ok = worst_excess <= 1e-6
    report(
        7,
        ok,
        f"brute-force interval distributions never beat p*G(1/p): "
        f"worst excess {worst_excess:.2e} over 50 users x 4 frequencies",
    )


def test_criterion_08_concavity_suites():
    rng = np.random.default_rng(808)
    worst_g = -np.inf
    worst_s = -np.inf
    grid = np.linspace(0.01, 1.0, 100)
    for _ in range(100):
        for precoder in (MF, ZF):
            cfg = SystemConfig(M=64, K=40, C=50, precoder=precoder)
            user = UserLink(snr=float(rng.uniform(0.5, 20.0)), rho=float(rng.uniform(0.0, 0.99)))
            table = build_rate_table(cfg, user, float(rng.uniform(1.0, 500.0)))
            worst_g = max(worst_g, float(np.diff(table.prefix, n=2).max()))
            s_vals = s_smoothed(table, grid)
            worst_s = max(worst_s, float(np.diff(s_vals, n=2).max()))
    ok = worst_g <= 0.0 and worst_s <= 1e-9
    report(
        8,
        ok,
        f"G second differences max {worst_g:.2e} (<= 0); smoothed-S grid "
        f"second differences max {worst_s:.2e} (<= 1e-9); 100 users, both precoders",
    )


def test_criterion_09_schedule_fidelity():
    cfg = SystemConfig(M=64, K=40, C=50, precoder=ZF)
    users = reference_users(42)
    tables = build_rate_tables(cfg, users)
    best_T, best, _ = optimize_pilot_length(cfg, tables)
    schedule = build_schedule(best.p, best_T, 10_000, seed=7)
    counts = {len(set(row.tolist())) for row in schedule.assignments}
    stats = exact_average_rate(schedule, cfg, tables)
    gap = abs(stats.discounted_sum_rate - best.objective) / best.objective
    ok = gap <= 0.01 and counts == {best_T}
    report(
        9,
        ok,
        f"credit schedule at best T={best_T}: achieved rate within {gap:.3%} of the "
        f"relaxed objective over 10^4 blocks; every block has exactly T pilots",
    )


def test_criterion_10_endpoint_identities():
    cfg = SystemConfig(M=64, K=40, C=50, precoder=ZF)
    users = reference_users(3)
    tables = build_rate_tables(cfg, users)
    zero = optimize_frequencies(cfg, tables, 0)
    full = optimize_frequencies(cfg, tables, 40)
    expect_full = (1 - 40 / 50) * sum(t.rates[0] for t in tables)
    ok = zero.objective == 0.0 and abs(full.objective - expect_full) <= 1e-12
    report(
        10,
        ok,
        f"T=0 objective is exactly 0; T=K objective matches "
        f"(1-K/C)*sum R_k(0) to {abs(full.objective - expect_full):.1e}",
    )
