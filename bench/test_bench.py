"""Tests of the benchmark's own checks and reference values.

    python3 -m pytest bench -q

Every check must pass on the program's real output and reject a corrupted
copy of it; the independent optimum must agree with a brute-force grid; the
Monte Carlo per-trial moments behind the tolerances must agree with a direct
simulation that does not use csisched.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from csisched import cli  # noqa: E402

SMALL = {"M": 16, "K": 6, "C": 10, "precoder": "zf", "snr_db": 10.0,
         "rho_lo": 0.6, "rho_hi": 0.9, "seed": 3, "tol": 1e-6}


def _write(tmp_path, values, name="sc.txt"):
    path = tmp_path / name
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()))
    return str(path)


def _replace_field(text, row_pred, col, new):
    out = []
    for line in text.splitlines():
        parts = line.split(",")
        if not line.startswith("#") and row_pred(parts):
            parts[col] = new(parts[col])
        out.append(",".join(parts))
    return "\n".join(out) + "\n"


def _grid_optimum(R, T, C, step=1e-3):
    """Brute force over a grid of the capped simplex, K <= 3."""
    K, N = R.shape
    G = np.concatenate([np.zeros((K, 1)), np.cumsum(R, axis=1)], axis=1)

    def s_of_p(k, p):
        p = np.asarray(p, float)
        x = np.where(p > 0, 1.0 / np.where(p > 0, p, 1.0), 0.0)
        n = np.minimum(np.floor(x).astype(int), N - 1)
        return np.where(p > 0, p * (G[k, n] + (x - n) * R[k, n]), 0.0)

    g = np.arange(0.0, 1.0 + step / 2, step)
    if K == 1:
        return (1 - T / C) * float(s_of_p(0, min(T, 1.0)))
    if K == 2:
        q = T - g
        ok = (q >= -1e-12) & (q <= 1 + 1e-12)
        return (1 - T / C) * float((s_of_p(0, g[ok]) + s_of_p(1, np.clip(q[ok], 0, 1))).max())
    p1, p2 = np.meshgrid(g, g, indexing="ij")
    p3 = T - p1 - p2
    ok = (p3 >= -1e-12) & (p3 <= 1 + 1e-12)
    vals = s_of_p(0, p1[ok]) + s_of_p(1, p2[ok]) + s_of_p(2, np.clip(p3[ok], 0, 1))
    return (1 - T / C) * float(vals.max())


@pytest.mark.parametrize("K", [1, 2, 3])
@pytest.mark.parametrize("precoder", ["mf", "zf"])
def test_exact_optimum_matches_brute_force_grid(K, precoder):
    rng = np.random.default_rng(10 * K + len(precoder))
    rhos = rng.uniform(0.3, 0.95, size=K)
    R = ref.rate_table(8, K, precoder, 3.0, rhos)
    T_values = np.linspace(0.0, K, 7)
    exact = ref.exact_sum_rates(R, 10, T_values)
    for T, value in zip(T_values, exact):
        grid = _grid_optimum(R, T, 10)
        assert value >= grid - 1e-12
        assert value - grid <= 5e-3 * max(1.0, value)


def test_user_draw_matches_program(tmp_path):
    out = tmp_path / "rates.csv"
    assert cli.main(["rates", "--scenario", _write(tmp_path, SMALL), "--ages", "0", "--out", str(out)]) == 0
    _, header, rows = checks.parse_csv(out.read_text())
    rhos = [float(r[header.index("rho")]) for r in rows]
    np.testing.assert_array_equal(rhos, ref.draw_rhos(SMALL["seed"], SMALL["K"], SMALL["rho_lo"], SMALL["rho_hi"]))


def test_sweep_check_accepts_output_and_rejects_corruption(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep-pilot", "--scenario", _write(tmp_path, SMALL), "--out", str(out)]) == 0
    text = out.read_text()
    assert checks.check_sweep(text, SMALL) == []
    perturbed = _replace_field(text, lambda r: r[1] == "zf" and r[2] == "3", 3, lambda v: repr(float(v) * (1 + 1e-5)))
    assert any("T=3" in p for p in checks.check_sweep(perturbed, SMALL))
    nonzero = _replace_field(text, lambda r: r[1] == "mf" and r[2] == "0", 3, lambda v: "1e-12")
    assert any("T=0" in p for p in checks.check_sweep(nonzero, SMALL))
    remarked = _replace_field(text, lambda r: r[1] == "mf", 4, lambda v: "1" if v == "0" else "0")
    assert any("is_best" in p for p in checks.check_sweep(remarked, SMALL))


@pytest.mark.parametrize("precoder,trials", [("zf", 512), ("mf", 1024)])
def test_validate_check_accepts_output_and_rejects_shifted_moment(tmp_path, precoder, trials):
    sc = dict(workloads.BASE, rho_lo=0.6, rho_hi=0.9, seed=5, precoder=precoder)
    out = tmp_path / "mc.csv"
    argv = ["validate", "--scenario", _write(tmp_path, sc), "--out", str(out),
            "--ages", "0,1,2,5", "--trials", str(trials)]
    assert cli.main(argv) == 0
    text = out.read_text()
    assert checks.check_validate(text, sc, (0, 1, 2, 5), trials) == []
    rho = float(ref.draw_rhos(5, sc["K"], 0.6, 0.9)[0])
    snr = ref.db_to_linear(sc["snr_db"])
    for term in ("signal", "variance", "interference"):
        tol = ref.mc_tolerance(sc["M"], sc["K"], precoder, snr, rho, 2, trials)[term]
        shifted = _replace_field(text, lambda r: r[0] == "2" and r[1] == term, 2, lambda v: repr(float(v) + 1.5 * tol))
        assert any(f"age=2 {term}: empirical" in p for p in checks.check_validate(shifted, sc, (0, 1, 2, 5), trials))
    wrong_cf = _replace_field(text, lambda r: r[0] == "1" and r[1] == "sinr", 3, lambda v: repr(float(v) * 1.001))
    assert any("closed_form" in p for p in checks.check_validate(wrong_cf, sc, (0, 1, 2, 5), trials))


def test_zf_age_zero_exactness_is_checked(tmp_path):
    sc = dict(workloads.BASE, rho_lo=0.6, rho_hi=0.9, seed=5)
    out = tmp_path / "mc.csv"
    assert cli.main(["validate", "--scenario", _write(tmp_path, sc), "--out", str(out),
                     "--ages", "0", "--trials", "256"]) == 0
    leaky = _replace_field(out.read_text(), lambda r: r[1] == "interference", 2, lambda v: "1e-6")
    assert any("age=0" in p for p in checks.check_validate(leaky, sc, (0,), 256))


def test_schedule_check_accepts_output_and_rejects_corruption(tmp_path):
    sc = dict(SMALL)
    del sc["tol"]
    sched = tmp_path / "s.txt"
    argv = ["schedule", "--scenario", _write(tmp_path, sc), "--out", str(sched),
            "--pilot-length", "3", "--horizon", "2000"]
    assert cli.main(argv) == 0
    text, stats = sched.read_text(), (tmp_path / "s.txt.stats.csv").read_text()
    assert checks.check_schedule(text, stats, sc, 3, 2000) == []

    lines = text.splitlines()
    users = lines[7].split()
    lines[7] = " ".join([users[0], users[1], users[1], users[3]])
    assert any("repeats a user" in p for p in checks.check_schedule("\n".join(lines) + "\n", stats, sc, 3, 2000))

    lines = text.splitlines()
    lines[9] = "8" + lines[9][1:]
    assert any("block indices" in p for p in checks.check_schedule("\n".join(lines) + "\n", stats, sc, 3, 2000))

    lines = text.splitlines()
    lines[4] = lines[4].rsplit(" ", 1)[0] + " 6"
    assert any("outside [0, K)" in p for p in checks.check_schedule("\n".join(lines) + "\n", stats, sc, 3, 2000))

    bad_rate = _replace_field(stats, lambda r: r[0] == "2", 4, lambda v: repr(float(v) * (1 + 1e-6)))
    assert any("user 2: avg_rate" in p for p in checks.check_schedule(text, bad_rate, sc, 3, 2000))


def _simulate_trials(M, K, precoder, rho, age, trials, rng):
    """Direct per-trial h^T v products for user 0, without csisched."""
    cn = lambda *shape: (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)  # noqa: E731
    H = cn(trials, K, M)
    if precoder == "mf":
        V = np.conj(np.swapaxes(H, 1, 2)) / np.sqrt(M)
    else:
        Hc = np.conj(np.swapaxes(H, 1, 2))
        V = np.sqrt(M - K) * Hc @ np.linalg.inv(H @ Hc)
    h = rho**age * H[:, 0, :] + np.sqrt(1 - rho ** (2 * age)) * cn(trials, M)
    return np.einsum("bm,bmk->bk", h, V)


@pytest.mark.parametrize("precoder", ["mf", "zf"])
@pytest.mark.parametrize("age", [0, 2])
def test_per_trial_moments_match_simulation(precoder, age):
    M, K, rho = 16, 6, 0.8
    m = ref.mc_trial_moments(M, K, precoder, rho, age)
    dots = _simulate_trials(M, K, precoder, rho, age, 200_000, np.random.default_rng(age))
    y = dots[:, 0] - m["mean"]
    q = (np.abs(dots[:, 1:]) ** 2).sum(axis=1)
    assert abs(np.mean(y)) < 0.02
    for got, want in ((np.mean(np.abs(y) ** 2), m["y2"]), (np.var(np.abs(y) ** 2), m["var_y2"]), (np.var(q), m["var_q"])):
        assert abs(got - want) <= 0.05 * want + 1e-9


def test_slow_fading_draws_have_tables_of_about_4500_ages():
    snr = ref.db_to_linear(workloads.BASE["snr_db"])
    lo, hi = workloads.SLOWFADE_AGES
    for seed in workloads.SLOWFADE_SWEEP_SEEDS:
        rho_max = float(ref.draw_rhos(seed, workloads.BASE["K"], *workloads.SLOWFADE_RHO).max())
        assert lo <= ref.table_length(64, 40, "zf", snr, rho_max) <= hi


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = list(tracing.round_metrics([])) + ["trace.overhead_ratio"]
    assert [m["name"] for m in spec["per_layer"]] == layer
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_result_line_holds_every_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-validate", "--seed", "1",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    assert units == {m["name"]: m["unit"] for m in spec[section]}


def test_refuses_to_run_without_program_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc-validate", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
