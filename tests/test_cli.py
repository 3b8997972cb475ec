"""CLI tests: scenario parsing, sweeps, CSV round trips, exit codes."""

import csv
import re
from dataclasses import replace

import numpy as np
import pytest

from csisched import cli
from csisched.cli import (
    Scenario,
    cmd_rates,
    cmd_schedule,
    cmd_sweep_pilot,
    cmd_sweep_rho,
    cmd_sweep_users,
    cmd_validate,
    db_to_linear,
    load_scenario,
    main,
)

SMALL_SCENARIO = """
# small deterministic scenario for tests
M = 64
K = 6
C = 50
precoder = zf
snr_db = 10
rho_lo = 0.6
rho_hi = 0.9
seed = 3
horizon = 400
"""


def read_csv(text):
    """Header and rows of a CLI CSV, '#' metadata lines skipped; cells stay text."""
    header, *rows = csv.reader(line for line in text.splitlines() if not line.startswith("#"))
    return header, rows


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scenario.txt"
    path.write_text(SMALL_SCENARIO)
    return path


class TestScenario:
    def test_load_overrides_and_defaults(self, scenario_file):
        sc = load_scenario(scenario_file)
        assert sc.K == 6 and sc.M == 64 and sc.seed == 3
        assert sc.horizon == 400 and sc.rho_lo == 0.6
        sc2 = load_scenario(scenario_file, seed=99)
        assert sc2.seed == 99

    def test_retired_solver_keys_load_and_are_ignored(self, scenario_file, tmp_path):
        path = tmp_path / "old.txt"
        path.write_text(SMALL_SCENARIO + "delta = 0.05\nstep_a = 0.1\nmax_iter = 50000\ntol = 1e-06\n")
        assert load_scenario(path) == load_scenario(scenario_file)
        path.write_text("max_iter = many\n")
        with pytest.raises(ValueError):
            load_scenario(path)

    @pytest.mark.parametrize("key", ["K", "snr_db", "max_iter", "tol"])
    def test_bad_literal_names_line_and_key(self, tmp_path, key):
        path = tmp_path / "bad.txt"
        path.write_text(f"M = 64\n{key} = many\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:2: .*'many'.*'{key}'"):
            load_scenario(path)

    @pytest.mark.parametrize("key, value", [("K", "30"), ("tol", "1e-6")])
    def test_duplicate_key_rejected(self, tmp_path, key, value):
        path = tmp_path / "dup.txt"
        path.write_text(f"{key} = {value}\nM = 64\n{key} = {value}\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}:3: duplicate .*'{key}'"):
            load_scenario(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("M = 64\nbogus = 1\n")
        with pytest.raises(ValueError):
            load_scenario(path)

    def test_db_conversion(self):
        assert db_to_linear(10.0) == pytest.approx(10.0)
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(-10.0) == pytest.approx(0.1)

    def test_user_draw_is_paired(self):
        sc = Scenario(K=8, seed=5)
        a = sc.draw_users()
        b = sc.draw_users()
        assert [u.rho for u in a] == [u.rho for u in b]
        assert all(sc.rho_lo <= u.rho <= sc.rho_hi for u in a)
        assert all(u.snr == pytest.approx(10.0) for u in a)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            Scenario(rho_lo=0.8, rho_hi=0.2)

    def test_draw_rejects_overflowing_snr_total(self):
        # 3080 dB is finite per user; four of them sum past the float range.
        sc = replace(Scenario(M=8, K=4), snr_db=3080.0)
        with pytest.raises(ValueError, match="snr_db=3080"):
            sc.draw_users()


class TestCommands:
    def test_rates_rows(self, scenario_file):
        sc = load_scenario(scenario_file)
        res = cmd_rates(sc, [0, 1, 2])
        assert res.header == ["user", "rho", "age", "rate"]
        assert len(res.rows) == 6 * 3
        rates = np.array([r[3] for r in res.rows]).reshape(6, 3)
        assert np.all(np.diff(rates, axis=1) <= 1e-12)

    def test_rates_empty_ages(self, scenario_file):
        sc = load_scenario(scenario_file)
        res = cmd_rates(sc, [])
        assert res.rows == []

    def test_sweep_rho_structure(self, scenario_file):
        sc = load_scenario(scenario_file)
        res = cmd_sweep_rho(sc, [2, 6])
        assert res.header == ["rho", "p", "T", "precoder"]
        # both precoders, both pilot lengths, all users
        assert len(res.rows) == 2 * 2 * 6
        for precoder in ("mf", "zf"):
            rows = [r for r in res.rows if r[3] == precoder and r[2] == 6]
            assert all(abs(r[1] - 1.0) < 1e-9 for r in rows)  # T = K forces p = 1
            rhos = [r[0] for r in rows]
            assert rhos == sorted(rhos)

    def test_sweep_pilot_marks_best(self, scenario_file):
        sc = load_scenario(scenario_file)
        res = cmd_sweep_pilot(sc, [10.0])
        assert res.header == ["snr_db", "precoder", "T", "sum_rate", "is_best"]
        for precoder in ("mf", "zf"):
            rows = [r for r in res.rows if r[1] == precoder]
            assert len(rows) == 7  # T in 0..6
            assert rows[0][3] == 0.0  # T = 0 yields zero rate
            best = [r for r in rows if r[4]]
            assert len(best) == 1
            assert best[0][3] == max(r[3] for r in rows)

    def test_sweep_pilot_precoder_crossing(self, tmp_path):
        # ZF wins at high SNR and loses its edge at low SNR; visible when the
        # user count crowds the array (small M - K).
        path = tmp_path / "crowded.txt"
        path.write_text("M = 12\nK = 8\nC = 20\nseed = 4\n")
        sc = load_scenario(path)
        res = cmd_sweep_pilot(sc, [-10.0, 15.0])
        best = {
            (snr, prec): max(r[3] for r in res.rows if r[0] == snr and r[1] == prec)
            for snr in (-10.0, 15.0)
            for prec in ("mf", "zf")
        }
        assert best[(-10.0, "mf")] >= best[(-10.0, "zf")]
        assert best[(15.0, "zf")] >= best[(15.0, "mf")]

    def test_sweep_users_ces_vanishes_at_block_length(self, tmp_path):
        path = tmp_path / "sc.txt"
        path.write_text("M = 64\nK = 6\nC = 6\nseed = 2\n")
        sc = load_scenario(path)
        res = cmd_sweep_users(sc, [3, 6])
        assert res.header == ["K", "best_T", "ies_rate", "ces_rate"]
        row6 = [r for r in res.rows if r[0] == 6][0]
        assert row6[3] == 0.0  # K = C leaves no data room for CES
        assert row6[2] > 0.0

    def test_validate_rows(self, scenario_file):
        sc = load_scenario(scenario_file)
        res = cmd_validate(sc, [0, 1], trials=2000)
        assert res.header == ["age", "term", "empirical", "closed_form", "rel_err", "trials", "seed"]
        assert len(res.rows) == 2 * 4
        sinr_rows = [r for r in res.rows if r[1] == "sinr"]
        assert all(r[4] < 0.2 for r in sinr_rows)

    def test_validate_metadata_reports_stderr_and_resamples(self, scenario_file):
        sc = load_scenario(scenario_file)
        meta = cmd_validate(sc, [0, 2], trials=600).metadata
        stderr = [m for m in meta if m.startswith("age ")]
        assert [m.split(":")[0] for m in stderr] == ["age 0", "age 2"]
        for line in stderr:
            assert re.fullmatch(
                r"age \d: stderr signal=\S+ variance=\S+ interference=\S+; resamples=0", line
            )
        one_batch = cmd_validate(sc, [1], trials=256).metadata
        assert "age 1: stderr needs at least 2 batches; resamples=0" in one_batch

    def test_schedule_outputs(self, scenario_file):
        sc = load_scenario(scenario_file)
        schedule, res = cmd_schedule(sc, T=3, horizon=200)
        assert schedule.assignments.shape == (200, 3)
        assert res.header[:4] == ["user", "rho", "p_target", "p_achieved"]
        achieved = np.array([r[3] for r in res.rows])
        target = np.array([r[2] for r in res.rows])
        assert np.all(np.abs(achieved - target) <= 0.05)


class TestCsv:
    def test_round_trip(self, scenario_file):
        sc = load_scenario(scenario_file)
        res = cmd_rates(sc, [0, 1])
        header, rows = read_csv(res.to_csv())
        assert header == res.header
        assert len(rows) == len(res.rows)
        for got, want in zip(rows, res.rows):
            assert [type(w)(g) for g, w in zip(got, want)] == list(want)  # repr round-trips

    def test_rejects_non_finite(self):
        from csisched.cli import SweepResult

        with pytest.raises(ValueError):
            SweepResult(metadata=[], header=["a"], rows=[(float("nan"),)])

    def test_rejects_ragged_rows(self):
        from csisched.cli import SweepResult

        with pytest.raises(ValueError):
            SweepResult(metadata=[], header=["a", "b"], rows=[(1.0,)])


class TestMain:
    @pytest.mark.parametrize(
        "argv, header",
        [
            (["rates", "--ages", "0,1,2"], "user,rho,age,rate"),
            (["sweep-rho", "--pilot-lengths", "2,6"], "rho,p,T,precoder"),
            (["sweep-pilot", "--snr-db", "0,10"], "snr_db,precoder,T,sum_rate,is_best"),
            (["sweep-users", "--user-counts", "3,6"], "K,best_T,ies_rate,ces_rate"),
            (["validate", "--ages", "0,2", "--trials", "300"],
             "age,term,empirical,closed_form,rel_err,trials,seed"),
            (["schedule", "--pilot-length", "3", "--horizon", "200"],
             "user,rho,p_target,p_achieved,avg_rate,intervals"),
        ],
        ids=["rates", "sweep-rho", "sweep-pilot", "sweep-users", "validate", "schedule"],
    )
    def test_rates_to_file_deterministic(self, scenario_file, tmp_path, argv, header):
        # Every subcommand run twice on the same scenario and seed writes
        # the same bytes; schedule also writes its stats CSV.
        outs = [tmp_path / "a.out", tmp_path / "b.out"]
        for out in outs:
            assert main(argv + ["--scenario", str(scenario_file), "--out", str(out)]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()
        if argv[0] == "schedule":
            outs = [out.with_name(out.name + ".stats.csv") for out in outs]
            assert outs[0].read_bytes() == outs[1].read_bytes()
        body = [l for l in outs[0].read_text().splitlines() if not l.startswith("#")]
        assert body[0] == header

    def test_age_beyond_int64_exits_cleanly(self, scenario_file, capsys):
        argv = ["rates", "--scenario", str(scenario_file), "--ages", "0,99999999999999999999"]
        assert main(argv) in (0, 2)
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["sweep-pilot", "--snr-db", "1e308"], "snr_db=1e+308"),
            (["sweep-pilot", "--snr-db", "10,-inf"], "snr_db=-inf"),
            (["sweep-users", "--user-counts", "100000000000"], "user count K=100000000000"),
            (["sweep-users", "--user-counts", "-3"], "user count K=-3"),
            (["schedule", "--pilot-length", "2", "--horizon", "100000000000000"],
             "horizon=100000000000000"),
            (["validate", "--trials", "100000000000000000000"],
             "trials=100000000000000000000"),
        ],
        ids=["snr-db", "snr-db-minus-inf", "user-count-huge", "user-count-negative", "horizon",
             "trials"],
    )
    def test_bad_sizes_are_rejected_before_any_allocation(
        self, tmp_path, monkeypatch, capsys, argv, named
    ):
        # Guards turn a large user draw or seed spawn into a test failure
        # instead of an allocation or a hang; the 1.6-PB schedule array of a
        # 10**14 horizon is past any address space and fails at once.
        real_rng, real_seeds = np.random.default_rng, np.random.SeedSequence

        class GuardedRng:
            def __init__(self, seed):
                self._rng = real_rng(seed)

            def __getattr__(self, name):
                return getattr(self._rng, name)

            def uniform(self, low, high, size):
                assert size <= 1000, "user draw too large for a test"
                return self._rng.uniform(low, high, size)

        class GuardedSeeds(real_seeds):
            def spawn(self, n_children):
                assert n_children <= 4096, "seed spawn too large for a test"
                return super().spawn(n_children)

        monkeypatch.setattr(np.random, "default_rng", GuardedRng)
        monkeypatch.setattr(np.random, "SeedSequence", GuardedSeeds)
        path = tmp_path / "mf.txt"
        path.write_text(SMALL_SCENARIO.replace("precoder = zf", "precoder = mf"))
        out = tmp_path / "out.txt"
        assert main(argv + ["--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("csisched:") and named in err and err.count("\n") == 1

    def test_huge_snr_in_scenario_file_names_snr_db(self, tmp_path):
        path = tmp_path / "loud.txt"
        path.write_text(SMALL_SCENARIO.replace("snr_db = 10", "snr_db = 1e308"))
        with pytest.raises(ValueError, match="snr_db=1e\\+308"):
            load_scenario(path)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["rates"],
            ["sweep-pilot", "--snr-db", "3080"],
            ["schedule", "--pilot-length", "2"],
            ["validate", "--trials", "256"],
        ],
        ids=["rates", "sweep-pilot", "schedule", "validate"],
    )
    def test_overflowing_snr_names_snr(self, tmp_path, capsys, argv):
        # 3080 dB is a finite 1e308 per user, but four users sum past the
        # float range, where the SINR formulas give NaN.
        path = tmp_path / "loud.txt"
        path.write_text("M = 8\nK = 4\nprecoder = zf\nsnr_db = 3080\n")
        out = tmp_path / "out.txt"
        assert main(argv + ["--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("csisched:") and "snr" in err and err.count("\n") == 1

    def test_sweep_pilot_rejects_overflowing_snr_before_any_search(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        search = cli.optimize_pilot_length

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(cli, "optimize_pilot_length", counted)
        path = tmp_path / "small.txt"
        path.write_text("M = 8\nK = 4\nprecoder = zf\n")
        out = tmp_path / "out.csv"
        argv = ["sweep-pilot", "--scenario", str(path), "--snr-db", "10,20,3080", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("csisched:") and "snr" in err and err.count("\n") == 1
        assert len(calls) == 0

    def test_sweep_users_rejects_a_bad_count_before_any_search(
        self, tmp_path, capsys, monkeypatch
    ):
        calls = []
        search = cli.optimize_pilot_length

        def counted(*args):
            calls.append(args)
            return search(*args)

        monkeypatch.setattr(cli, "optimize_pilot_length", counted)
        path = tmp_path / "zf.txt"
        path.write_text("M = 64\nprecoder = zf\n")
        argv = ["sweep-users", "--scenario", str(path), "--user-counts", "5,64"]
        assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("csisched:") and "M=64, K=64" in err and err.count("\n") == 1
        assert len(calls) == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["schedule", "--pilot-length", "5", "--horizon", "50"],
            ["sweep-rho", "--pilot-lengths", "2,5"],
        ],
        ids=["schedule", "sweep-rho"],
    )
    def test_pilot_length_above_block_length_fails(self, tmp_path, capsys, argv):
        # T = 5 > C = 4 gave negative rates and exit 0.
        path = tmp_path / "short.txt"
        path.write_text("M = 64\nK = 6\nC = 4\n")
        out = tmp_path / "out.txt"
        assert main(argv + ["--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("csisched:") and "pilot length T=5" in err and err.count("\n") == 1

    def test_seed_override_changes_output(self, scenario_file, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        base = ["rates", "--scenario", str(scenario_file), "--ages", "0"]
        main(base + ["--out", str(out1)])
        main(base + ["--out", str(out2), "--seed", "1234"])
        assert out1.read_bytes() != out2.read_bytes()

    def test_missing_scenario_fails_nonzero(self, tmp_path, capsys):
        code = main(["rates", "--scenario", str(tmp_path / "nope.txt")])
        assert code != 0
        assert "csisched:" in capsys.readouterr().err

    def test_config_error_fails_nonzero(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("M = 8\nK = 8\nprecoder = zf\n")  # ZF needs M > K
        code = main(["rates", "--scenario", str(path)])
        assert code != 0
        err = capsys.readouterr().err
        assert err.startswith("csisched:") and err.count("\n") == 1

    def test_zero_snr_scenario_runs(self, scenario_file, tmp_path, capsys):
        # -4000 dB underflows every linear SNR to 0: all rates are 0.
        path = tmp_path / "silent.txt"
        path.write_text(scenario_file.read_text().replace("snr_db = 10", "snr_db = -4000"))
        out = tmp_path / "pilot.csv"
        argv = ["sweep-pilot", "--scenario", str(path), "--snr-db", "-4000", "--out", str(out)]
        assert main(argv) == 0
        _, rows = read_csv(out.read_text())
        assert len(rows) == 2 * 7
        assert all(float(r[3]) == 0.0 and r[4] == str(int(r[2] == "0")) for r in rows)
        sched = tmp_path / "sched.txt"
        argv = ["schedule", "--scenario", str(path), "--pilot-length", "5", "--out", str(sched)]
        assert main(argv) == 0
        _, rows = read_csv((tmp_path / "sched.txt.stats.csv").read_text())
        assert all(float(r[2]) == 5 / 6 and float(r[4]) == 0.0 for r in rows)
        assert capsys.readouterr().err == ""

    def test_schedule_writes_files(self, scenario_file, tmp_path):
        out = tmp_path / "sched.txt"
        code = main(
            [
                "schedule",
                "--scenario",
                str(scenario_file),
                "--pilot-length",
                "3",
                "--horizon",
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert out.exists()
        assert (tmp_path / "sched.txt.stats.csv").exists()
        first = out.read_text().splitlines()[0].split()
        assert first[0] == "0" and len(first) == 4
