"""Scenario files, experiment sweeps and CSV emission.

A scenario is a flat ``key = value`` text file; users are generated from a
seeded uniform draw of temporal correlations, so every sweep is reproducible
byte for byte from (file, seed).  A sweep varies one field of the scenario
(precoder, SNR or user count) on a ``dataclasses.replace`` copy, which checks
the new value again.  ``build_parser`` declares each subcommand once: its
name, help, arguments and the handler that runs its ``cmd_*`` function and
writes the output.  Commands emit CSV with '#'-prefixed metadata lines, each
cell formatted by ``_format_value``; rates are in bits per channel use.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .optimizer import optimize_frequencies, optimize_pilot_length
from .ratemodel import (
    MF,
    ZF,
    SystemConfig,
    UserLink,
    build_rate_tables,
    rate,
    total_snr,
)
from .scheduler import build_schedule, exact_average_rate, write_schedule
from .simulator import validate_closed_form

# Solver knobs that existing scenario files may carry; the exact solver has
# none, so they are parsed for type and otherwise ignored.
_RETIRED_KEYS = {"delta": float, "step_a": float, "max_iter": int, "tol": float}


# Largest user set a scenario may draw.  Every command builds one rate table
# per user in Python, and a T-search sorts all K * L table segments, so larger
# sets take hours and gigabytes before any result.
MAX_USERS = 100_000


def db_to_linear(db: float) -> float:
    """Linear value of an SNR in dB; ValueError naming snr_db if either is
    not finite."""
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = float("inf")
    if not (np.isfinite(db) and np.isfinite(linear)):
        raise ValueError(f"snr_db={db!r} has no finite linear value")
    return linear


@dataclass
class Scenario:
    """Experiment configuration: system, user generator and schedule horizon."""

    M: int = 64
    K: int = 40
    C: int = 50
    precoder: str = ZF
    snr_db: float = 10.0
    rho_lo: float = 0.6
    rho_hi: float = 0.9
    seed: int = 1
    horizon: int = 10_000

    def __post_init__(self):
        if not 0.0 <= self.rho_lo <= self.rho_hi <= 1.0:
            raise ValueError("need 0 <= rho_lo <= rho_hi <= 1")
        db_to_linear(self.snr_db)

    def config(self) -> SystemConfig:
        return SystemConfig(M=self.M, K=self.K, C=self.C, precoder=self.precoder)

    def draw_users(self) -> list[UserLink]:
        """Seeded user draw: rho uniform on [rho_lo, rho_hi], common SNR.

        The draw depends only on (seed, K), so all pilot lengths and both
        precoders within a sweep see the same users.  An SNR whose total or
        snr * M overflows, where the rates would be NaN, raises ValueError.
        """
        K = self.K
        if not 1 <= K <= MAX_USERS:
            raise ValueError(f"user count K={K} outside [1, {MAX_USERS}]")
        snr = db_to_linear(self.snr_db)
        rng = np.random.default_rng([self.seed, K])
        rhos = rng.uniform(self.rho_lo, self.rho_hi, size=K)
        users = [UserLink(snr=snr, rho=float(r)) for r in rhos]
        if not (np.isfinite(total_snr(users)) and np.isfinite(snr * self.M)):
            raise ValueError(f"snr_db={self.snr_db!r}: the SNR total of {K} users overflows")
        return users

    def metadata(self) -> str:
        keys = " ".join(f"{k}={getattr(self, k)}" for k in _SCENARIO_KEYS)
        return f"scenario: {keys}"


# Scenario file keys and their types, in field order.
_SCENARIO_KEYS = {f.name: type(f.default) for f in fields(Scenario)}


def load_scenario(path, seed: int | None = None) -> Scenario:
    """Parse a flat key = value scenario file.

    An unknown or repeated key or a value of the wrong type raises
    ValueError naming path:line; retired solver keys are type-checked, then
    ignored."""
    values, seen = {}, set()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if not text:
                continue
            if "=" not in text:
                raise ValueError(f"{path}:{lineno}: expected key = value")
            key, _, raw = text.partition("=")
            key, raw = key.strip(), raw.strip()
            kind = _SCENARIO_KEYS.get(key) or _RETIRED_KEYS.get(key)
            if kind is None:
                raise ValueError(f"{path}:{lineno}: unknown scenario key {key!r}")
            if key in seen:
                raise ValueError(f"{path}:{lineno}: duplicate scenario key {key!r}")
            seen.add(key)
            try:
                value = kind(raw)
            except ValueError:
                raise ValueError(f"{path}:{lineno}: bad value {raw!r} for {key!r}") from None
            if key in _SCENARIO_KEYS:
                values[key] = value
    if seed is not None:
        values["seed"] = seed
    return Scenario(**values)


@dataclass
class SweepResult:
    """One emitted table: metadata lines, a header and homogeneous rows."""

    metadata: list[str]
    header: list[str]
    rows: list[tuple]

    def __post_init__(self):
        for row in self.rows:
            if len(row) != len(self.header):
                raise ValueError("row length does not match header")
            for v in row:
                if isinstance(v, float) and not np.isfinite(v):
                    raise ValueError("non-finite value in sweep output")

    def to_csv(self) -> str:
        lines = [f"# csisched {__version__}"]
        lines += [f"# {m}" for m in self.metadata]
        lines.append(",".join(self.header))
        for row in self.rows:
            lines.append(",".join(_format_value(v) for v in row))
        return "\n".join(lines) + "\n"


def _format_value(v) -> str:
    """The text of one CSV cell: integers (bools as 0/1) in decimal, floats
    as their shortest round-tripping repr."""
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def cmd_rates(scenario: Scenario, ages) -> SweepResult:
    """Per-user transmission rate at each requested age of CSI."""
    cfg = scenario.config()
    users = scenario.draw_users()
    isum = total_snr(users)
    rows = []
    for k, u in enumerate(users):
        for n in ages:
            rows.append((k, u.rho, int(n), rate(cfg, u, isum, int(n))))
    return SweepResult(
        metadata=[scenario.metadata(), f"command: rates ages={list(ages)}"],
        header=["user", "rho", "age", "rate"],
        rows=rows,
    )


def cmd_sweep_rho(scenario: Scenario, t_values) -> SweepResult:
    """Optimal updating frequency against temporal correlation, per pilot
    length and precoder (both precoders on the same user draw)."""
    users = scenario.draw_users()
    rows = []
    for precoder in (MF, ZF):
        cfg = replace(scenario, precoder=precoder).config()
        tables = build_rate_tables(cfg, users)
        for T in t_values:
            alloc = optimize_frequencies(cfg, tables, int(T))
            order = np.argsort([u.rho for u in users], kind="stable")
            for k in order:
                rows.append((users[k].rho, float(alloc.p[k]), int(T), precoder))
    return SweepResult(
        metadata=[scenario.metadata(), f"command: sweep-rho T={list(t_values)}"],
        header=["rho", "p", "T", "precoder"],
        rows=rows,
    )


def cmd_sweep_pilot(scenario: Scenario, snr_db_list) -> SweepResult:
    """Discounted sum rate against pilot length per SNR and precoder; the
    per-curve argmax row is marked."""
    # every draw first, so that a bad SNR fails before any sweep runs
    user_sets = [replace(scenario, snr_db=snr_db).draw_users() for snr_db in snr_db_list]
    rows = []
    for snr_db, users in zip(snr_db_list, user_sets):
        for precoder in (MF, ZF):
            cfg = replace(scenario, precoder=precoder).config()
            tables = build_rate_tables(cfg, users)
            best_T, _, curve = optimize_pilot_length(cfg, tables)
            for alloc in curve:
                rows.append(
                    (float(snr_db), precoder, alloc.T, alloc.objective, alloc.T == best_T)
                )
    return SweepResult(
        metadata=[scenario.metadata(), f"command: sweep-pilot snr_db={list(snr_db_list)}"],
        header=["snr_db", "precoder", "T", "sum_rate", "is_best"],
        rows=rows,
    )


def cmd_sweep_users(scenario: Scenario, k_values) -> SweepResult:
    """Intermittent vs continuous estimation as the user count grows.

    The continuous scheme estimates everyone every block (T = K), which
    leaves no data room once K reaches the block length.
    """
    # every count's system and users first, so that a bad count fails
    # before any search runs
    sized = [replace(scenario, K=int(K)) for K in k_values]
    setups = [(sc.K, sc.draw_users(), sc.config()) for sc in sized]
    rows = []
    for K, users, cfg in setups:
        tables = build_rate_tables(cfg, users)
        best_T, best, curve = optimize_pilot_length(cfg, tables)
        ces = curve[K].objective if K < scenario.C else 0.0
        rows.append((K, best_T, best.objective, ces))
    return SweepResult(
        metadata=[scenario.metadata(), f"command: sweep-users K={list(k_values)}"],
        header=["K", "best_T", "ies_rate", "ces_rate"],
        rows=rows,
    )


def cmd_validate(scenario: Scenario, ages, trials: int) -> SweepResult:
    """Monte Carlo check of user 0's closed-form SINR at each age.

    Each age adds a metadata line with the batch-means standard errors of
    the signal, variance and interference terms and the resampled draws."""
    cfg = scenario.config()
    users = scenario.draw_users()
    rows, diagnostics = [], []
    for n in ages:
        report = validate_closed_form(cfg, users, int(n), trials, scenario.seed)
        for term_row in report.rows():
            rows.append((int(n),) + term_row)
        if np.isnan(report.signal_se):
            stderr = "stderr needs at least 2 batches"
        else:
            stderr = "stderr " + " ".join(
                f"{term}={_format_value(se)}"
                for term, se in (
                    ("signal", report.signal_se),
                    ("variance", report.variance_se),
                    ("interference", report.interference_se),
                )
            )
        diagnostics.append(f"age {int(n)}: {stderr}; resamples={report.resamples}")
    return SweepResult(
        metadata=[
            scenario.metadata(),
            f"command: validate ages={list(ages)} trials={trials} seed={scenario.seed}",
            *diagnostics,
        ],
        header=["age", "term", "empirical", "closed_form", "rel_err", "trials", "seed"],
        rows=rows,
    )


def cmd_schedule(scenario: Scenario, T: int, horizon: int | None = None):
    """Optimize frequencies at pilot length T, realize them as a per-block
    schedule and replay it; returns (schedule, stats table)."""
    cfg = scenario.config()
    users = scenario.draw_users()
    tables = build_rate_tables(cfg, users)
    alloc = optimize_frequencies(cfg, tables, int(T))
    horizon = scenario.horizon if horizon is None else int(horizon)
    schedule = build_schedule(alloc.p, int(T), horizon, scenario.seed)
    stats = exact_average_rate(schedule, cfg, tables)
    rows = []
    for k, u in enumerate(users):
        hist = "|".join(
            f"{gap}:{_format_value(mass)}"
            for gap, mass in sorted(stats.interval_histograms[k].items())
        )
        rows.append(
            (k, u.rho, float(alloc.p[k]), float(stats.frequencies[k]),
             float(stats.per_user_rate[k]), hist or "-")
        )
    result = SweepResult(
        metadata=[
            scenario.metadata(),
            f"command: schedule T={int(T)} horizon={horizon} seed={scenario.seed}",
            f"relaxed_objective: {_format_value(alloc.objective)}",
            f"achieved_rate: {_format_value(stats.discounted_sum_rate)}",
        ],
        header=["user", "rho", "p_target", "p_achieved", "avg_rate", "intervals"],
        rows=rows,
    )
    return schedule, result


def _list_of(kind):
    """argparse type: a comma-separated list of ``kind`` values."""

    def parse(text: str) -> list:
        return [kind(tok) for tok in text.split(",") if tok.strip()]

    parse.__name__ = f"{kind.__name__} list"  # argparse names it in errors
    return parse


def _write_csv(result: SweepResult, out: str) -> None:
    text = result.to_csv()
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _run_schedule(scenario: Scenario, args) -> None:
    """Write the schedule to --out and its stats CSV beside it."""
    if args.out == "-":
        raise ValueError("schedule command needs --out PATH for the schedule file")
    schedule, result = cmd_schedule(scenario, args.pilot_length, args.horizon)
    write_schedule(schedule, args.out)
    _write_csv(result, args.stats_out or args.out + ".stats.csv")


def build_parser() -> argparse.ArgumentParser:
    """The command line; each subcommand's ``run(scenario, args)`` writes its outputs."""
    parser = argparse.ArgumentParser(
        prog="csisched",
        description="Pilot scheduling experiments for massive MIMO with aged CSI",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    ints, floats = _list_of(int), _list_of(float)

    def command(name, help, run):
        p = sub.add_parser(name, help=help)
        p.add_argument("--scenario", required=True, help="scenario file (key = value)")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")
        p.set_defaults(run=run)
        return p

    p = command("rates", "per-user rates at given ages of CSI",
                lambda sc, a: _write_csv(cmd_rates(sc, a.ages), a.out))
    p.add_argument("--ages", type=ints, default=[0, 1, 2, 5])

    p = command("sweep-rho", "updating frequency vs correlation",
                lambda sc, a: _write_csv(cmd_sweep_rho(sc, a.pilot_lengths), a.out))
    p.add_argument("--pilot-lengths", type=ints, default=[5, 30])

    p = command("sweep-pilot", "sum rate vs pilot length",
                lambda sc, a: _write_csv(cmd_sweep_pilot(sc, a.snr_db), a.out))
    p.add_argument("--snr-db", type=floats, default=[10.0])

    p = command("sweep-users", "sum rate and best pilot length vs user count",
                lambda sc, a: _write_csv(cmd_sweep_users(sc, a.user_counts), a.out))
    p.add_argument("--user-counts", type=ints, default=[5, 10, 15, 20, 25, 30, 35, 40, 45, 50])

    p = command("validate", "Monte Carlo check of the closed-form SINR",
                lambda sc, a: _write_csv(cmd_validate(sc, a.ages, a.trials), a.out))
    p.add_argument("--ages", type=ints, default=[0, 1, 2, 5])
    p.add_argument("--trials", type=int, default=100_000)

    p = command("schedule", "build and replay a per-block pilot schedule", _run_schedule)
    p.add_argument("--pilot-length", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--stats-out", default=None, help="stats CSV path (default <out>.stats.csv)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.run(load_scenario(args.scenario, seed=args.seed), args)
    except (ValueError, OSError) as exc:
        print(f"csisched: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
