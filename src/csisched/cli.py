"""Scenario files, experiment sweeps and CSV emission.

A scenario is a flat ``key = value`` text file; users are generated from a
seeded uniform draw of temporal correlations, so every sweep is reproducible
byte for byte from (file, seed).  Commands emit CSV with '#'-prefixed
metadata lines; rates are in bits per channel use.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, fields

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
    """Linear value of an SNR in dB; ValueError naming snr_db if it is not
    finite."""
    try:
        linear = 10.0 ** (db / 10.0)
    except OverflowError:
        linear = float("inf")
    if not np.isfinite(linear):
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
        if not np.isfinite(self.snr_db):
            raise ValueError("snr_db must be finite")
        db_to_linear(self.snr_db)

    def config(self, precoder: str | None = None, K: int | None = None) -> SystemConfig:
        return SystemConfig(
            M=self.M,
            K=self.K if K is None else K,
            C=self.C,
            precoder=self.precoder if precoder is None else precoder,
        )

    def draw_users(self, K: int | None = None, snr_db: float | None = None) -> list[UserLink]:
        """Seeded user draw: rho uniform on [rho_lo, rho_hi], common SNR.

        The draw depends only on (seed, K), so all pilot lengths and both
        precoders within a sweep see the same users.  An SNR whose total or
        snr * M overflows, where the rates would be NaN, raises ValueError.
        """
        K = self.K if K is None else K
        if not 1 <= K <= MAX_USERS:
            raise ValueError(f"user count K={K} outside [1, {MAX_USERS}]")
        snr_db = self.snr_db if snr_db is None else snr_db
        snr = db_to_linear(snr_db)
        rng = np.random.default_rng([self.seed, K])
        rhos = rng.uniform(self.rho_lo, self.rho_hi, size=K)
        users = [UserLink(snr=snr, rho=float(r)) for r in rhos]
        if not (np.isfinite(total_snr(users)) and np.isfinite(snr * self.M)):
            raise ValueError(f"snr_db={snr_db!r}: the SNR total of {K} users overflows")
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
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _parse_value(tok: str):
    try:
        return int(tok)
    except ValueError:
        pass
    try:
        return float(tok)
    except ValueError:
        return tok


def parse_sweep_csv(text: str) -> SweepResult:
    """Inverse of SweepResult.to_csv for the numeric payload."""
    metadata, header, rows = [], None, []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            metadata.append(line[1:].strip())
            continue
        if header is None:
            header = line.split(",")
            continue
        rows.append(tuple(_parse_value(tok) for tok in line.split(",")))
    if header is None:
        raise ValueError("no header row found")
    return SweepResult(metadata=metadata[1:], header=header, rows=rows)


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
        cfg = scenario.config(precoder=precoder)
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
    user_sets = [scenario.draw_users(snr_db=snr_db) for snr_db in snr_db_list]
    rows = []
    for snr_db, users in zip(snr_db_list, user_sets):
        for precoder in (MF, ZF):
            cfg = scenario.config(precoder=precoder)
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
    rows = []
    for K in k_values:
        K = int(K)
        users = scenario.draw_users(K=K)
        cfg = scenario.config(K=K)
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
    """Monte Carlo check of user 0's closed-form SINR at each age."""
    cfg = scenario.config()
    users = scenario.draw_users()
    rows = []
    for n in ages:
        report = validate_closed_form(cfg, users, int(n), trials, scenario.seed)
        for term_row in report.rows():
            rows.append((int(n),) + term_row)
    return SweepResult(
        metadata=[
            scenario.metadata(),
            f"command: validate ages={list(ages)} trials={trials} seed={scenario.seed}",
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
            f"{gap}:{repr(mass)}" for gap, mass in sorted(stats.interval_histograms[k].items())
        )
        rows.append(
            (k, u.rho, float(alloc.p[k]), float(stats.frequencies[k]),
             float(stats.per_user_rate[k]), hist or "-")
        )
    result = SweepResult(
        metadata=[
            scenario.metadata(),
            f"command: schedule T={int(T)} horizon={horizon} seed={scenario.seed}",
            f"relaxed_objective: {repr(alloc.objective)}",
            f"achieved_rate: {repr(stats.discounted_sum_rate)}",
        ],
        header=["user", "rho", "p_target", "p_achieved", "avg_rate", "intervals"],
        rows=rows,
    )
    return schedule, result


def _int_list(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _write_output(text: str, out: str) -> None:
    if out == "-":
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="csisched",
        description="Pilot scheduling experiments for massive MIMO with aged CSI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--scenario", required=True, help="scenario file (key = value)")
        p.add_argument("--out", default="-", help="output path, '-' for stdout")
        p.add_argument("--seed", type=int, default=None, help="override scenario seed")

    p = sub.add_parser("rates", help="per-user rates at given ages of CSI")
    common(p)
    p.add_argument("--ages", type=_int_list, default=[0, 1, 2, 5])

    p = sub.add_parser("sweep-rho", help="updating frequency vs correlation")
    common(p)
    p.add_argument("--pilot-lengths", type=_int_list, default=[5, 30])

    p = sub.add_parser("sweep-pilot", help="sum rate vs pilot length")
    common(p)
    p.add_argument("--snr-db", type=_float_list, default=[10.0])

    p = sub.add_parser("sweep-users", help="sum rate and best pilot length vs user count")
    common(p)
    p.add_argument("--user-counts", type=_int_list, default=[5, 10, 15, 20, 25, 30, 35, 40, 45, 50])

    p = sub.add_parser("validate", help="Monte Carlo check of the closed-form SINR")
    common(p)
    p.add_argument("--ages", type=_int_list, default=[0, 1, 2, 5])
    p.add_argument("--trials", type=int, default=100_000)

    p = sub.add_parser("schedule", help="build and replay a per-block pilot schedule")
    common(p)
    p.add_argument("--pilot-length", type=int, required=True)
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--stats-out", default=None, help="stats CSV path (default <out>.stats.csv)")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario = load_scenario(args.scenario, seed=args.seed)
        if args.command == "rates":
            result = cmd_rates(scenario, args.ages)
        elif args.command == "sweep-rho":
            result = cmd_sweep_rho(scenario, args.pilot_lengths)
        elif args.command == "sweep-pilot":
            result = cmd_sweep_pilot(scenario, args.snr_db)
        elif args.command == "sweep-users":
            result = cmd_sweep_users(scenario, args.user_counts)
        elif args.command == "validate":
            result = cmd_validate(scenario, args.ages, args.trials)
        elif args.command == "schedule":
            if args.out == "-":
                raise ValueError("schedule command needs --out PATH for the schedule file")
            schedule, result = cmd_schedule(scenario, args.pilot_length, args.horizon)
            write_schedule(schedule, args.out)
            stats_out = args.stats_out or args.out + ".stats.csv"
            _write_output(result.to_csv(), stats_out)
            return 0
        else:  # pragma: no cover - argparse enforces choices
            raise ValueError(f"unknown command {args.command!r}")
        _write_output(result.to_csv(), args.out)
    except (ValueError, OSError) as exc:
        print(f"csisched: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
