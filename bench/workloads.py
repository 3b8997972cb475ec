"""The three benchmark workloads: their inputs, commands and output checks.

A workload is a round of CLI invocations (units) that the runner repeats
until the run's time is up.  Each unit belongs to a group (a user population
or a precoder); some layer metrics are split by group, with the group as a
prefix.
Inputs are scenario files made from the run's seed; the program sees only
those files and the command line.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

# The reference scenario of the acceptance suite.
BASE = {"M": 64, "K": 40, "C": 50, "precoder": "zf", "snr_db": 10.0}
REF_RHO = (0.6, 0.9)
SLOWFADE_RHO = (0.95, 0.999)
# Scenario seeds of the user draws that pilot-sweep runs, chosen once as
# follows (see README).  Candidates were seeds 1..40 for the reference
# population and, for the slow-fading one, the seeds 1..299 whose longest
# ZF rate table has 4,000 to 5,000 ages (about 4,500).  Kept were those whose
# T-search (both precoders, tol 1e-6) makes within 5% of the median number of
# rate-bank evaluations.  Across all draws that number spreads over +-25%,
# which would swamp the host's own noise; the table length sets the cost of
# each bank and exact solve.
REF_SWEEP_SEEDS = (1, 2, 5, 6, 8, 9, 10, 14, 16, 19, 20, 26, 28, 33, 34, 36, 40)
SLOWFADE_SWEEP_SEEDS = (92, 131, 134, 137, 195, 206)
SLOWFADE_AGES = (4000, 5000)
# Reference-population draws for schedule-replay, chosen the same way from
# seeds 1..40: the single solve at T=23 (default solver settings) makes within
# 10% of the median number of rate-bank evaluations.  Over all 40 draws that
# number ranges from 1,300 to 77,000, so one command took 2 s on some seeds
# and 8 s on others.  Of the five draws that passed (12, 14, 20, 24, 38), the
# three kept make 1,092-1,158 solver iterations on rate tables of 1,825-1,973
# ages in all.  Draws 24 and 38 make 956 and 1,020 iterations, and runs on
# draw 24 were 8% faster than on the others.
SCHEDULE_SEEDS = (12, 14, 20)

SWEEP_TOL = 1e-6  # the acceptance suite's sweep setting
MC_AGES = (0, 1, 2, 5)
MC_TRIALS = {"zf": 512, "mf": 1024}
SCHEDULE_T = 23  # the reference optimum
SCHEDULE_HORIZON = 100_000


@dataclass
class Unit:
    group: str
    argv: list[str]
    outputs: list[Path]
    work: float  # operations per invocation: T-searches, trials or blocks
    check: Callable[[list[str]], list[str]]  # output texts -> problems


@dataclass
class Workload:
    units: list[Unit]
    layers: tuple[str, ...]


def _scenario(path: Path, values: dict) -> dict:
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    return values


def _population(seed: int, rho: tuple[float, float], **extra) -> dict:
    return dict(BASE, rho_lo=rho[0], rho_hi=rho[1], seed=seed, **extra)


def pilot_sweep(seed: int, work: Path) -> Workload:
    """sweep-pilot over every T, both precoders, alternating populations."""
    rng = np.random.default_rng([seed, 1])
    draws = (
        ("ref", int(rng.choice(REF_SWEEP_SEEDS)), REF_RHO),
        ("slowfade", int(rng.choice(SLOWFADE_SWEEP_SEEDS)), SLOWFADE_RHO),
    )
    units = []
    for group, sc_seed, rho in draws:
        sc = _scenario(work / f"{group}.txt", _population(sc_seed, rho, tol=SWEEP_TOL))
        out = work / f"{group}.csv"
        units.append(Unit(
            group,
            ["sweep-pilot", "--scenario", str(work / f"{group}.txt"), "--out", str(out)],
            [out],
            2.0,  # one T-search per precoder
            lambda texts, sc=sc: checks.check_sweep(texts[0], sc),
        ))
    return Workload(units, ("ratemodel", "optimizer"))


def mc_validate(seed: int, work: Path) -> Workload:
    """validate at ages 0, 1, 2, 5 on the reference population, ZF then MF."""
    sc_seed = int(np.random.default_rng([seed, 2]).integers(1, 2**31))
    units = []
    for precoder in ("zf", "mf"):
        sc = _scenario(work / f"{precoder}.txt", dict(_population(sc_seed, REF_RHO), precoder=precoder))
        out = work / f"{precoder}.csv"
        trials = MC_TRIALS[precoder]
        units.append(Unit(
            precoder,
            ["validate", "--scenario", str(work / f"{precoder}.txt"), "--out", str(out),
             "--ages", ",".join(map(str, MC_AGES)), "--trials", str(trials)],
            [out],
            float(trials * len(MC_AGES)),
            lambda texts, sc=sc, trials=trials: checks.check_validate(texts[0], sc, MC_AGES, trials),
        ))
    return Workload(units, ("simulator",))


def schedule_replay(seed: int, work: Path) -> Workload:
    """schedule at T=23 over 100,000 blocks on the reference population."""
    sc_seed = int(np.random.default_rng([seed, 3]).choice(SCHEDULE_SEEDS))
    sc = _scenario(work / "ref.txt", _population(sc_seed, REF_RHO))
    out = work / "schedule.txt"
    unit = Unit(
        "schedule",
        ["schedule", "--scenario", str(work / "ref.txt"), "--out", str(out),
         "--pilot-length", str(SCHEDULE_T), "--horizon", str(SCHEDULE_HORIZON)],
        [out, Path(str(out) + ".stats.csv")],
        float(SCHEDULE_HORIZON),
        lambda texts: checks.check_schedule(texts[0], texts[1], sc, SCHEDULE_T, SCHEDULE_HORIZON),
    )
    return Workload([unit], ("ratemodel", "optimizer", "scheduler"))


WORKLOADS = {"pilot-sweep": pilot_sweep, "mc-validate": mc_validate, "schedule-replay": schedule_replay}
