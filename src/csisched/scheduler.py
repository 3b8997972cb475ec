"""Realizable pilot schedules from fractional updating frequencies.

The optimizer hands back per-user frequencies p_k with sum p_k = T.  Two
things turn that into an operational policy:

* the quasi-periodic interval law: a user with frequency p should space its
  updates ⌊1/p⌋ or ⌊1/p⌋+1 blocks apart so the mean interval is exactly 1/p;
* a deterministic credit scheduler that picks exactly T users per block and
  drives every user's empirical frequency to p_k, realizing that law.

The module also replays a schedule against the rate tables to obtain the
exactly achieved discounted sum rate, which measures the gap between the
relaxed optimum and a feasible per-block policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratemodel import SystemConfig

_WRITE_CHUNK = 4096  # blocks per write_schedule chunk

# Most user indices a schedule may hold (horizon * T, at least one per
# block): 2 GiB of assignments, and a per-block loop of that length.
MAX_SCHEDULE_ENTRIES = 2**28


@dataclass(frozen=True)
class IntervalDistribution:
    """Two-point distribution of a user's updating interval.

    Mass ``weight_low`` sits on ``n_low`` = ⌊1/p⌋ blocks and the rest on
    ``n_low + 1``; the mean interval is exactly 1/p.
    """

    n_low: int
    weight_low: float

    @property
    def weight_high(self) -> float:
        return 1.0 - self.weight_low

    def mean_interval(self) -> float:
        return self.n_low + self.weight_high

    def as_dict(self) -> dict[int, float]:
        if self.weight_high == 0.0:
            return {self.n_low: 1.0}
        return {self.n_low: self.weight_low, self.n_low + 1: self.weight_high}


def interval_distribution(p: float) -> IntervalDistribution:
    """Optimal quasi-periodic interval law for updating frequency p."""
    if not 0.0 < p <= 1.0:
        raise ValueError("updating frequency must lie in (0, 1]")
    inv = 1.0 / p
    n_low = int(np.floor(inv))
    weight_low = 1.0 - inv + n_low
    return IntervalDistribution(n_low=n_low, weight_low=weight_low)


@dataclass
class Schedule:
    """Per-block pilot assignments: a (horizon, T) array of user indices,
    each row sorted, so exactly T users are estimated per block."""

    num_users: int
    assignments: np.ndarray

    def __post_init__(self):
        a = self.assignments = np.asarray(self.assignments, dtype=np.intp)
        if a.ndim != 2:
            raise ValueError(f"assignments must be a (horizon, T) array, not {a.ndim}-D")
        if a.size and (a.min() < 0 or a.max() >= self.num_users):
            raise ValueError(f"user index outside [0, {self.num_users})")

    @property
    def horizon(self) -> int:
        return self.assignments.shape[0]

    @property
    def T(self) -> int:
        return self.assignments.shape[1]


def build_schedule(p, T: int, horizon: int, seed=None) -> Schedule:
    """Deterministic credit scheduler realizing frequencies p under a hard
    budget of T pilots per block.

    Every user accrues p_k credit per block; the T largest credits (ties to
    the lower index) are selected and pay 1.  Credits start at p_k times a
    seeded phase in [0, 1) (seed=None gives all-zero phases), which only
    decorrelates the users' alignment, not their long-run frequencies.
    """
    p = np.asarray(p, dtype=float)
    K = p.size
    T = int(T)
    if T > K:
        raise ValueError("cannot estimate more users per block than exist")
    if T < 0:
        raise ValueError("pilot length must be nonnegative")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    if int(horizon) * max(T, 1) > MAX_SCHEDULE_ENTRIES:
        raise ValueError(
            f"horizon={horizon} at T={T} exceeds {MAX_SCHEDULE_ENTRIES} schedule entries"
        )
    bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))
    if bad.size:
        k = int(bad[0])
        raise ValueError(f"frequency {float(p[k])} of user {k} is not in [0, 1]")
    if abs(p.sum() - T) > 0.5:
        raise ValueError("sum of frequencies must be within 0.5 of T")
    if seed is None:
        credit = np.zeros(K)
    else:
        credit = p * np.random.default_rng(seed).random(K)
    assignments = np.empty((horizon, T), dtype=np.intp)
    for i in range(horizon):
        credit += p
        chosen = np.argsort(-credit, kind="stable")[:T]
        credit[chosen] -= 1.0
        assignments[i] = np.sort(chosen)
    return Schedule(num_users=K, assignments=assignments)


def _per_user_pass(schedule: Schedule, tables=None):
    """Per-user frequencies, interval histograms and replayed rate totals
    (zero without ``tables``), computed one user at a time."""
    K, H = schedule.num_users, schedule.horizon
    freq = np.zeros(K)
    totals = np.zeros(K)
    hists: list[dict[int, float]] = []
    for k in range(K):
        est = (schedule.assignments == k).any(axis=1)
        occ = np.flatnonzero(est)
        freq[k] = occ.size / H
        if tables is not None and occ.size:
            blocks = np.arange(occ[0], H)
            last = np.maximum.accumulate(np.where(est[occ[0]:], blocks, 0))
            # cumsum adds in block order, as a block-by-block replay does;
            # np.sum adds pairwise and can differ in the last bits.
            totals[k] = np.cumsum(tables[k].rate_at_age(blocks - last))[-1]
        gaps = np.diff(occ)
        if gaps.size == 0:
            hists.append({})
            continue
        values, gap_counts = np.unique(gaps, return_counts=True)
        hists.append({int(v): c / gaps.size for v, c in zip(values, gap_counts)})
    return freq, hists, totals


def schedule_stats(schedule: Schedule):
    """Empirical per-user frequencies and updating-interval histograms.

    Returns (frequencies, histograms) where histograms[k] maps interval
    length to its fraction among user k's observed intervals (empty dict if
    the user was estimated fewer than twice).
    """
    freq, hists, _ = _per_user_pass(schedule)
    return freq, hists


@dataclass
class ScheduleStats:
    """Outcome of replaying a schedule against the rate model.

    ``per_user_rate`` is the undiscounted average rate per user;
    ``discounted_sum_rate`` applies the (1 - T/C) estimation-overhead factor
    to the sum, matching the optimizer's objective.
    """

    frequencies: np.ndarray
    interval_histograms: list[dict[int, float]]
    per_user_rate: np.ndarray
    discounted_sum_rate: float


def exact_average_rate(schedule: Schedule, cfg: SystemConfig, tables) -> ScheduleStats:
    """Replay a schedule user by user and average the exact aged-CSI rates.

    ``tables`` holds one rate table per user of the schedule, in user order.
    A user estimated in block i transmits at age 0 during that same block;
    the age then grows by one per block until the next estimation.  Blocks
    before a user's first estimation contribute zero rate (no CSI, no
    beamforming).
    """
    if len(tables) != schedule.num_users:
        raise ValueError(f"{len(tables)} rate tables for {schedule.num_users} scheduled users")
    freq, hists, totals = _per_user_pass(schedule, tables)
    per_user = totals / schedule.horizon
    discount = 1.0 - schedule.T / cfg.C
    return ScheduleStats(
        frequencies=freq,
        interval_histograms=hists,
        per_user_rate=per_user,
        discounted_sum_rate=discount * float(per_user.sum()),
    )


def write_schedule(schedule: Schedule, path) -> None:
    """Serialize as one line per block: block index, then the user indices.

    Blocks are formatted _WRITE_CHUNK at a time, so the only copy of the
    assignments is one chunk with its block indices.
    """
    line = " ".join(["%d"] * (schedule.T + 1)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        for start in range(0, schedule.horizon, _WRITE_CHUNK):
            rows = schedule.assignments[start : start + _WRITE_CHUNK]
            chunk = np.column_stack((np.arange(start, start + len(rows)), rows))
            fh.write("".join([line % tuple(r) for r in chunk.tolist()]))


def read_schedule(path, num_users: int | None = None) -> Schedule:
    """Parse the line-per-block format written by write_schedule.

    Line i (blank lines aside) must hold the block index i and then T
    distinct user indices in [0, num_users); ``num_users`` defaults to one
    more than the largest index.
    """
    rows, linenos = [], []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            try:
                rows.append([int(tok) for tok in parts])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: expected integer indices") from None
            linenos.append(lineno)
            if len(rows[-1]) != len(rows[0]):
                raise ValueError(f"{path}:{lineno}: inconsistent pilots per block")
    if not rows:
        raise ValueError("empty schedule file")
    try:
        table = np.array(rows, dtype=np.intp)
    except OverflowError:
        raise ValueError(f"{path}: index out of range") from None
    assignments = table[:, 1:]
    if num_users is None:
        num_users = int(assignments.max()) + 1 if assignments.size else 0
    H = len(rows)
    ordered = np.sort(assignments, axis=1)
    checks = (
        (table[:, 0] != np.arange(H), f"block indices must run 0..{H - 1} in order"),
        ((assignments < 0) | (assignments >= num_users), f"user index outside [0, {num_users})"),
        (ordered[:, 1:] == ordered[:, :-1], "user repeated within the block"),
    )
    bad_rows = []
    for bad, what in checks:
        hit = np.flatnonzero(bad.reshape(H, -1).any(axis=1))
        if hit.size:
            bad_rows.append((int(hit[0]), what))
    if bad_rows:
        i, what = min(bad_rows)
        raise ValueError(f"{path}:{linenos[i]}: {what}")
    return Schedule(num_users=num_users, assignments=assignments)
