"""Closed-form downlink rates under aged CSI and the per-user rate curves.

The base station serves K single-antenna users from M antennas. A user whose
channel was estimated n blocks ago has an SINR that decays with the squared
temporal correlation rho**(2n).  This module provides:

* the closed-form SINR/rate for matched-filter (MF) and zero-forcing (ZF)
  precoding as a function of the age of CSI,
* memoized per-user rate tables R(0), R(1), ... and their cumulative sums
  G(n) = R(0) + ... + R(n-1),
* the piecewise-linear extension of G to real arguments and the per-user
  rate S(p) = p * G(1/p) attained by a quasi-periodic updating interval,
* a parabola-smoothed, differentiable version of G and S, the paper's
  surrogate for gradient methods (the optimizer solves the unsmoothed
  problem exactly and does not use it).

All functions are pure and all containers are frozen after construction, so
everything here is safe to evaluate concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

MF = "mf"
ZF = "zf"

LOG_TWO = "two"
LOG_NATURAL = "natural"

# Rate table tail handling: the table stops at the first age whose rate drops
# below TAIL_EPSILON (rate units), hard-capped for rho = 1 channels that never
# decay.
TAIL_EPSILON = 1e-9
N_MAX_HARD = 10_000

# Default half-width of the parabolic smoothing windows around integer ages.
DEFAULT_DELTA = 0.05


@dataclass(frozen=True)
class SystemConfig:
    """Deterministic system parameters shared by all users.

    M, K, C are the antenna count, user count and block length in channel
    uses.  ``precoder`` selects the linear precoding scheme ("mf" or "zf");
    ZF requires M > K or the Gram matrix of estimates is singular.
    ``log_base`` picks bits ("two") or nats ("natural") per channel use.
    """

    M: int
    K: int
    C: int
    precoder: str = ZF
    log_base: str = LOG_TWO

    def __post_init__(self):
        object.__setattr__(self, "precoder", str(self.precoder).lower())
        object.__setattr__(self, "log_base", str(self.log_base).lower())
        if self.M < 1 or self.K < 1 or self.C < 1:
            raise ValueError("M, K and C must all be positive")
        if self.precoder not in (MF, ZF):
            raise ValueError(f"unknown precoder {self.precoder!r}")
        if self.log_base not in (LOG_TWO, LOG_NATURAL):
            raise ValueError(f"unknown log base {self.log_base!r}")
        if self.precoder == ZF and self.M <= self.K:
            raise ValueError("zero forcing requires M > K")


@dataclass(frozen=True)
class UserLink:
    """Per-user link parameters.

    ``snr`` is the product of transmit SNR and large-scale gain on a linear
    scale (the two never appear separately in any rate formula).  ``rho`` is
    the per-block temporal correlation coefficient of the Gauss-Markov
    channel.
    """

    snr: float
    rho: float

    def __post_init__(self):
        if not np.isfinite(self.snr) or self.snr < 0:
            raise ValueError("snr must be finite and nonnegative")
        if not 0.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [0, 1]")


def total_snr(users: Iterable[UserLink]) -> float:
    """Sum of linear SNRs over all users; the interference total every
    SINR formula depends on."""
    return float(sum(u.snr for u in users))


def sinr(cfg: SystemConfig, user: UserLink, interference_sum: float, n) -> float:
    """Closed-form SINR of a user whose CSI is n blocks old.

    ``interference_sum`` is the sum of linear SNRs over all K users
    (including this one).  ``n`` may be a scalar or an integer array.
    """
    n = np.asarray(n, dtype=float)
    if np.any(n < 0):
        raise ValueError("age of CSI must be nonnegative")
    if interference_sum < 0:
        raise ValueError("interference_sum must be nonnegative")
    decay = user.rho ** (2.0 * n)
    if cfg.precoder == MF:
        out = user.snr * cfg.M * decay / (1.0 + interference_sum)
    else:
        out = (
            user.snr * (cfg.M - cfg.K) * decay
            / (1.0 + (1.0 - decay) * interference_sum)
        )
    return out if out.ndim else float(out)


def rate(cfg: SystemConfig, user: UserLink, interference_sum: float, n) -> float:
    """Transmission rate log(1 + SINR) in the configured log base."""
    g = np.log1p(sinr(cfg, user, interference_sum, n))
    if cfg.log_base == LOG_TWO:
        g = g / np.log(2.0)
    return g if np.ndim(g) else float(g)


@dataclass(frozen=True)
class RateTable:
    """Memoized rate sequence of one user and its cumulative sums.

    ``rates[n]`` is R(n) for n = 0..n_max, where n_max is the first age at
    which the rate falls below the tail cutoff (or the hard cap for rho = 1).
    ``prefix[j]`` is G(j) = sum of the first j rates, j = 0..n_max + 1.
    """

    user: UserLink
    rates: np.ndarray
    prefix: np.ndarray
    n_max: int

    def rate_at_age(self, n) -> np.ndarray:
        """R(n) with the constant-tail convention R(n) = R(n_max) beyond
        the table."""
        idx = np.minimum(np.asarray(n, dtype=np.intp), self.n_max)
        return self.rates[idx]


def build_rate_table(
    cfg: SystemConfig,
    user: UserLink,
    interference_sum: float,
    tail_epsilon: float = TAIL_EPSILON,
    n_max_hard: int = N_MAX_HARD,
) -> RateTable:
    """Tabulate R(0..n_max) and the prefix sums G(0..n_max+1) for one user.

    The table ends at the first age whose rate drops below ``tail_epsilon``;
    for rho = 1 the rates never decay and the hard cap applies.
    """
    r0 = rate(cfg, user, interference_sum, 0)
    if r0 < tail_epsilon:
        rates = np.array([r0])
    else:
        # Geometric decay makes a doubling scan cheap; grow until the tail
        # condition or the hard cap is hit.
        rates = np.array([r0])
        while rates[-1] >= tail_epsilon and len(rates) <= n_max_hard:
            lo = len(rates)
            hi = min(2 * lo, n_max_hard + 1)
            block = rate(cfg, user, interference_sum, np.arange(lo, hi))
            rates = np.concatenate([rates, np.atleast_1d(block)])
            if hi == n_max_hard + 1:
                break
        below = np.nonzero(rates < tail_epsilon)[0]
        n_max = int(below[0]) if below.size else n_max_hard
        rates = rates[: n_max + 1]
    prefix = np.concatenate([[0.0], np.cumsum(rates)])
    rates.flags.writeable = False
    prefix.flags.writeable = False
    return RateTable(user=user, rates=rates, prefix=prefix, n_max=len(rates) - 1)


def build_rate_tables(cfg: SystemConfig, users: Sequence[UserLink]) -> list[RateTable]:
    """Rate tables for a whole user set, sharing one interference total."""
    isum = total_snr(users)
    return [build_rate_table(cfg, u, isum) for u in users]


def _check_x(x):
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be nonnegative")
    return x


def g_extended(table: RateTable, x):
    """Piecewise-linear extension of the cumulative rate G to real x >= 0.

    Linear interpolation between integer ages; beyond the table the
    extension continues with slope R(n_max), which preserves concavity.
    """
    x = _check_x(x)
    n = np.minimum(np.floor(x).astype(np.intp), table.n_max)
    out = table.prefix[n] + (x - n) * table.rates[n]
    return out if out.ndim else float(out)


def s_of_p(table: RateTable, p):
    """Best attainable average rate S(p) = p * G(1/p) of a user updated with
    frequency p; S(0) = 0 by continuity."""
    p = np.asarray(p, dtype=float)
    if np.any(p < 0) or np.any(p > 1):
        raise ValueError("updating frequency must lie in [0, 1]")
    pos = p > 0
    x = np.where(pos, 1.0 / np.where(pos, p, 1.0), 1.0)
    out = np.where(pos, p * g_extended(table, x), 0.0)
    return out if out.ndim else float(out)


def g_smoothed(table: RateTable, x, delta: float = DEFAULT_DELTA):
    """Differentiable approximation of g_extended.

    Inside each window (n - delta, n + delta) around a positive integer age
    the kink is replaced by the parabola that matches value and slope at the
    window ends; elsewhere the function equals g_extended exactly.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError("smoothing width delta must lie in (0, 1/2)")
    x = _check_x(x)
    # Window center: the nearest integer if within delta of it; 0 marks "no
    # window" (windows exist only around positive integers).
    f = np.floor(x)
    r = x - f
    m = np.where(r < delta, f, np.where(r > 1.0 - delta, f + 1.0, 0.0))
    inwin = m >= 1.0
    mi = np.minimum(m.astype(np.intp), table.n_max)
    mi_prev = np.minimum(np.maximum(m.astype(np.intp) - 1, 0), table.n_max)
    rn = table.rates[mi]
    rp = table.rates[mi_prev]
    t = x - m
    gm = table.prefix[mi] + (m - np.minimum(m, float(table.n_max))) * table.rates[-1]
    parab = (rn - rp) / (4.0 * delta) * t * t + 0.5 * (rn + rp) * t + gm + delta * (rn - rp) / 4.0
    out = np.where(inwin, parab, g_extended(table, x))
    return out if out.ndim else float(out)


def s_smoothed(table: RateTable, p, delta: float = DEFAULT_DELTA):
    """Smoothed per-user rate p * g_smoothed(1/p)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0) or np.any(p > 1):
        raise ValueError("updating frequency must lie in (0, 1]")
    out = p * g_smoothed(table, 1.0 / p, delta)
    return out if out.ndim else float(out)


class RateTableBank:
    """Stacked rate tables of a whole user set for vectorized evaluation.

    Pads every user's rate sequence with its own tail value to a common
    length, which reproduces the constant-slope tail extension exactly.
    ``s`` evaluates one frequency per user in a single pass.
    """

    def __init__(self, tables: Sequence[RateTable]):
        if not tables:
            raise ValueError("need at least one rate table")
        self.tables = list(tables)
        self.K = len(tables)
        self.n_max = np.array([t.n_max for t in tables], dtype=np.intp)
        L = int(self.n_max.max())
        self.L = L
        rates = np.empty((self.K, L + 1))
        for k, t in enumerate(tables):
            rates[k, : t.n_max + 1] = t.rates
            rates[k, t.n_max + 1 :] = t.rates[-1]
        self.rates = rates
        self.prefix = np.concatenate(
            [np.zeros((self.K, 1)), np.cumsum(rates, axis=1)], axis=1
        )
        self._rows = np.arange(self.K)

    def _g_lin(self, x):
        n = np.minimum(np.floor(x).astype(np.intp), self.L)
        return self.prefix[self._rows, n] + (x - n) * self.rates[self._rows, n]

    def s(self, p: np.ndarray) -> np.ndarray:
        """Unsmoothed S_k(p_k) per user; p_k = 0 contributes 0."""
        p = np.asarray(p, dtype=float)
        pos = p > 0
        x = 1.0 / np.where(pos, p, 1.0)
        return np.where(pos, p * self._g_lin(x), 0.0)
