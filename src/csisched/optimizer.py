"""Pilot-budget allocation by an exact water-fill.

Maximizes the discounted sum rate (1 - T/C) * sum_k S_k(p_k) over the capped
simplex {p : sum p_k = T, 0 <= p_k <= 1}.  Every S_k is concave and piecewise
linear, so a greedy fill of the users' segments in order of decreasing slope
solves the problem exactly (Ibaraki & Katoh, Resource Allocation Problems,
1988), up to a sliver for users whose S_k jumps at p = 0 (see
optimize_frequencies).  An outer one-dimensional search picks the pilot
length T.  The fill order does not depend on T, so a private fill plan stacks
the users' rate tables, sorts the segments once per user set, and the search
reads every T's cut from it.  A cut reads only the segments from its marginal
group on, the tail of the fill order: each user holds 1 less the widths of
its segments there.  The rate tables are the user set: p[k] is the frequency
of tables[k].user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratemodel import TAIL_EPSILON, SystemConfig, check_pilot_length

# Frequency given to a user whose S_k jumps at p = 0 (a table cut at the hard
# cap) when the fill would leave it at 0.  1/P_SLIVER = 2**52 is exact, and
# P_SLIVER times a slope, at most G(N_MAX_HARD + 1), stays below TAIL_EPSILON
# while R(0) is below 450 bits per channel use.
P_SLIVER = 2.0**-52


@dataclass
class FrequencyAllocation:
    """Optimizer output: per-user updating frequencies under pilot length T.

    ``objective`` is the discounted sum rate achieved by ``p``.  The solver
    is exact in one pass, so ``iterations`` is 0 and ``converged`` is True.
    """

    p: np.ndarray
    T: int
    objective: float
    iterations: int
    converged: bool


def project_capped_simplex(x, T: float) -> np.ndarray:
    """Euclidean projection of x onto {p : sum p = T, 0 <= p_k <= 1}.

    Sorts x ascending and maintains a window [i, j] of candidate interior
    coordinates; everything below i is pinned to 0 and everything above j to
    1.  The common shift nu = (T - #ones - sum of window) / window size is
    the equality-constrained projection of the window; if it violates a box
    bound the offending end is pinned and the window shrinks.

    When both ends violate at once, the end to pin is decided by the sign of
    sum_k clip(x_k + nu, 0, 1) - T: a nonnegative residual certifies that the
    true shift is <= nu, so the bottom coordinate is clipped to 0 in the true
    projection (and symmetrically for the top).  Pinning the violating end is
    always consistent with the true active set, so at most K - 1 shrink steps
    reach the exact projection.
    """
    x = np.asarray(x, dtype=float)
    K = x.size
    if not 0.0 <= T <= K:
        raise ValueError(f"pilot budget T={T} outside [0, {K}]")
    order = np.argsort(x, kind="stable")
    xs = x[order]
    csum = np.concatenate([[0.0], np.cumsum(xs)])
    ps = np.empty(K)
    i, j = 0, K - 1
    ones = 0
    while i <= j:
        n = j - i + 1
        nu = (T - ones - (csum[j + 1] - csum[i])) / n
        lo_bad = xs[i] + nu < 0.0
        hi_bad = xs[j] + nu > 1.0
        if not lo_bad and not hi_bad:
            ps[i : j + 1] = xs[i : j + 1] + nu
            break
        if lo_bad and hi_bad:
            pin_low = np.clip(x + nu, 0.0, 1.0).sum() - T >= 0.0
        else:
            pin_low = lo_bad
        if pin_low:
            ps[i] = 0.0
            i += 1
        else:
            ps[j] = 1.0
            ones += 1
            j -= 1
    p = np.empty(K)
    p[order] = ps
    _fold_residual(p, T)
    return p


def _fold_residual(p: np.ndarray, T: float) -> None:
    """Fold the last few ulps of the sum constraint into the largest interior
    coordinate that takes them without leaving the box."""
    residual = T - p.sum()
    if residual != 0.0:
        room = (p > 0.0) & (p < 1.0) & (p + residual >= 0.0) & (p + residual <= 1.0)
        if room.any():
            k = np.argmax(np.where(room, p, -np.inf))
            p[k] += residual


def optimize_frequencies(cfg: SystemConfig, tables, T: int) -> FrequencyAllocation:
    """Optimal updating frequencies for a fixed pilot length T.

    Each S_k is concave and piecewise linear in p with breakpoints at
    p = 1/m, so the problem is a separable concave allocation and the greedy
    water-fill is exact: fill segments in order of decreasing slope,
    splitting the marginal equal-slope group in proportion to segment width
    (which keeps identical users symmetric).

    A table cut at the hard cap (rho near 1) keeps a tail rate
    R(n_max) >= TAIL_EPSILON that S_k collects for every p > 0 but not at
    p = 0.  That supremum is not attained, so a user the fill leaves at 0
    gets the sliver p_k = P_SLIVER instead, which collects the jump and
    costs the others at most P_SLIVER times the marginal slope.

    Builds the fill plan of ``tables`` for this one T; optimize_frequencies_at
    and optimize_pilot_length read several T from a single plan through the
    same code.
    """
    return _FillPlan(tables).allocation(cfg, T)


def optimize_frequencies_at(cfg: SystemConfig, tables, t_values) -> list[FrequencyAllocation]:
    """optimize_frequencies at each pilot length of ``t_values``, in order.

    The segments' fill order does not depend on T, so one fill plan (one
    sort) serves them all, and each T costs only its cut.
    """
    plan = _FillPlan(tables)
    return [plan.allocation(cfg, T) for T in t_values]


def optimize_pilot_length(cfg: SystemConfig, tables):
    """Search the pilot length: solve the frequency problem for every
    integer T in [0, min(K, C)] and keep the best objective.

    One fill plan (one sort of all K*L segment slopes) answers every T, and
    each T only places its cut.  Returns (best_T, best allocation, full per-T
    curve).  Ties go to the smaller T.
    """
    curve = optimize_frequencies_at(cfg, tables, range(min(len(tables), cfg.C) + 1))
    best_T = 0
    for T, alloc in enumerate(curve):
        if alloc.objective > curve[best_T].objective:
            best_T = T
    return best_T, curve[best_T], curve


class _FillPlan:
    """The users' segments in fill order, shared by every pilot length.

    ``rates`` (K, L + 1) stacks the tables, L the largest n_max, each row
    padded with its own tail rate, which reproduces g_extended's constant
    tail slope; ``prefix`` holds the rows' G.  On p in [1/(m+1), 1/m], S_k
    has slope G_k(m) - m R_k(m), m = 1..L, and the last segment covers
    (0, 1/L], so each user's widths sum to 1.  The plan sorts the K*L slopes
    once (stably, so equal slopes keep user-major order) and keeps, in that
    order, the negated slopes ``key`` (ascending, for searchsorted), the
    widths, their running sum ``cum`` and each segment's ``user``; ``top``
    is each user's largest slope.  A budget T then places its cut and reads
    the tail of the order from its marginal group on.  The tail is short: a
    user fills from p = 0 up, so it leaves only its widest segments, about
    1/p_k of them, unfilled (all L of them at p_k = 0).
    """

    def __init__(self, tables):
        if not tables:
            raise ValueError("need at least one rate table")
        self.K = K = len(tables)
        self.L = L = max(t.n_max for t in tables)
        rates = np.empty((K, L + 1))
        for k, t in enumerate(tables):
            rates[k, : t.n_max + 1] = t.rates
            rates[k, t.n_max + 1 :] = t.rates[-1]
        self.rates = rates
        self.prefix = np.zeros((K, L + 2))
        np.cumsum(rates, axis=1, out=self.prefix[:, 1:])
        if L == 0:
            return
        m = np.arange(1, L + 1)
        widths = 1.0 / m - 1.0 / (m + 1)
        widths[-1] = 1.0 / L
        key = m * rates[:, 1 : L + 1] - self.prefix[:, 1 : L + 1]
        self.top = -key.min(axis=1)
        order = np.argsort(key, axis=None, kind="stable")
        # each K*L array is freed as soon as the next one is built
        self.key = key.ravel()[order]
        del key
        self.user = (order // L).astype(np.int32)
        order %= L
        self.widths = widths[order]
        del order
        self.cum = np.cumsum(self.widths)

    def allocation(self, cfg: SystemConfig, T: int) -> FrequencyAllocation:
        """The optimal allocation at pilot length T, 0 <= T <= min(K, C)."""
        K = self.K
        T = int(T)
        check_pilot_length(T, K, cfg.C)
        if T == 0:
            # No estimation, no coherent precoding: the zero allocation is forced.
            return FrequencyAllocation(np.zeros(K), 0, 0.0, 0, True)
        if T == K:
            p = np.ones(K)
        elif self.L == 0:
            # Every table holds only R(0), so every S_k is constant for p > 0.
            p = np.full(K, T / K)
        else:
            p = self._water_fill(T)
        objective = (1.0 - T / cfg.C) * self._sum_rate(p)
        return FrequencyAllocation(p, T, objective, 0, True)

    def _water_fill(self, T: int) -> np.ndarray:
        """Greedy marginal allocation of the budget 0 < T < K: every segment
        ordered before the marginal group is filled whole."""
        key, widths, user = self.key, self.widths, self.user
        K = self.K
        # The marginal group [g0, g1): the segments whose slope ties the
        # cut's, which sit next to each other in the sorted order.  The cut
        # leaves cum[g0 - 1] more than 1e-12 below T.
        cut = int(np.searchsorted(self.cum, T - 1e-12))
        while True:
            g0 = int(np.searchsorted(key, key[cut], side="left"))
            g1 = int(np.searchsorted(key, key[cut], side="right"))
            tie = -key[cut]
            # A user with a whole segment holds 1 less the widths it has from
            # g0 on; a user with none holds 0, not the rounding of 1 - 1.
            unfilled = np.bincount(user[g0:], weights=widths[g0:], minlength=K)
            p = np.where(self.top > tie, 1.0 - unfilled, 0.0)
            budget = T - p.sum()
            # The holdings equal cum[g0 - 1] up to the running sum's rounding
            # drift.  Where that drift passes the margin, the holdings come
            # within 1e-12 of T or past it: the group before is the marginal
            # one.  At g0 = 0 nothing is held, so the budget is T.
            if budget > 1e-12:
                break
            cut = g0 - 1

        # Users with no segment in or before the group whose S_k jumps at 0
        # take a sliver of the group's budget.
        owed = np.flatnonzero((self.top < tie) & (self.rates[:, self.L] >= TAIL_EPSILON))
        if owed.size:
            sliver = min(P_SLIVER, budget / (2 * owed.size))
            p[owed] = sliver
            budget -= sliver * owed.size
        share = widths[g0:g1]
        p += np.bincount(user[g0:g1], weights=share * (budget / share.sum()), minlength=K)
        p = np.minimum(p, 1.0)
        _fold_residual(p, T)
        return p

    def _sum_rate(self, p: np.ndarray) -> float:
        """Sum over users of S_k(p_k) = p_k G_k(1/p_k); p_k = 0 contributes 0."""
        pos = p > 0
        x = 1.0 / np.where(pos, p, 1.0)
        n = np.minimum(np.floor(x).astype(np.intp), self.L)
        rows = np.arange(self.K)
        g = self.prefix[rows, n] + (x - n) * self.rates[rows, n]
        return float(np.where(pos, p * g, 0.0).sum())
