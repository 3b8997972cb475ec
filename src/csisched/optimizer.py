"""Pilot-budget allocation by an exact water-fill.

Maximizes the discounted sum rate (1 - T/C) * sum_k S_k(p_k) over the capped
simplex {p : sum p_k = T, 0 <= p_k <= 1}.  Every S_k is concave and piecewise
linear, so a greedy fill of the users' segments in order of decreasing slope
solves the problem exactly (Ibaraki & Katoh, Resource Allocation Problems,
1988), up to a sliver for users whose S_k jumps at p = 0 (see
optimize_frequencies).  An outer one-dimensional search picks the pilot
length T.  The fill order does not depend on T, so a private fill plan stacks
the users' rate tables, sorts the segments once per user set, and the search
reads every T's cut from it.  The rate tables are the user set: p[k] is the
frequency of tables[k].user.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratemodel import TAIL_EPSILON, SystemConfig

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
    coordinate, keeping it inside the box."""
    residual = T - p.sum()
    if residual != 0.0:
        interior = (p > 0.0) & (p < 1.0)
        if interior.any():
            k = np.argmax(np.where(interior, p, -np.inf))
            p[k] = min(max(p[k] + residual, 0.0), 1.0)


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

    Builds the fill plan of ``tables`` for this one T; optimize_pilot_length
    reads every T from a single plan through the same code.
    """
    return _FillPlan(tables).allocation(cfg, T)


def optimize_pilot_length(cfg: SystemConfig, tables):
    """Search the pilot length: solve the frequency problem for every
    integer T in [0, min(K, C)] and keep the best objective.

    The segments' fill order does not depend on T, so one fill plan (one
    sort of all K*L segment slopes) answers every T, and each T only places
    its cut.  Returns (best_T, best allocation, full per-T curve).  Ties go
    to the smaller T.
    """
    plan = _FillPlan(tables)
    t_hi = min(len(tables), cfg.C)
    curve = [plan.allocation(cfg, T) for T in range(t_hi + 1)]
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
    once (stably, so equal slopes keep user-major order) and accumulates the
    sorted widths once; a budget T then only needs its cut in that order.
    ``rank`` is the inverse permutation, with shape (K, L).
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
        self.prefix = np.concatenate([np.zeros((K, 1)), np.cumsum(rates, axis=1)], axis=1)
        if L == 0:
            return
        m = np.arange(1, L + 1)
        self.slopes = (self.prefix[:, 1 : L + 1] - m * rates[:, 1 : L + 1]).ravel()
        widths = 1.0 / m - 1.0 / (m + 1)
        widths[-1] = 1.0 / L
        self.widths = widths  # one row, broadcast over the K users
        self.order = np.argsort(-self.slopes, kind="stable")
        self.cum = np.cumsum(widths[self.order % L])
        rank = np.empty_like(self.order)
        rank[self.order] = np.arange(K * L)
        self.rank = rank.reshape(K, L)

    def allocation(self, cfg: SystemConfig, T: int) -> FrequencyAllocation:
        """The optimal allocation at pilot length T, 0 <= T <= K."""
        K = self.K
        T = int(T)
        if not 0 <= T <= K:
            raise ValueError(f"pilot length T={T} outside [0, {K}]")
        if T == 0:
            # No estimation, no coherent precoding: the zero allocation is forced.
            return FrequencyAllocation(np.zeros(K), 0, 0.0, 0, True)
        if T == K:
            if K > cfg.C:
                raise ValueError("T = K with K > C leaves no room for data")
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
        ranked before the marginal group is filled whole."""
        slopes, order, rank, widths = self.slopes, self.order, self.rank, self.widths
        L = self.L
        cut = int(np.searchsorted(self.cum, T - 1e-12))
        # The marginal group: the segments whose slope ties the cut's, which
        # sit next to each other in the sorted order.  Its budget exceeds
        # 1e-12.
        tie = slopes[order[cut]]
        g0 = int(np.count_nonzero(slopes > tie))
        g1 = int(np.count_nonzero(slopes >= tie))
        members = order[g0:g1]
        budget = T - (self.cum[g0 - 1] if g0 > 0 else 0.0)
        fill = np.where(rank < g0, widths, 0.0)

        # Users left at 0 whose S_k jumps there take a sliver of the marginal
        # group's budget on their last segment.
        filled = (rank < g1).any(axis=1)
        owed = np.flatnonzero(~filled & (self.rates[:, L] >= TAIL_EPSILON))
        if owed.size:
            sliver = min(P_SLIVER, budget / (2 * owed.size))
            fill[owed, L - 1] = sliver
            budget -= sliver * owed.size
        share = widths[members % L]
        fill.reshape(-1)[members] = share * (budget / share.sum())
        p = np.minimum(fill.sum(axis=1), 1.0)
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
