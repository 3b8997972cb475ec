"""Independent reference implementations used by several test modules.

These deliberately avoid the library's own algorithms: the projection oracle
enumerates pin patterns, the interval oracle scans explicit distributions,
the grid oracle exhausts the feasible simplex, the per-T water-fill sorts
every budget's segments anew, the exact water-fill takes every sum without
rounding, the replay oracle walks a schedule block by block, and the
raw-channel Monte Carlo kernel draws every estimate and precodes with
explicit MF/ZF matrices.
"""

import bisect
import itertools
import math

import numpy as np

from csisched import simulator
from csisched.ratemodel import MF, TAIL_EPSILON, g_extended, s_of_p


def projection_oracle(x, T):
    """Brute-force capped-simplex projection: enumerate every {0, interior,
    1} pin pattern, solve each equality-constrained subproblem, keep the
    feasible minimum-distance candidate."""
    x = np.asarray(x, dtype=float)
    K = x.size
    pats = np.array(list(itertools.product((0, 1, 2), repeat=K)))
    is_one = pats == 1
    is_int = pats == 2
    n_int = is_int.sum(axis=1)
    budget = T - is_one.sum(axis=1)
    nu = (budget - is_int @ x) / np.maximum(n_int, 1)
    cand = is_one + is_int * (x[None, :] + nu[:, None])
    feasible = np.where(
        n_int > 0,
        (cand > -1e-11).all(axis=1) & (cand < 1 + 1e-11).all(axis=1),
        np.abs(budget) < 1e-11,
    )
    d2 = ((cand - x[None, :]) ** 2).sum(axis=1)
    d2[~feasible] = np.inf
    return np.clip(cand[np.argmin(d2)], 0.0, 1.0)


def brute_force_interval_value(table, p, support_max=6, grid=1e-3):
    """Best mean-constrained updating-interval distribution on supports of up
    to three lengths in {1..support_max}: pairs solved exactly, triples
    scanned on a weight grid.  Linear objectives peak on two-point supports,
    so this dominates every distribution on the full support."""
    target = 1.0 / p
    ns = np.arange(1, support_max + 1)
    gvals = np.array([g_extended(table, float(n)) for n in ns])
    best = -np.inf
    for a in range(len(ns)):
        for b in range(a, len(ns)):
            na, nb = ns[a], ns[b]
            if na == nb:
                if abs(na - target) < 1e-12:
                    best = max(best, p * gvals[a])
                continue
            w = (nb - target) / (nb - na)
            if -1e-12 <= w <= 1 + 1e-12:
                w = min(max(w, 0.0), 1.0)
                best = max(best, p * (w * gvals[a] + (1 - w) * gvals[b]))
    weights = np.arange(0.0, 1.0 + grid, grid)
    for a in range(len(ns)):
        for b in range(a + 1, len(ns)):
            for c in range(b + 1, len(ns)):
                na, nb, nc = ns[a], ns[b], ns[c]
                wa = weights
                rem = 1.0 - wa
                need = target - wa * na
                wb = (nc * rem - need) / (nc - nb)
                wc = rem - wb
                ok = (wb >= -1e-12) & (wc >= -1e-12)
                if not ok.any():
                    continue
                vals = p * (wa * gvals[a] + wb * gvals[b] + wc * gvals[c])
                best = max(best, float(vals[ok].max()))
    return best


def grid_best_objective(tables, T, C, step=1e-3):
    """Exhaustive grid search of the unsmoothed discounted objective over the
    capped simplex (K <= 3)."""
    g = np.arange(0.0, 1.0 + step / 2, step)
    if len(tables) == 1:
        return (1 - T / C) * float(s_of_p(tables[0], min(max(T, 0.0), 1.0)))
    if len(tables) == 2:
        p2 = T - g
        ok = (p2 >= -1e-12) & (p2 <= 1 + 1e-12)
        vals = s_of_p(tables[0], g[ok]) + s_of_p(tables[1], np.clip(p2[ok], 0, 1))
        return (1 - T / C) * float(vals.max())
    p1, p2 = np.meshgrid(g, g, indexing="ij")
    p3 = T - p1 - p2
    ok = (p3 >= -1e-12) & (p3 <= 1 + 1e-12)
    s1 = s_of_p(tables[0], g)
    s2 = s_of_p(tables[1], g)
    vals = np.where(ok, s1[:, None] + s2[None, :], -np.inf)
    vals[ok] += s_of_p(tables[2], np.clip(p3[ok], 0, 1))
    return (1 - T / C) * float(vals.max())


def _padded(tables):
    """Rate tables stacked to a common length, each padded with its tail."""
    L = max(t.n_max for t in tables)
    padded = np.empty((len(tables), L + 1))
    for k, t in enumerate(tables):
        padded[k, : t.n_max + 1] = t.rates
        padded[k, t.n_max + 1 :] = t.rates[-1]
    return padded


def per_t_water_fill(tables, T, C):
    """Optimal frequencies at one pilot length T by a greedy fill that sorts
    the segments anew for this T.

    Segment m = 1..L of user k covers p in [1/(m+1), 1/m] (the last one
    (0, 1/L]) with slope G_k(m) - m R_k(m).  Segments are filled whole in
    order of decreasing slope (a stable sort) up to the marginal equal-slope
    group.  A user with a whole segment holds 1 less the widths of its
    other segments, added in fill order; a user with none holds 0.  The
    group's budget is T less those holdings; a user with no segment in or
    before the group whose tail rate is at least TAIL_EPSILON gets the
    sliver 2**-52 from it, and the group splits the rest in proportion to
    width.  The last ulps of the sum go to the largest interior p_k that
    takes them within [0, 1].  Returns (p, (1 - T/C) * sum_k S_k(p_k)).
    """
    K = len(tables)
    rates = _padded(tables)
    L = rates.shape[1] - 1
    prefix = np.concatenate([np.zeros((K, 1)), np.cumsum(rates, axis=1)], axis=1)
    if T == 0:
        return np.zeros(K), 0.0
    if T == K:
        p = np.ones(K)
    elif L == 0:
        p = np.full(K, T / K)
    else:
        m = np.arange(1, L + 1)
        slopes = (prefix[:, 1 : L + 1] - m * rates[:, 1 : L + 1]).ravel()
        widths = 1.0 / m - 1.0 / (m + 1)
        widths[-1] = 1.0 / L
        widths = np.broadcast_to(widths, (K, L)).ravel()
        order = np.argsort(-slopes, kind="stable")
        cum = np.cumsum(widths[order])
        tie = slopes[order[int(np.searchsorted(cum, T - 1e-12))]]
        g0 = int(np.count_nonzero(slopes > tie))
        g1 = int(np.count_nonzero(slopes >= tie))
        whole = np.zeros(K, dtype=bool)
        whole[order[:g0] // L] = True
        reached = np.zeros(K, dtype=bool)
        reached[order[:g1] // L] = True
        p = np.zeros(K)
        tail = order[g0:]
        for k in np.flatnonzero(whole):
            rest = widths[tail[tail // L == k]]
            p[k] = 1.0 - (np.cumsum(rest)[-1] if rest.size else 0.0)
        budget = T - p.sum()
        owed = np.flatnonzero(~reached & (rates[:, L] >= TAIL_EPSILON))
        if owed.size:
            sliver = min(2.0**-52, budget / (2 * owed.size))
            p[owed] = sliver
            budget -= sliver * owed.size
        members = order[g0:g1]
        scale = budget / widths[members].sum()
        for k in range(K):
            mine = members[members // L == k]
            if mine.size:
                p[k] += np.cumsum(widths[mine] * scale)[-1]
        p = np.minimum(p, 1.0)
        residual = T - p.sum()
        room = (p > 0.0) & (p < 1.0) & (p + residual >= 0.0) & (p + residual <= 1.0)
        if residual != 0.0 and room.any():
            k = np.argmax(np.where(room, p, -np.inf))
            p[k] += residual
    pos = p > 0
    x = 1.0 / np.where(pos, p, 1.0)
    n = np.minimum(np.floor(x).astype(np.intp), L)
    rows = np.arange(K)
    s = np.where(pos, p * (prefix[rows, n] + (x - n) * rates[rows, n]), 0.0)
    return p, (1.0 - T / C) * float(s.sum())


def exact_water_fill(tables, t_max):
    """The greedy fill of per_t_water_fill for T = 0..t_max with every sum
    exact: the cut from integer running sums of the sorted widths, each
    user's whole segments, the budget, the group's width and each user's
    total by math.fsum.  Returns the list of p."""
    K = len(tables)
    rates = _padded(tables)
    L = rates.shape[1] - 1
    prefix = np.concatenate([np.zeros((K, 1)), np.cumsum(rates, axis=1)], axis=1)
    if L == 0:
        return [np.zeros(K)] + [np.full(K, T / K) for T in range(1, t_max + 1)]
    m = np.arange(1, L + 1)
    slopes = prefix[:, 1 : L + 1] - m * rates[:, 1 : L + 1]
    widths = 1.0 / m - 1.0 / (m + 1)
    widths[-1] = 1.0 / L
    order = np.argsort(-slopes, axis=None, kind="stable")
    # every width is an integer multiple of 2**low
    mantissa, exponent = np.frexp(widths[order % L])
    low = int(exponent.min()) - 53
    running = list(itertools.accumulate(
        int(f * 2**53) << (e - 53 - low) for f, e in zip(mantissa.tolist(), exponent.tolist())
    ))
    out = [np.zeros(K)]
    for T in range(1, t_max + 1):
        if T == K:
            out.append(np.ones(K))
            continue
        num, den = (T - 1e-12).as_integer_ratio()
        cut = bisect.bisect_left(running, -((-num << -low) // den))
        tie = slopes.ravel()[order[cut]]
        whole = [math.fsum(widths[row > tie].tolist()) for row in slopes]
        budget = math.fsum([T] + [-w for w in whole])
        owed = ~(slopes >= tie).any(axis=1) & (rates[:, L] >= TAIL_EPSILON)
        sliver = min(2.0**-52, budget / (2 * max(owed.sum(), 1)))
        budget = math.fsum([budget] + [-sliver] * int(owed.sum()))
        scale = budget / math.fsum(np.broadcast_to(widths, slopes.shape)[slopes == tie].tolist())
        p = np.array([
            sliver if owed[k] else math.fsum([whole[k]] + (widths[row == tie] * scale).tolist())
            for k, row in enumerate(slopes)
        ])
        out.append(np.minimum(p, 1.0))
    return out


def block_replay(schedule, tables):
    """Replay a schedule one block at a time for all users at once.

    Returns (frequencies, interval histograms, per-user average rates).  A
    user estimated in block i has age 0 in that block and one more per block
    after it; before its first estimation it adds zero rate.  Each user's
    total adds the blocks' rates in block order, starting from 0.0.
    """
    K, H, T = schedule.num_users, schedule.horizon, schedule.T
    padded = _padded(tables)
    L = padded.shape[1] - 1
    rows = np.arange(K)
    age = np.zeros(K, dtype=np.intp)
    seen = np.zeros(K, dtype=bool)
    totals = np.zeros(K)
    for i in range(H):
        sel = schedule.assignments[i]
        age[sel] = 0
        seen[sel] = True
        totals += np.where(seen, padded[rows, np.minimum(age, L)], 0.0)
        age += 1
    flat = schedule.assignments.ravel()
    blocks = np.repeat(np.arange(H), T)
    freq = np.bincount(flat, minlength=K) / H
    hists = []
    for k in range(K):
        gaps = np.diff(blocks[flat == k])
        values, counts = np.unique(gaps, return_counts=True)
        hists.append({int(v): c / gaps.size for v, c in zip(values, counts)})
    return freq, hists, totals / H


def mf_precoder(H_hat):
    """Matched filter columns v_k = conj(h_hat_k) / sqrt(M).

    ``H_hat`` holds user channels as rows (..., K, M); returns (..., M, K).
    """
    M = H_hat.shape[-1]
    return np.conj(np.swapaxes(H_hat, -1, -2)) / np.sqrt(M)


def zf_precoder(H_hat):
    """Zero-forcing columns with deterministic normalization sqrt(M - K).

    Solves K linear systems against the K x K Gram matrix instead of forming
    an explicit inverse; h_hat_j^T v_k = sqrt(M - K) delta_jk up to rounding.
    Raises LinAlgError when a Gram matrix has no Cholesky factor or the
    simulator's conditioning rule rejects it.
    """
    K, M = H_hat.shape[-2], H_hat.shape[-1]
    Hc = np.conj(H_hat)
    gram = H_hat @ np.swapaxes(Hc, -1, -2)
    try:
        factors = np.linalg.cholesky(gram.reshape(-1, K, K))
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError("ill-conditioned Gram matrix") from None
    if simulator._bad_draws(factors).any():
        raise np.linalg.LinAlgError("ill-conditioned Gram matrix")
    inv = np.linalg.solve(gram, np.broadcast_to(np.eye(K), gram.shape))
    return np.sqrt(M - K) * (np.swapaxes(Hc, -1, -2) @ inv)


def raw_channel_moments(cfg, rho, age, rng, batch):
    """The simulator's batch kernel done the long way: draw the K x M
    estimates, age user 0's channel and take its products with the explicit
    precoder.  Returns (sum h^T v_0, sum |h^T v_i|^2 per i, 0); a ZF draw
    that the conditioning rule rejects raises instead of being redrawn."""
    H = simulator.complex_gaussian(rng, (batch, cfg.K, cfg.M))
    V = mf_precoder(H) if cfg.precoder == MF else zf_precoder(H)
    h = simulator.evolve_channel(H[:, 0, :], rho, age, rng)
    dots = np.einsum("bm,bmk->bk", h, V)
    return dots[:, 0].sum(), (np.abs(dots) ** 2).sum(axis=0), 0
