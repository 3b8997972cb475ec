"""Independent expected values for checking csisched's outputs.

Nothing here imports csisched.  Every expected value is derived from the
model in the paper (Gauss-Markov aging, closed-form MF/ZF SINR under aged
CSI), so a fault in the program cannot hide inside its own check.
"""

from __future__ import annotations

import numpy as np

# Ages are tabulated until every user's rate drops below this many bits per
# channel use; the remainder of the cumulative rate is then below 1e-12.
RATE_FLOOR = 1e-16

# Standard deviations allowed between a Monte Carlo moment and its closed
# form.  For a Gaussian mean the two-sided tail beyond 6 sigma is 2e-9; the
# modulus bounds below use chi-square(2) tails, at most exp(-18) = 1.5e-8.
Z_SIGMA = 6.0


def draw_rhos(seed: int, K: int, lo: float, hi: float) -> np.ndarray:
    """User correlations of a scenario: uniform on [lo, hi] from a generator
    seeded with (seed, K), the draw that scenario files document."""
    return np.random.default_rng([seed, K]).uniform(lo, hi, size=K)


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def sinr(M: int, K: int, precoder: str, snr: float, rhos, ages) -> np.ndarray:
    """Closed-form SINR, shape (len(rhos), len(ages)), for K users that share
    one linear SNR (so the interference total is K * snr)."""
    decay = np.asarray(rhos, float)[:, None] ** (2.0 * np.asarray(ages, float)[None, :])
    isum = K * snr
    if precoder == "mf":
        return snr * M * decay / (1.0 + isum)
    return snr * (M - K) * decay / (1.0 + (1.0 - decay) * isum)


def rate_table(M: int, K: int, precoder: str, snr: float, rhos) -> np.ndarray:
    """Rates log2(1 + SINR) at ages 0..N-1, with N large enough that every
    user's rate at age N-1 is below RATE_FLOOR."""
    rho_max = float(np.max(rhos))
    # rate <= SINR / ln 2 <= snr * M * rho**(2n) / ln 2 for both precoders
    ratio = RATE_FLOOR * np.log(2.0) / max(snr * M, 1e-300)
    n_ages = 2 if rho_max == 0.0 else int(np.log(ratio) / (2.0 * np.log(rho_max))) + 2
    return np.log2(1.0 + sinr(M, K, precoder, snr, rhos, np.arange(max(n_ages, 2))))


def table_length(M: int, K: int, precoder: str, snr: float, rho: float, cutoff: float = 1e-9) -> int:
    """First age at which one user's rate falls below ``cutoff``: the length
    of that user's rate table under the program's documented tail rule."""
    # Solve SINR(n) = 2**cutoff - 1 for the decay rho**(2n), then settle the
    # rounding by evaluating the ages around the solution.
    target = np.expm1(cutoff * np.log(2.0))
    isum = K * snr
    gain = snr * M if precoder == "mf" else snr * (M - K) + target * isum
    decay = target * (1.0 + isum) / gain
    n0 = int(np.log(decay) / (2.0 * np.log(rho)))
    ages = np.arange(max(n0 - 2, 0), n0 + 3)
    r = np.log2(1.0 + sinr(M, K, precoder, snr, [rho], ages)[0])
    return int(ages[np.argmax(r < cutoff)])


def exact_sum_rates(R: np.ndarray, C: int, T_values) -> np.ndarray:
    """Optimal discounted sum rate (1 - T/C) * max sum_k S_k(p_k) over
    {sum p = T, 0 <= p <= 1}, for every T in ``T_values``.

    S_k(p) = p G_k(1/p) is concave and piecewise linear with breakpoints at
    p = 1/m; on [1/(m+1), 1/m] its slope is G_k(m) - m R_k(m).  A separable
    concave piecewise-linear allocation is solved exactly by filling
    segments in order of decreasing slope, so one sort answers every T.
    The last tabulated segment stands for (0, 1/(N-1)].
    """
    K, N = R.shape
    G = np.concatenate([np.zeros((K, 1)), np.cumsum(R, axis=1)], axis=1)
    m = np.arange(1, N)
    slopes = (G[:, 1:N] - m * R[:, 1:N]).ravel()
    widths = 1.0 / m - 1.0 / (m + 1)
    widths[-1] = 1.0 / (N - 1)
    widths = np.tile(widths, K)
    order = np.argsort(-slopes, kind="stable")
    s, w = slopes[order], widths[order]
    cum_w = np.cumsum(w)
    cum_v = np.cumsum(s * w)
    out = []
    for T in T_values:
        j = int(np.searchsorted(cum_w, T))
        if T <= 0:
            value = 0.0
        elif j >= s.size:
            value = cum_v[-1]
        else:
            before_w = cum_w[j - 1] if j > 0 else 0.0
            before_v = cum_v[j - 1] if j > 0 else 0.0
            value = before_v + (T - before_w) * s[j]
        out.append((1.0 - T / C) * value)
    return np.array(out)


def replay_rates(assignments: np.ndarray, K: int, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-user pilot counts and average rates of a schedule.

    A user estimated in block b transmits at ages 0, 1, ... until its next
    estimation, so each update interval of g blocks earns G(g) and the last
    update earns G(H - b); blocks before the first update earn nothing.
    """
    H, T = assignments.shape
    G = np.concatenate([np.zeros((K, 1)), np.cumsum(R, axis=1)], axis=1)
    users = assignments.ravel().astype(np.int64)
    blocks = np.repeat(np.arange(H, dtype=np.int64), T)
    key = np.sort(users * H + blocks)
    u, b = key // H, key % H
    nxt = np.empty_like(b)
    nxt[:-1] = b[1:]
    last = np.ones(u.size, dtype=bool)
    last[:-1] = u[1:] != u[:-1]
    gaps = np.where(last, H, nxt) - b
    earned = G[u, np.minimum(gaps, G.shape[1] - 1)]
    counts = np.bincount(u, minlength=K)
    return counts, np.bincount(u, weights=earned, minlength=K) / H


def mc_expected(M: int, K: int, precoder: str, snr: float, rho: float, age: int) -> dict[str, float]:
    """Closed-form moment terms of user 0 at CSI age ``age``."""
    d = rho ** (2.0 * age)
    others = (K - 1) * snr
    if precoder == "mf":
        terms = {"signal": snr * M * d, "variance": snr, "interference": others}
    else:
        terms = {
            "signal": snr * (M - K) * d,
            "variance": snr * (1.0 - d),
            "interference": (1.0 - d) * others,
        }
    terms["sinr"] = terms["signal"] / (1.0 + terms["variance"] + terms["interference"])
    return terms


def mc_trial_moments(M: int, K: int, precoder: str, rho: float, age: int) -> dict[str, float]:
    """Per-trial moments behind user 0's empirical terms, for unit SNR.

    With d = rho**(2 age), s2 = 1 - d, y = h^T v_0 - E h^T v_0 and
    Q = sum over i != 0 of |h^T v_i|^2 (see README for the derivations):
      MF: E|y|^2 = 1, Var|y|^2 = (3d^2 + 4 s2 d)(1 + 2/M) + 2 s2^2 (1 + 1/M) - 1,
          Var Q = (K - 1)(1 + K/M);
      ZF, c = M - K: E|y|^2 = s2, Var|y|^2 = s2^2 (c + 1)/(c - 1), and Var Q
          from the second moments of a complex inverse Wishart matrix.
    ``mean`` is E h^T v_0.
    """
    d = rho ** (2.0 * age)
    s2 = 1.0 - d
    kp = K - 1
    if precoder == "mf":
        return {
            "mean": np.sqrt(M * d),
            "y2": 1.0,
            "var_y2": (3 * d * d + 4 * s2 * d) * (1 + 2.0 / M) + 2 * s2 * s2 * (1 + 1.0 / M) - 1.0,
            "var_q": kp * (1.0 + K / M),
        }
    c = M - K
    diag2 = 1.0 / (c * (c - 1.0))  # E[(W^-1)_ii^2]
    off2 = 1.0 / (c * (c * c - 1.0))  # E|(W^-1)_ij|^2, i != j
    cross = 1.0 / (c * c - 1.0)  # E[(W^-1)_ii (W^-1)_jj], i != j
    quad = c * c * (kp * diag2 + kp * (kp - 1) * off2)
    trace_var = c * c * (kp * diag2 + kp * (kp - 1) * cross) - kp * kp
    return {
        "mean": np.sqrt(c * d),
        "y2": s2,
        "var_y2": s2 * s2 * (c + 1.0) / (c - 1.0),
        "var_q": s2 * s2 * (quad + trace_var),
    }


def mc_tolerance(M: int, K: int, precoder: str, snr: float, rho: float, age: int, trials: int) -> dict[str, float]:
    """Largest deviation of each empirical moment term from its closed form
    that Z_SIGMA standard errors over ``trials`` independent trials allow."""
    m = mc_trial_moments(M, K, precoder, rho, age)
    N = float(trials)
    eps = Z_SIGMA * np.sqrt(m["y2"] / N)  # bound on |mean of y| over the trials
    return {
        "signal": float(snr * (2.0 * m["mean"] * eps + eps * eps)),
        "variance": float(snr * (Z_SIGMA * np.sqrt(m["var_y2"] / N) + eps * eps)),
        "interference": float(snr * Z_SIGMA * np.sqrt(m["var_q"] / N)),
    }
