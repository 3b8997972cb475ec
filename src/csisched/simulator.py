"""Monte Carlo validation of the closed-form aged-CSI SINR.

Draws Gauss-Markov channels, builds MF/ZF precoders from stale estimates and
estimates the three moment terms of the SINR lower bound

    signal       snr * |E h^T v|^2
    variance     snr * (E|h^T v|^2 - |E h^T v|^2)
    interference sum_{i != k} snr_i * E|h^T v_i|^2

empirically, then compares the assembled SINR against the closed form.
Trials run in fixed-size batches with per-batch child seeds, so results are
bit-reproducible for a given seed and independent of processing order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratemodel import MF, SystemConfig, UserLink, sinr, total_snr

_BATCH = 256
_COND_LIMIT = 1e12
# Most trials one validation runs: about 400,000 batches and their seeds,
# hours of work, where the acceptance checks use 100,000 trials.
MAX_TRIALS = 10**8


def complex_gaussian(rng: np.random.Generator, shape) -> np.ndarray:
    """CN(0, 1) entries: real and imaginary parts each with variance 1/2."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def evolve_channel(h: np.ndarray, rho: float, n: int, rng: np.random.Generator) -> np.ndarray:
    """Age a channel by n blocks: rho**n h + sqrt(1 - rho**(2n)) e, e fresh."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    if n < 0:
        raise ValueError("age must be nonnegative")
    if n == 0:
        return h
    decay = rho**n
    return decay * h + np.sqrt(1.0 - decay * decay) * complex_gaussian(rng, h.shape)


def mf_precoder(H_hat: np.ndarray) -> np.ndarray:
    """Matched filter columns v_k = conj(h_hat_k) / sqrt(M).

    ``H_hat`` holds user channels as rows (..., K, M); returns (..., M, K).
    """
    M = H_hat.shape[-1]
    return np.conj(np.swapaxes(H_hat, -1, -2)) / np.sqrt(M)


def zf_precoder(H_hat: np.ndarray) -> np.ndarray:
    """Zero-forcing columns with deterministic normalization sqrt(M - K).

    Solves K linear systems against the K x K Gram matrix instead of forming
    an explicit inverse; h_hat_j^T v_k = sqrt(M - K) delta_jk up to rounding.
    Raises on M <= K or a Gram condition number above 1e12.
    """
    K, M = H_hat.shape[-2], H_hat.shape[-1]
    if M <= K:
        raise ValueError("zero forcing requires M > K")
    Hc = np.conj(H_hat)
    gram = H_hat @ np.swapaxes(Hc, -1, -2)
    if np.any(np.linalg.cond(gram) > _COND_LIMIT):
        raise np.linalg.LinAlgError("ill-conditioned Gram matrix")
    inv = np.linalg.solve(gram, np.broadcast_to(np.eye(K), gram.shape))
    return np.sqrt(M - K) * (np.swapaxes(Hc, -1, -2) @ inv)


@dataclass
class MonteCarloReport:
    """Empirical vs closed-form moment terms for user 0 at one CSI age.

    The ZF closed forms rest on the channel-hardening normalization (a
    deterministic sqrt(M - K) scale), whose per-draw fluctuation is
    O(1/(M - K)); ZF comparisons therefore warrant a looser band than MF,
    whose moment identities are exact."""

    trials: int
    seed: int
    resamples: int
    signal_emp: float
    signal_cf: float
    variance_emp: float
    variance_cf: float
    interference_emp: float
    interference_cf: float
    sinr_emp: float
    sinr_cf: float

    def rel_err(self, emp: float, cf: float) -> float:
        return abs(emp - cf) / cf if cf != 0.0 else abs(emp)

    @property
    def sinr_rel_err(self) -> float:
        return self.rel_err(self.sinr_emp, self.sinr_cf)

    def rows(self):
        """Rows in the serialization schema:
        term, empirical, closed_form, rel_err, trials, seed."""
        out = []
        for term, emp, cf in (
            ("signal", self.signal_emp, self.signal_cf),
            ("variance", self.variance_emp, self.variance_cf),
            ("interference", self.interference_emp, self.interference_cf),
            ("sinr", self.sinr_emp, self.sinr_cf),
        ):
            out.append((term, emp, cf, self.rel_err(emp, cf), self.trials, self.seed))
        return out


def _batch_moments(cfg, rho, age, rng, batch):
    """One batch of trials for user 0 with correlation rho; returns
    (sum h^T v_0, sum |h^T v_i|^2 per i, number of resampled draws)."""
    K, M = cfg.K, cfg.M
    resamples = 0
    H_hat = complex_gaussian(rng, (batch, K, M))
    if cfg.precoder == MF:
        V = mf_precoder(H_hat)
    else:
        gram = H_hat @ np.conj(np.swapaxes(H_hat, -1, -2))
        bad = np.linalg.cond(gram) > _COND_LIMIT
        while np.any(bad):
            resamples += int(bad.sum())
            H_hat[bad] = complex_gaussian(rng, (int(bad.sum()), K, M))
            gram = H_hat @ np.conj(np.swapaxes(H_hat, -1, -2))
            bad = np.linalg.cond(gram) > _COND_LIMIT
        inv = np.linalg.solve(gram, np.broadcast_to(np.eye(K), gram.shape))
        V = np.sqrt(M - K) * (np.conj(np.swapaxes(H_hat, -1, -2)) @ inv)
    h_true = evolve_channel(H_hat[:, 0, :], rho, age, rng)
    dots = np.einsum("bm,bmk->bk", h_true, V)
    return (
        dots[:, 0].sum(),
        (np.abs(dots) ** 2).sum(axis=0),
        resamples,
    )


def validate_closed_form(
    cfg: SystemConfig, users, n: int, trials: int, seed: int
) -> MonteCarloReport:
    """Estimate the SINR moment terms of user 0 by Monte Carlo and compare
    with the closed form at CSI age n.

    Per trial: draw a fresh estimated channel matrix, age user 0's true
    channel by n blocks, build the precoder from the estimates and
    accumulate h^T v products.  Ill-conditioned ZF draws are resampled and
    counted.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials={trials} outside [1, {MAX_TRIALS}]")
    K = cfg.K
    if len(users) != K:
        raise ValueError("user list does not match cfg.K")
    user = users[0]
    snrs = np.array([u.snr for u in users])

    # The closed form first, so that an overflowing SNR fails before any trial.
    sinr_cf = sinr(cfg, user, total_snr(users), n)

    sum_dot = 0.0 + 0.0j
    sum_abs2 = np.zeros(K)
    resamples = 0
    done = 0
    root = np.random.SeedSequence(seed)
    for _ in range((trials + _BATCH - 1) // _BATCH):
        # one child per batch: the children of an up-front spawn, never all held
        batch = min(_BATCH, trials - done)
        rng = np.random.default_rng(root.spawn(1)[0])
        s_dot, s_abs2, res = _batch_moments(cfg, user.rho, n, rng, batch)
        sum_dot += s_dot
        sum_abs2 += s_abs2
        resamples += res
        done += batch

    mean_dot = sum_dot / trials
    mean_abs2 = sum_abs2 / trials
    signal_emp = user.snr * abs(mean_dot) ** 2
    variance_emp = user.snr * (mean_abs2[0] - abs(mean_dot) ** 2)
    interference_emp = float((snrs[1:] * mean_abs2[1:]).sum())
    sinr_emp = signal_emp / (1.0 + variance_emp + interference_emp)

    decay = user.rho ** (2.0 * n)
    interference_others = float(snrs[1:].sum())
    if cfg.precoder == MF:
        signal_cf = user.snr * cfg.M * decay
        variance_cf = user.snr
        interference_cf = interference_others
    else:
        signal_cf = user.snr * (cfg.M - cfg.K) * decay
        variance_cf = user.snr * (1.0 - decay)
        interference_cf = (1.0 - decay) * interference_others

    return MonteCarloReport(
        trials=int(trials),
        seed=int(seed),
        resamples=resamples,
        signal_emp=float(signal_emp),
        signal_cf=float(signal_cf),
        variance_emp=float(variance_emp),
        variance_cf=float(variance_cf),
        interference_emp=interference_emp,
        interference_cf=interference_cf,
        sinr_emp=float(sinr_emp),
        sinr_cf=float(sinr_cf),
    )


def autocorrelation_check(rho: float, max_n: int, samples: int, seed: int) -> np.ndarray:
    """Lag-n sample correlations of the Gauss-Markov chain; expected rho**n.

    Evolves ``samples`` independent scalar channels one block at a time and
    correlates each lag against the initial draw.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    z0 = complex_gaussian(rng, samples)
    z = z0
    out = np.empty(max_n + 1)
    out[0] = 1.0
    for lag in range(1, max_n + 1):
        z = evolve_channel(z, rho, 1, rng)
        num = np.real(np.vdot(z0, z))
        out[lag] = num / np.sqrt((np.abs(z0) ** 2).sum() * (np.abs(z) ** 2).sum())
    return out
