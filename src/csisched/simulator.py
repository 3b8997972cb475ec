"""Monte Carlo validation of the closed-form aged-CSI SINR.

Draws Gauss-Markov channels, precodes with MF/ZF from stale estimates and
estimates the three moment terms of the SINR lower bound

    signal       snr * |E h^T v|^2
    variance     snr * (E|h^T v|^2 - |E h^T v|^2)
    interference sum_{i != k} snr_i * E|h^T v_i|^2

empirically, then compares the assembled SINR against the closed form.
Trials run in fixed-size batches with per-batch child seeds, so results are
bit-reproducible for a given seed and independent of processing order; the
spread of the per-batch terms gives each term a batch-means standard error.

A batch computes only the products h^T v_i its moments need: b = conj(H) h
for the estimates H (rows h_i) and the aged true channel h, then
b / sqrt(M) for MF and sqrt(M - K) solve(conj(G), b) for ZF, with
G = H H^H.  Neither precoder matrix is formed.  A ZF draw whose Gram has a
condition number above 1e12 is redrawn and counted; a Cholesky-based bound
clears most draws, so the SVD of ``np.linalg.cond`` runs only on the rest.
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
    """CN(0, 1) entries: real and imaginary parts each with variance 1/2.

    One draw of interleaved (real, imaginary) pairs, viewed as complex."""
    shape = (shape,) if np.ndim(shape) == 0 else tuple(shape)
    pairs = rng.standard_normal(shape + (2,))
    pairs *= np.sqrt(0.5)
    return pairs.view(np.complex128)[..., 0]


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
        raise ValueError(f"zero forcing requires M > K, got M={M}, K={K}")
    Hc = np.conj(H_hat)
    gram = H_hat @ np.swapaxes(Hc, -1, -2)
    if _bad_draws(gram.reshape(-1, K, K)).any():
        raise np.linalg.LinAlgError("ill-conditioned Gram matrix")
    inv = np.linalg.solve(gram, np.broadcast_to(np.eye(K), gram.shape))
    return np.sqrt(M - K) * (np.swapaxes(Hc, -1, -2) @ inv)


def _log_cond_bound(gram: np.ndarray) -> np.ndarray:
    """Upper bounds on log cond(G) for a (n, K, K) stack of Hermitian
    positive definite matrices; LinAlgError if a Cholesky factor fails.

    With eigenvalues l_1 >= ... >= l_K, l_1 <= tr(G) and, by the AM-GM
    inequality, l_1 ... l_{K-1} <= (tr(G) / (K - 1))^(K - 1), so
    cond(G) = l_1 * (l_1 ... l_{K-1}) / det(G) is at most
    tr(G) * (tr(G) / (K - 1))^(K - 1) / det(G), and det(G) is the squared
    product of the Cholesky diagonal.
    """
    K = gram.shape[-1]
    log_det = 2.0 * np.log(np.linalg.cholesky(gram).diagonal(axis1=-2, axis2=-1).real).sum(-1)
    log_tr = np.log(gram.trace(axis1=-2, axis2=-1).real)
    return log_tr + (K - 1) * (log_tr - np.log(max(K - 1, 1))) - log_det


def _bad_draws(gram: np.ndarray) -> np.ndarray:
    """Which matrices of a (n, K, K) stack of Gram matrices have
    ``np.linalg.cond`` above _COND_LIMIT.

    The Cholesky bound clears a matrix when it is at most _COND_LIMIT / e,
    a margin far above its rounding; ``cond`` decides the rest, or the whole
    stack when a factorization fails.
    """
    try:
        unsure = _log_cond_bound(gram) > np.log(_COND_LIMIT) - 1.0
    except np.linalg.LinAlgError:
        return np.linalg.cond(gram) > _COND_LIMIT
    bad = np.zeros(len(gram), dtype=bool)
    if unsure.any():
        bad[unsure] = np.linalg.cond(gram[unsure]) > _COND_LIMIT
    return bad


@dataclass
class MonteCarloReport:
    """Empirical vs closed-form moment terms for user 0 at one CSI age.

    The ZF closed forms rest on the channel-hardening normalization (a
    deterministic sqrt(M - K) scale), whose per-draw fluctuation is
    O(1/(M - K)); ZF comparisons therefore warrant a looser band than MF,
    whose moment identities are exact.

    ``*_se`` are batch-means standard errors of the empirical terms (NaN
    with fewer than two batches); ``resamples`` counts redrawn ZF draws."""

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
    signal_se: float
    variance_se: float
    interference_se: float

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
    if cfg.precoder != MF:
        # conj(G): Hermitian positive definite like G, with its condition
        # number, and the matrix the one-right-hand-side solve needs
        gram_c = np.conj(H_hat) @ np.swapaxes(H_hat, -1, -2)
        bad = _bad_draws(gram_c)
        while bad.any():
            redo = np.flatnonzero(bad)
            resamples += redo.size
            H_new = H_hat[redo] = complex_gaussian(rng, (redo.size, K, M))
            gram_c[redo] = np.conj(H_new) @ np.swapaxes(H_new, -1, -2)
            bad[redo] = _bad_draws(gram_c[redo])
    h_true = evolve_channel(H_hat[:, 0, :], rho, age, rng)
    # b_i = h^T conj(h_hat_i), one matrix-vector product per trial
    b = np.conj(H_hat @ np.conj(h_true)[:, :, None])
    if cfg.precoder == MF:
        dots = b[:, :, 0] / np.sqrt(M)
    else:
        dots = np.sqrt(M - K) * np.linalg.solve(gram_c, b)[:, :, 0]
    return (
        dots[:, 0].sum(),
        (np.abs(dots) ** 2).sum(axis=0),
        resamples,
    )


def _moment_terms(snrs, mean_dot, mean_abs2):
    """(signal, variance, interference) of user 0 from the mean of h^T v_0
    and the means of |h^T v_i|^2."""
    signal = snrs[0] * abs(mean_dot) ** 2
    variance = snrs[0] * (mean_abs2[0] - abs(mean_dot) ** 2)
    interference = float((snrs[1:] * mean_abs2[1:]).sum())
    return signal, variance, interference


def validate_closed_form(
    cfg: SystemConfig, users, n: int, trials: int, seed: int
) -> MonteCarloReport:
    """Estimate the SINR moment terms of user 0 by Monte Carlo and compare
    with the closed form at CSI age n.

    Per trial: draw a fresh estimated channel matrix, age user 0's true
    channel by n blocks and accumulate its products with the precoder built
    from the estimates.  Ill-conditioned ZF draws are resampled and counted.
    Each batch's own moment terms give the batch-means standard errors.
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
    n_batches = -(-trials // _BATCH)
    sizes = np.full(n_batches, _BATCH)
    sizes[-1] = trials - _BATCH * (n_batches - 1)
    batch_terms = np.empty((n_batches, 3))
    root = np.random.SeedSequence(seed)
    for i, batch in enumerate(sizes):
        # one child per batch: the children of an up-front spawn, never all held
        rng = np.random.default_rng(root.spawn(1)[0])
        s_dot, s_abs2, res = _batch_moments(cfg, user.rho, n, rng, int(batch))
        sum_dot += s_dot
        sum_abs2 += s_abs2
        resamples += res
        batch_terms[i] = _moment_terms(snrs, s_dot / batch, s_abs2 / batch)

    signal_emp, variance_emp, interference_emp = _moment_terms(
        snrs, sum_dot / trials, sum_abs2 / trials
    )
    sinr_emp = signal_emp / (1.0 + variance_emp + interference_emp)
    # batch means: a batch of b trials has variance sigma^2 / b, estimated
    # from the size-weighted spread of the batch terms about their mean
    if n_batches < 2:
        stderr = np.full(3, np.nan)
    else:
        spread = batch_terms - np.average(batch_terms, axis=0, weights=sizes)
        stderr = np.sqrt(sizes @ spread**2 / ((n_batches - 1) * trials))

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
        signal_se=float(stderr[0]),
        variance_se=float(stderr[1]),
        interference_se=float(stderr[2]),
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
