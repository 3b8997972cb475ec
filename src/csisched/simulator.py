"""Monte Carlo validation of the closed-form aged-CSI SINR.

Estimates the three moment terms of the SINR lower bound for user 0, under
Gauss-Markov channel aging and MF/ZF precoders built from stale estimates,

    signal       snr * |E h^T v|^2
    variance     snr * (E|h^T v|^2 - |E h^T v|^2)
    interference sum_{i != k} snr_i * E|h^T v_i|^2

empirically, then compares the assembled SINR against the closed form.
Trials run in fixed-size batches with per-batch child seeds, so results are
bit-reproducible for a given seed and independent of processing order; the
spread of the per-batch terms gives each term a batch-means standard error.

A trial draws only what its products h^T v_i depend on.  For estimates H
(K x M, rows h_i, CN(0, 1) entries) and the aged true channel
h = rho^n h_0 + s e, s = sqrt(1 - rho^(2n)), both precoders read
b = conj(H) h, and ZF also conj(G) = conj(H) H^T.  conj(G) is complex
Wishart; its Cholesky factor L is drawn directly (Bartlett decomposition:
|L_ii|^2 ~ Gamma(M - i, 1), L_ij ~ CN(0, 1) below the diagonal), and given
L, conj(H) e is L z with z ~ CN(0, I).  With conj(G)[:, 0] = L_00 L[:, 0],

    MF   h^T v_i = (rho^n L_00 L[:, 0] + s L z)_i / sqrt(M)
    ZF   h^T v_i = sqrt(M - K) (rho^n e_0 + s L^-H z)_i

so a trial draws K (K + 1) / 2 + K values, not K M + M, and ZF takes one
back substitution.  MF allows K >= M, where conj(G) has rank M: L is then
K x M lower trapezoidal, its rows i >= M all CN(0, 1).  A ZF draw with
cond(L L^H) above 1e12 is redrawn and counted; a bound read from the factor
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


def _bartlett_factor(rng: np.random.Generator, n: int, K: int, M: int) -> np.ndarray:
    """n draws of the Cholesky factor L of conj(G) for K x M estimates with
    CN(0, 1) entries: a (n, K, min(K, M)) stack, lower triangular for K < M
    and lower trapezoidal for K >= M.

    The entries below the diagonal come from one ``complex_gaussian`` draw
    in row order; the diagonal holds sqrt(Gamma(M - i, 1)) draws, real and
    positive."""
    cols = min(K, M)
    rows, lower = np.tril_indices(K, -1, cols)
    L = np.zeros((n, K, cols), dtype=np.complex128)
    L[:, rows, lower] = complex_gaussian(rng, (n, rows.size))
    diag = np.arange(cols)
    L[:, diag, diag] = np.sqrt(rng.standard_gamma(M - diag, size=(n, cols)))
    return L


def _log_cond_bound(L: np.ndarray) -> np.ndarray:
    """Upper bounds on log cond(L L^H) for a (n, K, K) stack of lower
    triangular factors with real nonnegative diagonals; +inf where a
    diagonal entry is zero.

    With eigenvalues l_1 >= ... >= l_K of G = L L^H, l_1 <= tr(G) and, by
    the AM-GM inequality, l_1 ... l_{K-1} <= (tr(G) / (K - 1))^(K - 1), so
    cond(G) = l_1 * (l_1 ... l_{K-1}) / det(G) is at most
    tr(G) * (tr(G) / (K - 1))^(K - 1) / det(G), where tr(G) is the squared
    Frobenius norm of L and det(G) the squared product of its diagonal.
    """
    K = L.shape[-1]
    pairs = L.reshape(len(L), -1).view(np.float64)
    log_tr = np.log(np.einsum("ij,ij->i", pairs, pairs))
    with np.errstate(divide="ignore"):
        log_det = 2.0 * np.log(L.diagonal(axis1=-2, axis2=-1).real).sum(-1)
    return log_tr + (K - 1) * (log_tr - np.log(max(K - 1, 1))) - log_det


def _bad_draws(L: np.ndarray) -> np.ndarray:
    """Which factors of a (n, K, K) stack have ``np.linalg.cond(L L^H)``
    above _COND_LIMIT.

    The bound clears a factor when it is at most _COND_LIMIT / e, a margin
    far above its rounding; ``cond`` decides the rest.
    """
    unsure = np.flatnonzero(_log_cond_bound(L) > np.log(_COND_LIMIT) - 1.0)
    bad = np.zeros(len(L), dtype=bool)
    if unsure.size:
        rest = L[unsure]
        bad[unsure] = np.linalg.cond(rest @ np.conj(np.swapaxes(rest, -1, -2))) > _COND_LIMIT
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


def _back_substitute(L: np.ndarray, z: np.ndarray) -> np.ndarray:
    """x with L^H x = z for a (n, K, K) stack of lower triangular factors
    and (n, K) right-hand sides: one pass over the rows, from the last,
    for all n at once."""
    x = z.copy()
    diag = L.diagonal(axis1=-2, axis2=-1).real
    for j in range(L.shape[-1] - 1, -1, -1):
        x[:, j] /= diag[:, j]
        x[:, :j] -= np.conj(L[:, j, :j]) * x[:, j, None]
    return x


def _dots(cfg, L, decay, w):
    """h^T v_i per trial and user from the factor L of conj(G), the decay
    rho^n and w = s z, the aged part of conj(H) h in L's coordinates (None
    at age 0)."""
    if cfg.precoder == MF:
        b = decay * L[:, :1, 0].real * L[:, :, 0]
        if w is not None:
            b += (L @ w[:, :, None])[:, :, 0]
        return b / np.sqrt(cfg.M)
    dots = np.zeros(L.shape[:2], dtype=np.complex128) if w is None else _back_substitute(L, w)
    dots[:, 0] += decay
    return np.sqrt(cfg.M - cfg.K) * dots


def _batch_moments(cfg, rho, age, rng, batch):
    """One batch of trials for user 0 with correlation rho; returns
    (sum h^T v_0, sum |h^T v_i|^2 per i, number of resampled draws)."""
    K, M = cfg.K, cfg.M
    resamples = 0
    L = _bartlett_factor(rng, batch, K, M)
    if cfg.precoder != MF:
        bad = _bad_draws(L)
        while bad.any():
            redo = np.flatnonzero(bad)
            resamples += redo.size
            L[redo] = _bartlett_factor(rng, redo.size, K, M)
            bad[redo] = _bad_draws(L[redo])
    decay = rho**age
    w = None
    if age > 0:
        w = np.sqrt(1.0 - decay * decay) * complex_gaussian(rng, (batch, L.shape[-1]))
    dots = _dots(cfg, L, decay, w)
    return (
        dots[:, 0].sum(),
        (np.abs(dots) ** 2).sum(axis=0),
        resamples,
    )


def _check_seed(seed):
    if seed < 0:
        raise ValueError(f"seed={seed} must be nonnegative")


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

    Per trial: draw the Cholesky factor of a fresh estimates' Gram matrix
    and the aged part of user 0's true channel n blocks on, and accumulate
    the products of that channel with the precoder built from the
    estimates.  Ill-conditioned ZF draws are resampled and counted.  Each
    batch's own moment terms give the batch-means standard errors.
    """
    if not 1 <= trials <= MAX_TRIALS:
        raise ValueError(f"trials={trials} outside [1, {MAX_TRIALS}]")
    _check_seed(seed)
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
    if max_n < 0:
        raise ValueError(f"max_n={max_n} must be nonnegative")
    if samples < 1:
        raise ValueError(f"samples={samples} must be at least 1")
    _check_seed(seed)
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
