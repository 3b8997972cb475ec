"""Who gets the pilot budget?

Optimizes per-user CSI updating frequencies at a scarce (T=5) and an ample
(T=30) pilot budget.  With a scarce budget, users below a correlation
threshold get nothing, and zero forcing (which suffers more from aging)
cuts off at a higher threshold than the matched filter.  With an ample
budget the fast-fading users are pushed to an update every block.
"""

import numpy as np

from csisched import SystemConfig, UserLink, build_rate_tables, optimize_frequencies

M, K, C = 64, 40, 50
SNR_DB = 10.0
SEED = 1
PILOT_LENGTHS = (5, 30)


def main():
    rng = np.random.default_rng(SEED)
    rhos = np.sort(rng.uniform(0.6, 0.9, K))
    users = [UserLink(snr=10 ** (SNR_DB / 10), rho=float(r)) for r in rhos]
    allocs = {}
    for precoder in ("mf", "zf"):
        cfg = SystemConfig(M=M, K=K, C=C, precoder=precoder)
        tables = build_rate_tables(cfg, users)
        for T in PILOT_LENGTHS:
            allocs[precoder, T] = optimize_frequencies(cfg, tables, T).p

    for T in PILOT_LENGTHS:
        print(f"\npilot length T = {T}:")
        print("   rho      p(MF)    p(ZF)")
        for k in range(0, K, 3):
            print(f"  {rhos[k]:5.3f}   {allocs['mf', T][k]:7.4f}  {allocs['zf', T][k]:7.4f}")
        for precoder in ("mf", "zf"):
            p = allocs[precoder, T]
            zero = rhos[p < 1e-6]
            thr = f"{zero.max():.3f}" if zero.size else "none"
            print(f"  {precoder.upper()}: zero-frequency threshold {thr}, "
                  f"{(p > 1 - 1e-6).sum()} users at p = 1")


if __name__ == "__main__":
    main()
