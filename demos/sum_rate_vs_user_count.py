"""Scaling the user count: intermittent estimation keeps the cell alive.

With continuous estimation (T = K) the sum rate collapses as K approaches
the block length C = 50, because pilots eat the whole block.  The
intermittent scheme keeps most of its peak rate at K = C, and its optimal
pilot length grows far slower than K.
"""

import numpy as np

from csisched import SystemConfig, UserLink, build_rate_tables, optimize_pilot_length

M, C = 64, 50
SNR_DB = 10.0
K_VALUES = range(5, 55, 5)
SEED = 1


def main():
    print("   K   best_T   IES rate   CES rate")
    ies = []
    for K in K_VALUES:
        rng = np.random.default_rng([SEED, K])
        users = [UserLink(snr=10 ** (SNR_DB / 10), rho=float(r))
                 for r in rng.uniform(0.6, 0.9, K)]
        cfg = SystemConfig(M=M, K=K, C=C, precoder="zf")
        tables = build_rate_tables(cfg, users)
        best_T, best, curve = optimize_pilot_length(cfg, users, tables)
        ces = curve[K].objective if K < C else 0.0
        ies.append(best.objective)
        print(f"  {K:3d}   {best_T:5d}   {best.objective:8.3f}   {ces:8.3f}")
    print(f"\nIES at K={max(K_VALUES)} retains {ies[-1] / max(ies):.1%} of its peak over K;"
          f" CES transmits nothing once K = C.")


if __name__ == "__main__":
    main()
