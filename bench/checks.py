"""Output checks for each workload.

Each check parses what the program wrote and compares it with values from
``reference``; it returns a list of problems, empty when the output is right.
"""

from __future__ import annotations

import numpy as np

import reference as ref

# sum_rate and relaxed_objective against the exact optimum.  The program
# truncates each rate table where the rate drops below 1e-9 and keeps that
# rate as a constant tail; over tables of up to 10^4 ages this moves S_k by
# about 1e-9 per user, far below this bound.
OPTIMUM_RTOL = 1e-7
# Quantities the program and the reference compute with the same formula in
# a different order of floating-point operations.
SAME_FORMULA_RTOL = 1e-9
# A credit scheduler keeps each user's pilot count within this many pilots
# of horizon * p_target (the credits stay within a bounded band).
COUNT_SLACK = 2.0
# achieved_rate must be within this share of relaxed_objective.
ACHIEVED_SHARE = 0.01


def parse_csv(text: str):
    """Split a csisched CSV into metadata lines, header and string rows."""
    meta, header, rows = [], None, []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            meta.append(line[1:].strip())
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header or [], rows


def _close(a: float, b: float, rtol: float, atol: float = 1e-12) -> bool:
    return abs(a - b) <= max(rtol * max(abs(a), abs(b)), atol)


def check_sweep(text: str, sc: dict) -> list[str]:
    """sweep-pilot: every sum_rate row against the exact optimum, the T=0 and
    T=K identities, and the argmax marking."""
    problems = []
    meta, header, rows = parse_csv(text)
    if header != ["snr_db", "precoder", "T", "sum_rate", "is_best"]:
        return [f"sweep: unexpected header {header}"]
    M, K, C = sc["M"], sc["K"], sc["C"]
    snr = ref.db_to_linear(sc["snr_db"])
    rhos = ref.draw_rhos(sc["seed"], K, sc["rho_lo"], sc["rho_hi"])
    t_hi = min(K, C)
    for precoder in ("mf", "zf"):
        got = {}
        for r in rows:
            if r[1] == precoder:
                if float(r[0]) != float(sc["snr_db"]):
                    problems.append(f"sweep {precoder}: snr_db {r[0]}")
                got[int(r[2])] = (float(r[3]), r[4])
        if sorted(got) != list(range(t_hi + 1)):
            problems.append(f"sweep {precoder}: T rows {sorted(got)}")
            continue
        exact = ref.exact_sum_rates(ref.rate_table(M, K, precoder, snr, rhos), C, range(t_hi + 1))
        for T, (value, _) in got.items():
            if not _close(value, exact[T], OPTIMUM_RTOL):
                problems.append(f"sweep {precoder} T={T}: sum_rate {value!r}, exact {exact[T]!r}")
        if got[0][0] != 0.0:
            problems.append(f"sweep {precoder}: T=0 sum_rate {got[0][0]!r} is not 0")
        if t_hi == K:
            full = (1.0 - K / C) * float(np.log2(1.0 + ref.sinr(M, K, precoder, snr, rhos, [0])).sum())
            if not _close(got[K][0], full, SAME_FORMULA_RTOL):
                problems.append(f"sweep {precoder}: T=K sum_rate {got[K][0]!r}, expected {full!r}")
        marked = [T for T, (_, flag) in got.items() if flag == "1"]
        values = [got[T][0] for T in range(t_hi + 1)]
        if marked != [int(np.argmax(values))]:
            problems.append(f"sweep {precoder}: is_best marks {marked}")
        elif not _close(exact[marked[0]], exact.max(), OPTIMUM_RTOL):
            problems.append(f"sweep {precoder}: marked T={marked[0]} is not an exact optimum")
    if len(rows) != 2 * (t_hi + 1):
        problems.append(f"sweep: {len(rows)} rows, expected {2 * (t_hi + 1)}")
    return problems


def check_validate(text: str, sc: dict, ages, trials: int) -> list[str]:
    """validate: closed forms recomputed, empirical terms within Z_SIGMA
    standard errors, and the exact ZF properties at age 0."""
    problems = []
    meta, header, rows = parse_csv(text)
    if header != ["age", "term", "empirical", "closed_form", "rel_err", "trials", "seed"]:
        return [f"validate: unexpected header {header}"]
    M, K, precoder = sc["M"], sc["K"], sc["precoder"]
    snr = ref.db_to_linear(sc["snr_db"])
    rho = float(ref.draw_rhos(sc["seed"], K, sc["rho_lo"], sc["rho_hi"])[0])
    table = {(int(r[0]), r[1]): r for r in rows}
    if len(table) != len(rows) or len(rows) != 4 * len(ages):
        problems.append(f"validate: {len(rows)} rows for ages {list(ages)}")
    for age in ages:
        cf = ref.mc_expected(M, K, precoder, snr, rho, age)
        tol = ref.mc_tolerance(M, K, precoder, snr, rho, age, trials)
        emp = {}
        for term in ("signal", "variance", "interference", "sinr"):
            r = table.get((age, term))
            if r is None:
                problems.append(f"validate age={age}: no {term} row")
                continue
            emp[term] = float(r[2])
            if int(r[5]) != trials or int(r[6]) != sc["seed"]:
                problems.append(f"validate age={age} {term}: trials/seed {r[5]}/{r[6]}")
            if not _close(float(r[3]), cf[term], SAME_FORMULA_RTOL):
                problems.append(f"validate age={age} {term}: closed_form {r[3]}, expected {cf[term]!r}")
            # the statistical band, plus rounding on the scale of the signal
            if term in tol and abs(emp[term] - cf[term]) > tol[term] + 1e-9 * cf["signal"]:
                problems.append(
                    f"validate age={age} {term}: empirical {r[2]} differs from {cf[term]!r} "
                    f"by more than {tol[term]:.3g}"
                )
        if len(emp) < 4:
            continue
        implied = emp["signal"] / (1.0 + emp["variance"] + emp["interference"])
        if not _close(emp["sinr"], implied, SAME_FORMULA_RTOL):
            problems.append(f"validate age={age}: sinr {emp['sinr']!r} != signal/(1+var+int)")
        if precoder == "zf" and age == 0:
            if max(abs(emp["variance"]), abs(emp["interference"])) > 1e-9 * emp["signal"]:
                problems.append("validate zf age=0: variance or interference above 1e-9 of signal")
            if not _close(emp["signal"], snr * (M - K), SAME_FORMULA_RTOL):
                problems.append(f"validate zf age=0: signal {emp['signal']!r} != snr*(M-K)")
    return problems


def check_schedule(sched_text: str, stats_text: str, sc: dict, T: int, horizon: int) -> list[str]:
    """schedule: block structure, pilot counts, an independent replay of every
    user's average rate, and the relaxed optimum at T."""
    problems = []
    M, K, C = sc["M"], sc["K"], sc["C"]
    lines = sched_text.splitlines()
    if len(lines) != horizon:
        return [f"schedule: {len(lines)} blocks, expected {horizon}"]
    widths = {len(line.split()) for line in lines}
    if widths != {T + 1}:
        return [f"schedule: blocks hold {sorted(w - 1 for w in widths)} users, expected {T}"]
    grid = np.array(sched_text.split(), dtype=np.int64).reshape(horizon, T + 1)
    if not np.array_equal(grid[:, 0], np.arange(horizon)):
        problems.append("schedule: block indices are not 0..H-1")
    users = grid[:, 1:]
    if users.size and (users.min() < 0 or users.max() >= K):
        return problems + ["schedule: user index outside [0, K)"]
    if T > 1 and (np.diff(np.sort(users, axis=1), axis=1) == 0).any():
        return problems + ["schedule: a block repeats a user"]

    meta, header, rows = parse_csv(stats_text)
    if header != ["user", "rho", "p_target", "p_achieved", "avg_rate", "intervals"] or len(rows) != K:
        return problems + [f"schedule stats: header {header} with {len(rows)} rows"]
    info = dict(m.split(": ", 1) for m in meta if ": " in m)
    snr = ref.db_to_linear(sc["snr_db"])
    rhos = ref.draw_rhos(sc["seed"], K, sc["rho_lo"], sc["rho_hi"])
    R = ref.rate_table(M, K, sc["precoder"], snr, rhos)
    counts, avg = ref.replay_rates(users, K, R)
    p_target = np.array([float(r[2]) for r in rows])
    p_achieved = np.array([float(r[3]) for r in rows])
    csv_avg = np.array([float(r[4]) for r in rows])
    if [int(r[0]) for r in rows] != list(range(K)):
        problems.append("schedule stats: user column is not 0..K-1")
    if not np.allclose([float(r[1]) for r in rows], rhos, rtol=1e-12, atol=0):
        problems.append("schedule stats: rho column differs from the scenario draw")
    if abs(p_target.sum() - T) > 1e-9 or p_target.min() < 0 or p_target.max() > 1:
        problems.append(f"schedule stats: p_target sums to {p_target.sum()!r}, outside [0, 1] or not T")
    worst = np.abs(counts - horizon * p_target).max()
    if worst > COUNT_SLACK:
        problems.append(f"schedule: a pilot count is {worst:.3f} from horizon * p_target")
    if not np.allclose(p_achieved, counts / horizon, rtol=1e-12, atol=0):
        problems.append("schedule stats: p_achieved differs from counted pilots / horizon")
    for k in range(K):
        if not _close(csv_avg[k], avg[k], SAME_FORMULA_RTOL):
            problems.append(f"schedule user {k}: avg_rate {csv_avg[k]!r}, replay {avg[k]!r}")
    discount = 1.0 - T / C
    try:
        achieved = float(info["achieved_rate"])
        relaxed = float(info["relaxed_objective"])
    except (KeyError, ValueError):
        return problems + ["schedule stats: no achieved_rate or relaxed_objective"]
    for name, value in (("replay", discount * avg.sum()), ("avg_rate column", discount * csv_avg.sum())):
        if not _close(achieved, value, SAME_FORMULA_RTOL):
            problems.append(f"schedule: achieved_rate {achieved!r} != {name} sum {value!r}")
    exact = float(ref.exact_sum_rates(R, C, [T])[0])
    if not _close(relaxed, exact, OPTIMUM_RTOL):
        problems.append(f"schedule: relaxed_objective {relaxed!r}, exact optimum {exact!r}")
    if abs(achieved - relaxed) > ACHIEVED_SHARE * abs(relaxed):
        problems.append(f"schedule: achieved_rate {achieved!r} more than 1% from relaxed {relaxed!r}")
    return problems
