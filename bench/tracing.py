"""Layer tracing from outside the program.

The tracer replaces public functions of csisched's modules at the names
their callers look them up by (``csisched.cli.optimize_pilot_length`` is the
name ``cli`` calls, ``csisched.optimizer.project_capped_simplex`` the one the
optimizer calls) with wrappers that record a span (name, start, end, parent)
and the counts carried by the return value.  Spans live in flat arrays and
are written out once, when the run ends.  Names the program no longer has
are skipped, so the tracer keeps working while the program changes.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np


def _table_ages(counts, args, result):
    counts["ratemodel.table_ages"] += sum(len(t.rates) for t in result)


def _bank(counts, args, result):
    counts["ratemodel.banks_built"] += 1


def _solve(counts, args, result):
    counts["optimizer.solves"] += 1
    counts["optimizer.iterations"] += int(result.iterations)


def _projection(counts, args, result):
    counts["optimizer.projections"] += 1


def _bank_eval(counts, args, result):
    counts["ratemodel.bank_evals"] += 1


def _blocks(counts, args, result):
    counts["scheduler.blocks"] += int(result.horizon)


def _report(counts, args, result):
    counts["simulator.trials"] += int(result.trials)
    counts["simulator.resamples"] += int(result.resamples)


def _draw(counts, args, result):
    counts["simulator.draws"] += 1


# (module, attribute path, span name, count hook).  A function that several
# modules import appears once per module that calls it.
TARGETS = [
    ("cli", "main", "cli.main", None),
    ("cli", "load_scenario", "cli.load_scenario", None),
    ("cli", "SweepResult.to_csv", "cli.to_csv", None),
    ("cli", "build_rate_tables", "ratemodel.build_rate_tables", _table_ages),
    ("optimizer", "RateTableBank", "ratemodel.RateTableBank", _bank),
    ("scheduler", "RateTableBank", "ratemodel.RateTableBank", _bank),
    ("ratemodel", "RateTableBank.s", "ratemodel.bank.s", _bank_eval),
    ("ratemodel", "RateTableBank.s_hat", "ratemodel.bank.s_hat", _bank_eval),
    ("ratemodel", "RateTableBank.s_hat_prime", "ratemodel.bank.s_hat_prime", _bank_eval),
    ("ratemodel", "RateTableBank.rate_at_age", "ratemodel.bank.rate_at_age", _bank_eval),
    ("cli", "optimize_pilot_length", "optimizer.optimize_pilot_length", None),
    ("cli", "optimize_frequencies", "optimizer.optimize_frequencies", _solve),
    ("optimizer", "optimize_frequencies", "optimizer.optimize_frequencies", _solve),
    ("optimizer", "project_capped_simplex", "optimizer.project_capped_simplex", _projection),
    ("cli", "build_schedule", "scheduler.build_schedule", _blocks),
    ("cli", "exact_average_rate", "scheduler.exact_average_rate", None),
    ("cli", "write_schedule", "scheduler.write_schedule", None),
    ("cli", "validate_closed_form", "simulator.validate_closed_form", _report),
    ("simulator", "complex_gaussian", "simulator.complex_gaussian", _draw),
    ("simulator", "evolve_channel", "simulator.evolve_channel", None),
]


class Tracer:
    """Spans and counts of one run, kept in memory until ``save``."""

    def __init__(self, modules: dict):
        self.modules = modules
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._saved: list = []

    def _wrap(self, name, fn, hook):
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.start.append(clock())
            self.end.append(0.0)
            self._stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.end[idx] = clock()
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return traced

    def install(self):
        """Replace every target the program still has; ``uninstall`` undoes it."""
        for module, path, name, hook in TARGETS:
            owner = self.modules[module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, hook))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def mark(self) -> int:
        return len(self.start)

    def unit_layers(self, first: int) -> dict[str, float]:
        """Layer totals of the spans recorded since ``first``: inclusive time
        and self time per span name, plus the counts since the last call."""
        # slices copy, so no buffer of the growing arrays stays exported
        ids = np.frombuffer(self.name_id[first:], dtype=np.int32)
        par = np.frombuffer(self.parent[first:], dtype=np.int32) - first
        dur = np.frombuffer(self.end[first:]) - np.frombuffer(self.start[first:])
        child = np.zeros(dur.size)
        has_parent = par >= 0
        np.add.at(child, par[has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, float] = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            out[f"{name}.time"] = float(dur[sel].sum())
            out[f"{name}.self"] = float(own[sel].sum())
        out.update({k: float(v) for k, v in self.counts.items()})
        self.counts = Counter()
        return out

    def save(self, path) -> None:
        t0 = self.start[0] if self.start else 0.0
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            parent=np.array(self.parent, dtype=np.int32),
            start=np.array(self.start) - t0,
            end=np.array(self.end) - t0,
        )


# Layer metrics also reported per group (population on pilot-sweep, precoder
# on mc-validate), named "<group>.<metric>"; they read 0 on other workloads.
SPLIT = {
    "ref": ("optimizer.solve_s", "ratemodel.bank_eval_s"),
    "slowfade": ("optimizer.solve_s", "ratemodel.bank_eval_s"),
    "zf": ("simulator.validate_s", "simulator.self_s"),
    "mf": ("simulator.validate_s", "simulator.self_s"),
}


def layer_metrics(t: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric from totals of ``Tracer.unit_layers``; a layer
    the commands did not reach reads 0."""
    g = lambda key: t.get(key, 0.0)  # noqa: E731
    bank_evals = [f"ratemodel.bank.{m}" for m in ("s", "s_hat", "s_hat_prime", "rate_at_age")]
    projections = g("optimizer.projections")
    trials, resamples = g("simulator.trials"), g("simulator.resamples")
    return {
        "cli.load_scenario_s": g("cli.load_scenario.time"),
        "cli.to_csv_s": g("cli.to_csv.time"),
        "cli.self_s": g("cli.main.self"),
        "ratemodel.build_tables_s": g("ratemodel.build_rate_tables.time"),
        "ratemodel.table_ages": g("ratemodel.table_ages"),
        "ratemodel.banks_built": g("ratemodel.banks_built"),
        "ratemodel.bank_evals": g("ratemodel.bank_evals"),
        "ratemodel.bank_eval_s": sum(g(f"{n}.time") for n in bank_evals),
        "optimizer.solves": g("optimizer.solves"),
        "optimizer.solve_s": g("optimizer.optimize_frequencies.time"),
        "optimizer.iterations": g("optimizer.iterations"),
        "optimizer.projections": projections,
        "optimizer.project_s": g("optimizer.project_capped_simplex.time"),
        "optimizer.accepted_ratio": g("optimizer.iterations") / projections if projections else 0.0,
        "optimizer.self_s": g("optimizer.optimize_pilot_length.self") + g("optimizer.optimize_frequencies.self"),
        "scheduler.blocks": g("scheduler.blocks"),
        "scheduler.build_s": g("scheduler.build_schedule.time"),
        "scheduler.replay_s": g("scheduler.exact_average_rate.time"),
        "scheduler.write_s": g("scheduler.write_schedule.time"),
        "simulator.trials": trials,
        "simulator.resamples": resamples,
        "simulator.accepted_draw_ratio": trials / (trials + resamples) if trials else 0.0,
        "simulator.validate_s": g("simulator.validate_closed_form.time"),
        "simulator.draws": g("simulator.draws"),
        "simulator.draw_s": g("simulator.complex_gaussian.time"),
        "simulator.evolve_s": g("simulator.evolve_channel.time"),
        "simulator.self_s": g("simulator.validate_closed_form.self"),
    }


def round_metrics(units: list[tuple[str, dict[str, float]]]) -> dict[str, float]:
    """Per-layer metrics of one round from (group, ``unit_layers``) pairs:
    layer totals over the round, plus the split of ``SPLIT``."""
    total: Counter = Counter()
    for _, t in units:
        total.update(t)
    metrics = layer_metrics(total)
    for group, keys in SPLIT.items():
        for key in keys:
            metrics[f"{group}.{key}"] = 0.0
    for group, t in units:
        if group in SPLIT:
            own = layer_metrics(t)
            for key in SPLIT[group]:
                metrics[f"{group}.{key}"] += own[key]
    return metrics
