"""csisched benchmark: one workload, one process, one client, one thread.

    python3 bench/run.py --workload pilot-sweep --seed 1 --seconds 35 --trace 0

Drives the program through ``csisched.cli.main`` on scenario files made from
``--seed``, repeating whole rounds of the workload's commands until
``--seconds`` have passed, and checks every output against values computed
apart from the program.  The last line of stdout is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and reports the per-layer metrics and the tracing overhead.
"""

import signal
import time

_START_WALL = time.perf_counter()
# CPU time spent before this line is the interpreter's own start-up.
_START_CPU = time.process_time()

# Nominal duration of one set-up tick; set-up time is scaled to the host
# speed at which a set-up tick takes this long.
SETUP_TICK_SECONDS = 0.00005
_SETUP_TICKS: list[float] = []


def _setup_tick(signum, frame):
    """A fixed pure-Python kernel, timed every 5 ms during set-up, before
    numpy is loaded.  Set-up took 0.15 s in the host's fast phases and
    0.2-0.3 s in its slow ones on a 2-vCPU KVM guest; scaled by these
    ticks, both phases gave the same 0.16 s."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(300):
        acc += (i * 7) % 13 + len({"i": i})
    _SETUP_TICKS.append(time.perf_counter() - t0)


if __name__ == "__main__":
    signal.signal(signal.SIGALRM, _setup_tick)
    signal.setitimer(signal.ITIMER_REAL, 0.005, 0.005)

import os  # noqa: E402

# BLAS thread pools are sized when numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"
# Nominal duration of one probe tick; rates are scaled to the host speed at
# which a tick takes this long.
TICK_SECONDS = 0.0005


class TickProbe:
    """Samples the host's speed while a command runs.

    Every INTERVAL seconds a SIGALRM handler times a fixed kernel of
    small-array numpy calls, independent of csisched.  On a shared host the
    speed of both drifts together: on a 2-vCPU KVM guest the host switched
    between a fast and a slow phase, each lasting tens of seconds, and the
    slow phase made the program up to 40% slower.  A tick takes about 0.5 ms,
    so the probe costs about 1% of a command's time, which is subtracted from
    it.  The kernel touches only small arrays, so the program's own working
    set moves a tick's time little (about 7% between the sweep and the
    schedule commands).
    """

    INTERVAL = 0.05

    def __init__(self):
        import numpy as np

        self.np = np
        self.x = np.random.default_rng(0).random(40)
        self.ticks: list[float] = []
        # a rolling record, for commands too short to get ticks of their own
        self.recent: list[float] = [self.tick() for _ in range(20)]

    def tick(self) -> float:
        np, x = self.np, self.x
        t0 = time.perf_counter()
        for _ in range(40):
            order = np.argsort(-x, kind="stable")
            float(np.cumsum(x[order])[-1] + np.minimum(x * 4.0, 3.5) @ x)
        return time.perf_counter() - t0

    def _on_alarm(self, signum, frame):
        self.ticks.append(self.tick())

    def __enter__(self):
        self.ticks = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.recent = (self.recent + self.ticks)[-20:]

    def scale(self, elapsed: float) -> float:
        """A command's wall time, less the ticks inside it, at the nominal
        host speed: scaled by the median tick inside the command, or of the
        last 20 ticks if the command got fewer than three."""
        ticks = self.ticks if len(self.ticks) >= 3 else self.recent
        return (elapsed - sum(self.ticks)) * TICK_SECONDS / statistics.median(ticks)


def _unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    return "ratio" if metric.endswith("_ratio") else "count"


class Runner:
    def __init__(self, workload, modules):
        self.wl = workload
        self.cli = modules["cli"]
        self.modules = modules
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: dict[str, list[str]] = {}
        self.digest: dict[str, str] = {}
        # (group, wall s, probe ticks s)
        self.samples: list[tuple[str, float, list[float]]] = []

    def invoke(self, unit) -> float | None:
        """One timed command; returns its wall time, or None if it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            code = self.cli.main(list(unit.argv))
        except Exception:
            traceback.print_exc()
            code = None
        elapsed = time.perf_counter() - t0
        if code != 0:
            self.failed += 1
            print(f"bench: {unit.argv[0]} exited with {code}", file=sys.stderr)
            return None
        self._keep_output(unit)
        return elapsed

    def _keep_output(self, unit) -> None:
        """Keep the first output of each unit for checking; later ones of the
        same unit must be byte-identical to it."""
        texts = [p.read_text(encoding="utf-8") for p in unit.outputs]
        digest = hashlib.sha256("\0".join(texts).encode()).hexdigest()
        if unit.group not in self.first:
            self.first[unit.group] = texts
            self.digest[unit.group] = digest
        elif digest != self.digest[unit.group]:
            self.problems.append(f"{unit.argv[0]} {unit.group}: output differs between invocations")

    def check_outputs(self) -> None:
        for unit in self.wl.units:
            if unit.group in self.first:
                self.problems += unit.check(self.first[unit.group])

    def layer_round(self, tracer, times) -> dict[str, float]:
        """One traced round; returns its per-layer metrics."""
        from tracing import round_metrics

        units = []
        tracer.install()
        try:
            for unit in self.wl.units:
                mark = tracer.mark()
                elapsed = self.invoke(unit)
                if elapsed is not None:
                    times.append(elapsed)
                units.append((unit.group, tracer.unit_layers(mark)))
        finally:
            tracer.uninstall()
        metrics = round_metrics(units)
        if metrics["simulator.resamples"] != 0.0:
            self.problems.append("Monte Carlo resampled ill-conditioned draws")
        return metrics


def setup_seconds() -> float:
    """Stops the set-up ticks; the time from process start to now, less the
    ticks, at the nominal host speed."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    wall = _START_CPU + (time.perf_counter() - _START_WALL)
    if len(_SETUP_TICKS) < 3:
        return wall
    return (wall - sum(_SETUP_TICKS)) * SETUP_TICK_SECONDS / statistics.median(_SETUP_TICKS)


def end_to_end(runner, seconds: float, setup_s: float) -> dict:
    """Untraced rounds, each command timed under the tick probe.  For each
    command of the round, the median of its scaled times over the run; the
    round's time is their sum, and ``ops_per_s`` the round's work over it."""
    wl = runner.wl
    scaled = {u.group: [] for u in wl.units}
    start = time.perf_counter()
    probe = TickProbe()
    while True:
        for unit in wl.units:
            with probe:
                elapsed = runner.invoke(unit)
            if elapsed is not None:
                scaled[unit.group].append(probe.scale(elapsed))
                runner.samples.append((unit.group, elapsed, probe.ticks))
        if time.perf_counter() - start >= seconds:
            break
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if "simulator" in wl.layers:
        # resample counts are not in the CSV: read them from one traced round
        from tracing import Tracer

        runner.layer_round(Tracer(runner.modules), [])
    if all(scaled.values()):
        round_s = sum(statistics.median(v) for v in scaled.values())
        ops_per_s = sum(u.work for u in wl.units) / round_s
    else:
        runner.problems.append("a command failed in every round: no rate")
        ops_per_s = 0.0
    return {"setup_s": (setup_s, "s"), "peak_rss_mb": (peak_mb, "MB"), "ops_per_s": (ops_per_s, "1/s")}


def per_layer(runner, seconds: float, trace_path: Path) -> dict:
    """Alternate untraced and traced rounds; per-layer values are medians over
    traced rounds, and counts must repeat exactly from round to round."""
    from tracing import Tracer

    tracer = Tracer(runner.modules)
    rounds, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        for unit in runner.wl.units:
            elapsed = runner.invoke(unit)
            if elapsed is not None:
                plain.append(elapsed)
        rounds.append(runner.layer_round(tracer, traced))
        if time.perf_counter() - start >= seconds:
            break
    tracer.save(trace_path)
    metrics = {}
    for name in rounds[0]:
        values = [r[name] for r in rounds]
        unit = _unit_of(name)
        if unit == "s":
            metrics[name] = (statistics.median(values), unit)
        else:
            if len(set(values)) != 1:
                runner.problems.append(f"{name} differs between traced rounds: {values}")
            metrics[name] = (values[0], unit)
    metrics["trace.overhead_ratio"] = (sum(traced) / sum(plain) if plain and traced else 0.0, "ratio")
    return metrics


def manifest_metrics(section: str, computed: dict, problems: list[str]) -> dict:
    """The metrics BENCHMARK.json names in ``section``, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    out = {}
    for m in spec[section]:
        if m["name"] not in computed:
            problems.append(f"metric {m['name']} was not measured")
            continue
        value, unit = computed[m["name"]]
        if unit != m["unit"]:
            problems.append(f"metric {m['name']} is in {unit}, not {m['unit']}")
        out[m["name"]] = {"value": value, "unit": unit}
    extra = set(computed) - set(out)
    if extra:
        problems.append(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One core for the whole run: the two cores of a shared host can run at
    # different speeds, and the probe must measure the core the commands use.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "csisched" / "__init__.py").is_file():
        print(f"bench: no csisched sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import csisched
    from csisched import cli, optimizer, ratemodel, scheduler, simulator

    if Path(csisched.__file__).resolve().parent != SRC / "csisched":
        print(f"bench: imported csisched from {csisched.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}"
    scratch = WORK / f"{tag}-trace{args.trace}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, scratch)
        modules = {"cli": cli, "optimizer": optimizer, "ratemodel": ratemodel,
                   "scheduler": scheduler, "simulator": simulator}
        runner = Runner(workload, modules)
        setup_s = setup_seconds()
        if args.trace:
            computed = per_layer(runner, args.seconds, WORK / f"trace-{tag}.npz")
        else:
            computed = end_to_end(runner, args.seconds, setup_s)
        runner.check_outputs()
        section = "per_layer" if args.trace else "end_to_end"
        metrics = manifest_metrics(section, computed, runner.problems)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in runner.problems:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not runner.problems,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    line = json.dumps(result)
    (WORK / f"result-{tag}-trace{args.trace}.json").write_text(line + "\n", encoding="utf-8")
    if runner.samples:
        (WORK / f"samples-{tag}-trace0.json").write_text(json.dumps(runner.samples) + "\n", encoding="utf-8")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        # no tick may outlive the run, on any path out of it
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    sys.exit(code)
