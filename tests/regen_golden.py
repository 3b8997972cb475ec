"""Rerun the golden CLI outputs and report how they differ from tests/golden/.

From the repository root:

    PYTHONPATH=src python tests/regen_golden.py           # report, write nothing
    PYTHONPATH=src python tests/regen_golden.py --write   # also rewrite tests/golden/

Runs every scenario and command of test_golden.py.  For each output file it
prints the lines changed, the largest relative change of a numeric cell and
the count of changed non-numeric cells.  Cells are the tokens between
commas, blanks, '|' and ':'; a numeric cell is a float literal, so integers
(T, user ids, interval gaps), flags and names count as non-numeric.  Cells of
a line that only one side has count as non-numeric changes.
"""

from __future__ import annotations

import argparse
import math
import re
import shutil
import tempfile
from pathlib import Path

from test_golden import COMMANDS, GOLDEN, SCENARIOS, _argv

from csisched.cli import main as cli_main

_SEPARATORS = re.compile(r"[,\s|:]+")
_INTEGER = re.compile(r"[+-]?\d+")


def _is_float(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return not _INTEGER.fullmatch(cell)


def compare(old: str, new: str) -> tuple[int, float, int]:
    """(lines changed, largest relative change of a numeric cell, non-numeric
    cells changed) between two texts."""
    a, b = old.splitlines(), new.splitlines()
    lines = abs(len(a) - len(b))
    largest, other = 0.0, 0
    for x, y in zip(a, b):
        if x == y:
            continue
        lines += 1
        xs, ys = _SEPARATORS.split(x), _SEPARATORS.split(y)
        other += abs(len(xs) - len(ys))
        for u, v in zip(xs, ys):
            if u == v:
                continue
            if _is_float(u) and _is_float(v):
                fu, fv = float(u), float(v)
                largest = max(largest, abs(fv - fu) / abs(fu) if fu else math.inf)
            else:
                other += 1
    other += sum(len(_SEPARATORS.split(line)) for line in a[len(b) :] + b[len(a) :])
    return lines, largest, other


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Report, and with --write apply, golden output changes.")
    parser.add_argument("--write", action="store_true", help="rewrite the files under tests/golden/")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        for name, (text, K, T) in SCENARIOS.items():
            for command in COMMANDS:
                run = Path(tmp) / name / command
                run.mkdir(parents=True)
                scenario = run / "scenario.txt"
                scenario.write_text(text)
                argv, outputs = _argv(command, K, T)
                if cli_main(argv + ["--scenario", str(scenario), "--out", str(run / outputs[0])]) != 0:
                    raise SystemExit(f"{name} {command} failed")
                for out in outputs:
                    golden = GOLDEN / f"{name}.{out}"
                    old = golden.read_text() if golden.exists() else ""
                    new = (run / out).read_text()
                    lines, largest, other = compare(old, new)
                    print(f"{golden.name}: {lines} lines changed, largest relative change "
                          f"{largest:.2e}, {other} non-numeric cells changed")
                    if args.write and new != old:
                        shutil.copyfile(run / out, golden)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
