"""Byte-identity guard: CLI outputs on three scenarios must equal the files
committed under tests/golden/ byte for byte.

The scenarios keep the reference system (M=64, K=40, C=50, ZF, 10 dB) and
vary the temporal correlations: the reference draw (short tables), a
slow-fading draw (long tables) and six users with rho = 1, whose identical
tables all stop at N_MAX_HARD, so that each segment ties across the users.
``validate`` is left out: its bits depend on the BLAS build.
"""

from pathlib import Path

import pytest

from csisched.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name: (scenario file, user count, pilot length for schedule and sweep-rho)
SCENARIOS = {
    "ref": ("rho_lo = 0.6\nrho_hi = 0.9\nseed = 1\n", 40, 23),
    "slowfade": ("rho_lo = 0.95\nrho_hi = 0.999\nseed = 92\n", 40, 23),
    "hardcap": ("K = 6\nrho_lo = 1\nrho_hi = 1\nseed = 1\n", 6, 3),
}
COMMANDS = ["rates", "sweep-rho", "sweep-pilot", "sweep-users", "schedule"]


def _argv(command, K, T):
    """Command-line arguments and the output files they write."""
    if command == "schedule":
        argv = ["schedule", "--pilot-length", str(T), "--horizon", "500"]
        return argv, ["schedule.txt", "schedule.txt.stats.csv"]
    extra = {
        "rates": [],
        "sweep-rho": ["--pilot-lengths", f"1,{T},{K}"],
        "sweep-pilot": ["--snr-db", "0,10"],
        "sweep-users": ["--user-counts", "5,20,40"],
    }[command]
    return [command] + extra, [f"{command}.csv"]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_output_matches_golden(tmp_path, name, command):
    text, K, T = SCENARIOS[name]
    scenario = tmp_path / "scenario.txt"
    scenario.write_text(text)
    argv, outputs = _argv(command, K, T)
    assert main(argv + ["--scenario", str(scenario), "--out", str(tmp_path / outputs[0])]) == 0
    for out in outputs:
        expected = (GOLDEN / f"{name}.{out}").read_bytes()
        assert (tmp_path / out).read_bytes() == expected, f"{name}.{out} differs"
