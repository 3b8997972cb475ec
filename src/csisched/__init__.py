"""Intermittent CSI estimation for massive MIMO: aged-CSI rate models,
pilot-budget optimization, realizable schedules and Monte Carlo validation."""

__version__ = "0.1.0"

from .ratemodel import (
    MF,
    ZF,
    RateTable,
    SystemConfig,
    UserLink,
    build_rate_table,
    build_rate_tables,
    g_extended,
    g_smoothed,
    rate,
    s_of_p,
    s_smoothed,
    sinr,
    total_snr,
)
from .optimizer import (
    FrequencyAllocation,
    optimize_frequencies,
    optimize_frequencies_at,
    optimize_pilot_length,
    project_capped_simplex,
)
from .scheduler import (
    IntervalDistribution,
    Schedule,
    ScheduleStats,
    build_schedule,
    exact_average_rate,
    interval_distribution,
    read_schedule,
    schedule_stats,
    write_schedule,
)
from .simulator import (
    MonteCarloReport,
    autocorrelation_check,
    complex_gaussian,
    evolve_channel,
    validate_closed_form,
)
