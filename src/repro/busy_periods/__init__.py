"""Busy-period durations for the paper's busy-period transitions.

Implements ``B_L`` (single-job M/G/1 busy period), delay busy periods
started by general work, and the paper's ``B_{N+1}``, all with exact
first-three-moment formulas plus numeric transform evaluation.
"""

from .delay_busy import DelayBusyPeriod
from .mg1_busy import MG1BusyPeriod
from .moment_algebra import (
    delay_busy_period_moments,
    mg1_busy_period_moments,
    poisson_during_exponential_factorial_moments,
    poisson_during_ph_factorial_moments,
    random_sum_moments,
)
from .nplus1 import (
    NPlusOneBusyPeriod,
    initial_work_moments_nplus1,
    nplus1_busy_period_moments,
)
from .numeric import moments_from_laplace

__all__ = [
    "DelayBusyPeriod",
    "MG1BusyPeriod",
    "NPlusOneBusyPeriod",
    "delay_busy_period_moments",
    "initial_work_moments_nplus1",
    "mg1_busy_period_moments",
    "moments_from_laplace",
    "nplus1_busy_period_moments",
    "poisson_during_exponential_factorial_moments",
    "poisson_during_ph_factorial_moments",
    "random_sum_moments",
]
