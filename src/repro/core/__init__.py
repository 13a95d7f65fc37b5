"""The paper's analytic models: Dedicated, CS-ID and CS-CQ, plus stability."""

from .cs_cq import (
    CsCqAnalysis,
    RegionProbabilities,
    cs_cq_long_response_saturated,
    first_completion_moments,
    first_completion_of_two,
    fit_busy_period,
)
from .cs_cq_truncated import CsCqTruncatedChain, TruncatedResult
from .cs_id import CsIdAnalysis, LongHostCycle, caught_short_remainder_moments
from .dedicated import DedicatedAnalysis
from .params import SystemParameters, UnstableSystemError
from .stability import (
    GOLDEN_RATIO,
    cs_cq_is_stable,
    cs_cq_max_rho_s,
    cs_id_is_stable,
    cs_id_long_host_prob_busy,
    cs_id_long_host_prob_busy_from_cycle,
    cs_id_max_rho_s,
    dedicated_is_stable,
    dedicated_max_rho_s,
)

#: Former names of the phase-type chains, now the only definition of each
#: policy (exponential shorts are the one-phase case).
CsCqPhAnalysis = CsCqAnalysis
CsIdPhAnalysis = CsIdAnalysis

__all__ = [
    "GOLDEN_RATIO",
    "CsCqAnalysis",
    "CsCqPhAnalysis",
    "CsCqTruncatedChain",
    "CsIdAnalysis",
    "CsIdPhAnalysis",
    "DedicatedAnalysis",
    "LongHostCycle",
    "RegionProbabilities",
    "SystemParameters",
    "TruncatedResult",
    "UnstableSystemError",
    "caught_short_remainder_moments",
    "cs_cq_is_stable",
    "cs_cq_long_response_saturated",
    "cs_cq_max_rho_s",
    "cs_id_is_stable",
    "cs_id_long_host_prob_busy",
    "cs_id_long_host_prob_busy_from_cycle",
    "cs_id_max_rho_s",
    "dedicated_is_stable",
    "dedicated_max_rho_s",
    "first_completion_moments",
    "first_completion_of_two",
    "fit_busy_period",
]
