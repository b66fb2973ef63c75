"""c-fair profit-sharing ratios for Islamic profit-and-loss sharing contracts.

The library computes, for mudharabah and musharakah partnerships (optionally
combined with a wakalah agency leg), the profit-sharing ratios that equalize
the partners' rated expected payoffs, the induced expected payoffs, and,
for the agency case, the periodic manager remuneration. A risk engine
supplies the required investment-risk figures from analytic or simulated
asset models, and a verification module independently re-solves the raw
fairness equations.
"""

from .contracts import (
    MAX_PARTNERS,
    SIMPLEX_TOL,
    Allocation,
    CapitalShares,
    ContractError,
    ContractSpec,
    NonViableError,
    RatingVector,
    RiskProfile,
    Variant,
    WakalahTerms,
)
from .ratios import (
    AllocationPlan,
    allocate,
    annuity_pv,
    cfair_mudharabah,
    cfair_musharakah,
    cfair_musharakah_external_mudharib,
    cfair_musharakah_wakalah,
    fair_mudharabah,
    payment_factor,
    sharing_weights,
    two_point_fair_ratio,
)
from .risk import (
    EmpiricalSample,
    GbmParams,
    McConfig,
    TwoPointScenario,
    empirical_profile,
    gbm_closed_form,
    load_empirical_draws,
    monte_carlo_profile,
    std_normal_cdf,
    two_point_profile,
)
from .verification import (
    VerificationReport,
    gauss_solve,
    musharakah_system,
    solve_fairness_system,
    solve_wakalah_system,
    verify_allocation,
    wakalah_system,
)

__version__ = "0.1.0"

__all__ = [
    "Allocation",
    "AllocationPlan",
    "CapitalShares",
    "ContractError",
    "ContractSpec",
    "EmpiricalSample",
    "GbmParams",
    "MAX_PARTNERS",
    "McConfig",
    "NonViableError",
    "RatingVector",
    "RiskProfile",
    "SIMPLEX_TOL",
    "TwoPointScenario",
    "Variant",
    "VerificationReport",
    "WakalahTerms",
    "allocate",
    "annuity_pv",
    "cfair_mudharabah",
    "cfair_musharakah",
    "cfair_musharakah_external_mudharib",
    "cfair_musharakah_wakalah",
    "empirical_profile",
    "fair_mudharabah",
    "gauss_solve",
    "gbm_closed_form",
    "load_empirical_draws",
    "monte_carlo_profile",
    "musharakah_system",
    "payment_factor",
    "sharing_weights",
    "solve_fairness_system",
    "solve_wakalah_system",
    "std_normal_cdf",
    "two_point_fair_ratio",
    "two_point_profile",
    "verify_allocation",
    "wakalah_system",
]
