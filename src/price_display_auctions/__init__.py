"""Ad auctions where the selling price is displayed with the ad.

The library models click probabilities that react to the displayed price
and to the lowest price on the page, computes welfare-maximizing
allocations, prices the externalities four different ways, and analyzes
the pure Nash equilibria of the induced complete-information games.
"""

from .allocation import (
    BRUTE_FORCE_MAX_AGENTS,
    BRUTE_FORCE_MAX_PRICES,
    BRUTE_FORCE_MAX_SLOTS,
    DirectAllocationResult,
    brute_force_allocate,
    direct_allocate,
    direct_pivots,
    indirect_allocate,
    indirect_pivots,
)
from .equilibrium import (
    NASH_TOL,
    EquilibriumReport,
    StrategySpace,
    efficiency_report,
    enumerate_pure_nash,
    is_nash,
    truthful_direct_profile,
)
from .errors import (
    AuctionError,
    ConstraintViolationError,
    GuardExceededError,
    InferenceError,
    InstanceFormatError,
    QualityDomainError,
)
from .mechanisms import (
    InferredType,
    MechanismKind,
    infer_type,
    run_direct_vcg,
    run_indirect_gsp,
    run_indirect_vcg,
    run_indirect_vcg_star,
    run_mechanism,
    truthful_star_profile,
)
from .model import (
    EMPTY_ALLOCATION,
    WELFARE_TOL,
    AgentType,
    Allocation,
    AuctionInstance,
    Outcome,
    SlotProfile,
    Strategy,
    StrategyProfile,
    declared_value,
    declared_welfare,
    profile,
    true_value,
    true_welfare,
    truthful_gains,
)
from .quality import (
    QUALITY_KINDS,
    AuditViolation,
    HyperbolaQuality,
    OnlyMinQuality,
    PriceThresholdQuality,
    QualityModel,
    SmoothDecayQuality,
    TabulatedQuality,
    audit_quality,
    probe_grid,
)
from .sampling import random_instance, random_profile, smooth_instance
from .scenarios import SCENARIO_IDS, Scenario, VerdictReport, build, reproduce
from .serialization import (
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)

__version__ = "1.0.0"
