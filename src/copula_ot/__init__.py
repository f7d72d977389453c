"""Transport costs and couplings for discrete measures sharing a copula."""

from .copulas import (
    Copula,
    bivariate_margin,
    checkerboard,
    comonotone,
    copula_from_dict,
    copula_to_dict,
    countermonotone,
    discretize,
    independence,
    push_through_quantiles,
    sklar_compose,
)
from .counterexample import (
    CounterexampleReport,
    CurvePoint,
    EpsilonConstruction,
    NoViolatingPair,
    PairSkeleton,
    ScheduleExhausted,
    adversary_copula,
    build_pair,
    default_schedule,
    find_violating_pair,
    gap_search,
    limit_scores,
    monge_cross_partial,
    pair_skeleton,
    report_to_dict,
)
from .instances import (
    VerifyConfig,
    VerifyRow,
    random_copula,
    random_marginal,
    random_shared_pair,
    run_verification,
)
from .measures import (
    DiscreteMeasure1D,
    MultivariateMeasure,
    make_measure,
    make_measure_1d,
    measure_from_dict,
    measure_to_dict,
    measures_close,
)
from .transport import (
    CostSpec,
    OTResult,
    PairCountCapExceeded,
    TransportPlan,
    diamond,
    exact_ot,
    plan_cost,
    plan_from_indices,
    plan_to_dict,
    separable_dual_bound,
    solve_transport,
    validate_plan,
    wasserstein_1d,
)

__version__ = "0.1.0"
