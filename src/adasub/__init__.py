"""Adaptive stochastic submodular maximization over finite realization spaces.

Library layout:

- ``model``     — realizations, priors, utilities, instances
- ``engine``    — policy runner, exact and Monte Carlo evaluation, combinators
- ``policies``  — greedy / threshold / semi-adaptive / batched / DP-optimal policies
- ``instances`` — concrete instance families and (de)serialization
- ``verifiers`` — numerical certificates for the performance bounds
- ``cli``       — ``adasub`` command-line harness
"""
from .engine import (
    EVAL_COLUMNS,
    EXACT_SEED,
    EvalReport,
    Policy,
    PolicyContext,
    PolicyTrace,
    QUERY,
    STOP,
    Select,
    c_avg_exact,
    concat,
    evaluate_exact,
    evaluate_mc,
    f_avg_exact,
    limit_rounds,
    marginal,
    marginals_for,
    run_policy,
    truncate,
)
from .errors import (
    AdasubError,
    AlreadyObservedError,
    InconsistentObservationError,
    InfeasibleError,
    MalformedInputError,
    PolicyBugError,
    TooLargeError,
)
from .model import (
    EMPTY,
    CoverageSpec,
    Instance,
    PartialRealization,
    Prior,
    ProductPrior,
    TablePrior,
    UtilityFunction,
    cap_value,
    expand_product,
    is_consistent,
    is_subrealization,
)
from .instances import (
    BagCountUtility,
    BagsPrior,
    CoverUtility,
    MatchPairUtility,
    ModularUtility,
    build_bags,
    build_random_tabular,
    build_stochastic_cover,
    build_truncation_pair,
    instance_from_doc,
    instance_to_doc,
    load_instance,
    save_instance,
)
from .policies import (
    SemiAdaptiveState,
    ThresholdCalibration,
    calibrate_tau,
    covered,
    fixed_batch_greedy,
    fixed_sequence_policy,
    greedy_coverage,
    greedy_max,
    information_gap,
    optimal_coverage_cost,
    optimal_coverage_dp,
    optimal_policy_dp,
    optimal_value,
    restricted_information_gap,
    sav_values,
    semi_adaptive_greedy_coverage,
    semi_adaptive_greedy_max,
    semi_adaptive_value,
    threshold_policy,
)
from .verifiers import (
    VERIFY_COLUMNS,
    BoundCheckResult,
    MarginalPairWitness,
    check_adaptive_monotone,
    check_adaptive_submodular,
    expected_selection_count,
    measure_superround_decay,
    rows_to_csv,
    verify_batch_lemma8,
    verify_corollary_delta,
    verify_coverage_bound,
    verify_eq_main,
    verify_eta,
    verify_hardness,
    verify_lemma1,
    verify_round_complexity,
    verify_semi_max_bound,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
