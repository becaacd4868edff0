"""Exact and Monte Carlo analysis of functionals of Poisson count vectors.

The package models a finite atomic intensity measure, the add-one-cost
difference operators, and the associated Ornstein-Uhlenbeck semigroup in
its thinning-plus-refresh form, and checks a family of functional
inequalities (Poincare, modified log-Sobolev, hypercontractivity,
L1-L2 variance bounds, concentration) either exactly on a truncated
state space or by simulation.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BudgetExceededError,
    CapOverflowError,
    NegativeValueError,
    NonFiniteValueError,
    PoissonOUError,
    PreconditionError,
)
from .ground import (
    GroundSpace,
    TruncatedStateSpace,
    check_mecke,
    sample_configurations,
)
from .functionals import (
    Functional,
    add_one_cost,
    certify_monotonicity,
    from_rule,
    from_table,
    gamma_expectation,
    second_difference,
)
from .semigroup import (
    SemigroupEngine,
    apply_semigroup,
    commutation_check,
    expectation,
    generator_check,
    generator_table,
    integrated_gradient_check,
    lp_norm,
    mean_preservation_check,
    ou_kernel_1d,
    pointwise_gradient_check,
    semigroup_property_check,
    symmetry_check,
    variance,
)
from .inequalities import (
    check_concentration,
    check_entropy_power,
    check_lsi_failure,
    check_min_form_lsi,
    check_modified_lsi,
    check_pathwise_lemma,
    check_poincare,
    check_restricted_hypercontractivity,
    check_talagrand,
    check_weak_hypercontractivity,
    entropy,
    l1_variance_bound,
    lsi_failure_ratios,
    pathwise_lemma_sides,
    pathwise_lemma_sweep,
    talagrand_bound,
)
from .casestudies import (
    MaximaModel,
    counterexample_fk,
    counterexample_scan,
    exponential_functional,
    indicator_family,
    maxima_closed_forms,
    near_optimality_scan,
    near_optimality_sides,
    one_dim_bound_comparison,
    one_dim_cumulative,
    talagrand_crosscheck,
)
from .dsl import DslError, functional_from_text, parse, serialize
from .reports import (
    HOLDS,
    HOLDS_STAT,
    HYPOTHESIS_NOT_MET,
    VIOLATED,
    InequalityReport,
    LpNorm,
    MonotonicityCertificate,
    make_report,
)

__version__ = "0.1.0"

#: every public name imported above, the one list of exports
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
