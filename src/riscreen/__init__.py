"""riscreen: promotion tournaments under mutual-information attention costs.

Solves a two-agent promotion game in which a principal screens contestants
through an endogenously chosen, costly signal: optimal signals, equilibrium
enumeration with closed-form regime cutpoints, profit and welfare ranking,
an equal-promotion quota, a two-task extension, and several model variants.
"""

from .ri_core import (
    ALWAYS_ACT0,
    ALWAYS_ACT1,
    INTERIOR,
    BinaryRIProblem,
    ChoiceRule,
    ConvergenceError,
    degeneracy_check,
    mutual_information,
    neg_entropy,
    objective_value,
    solve_binary_ri,
)
from .baseline_game import (
    AGENT_M,
    AGENT_W,
    DISCRIMINATORY,
    HI,
    IMPARTIAL,
    LO,
    PROFILES,
    BracketError,
    EquilibriumRecord,
    GameParams,
    ProfitBreakdown,
    PromotionSignal,
    StateDistribution,
    ThresholdSet,
    equilibrium_set,
    evaluate,
    f_func,
    f_inverse,
    g_func,
    g_inverse,
    incentive_gain,
    most_profitable,
    optimal_signal,
    profit,
    state_distribution,
    thresholds,
    welfare_ordering,
)
from .quota_policy import QuotaSolution, find_multiplier, quota_equilibrium_set, subsidized_signal
from .multitask import (
    HYBRID,
    NON_SPECIALIZED,
    SPECIALIZED,
    MultitaskRecord,
    TaskParams,
    multitask_equilibrium_set,
    multitask_most_profitable,
)
from .variants import (
    BindingHighSolution,
    CommitmentSolution,
    EffortGridResult,
    HeterogeneousParams,
    MixedEquilibrium,
    MixedProfile,
    PriorInvariantResult,
    ReferencePriorProblem,
    bind_high_effort,
    commitment_solve,
    continuous_effort_equilibria,
    heterogeneous_equilibrium_set,
    mixed_equilibria,
    prior_invariant_signal,
)

__version__ = "0.1.0"
