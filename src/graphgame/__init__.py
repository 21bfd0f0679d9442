"""Coalition games on strategy graphs: equilibria, graph-consistent Markov
chains, and repeated play."""

from .chains import (
    CaseLabel,
    Schedule,
    SupportSplitError,
    TransitionKernel,
    build_kernel,
    classify_case,
    dobrushin,
    dobrushin_bound,
    min_valid_k,
    smooth,
    stationary_distribution,
)
from .games import (
    CoalitionStructure,
    GGame,
    coalition_payoff_from_players,
    is_pure_c_equilibrium,
    pure_c_equilibria,
    substitute,
)
from .graphs import (
    Decomposition,
    Graph,
    GraphError,
    NotDecomposableError,
    connected_components,
    factorize,
    induced_subgraph,
    strong_product,
)
from .mixed import (
    Distribution,
    MixedProfile,
    NoConvergenceError,
    compute_mixed_equilibrium,
    expected_payoff,
    is_mixed_c_equilibrium,
    pure_in_mixed,
    total_variation,
)
from .repeated import (
    ConsistencyViolationError,
    InfoModel,
    PlayersInit,
    RefereeInit,
    RepeatedConfig,
    decompose_game,
    deviation_test,
    equilibrium_policies,
    repeated_payoff,
    simulate_repeated,
    stock_deviation_policies,
    two_stage_check,
)
from .simulate import (
    ComponentSpec,
    ProductChainSpec,
    Realization,
    Trace,
    empirical_distribution,
    ergodic_average,
    run_homogeneous,
    run_nonhomogeneous,
    run_product,
    verify_consistency,
)

__version__ = "0.1.0"
