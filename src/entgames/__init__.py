"""Numerics for two-player games with entangled strategies: exact classical
values, see-saw lower bounds on entangled values, a quantum-information
toolkit (fidelity, entropies, purifications), superposed-state diagnostics
with decoupling isometries, a randomized inequality suite, and Monte-Carlo
simulation of referee spot-checking protocols."""

from .config import DEFAULT_TOLS, VERSION, BudgetError, Tolerances
from .games import (
    ClassicalStrategy,
    Game,
    QuantumStrategy,
    chsh,
    classical_value,
    entangled_value_seesaw,
    game_to_json,
    is_free,
    is_projection,
    load_game,
    majority_game,
    repeat,
    save_game,
    strategy_win_probability,
)
from .linalg import (
    DensityOperator,
    Solved,
    hermitian_eig,
    partial_trace,
    trace_norm,
)
from .qinfo import (
    PureState,
    fidelity,
    min_relative_entropy,
    mutual_information,
    purify,
    relative_entropy,
    uhlmann_partner,
    von_neumann_entropy,
)
from .random_states import haar_state, haar_unitary, random_mixed, rng_for
from .sic import (
    SuperposedState,
    build_decoupling,
    check_bound_at_delta_zero,
    rel_ent_game_shift_check,
    sic_lower_bound,
    sic_terms,
    special_case_report,
)

__version__ = VERSION

__all__ = [
    "BudgetError",
    "ClassicalStrategy",
    "DEFAULT_TOLS",
    "DensityOperator",
    "Game",
    "PureState",
    "QuantumStrategy",
    "Solved",
    "SuperposedState",
    "Tolerances",
    "VERSION",
    "build_decoupling",
    "check_bound_at_delta_zero",
    "chsh",
    "classical_value",
    "entangled_value_seesaw",
    "fidelity",
    "game_to_json",
    "haar_state",
    "haar_unitary",
    "hermitian_eig",
    "is_free",
    "is_projection",
    "load_game",
    "majority_game",
    "min_relative_entropy",
    "mutual_information",
    "partial_trace",
    "purify",
    "random_mixed",
    "rel_ent_game_shift_check",
    "relative_entropy",
    "repeat",
    "rng_for",
    "save_game",
    "sic_lower_bound",
    "sic_terms",
    "special_case_report",
    "strategy_win_probability",
    "trace_norm",
    "uhlmann_partner",
    "von_neumann_entropy",
]
