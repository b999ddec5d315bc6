"""Solvers and verifiers for games where payoffs depend on the belief
observers form about the actor's type.

Quick tour: build a :class:`PerceptionGame` (or load one with
:func:`load_game`), then verify a profile with
:func:`verify_equilibrium`, enumerate pure equilibria, sweep mixed
grids, test full-pooling existence with :func:`pooling_check`, or
classify the game's privacy direction. ``experiments`` adds factored
game families and the analyses built on them; the ``pgame`` CLI fronts
all of it.
"""

from .docio import (
    FORMAT_VERSION,
    GameFormatError,
    canonical_json,
    load_game,
    load_profile,
    parse_game,
    parse_profile,
    profile_to_document,
    save_game,
    to_document,
)
from .experiments import (
    MajorityFamily,
    SeparableGameSpec,
    build_separating_equilibrium,
    check_separation_margin,
    counterexample_check,
    default_majority_family,
    scan_alpha,
    separation_uniqueness_bound,
    welfare_report,
    welfare_report_2p,
)
from .fixtures import FIXTURE_NAMES, get_fixture
from .model import (
    ActionSpace,
    PerceptionGame,
    PlayerSpec,
    TwoPlayerPerceptionGame,
    TypeSpace,
    UtilityModel,
    classify_privacy,
    validate_game,
)
from .penalties import Penalty, PenaltySpec, bind, penalty_range, penalty_value
from .simplex import Belief, SimplexGrid, tv_distance
from .single import (
    PerceptionMap,
    Strategy,
    enumerate_pure_equilibria,
    legislation_welfare,
    pooling_check,
    profile_report,
    search_mixed_equilibria,
    verify_equilibrium,
)
from .two_player import (
    TwoPlayerPerceptions,
    TwoPlayerStrategy,
    embed_single,
    enumerate_pure_bne,
    enumerate_pure_equilibria_2p,
    verify_equilibrium_2p,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ActionSpace",
    "Belief",
    "FIXTURE_NAMES",
    "FORMAT_VERSION",
    "GameFormatError",
    "MajorityFamily",
    "Penalty",
    "PenaltySpec",
    "PerceptionGame",
    "PerceptionMap",
    "PlayerSpec",
    "SeparableGameSpec",
    "SimplexGrid",
    "Strategy",
    "TwoPlayerPerceptionGame",
    "TwoPlayerPerceptions",
    "TwoPlayerStrategy",
    "TypeSpace",
    "UtilityModel",
    "bind",
    "build_separating_equilibrium",
    "canonical_json",
    "check_separation_margin",
    "classify_privacy",
    "counterexample_check",
    "default_majority_family",
    "embed_single",
    "enumerate_pure_bne",
    "enumerate_pure_equilibria",
    "enumerate_pure_equilibria_2p",
    "get_fixture",
    "legislation_welfare",
    "load_game",
    "load_profile",
    "parse_game",
    "parse_profile",
    "penalty_range",
    "penalty_value",
    "pooling_check",
    "profile_report",
    "profile_to_document",
    "save_game",
    "scan_alpha",
    "search_mixed_equilibria",
    "separation_uniqueness_bound",
    "to_document",
    "tv_distance",
    "validate_game",
    "verify_equilibrium",
    "verify_equilibrium_2p",
    "welfare_report",
    "welfare_report_2p",
]
