"""Named example games.

Each builder returns a fresh game. The names are stable external
interface: the CLI's ``example`` subcommand writes them out, the tests
pin their solved behavior, and the README walks through them.

- ``blog``: two types who each prefer a matching action but pay for
  any belief movement away from the prior; pooling on either action
  and truthful separation are all equilibria.
- ``two_player``: both players have a productive type (one strong
  action) and a flexible type (a safe action plus a risky one that
  pays only against cooperation), with a penalty for being believed
  either type too confidently.
- ``counterexample_lsc`` / ``counterexample_usc``: step penalties
  placed exactly on the beliefs that candidate equilibria would
  induce; no profile survives, in either semicontinuity direction.
- ``majority_default``: the separable majority game at indifferent
  mass 0.75, past the threshold where separation is the unique pure
  equilibrium.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .experiments import default_majority_family
from .model import (
    ActionSpace,
    PerceptionGame,
    PlayerSpec,
    TwoPlayerPerceptionGame,
    TypeSpace,
    UtilityModel,
)
from .penalties import PenaltySpec
from .simplex import Belief

__all__ = ["FIXTURE_NAMES", "get_fixture", "blog", "two_player_game",
           "counterexample_lsc", "counterexample_usc", "majority_default"]


def blog() -> PerceptionGame:
    return PerceptionGame(
        types=TypeSpace.plain(("l", "r")),
        actions=ActionSpace.plain(("L", "R")),
        prior=Belief([0.5, 0.5]),
        utility=UtilityModel(
            kind="additive_separable",
            v=np.array([[1.0, 0.0], [0.0, 1.0]]),
            penalties=(PenaltySpec.tv_to_prior(2.0), PenaltySpec.tv_to_prior(2.0)),
        ),
        name="blog",
    )


def two_player_game() -> TwoPlayerPerceptionGame:
    """Both sides: a strong type and a flexible type, uniform beliefs.

    The flexible type's risky action pays 4 against cooperation and 1
    otherwise; the penalty polyline peaks at 1.1 when an observer is
    certain of the type, which is exactly enough to deter the risky
    deviation from the cooperative profile.
    """
    knots = ((0.0, 1.1), (0.5, 0.0), (1.0, 1.1))

    def side(types, actions, event):
        pen = PenaltySpec.piecewise_linear(knots, over=(event,))
        strong = np.array([[5.0, 0.0], [0.0, 0.0]])
        flexible = np.array([[3.0, 0.0], [4.0, 1.0]])
        v = np.stack(
            [np.stack([strong, strong]), np.stack([flexible, flexible])]
        )
        return PlayerSpec(
            types=TypeSpace.plain(types),
            actions=ActionSpace.plain(actions),
            beliefs=np.full((2, 2), 0.5),
            v=v,
            penalties=(pen, pen),
        )

    return TwoPlayerPerceptionGame(
        players=(
            side(("u", "d"), ("U", "D"), "u"),
            side(("l", "r"), ("L", "R"), "l"),
        ),
        name="two_player",
    )


def counterexample_lsc() -> PerceptionGame:
    """No equilibrium; utilities are lower semicontinuous in the belief.

    The step penalty (upper semicontinuous, so utility is lower
    semicontinuous) charges each type exactly at the prior and at its
    own revealing belief: pooling hurts where it lands, truthful play
    hurts where it lands, and nearby beliefs are free, so every
    candidate has a strictly better deviation.
    """
    pen_l = PenaltySpec.step(
        pieces=((0.5, 0.5, 2.0, True, True), (0.0, 0.0, 2.0, True, True)),
        over=("r",),
    )
    pen_r = PenaltySpec.step(
        pieces=((0.5, 0.5, 2.0, True, True), (1.0, 1.0, 2.0, True, True)),
        over=("r",),
    )
    return PerceptionGame(
        types=TypeSpace.plain(("l", "r")),
        actions=ActionSpace.plain(("L", "R")),
        prior=Belief([0.5, 0.5]),
        utility=UtilityModel(
            kind="additive_separable",
            v=np.array([[1.0, 0.0], [0.0, 1.0]]),
            penalties=(pen_l, pen_r),
        ),
        allow_discontinuous=True,
        name="counterexample_lsc",
    )


def counterexample_usc() -> PerceptionGame:
    """No equilibrium; utilities are upper semicontinuous in the belief.

    Same shape with the charged sets opened up: a punctured band
    around the prior and half-open bands at each type's revealing end,
    so the penalty is lower semicontinuous instead. The deviations that
    kill each candidate profile survive the flip.
    """
    band = (0.45, 0.55, 2.0, False, False)
    pen_l = PenaltySpec.step(
        pieces=(band, (0.0, 0.05, 2.0, True, False)),
        over=("r",),
    )
    pen_r = PenaltySpec.step(
        pieces=(band, (0.95, 1.0, 2.0, False, True)),
        over=("r",),
    )
    return PerceptionGame(
        types=TypeSpace.plain(("l", "r")),
        actions=ActionSpace.plain(("L", "R")),
        prior=Belief([0.5, 0.5]),
        utility=UtilityModel(
            kind="additive_separable",
            v=np.array([[1.0, 0.0], [0.0, 1.0]]),
            penalties=(pen_l, pen_r),
        ),
        allow_discontinuous=True,
        name="counterexample_usc",
    )


def majority_default() -> PerceptionGame:
    return replace(default_majority_family().game_for(0.75), name="majority_default")


_BUILDERS = {
    "blog": blog,
    "two_player": two_player_game,
    "counterexample_lsc": counterexample_lsc,
    "counterexample_usc": counterexample_usc,
    "majority_default": majority_default,
}

FIXTURE_NAMES = tuple(_BUILDERS)


def get_fixture(name: str) -> PerceptionGame | TwoPlayerPerceptionGame:
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown fixture {name!r}; available: {', '.join(FIXTURE_NAMES)}"
        ) from None
    return builder()
