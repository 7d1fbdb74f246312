"""Prospect-theory valuation and social-preference payoff recomposition.

A lottery is valued term by term; a game's payoffs are recomposed for social
preferences in one array computation over the whole payoff tensor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated, Literal, Sequence

import numpy as np

from .games import SUMS_TO_ONE, NormalFormGame
from .schema import Finite, Items, Range, check_fields

__all__ = [
    "Lottery", "ProspectParams", "SocialPrefParams", "pt_evaluate", "pt_value", "pt_weight",
    "transform_game_social",
]

# Below ~0.28 the single-parameter weighting curve stops being monotone, so
# the constructor rejects that region.
WEIGHT_CURVE_MIN = 0.28

Curvature = Annotated[float, Range(gt=0, le=1)]
Weight = Annotated[float, Range(ge=0)]


@dataclass(frozen=True)
class Lottery:
    """Finite lottery: outcome values with matching probabilities."""

    outcomes: Annotated[tuple[Finite, ...], Items()]
    probs: Annotated[tuple[Annotated[float, Range(ge=0, le=1)], ...], SUMS_TO_ONE]

    def __post_init__(self) -> None:
        check_fields(self)
        if len(self.outcomes) != len(self.probs):
            raise ValueError("probs must have the same length as outcomes")


@dataclass(frozen=True)
class ProspectParams:
    """Power value function plus single-parameter probability weighting.

    Defaults are the conventional experimental estimates; they are package
    defaults, not claims about any particular dataset.
    """

    gain_curvature: Curvature = 0.88
    loss_curvature: Curvature = 0.88
    loss_aversion: Annotated[float, Range(ge=1)] = 2.25
    weight_curvature: Annotated[float, Range(gt=WEIGHT_CURVE_MIN, le=1)] = 0.61
    reference: Finite = 0.0

    def __post_init__(self) -> None:
        check_fields(self)


def _weight(p: float, curve: float) -> float:
    num = p**curve
    return num / (num + (1.0 - p) ** curve) ** (1.0 / curve)


def pt_value(outcome: float, params: ProspectParams) -> float:
    """Reference-dependent value: concave power gains, amplified power losses."""
    x = float(outcome)
    if not np.isfinite(x):
        raise ValueError("outcome must be finite")
    g = x - params.reference
    if g >= 0.0:
        return g**params.gain_curvature
    return -params.loss_aversion * (-g) ** params.loss_curvature


def pt_weight(p: float, params: ProspectParams) -> float:
    """Probability weighting; maps [0, 1] onto [0, 1] with exact endpoints."""
    q = float(p)
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"probability {q!r} outside [0, 1]")
    return _weight(q, params.weight_curvature)


def pt_evaluate(lottery: Lottery, params: ProspectParams) -> float:
    """Sum of weighted probabilities times valued outcomes."""
    return sum(
        pt_weight(p, params) * pt_value(x, params)
        for x, p in zip(lottery.outcomes, lottery.probs)
    )


InequityMetric = Literal["range", "mean_deviation"]


@dataclass(frozen=True)
class SocialPrefParams:
    """Linear blend of own payoff, altruism, inequity aversion, and envy."""

    selfish_weight: Weight = 1.0
    altruism_weight: Weight = 0.0
    inequity_weight: Weight = 0.0
    envy_weight: Weight = 0.0
    inequity_metric: InequityMetric = "range"

    def __post_init__(self) -> None:
        check_fields(self)
        weights = (self.selfish_weight, self.altruism_weight,
                   self.inequity_weight, self.envy_weight)
        if all(w == 0 for w in weights):
            raise ValueError("at least one social preference weight must be positive")


def transform_game_social(
    game: NormalFormGame, params_per_player: Sequence[SocialPrefParams]
) -> NormalFormGame:
    """New game whose payoffs are recomposed cell by cell from each player's
    social point of view: own payoff, altruism toward the others' total,
    inequity (range or mean absolute deviation of the cell) and envy of the
    cell's top payoff.

    All-selfish parameters (weight 1, everything else 0) reproduce the input
    game exactly.
    """
    if len(params_per_player) != game.num_players:
        raise ValueError(
            f"need one SocialPrefParams per player "
            f"({game.num_players}), got {len(params_per_player)}"
        )
    # (cells..., players), contiguous, so each cell reduces over its own
    # payoff vector exactly as a 1-D array of that cell would.
    base = np.ascontiguousarray(np.moveaxis(game.payoffs, 0, -1))
    top = base.max(axis=-1, keepdims=True)
    spread = {
        "range": top - base.min(axis=-1, keepdims=True),
        "mean_deviation": np.mean(
            np.abs(base - base.mean(axis=-1, keepdims=True)), axis=-1, keepdims=True
        ),
    }
    inequity = np.concatenate(
        [spread[p.inequity_metric] for p in params_per_player], axis=-1
    )
    selfish, altruism, inequity_w, envy = np.array(
        [
            (p.selfish_weight, p.altruism_weight, p.inequity_weight, p.envy_weight)
            for p in params_per_player
        ]
    ).T
    tensor = (
        selfish * base
        + altruism * (base.sum(axis=-1, keepdims=True) - base)
        - inequity_w * inequity
        - envy * np.maximum(0.0, top - base)
    )
    return NormalFormGame(game.action_counts, np.moveaxis(tensor, -1, 0))
