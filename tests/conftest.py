"""Shared fixtures: a fixed corpus of five hand-checked 2x2-scale games.

Every payoff below is pinned by hand so tests can assert against manual
arithmetic rather than against the library itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from foggame.behavior import LevelK
from foggame.games import NormalFormGame
from foggame.market import _negotiate


def two_player(row, col) -> NormalFormGame:
    """The game whose row and column players have these payoff matrices."""
    payoffs = np.stack([np.asarray(row, dtype=float), np.asarray(col, dtype=float)])
    return NormalFormGame(payoffs.shape[1:], payoffs)


@pytest.fixture(scope="session")
def pd_game() -> NormalFormGame:
    """Mutual-defection dominance: action 1 strictly dominant for both."""
    return two_player(
        [[3.0, 0.0], [5.0, 1.0]],
        [[3.0, 5.0], [0.0, 1.0]],
    )


@pytest.fixture(scope="session")
def coord_game() -> NormalFormGame:
    """Symmetric coordination: pure equilibria at (0,0) and (1,1)."""
    return two_player(
        [[4.0, 0.0], [0.0, 2.0]],
        [[4.0, 0.0], [0.0, 2.0]],
    )


@pytest.fixture(scope="session")
def pennies_game() -> NormalFormGame:
    """Zero-sum matcher/mismatcher: no pure equilibrium."""
    return two_player(
        [[1.0, -1.0], [-1.0, 1.0]],
        [[-1.0, 1.0], [1.0, -1.0]],
    )


@pytest.fixture(scope="session")
def asym_game() -> NormalFormGame:
    """Asymmetric, dominance-solvable; unique pure equilibrium (0,0)."""
    return two_player(
        [[2.0, -1.0], [1.0, 3.0]],
        [[1.0, 0.0], [2.0, 1.0]],
    )


@pytest.fixture(scope="session")
def tie_game() -> NormalFormGame:
    """Constant payoffs: every action ties, every profile is an equilibrium."""
    return two_player(
        [[1.0, 1.0], [1.0, 1.0]],
        [[2.0, 2.0], [2.0, 2.0]],
    )


@pytest.fixture(scope="session")
def corpus(pd_game, coord_game, pennies_game, asym_game, tie_game):
    return [pd_game, coord_game, pennies_game, asym_game, tie_game]


@pytest.fixture(scope="session")
def dominant_3x2_game() -> NormalFormGame:
    """3-action row player with strictly dominant action 0; equilibrium (0,0)."""
    return two_player(
        [[5.0, 5.0], [1.0, 1.0], [0.0, 0.0]],
        [[1.0, 0.0], [1.0, 0.0], [1.0, 0.0]],
    )


def random_game(rng: np.random.Generator, counts=(2, 2), scale=5.0) -> NormalFormGame:
    payoffs = rng.uniform(-scale, scale, size=(len(counts), *counts))
    return NormalFormGame(action_counts=tuple(counts), payoffs=payoffs)


def logit_choice(utilities, precision: float) -> tuple[float, ...]:
    """Logit choice weights over ``utilities``: the level-1 qbr response of
    the one player of a game with those payoffs."""
    u = np.asarray(utilities, dtype=float)
    model = LevelK(level_weights=(0.0, 1.0), response="qbr", precision=precision)
    return model.predict_profile(NormalFormGame((u.size,), u[None, :]))[0].weights


def negotiate_all(scenario, cells, price_rule) -> list:
    """``_negotiate``'s outcomes in the order of ``cells``, each cell's
    trace or ``ValueError``; every cell must end exactly once."""
    outcomes: dict = {}
    for j, outcome in _negotiate(scenario, cells, price_rule):
        assert j not in outcomes, f"cell {j} ended twice"
        outcomes[j] = outcome
    assert sorted(outcomes) == list(range(len(cells)))
    return [outcomes[j] for j in range(len(cells))]
