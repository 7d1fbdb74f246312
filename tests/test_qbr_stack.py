"""Lockstep isolation: a game's answer from a stack of same-shape games is
bit for bit its answer from a stack of one.

``behavior._qbr_stack`` steps every game of a stack together, each with its
own step size, best point, best residual and stall count, and runs the
polish and the retreat for one game at a time.  Any state shared between
games, or a stacked sum that adds in another order, would move some bit of
some answer; these checks compare ``repr``s.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from foggame import behavior
from foggame.behavior import FixedPointError, _qbr_stack, qbr_equilibrium
from foggame.estimation import Observation, load_observations, log_likelihood, qbr_family
from foggame.games import NormalFormGame

from conftest import random_game
from test_corpus import CORPUS

REPO = Path(__file__).resolve().parent.parent
DATA = load_observations(REPO / "data" / "qbr_lambda2.jsonl")
SHIPPED = list(dict.fromkeys(obs.game for obs in DATA))  # first-appearance order


def _key(answer) -> tuple:
    if isinstance(answer, FixedPointError):
        return ("error", str(answer), repr(answer.profile), repr(answer.residual))
    return ("solved", repr(answer))


def _alone(game: NormalFormGame, precision: float) -> tuple:
    (answer,) = _qbr_stack([game], precision)
    return _key(answer)


def _assert_isolated(games, precision) -> list:
    answers = _qbr_stack(games, precision)
    assert len(answers) == len(games)
    for game, answer in zip(games, answers):
        assert _key(answer) == _alone(game, precision)
    return answers


@pytest.mark.parametrize("precision", [0.5, 2.0, 5.0, 10.0])
def test_shipped_games_solve_alone_and_stacked_alike(precision):
    answers = _assert_isolated(SHIPPED, precision)
    assert not any(isinstance(a, FixedPointError) for a in answers)


def test_failing_game_fails_alike_in_a_stack():
    # The game of observation 6 has no fixed point within the budget for
    # precision 1.140-1.143; the shipped games around it converge there.
    failing = SHIPPED[6]
    games = [SHIPPED[0], SHIPPED[3], failing, SHIPPED[11]]
    answers = _assert_isolated(games, 1.141)
    assert [isinstance(a, FixedPointError) for a in answers] == [False, False, True, False]
    with pytest.raises(FixedPointError) as err:
        qbr_equilibrium(failing, 1.141)
    assert _key(err.value) == _key(answers[2])
    assert str(err.value) == "no fixed point within 10000 iterations (residual 3.935e-08)"


# Corpus games that leave the damped step, each stacked with random games of
# its shape whose small payoffs converge fast: 31 is polished once; 60 and 83
# are polished once and also retreat once from a step that overshot (seen by
# printing in that branch).
@pytest.mark.parametrize("index", [31, 60, 83])
def test_polish_and_retreat_stay_with_their_game(index, monkeypatch):
    game, precision = CORPUS[index]
    rng = np.random.default_rng(index)
    others = [random_game(rng, counts=game.action_counts, scale=0.5) for _ in range(4)]
    games = others[:2] + [game] + others[2:]
    polished = []
    real = behavior._polish

    def spy(polished_game, *args):
        polished.append(polished_game)
        return real(polished_game, *args)

    monkeypatch.setattr(behavior, "_polish", spy)
    answers = _assert_isolated(games, precision)
    assert game in polished
    assert not isinstance(answers[2], FixedPointError)


def test_earliest_failing_observation_is_named(monkeypatch, pd_game, coord_game, asym_game):
    # Shapes are solved in first-appearance order, so the 2x2 stack (where
    # the game of observation 3 fails) is solved before the 3x2 game (which
    # fails at observation 1); the error names observation 1.
    three_by_two = NormalFormGame((3, 2), np.arange(12.0).reshape(2, 3, 2))
    data = [
        Observation(pd_game, 0, 0),
        Observation(three_by_two, 0, 2),
        Observation(coord_game, 1, 1),
        Observation(asym_game, 0, 1),
        Observation(three_by_two, 1, 0),
    ]
    stuck = {
        asym_game: FixedPointError("asym stuck (residual 2.000e-02)", [], 0.02),
        three_by_two: FixedPointError("3x2 stuck (residual 1.000e-02)", [], 0.01),
    }
    stacks = []
    real = behavior._qbr_stack

    def failing(games, precision):
        stacks.append(list(games))
        return [stuck.get(g, answer) for g, answer in zip(games, real(games, precision))]

    monkeypatch.setattr(behavior, "_qbr_stack", failing)
    with pytest.raises(FixedPointError) as err:
        log_likelihood(qbr_family(), (1.5,), data)
    assert stacks == [[pd_game, coord_game, asym_game], [three_by_two]]
    assert str(err.value) == (
        "3x2 stuck (residual 1.000e-02) at precision=1.5, game of observation 1"
    )
    assert err.value.profile == [] and err.value.residual == 0.01
