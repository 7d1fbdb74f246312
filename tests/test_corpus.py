"""Corpus pins: one SHA-256 per model configuration over random games.

The golden pins cover two games.  This module pins every model on a corpus
of random games generated here from a fixed seed, so that a rewrite of the
expected-utility kernel, the QRE solver or a model recursion that moves any
bit of any prediction shows.  A game has 1-4 players with 1-5 actions each;
its payoffs are uniform on (-5, 5), every fourth game has integer payoffs in
[-2, 2] (ties) and every fourth has about half its payoffs set to -0.0.  Each
game draws its own precision from [0, 3].

A configuration's digest is over, per game, the ``repr`` of
``predict_profile(game)`` or, where the model raises, the exception's type
and message.  The logit QRE pin uses the first ``QRE_GAMES`` games only,
since a solve that fails spends its whole iteration budget.  Two more pins
cover ``sample_observations`` and ``log_likelihood`` at three precisions on
a dataset drawn from corpus games.

Beside the pins, every non-QRE configuration is compared with the
benchmark's independent oracle (``perfbench/oracle.py``) to 1e-12, and every
solved QRE must be a fixed point of the oracle's logit response to 1e-9.

To re-record after a deliberate change, print ``_digest(...)`` for each
configuration and say in CHANGES.md which games moved and why.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

from foggame.behavior import (
    BestResponse,
    CognitiveHierarchy,
    EpsilonNash,
    LevelK,
    LogitQBR,
    NoisyIntrospection,
    model_to_dict,
)
from foggame.estimation import log_likelihood, qbr_family, sample_observations
from foggame.games import NormalFormGame

# The benchmark's independent re-derivations, which import nothing from foggame.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracle  # noqa: E402

CORPUS_SEED = 2026
CORPUS_GAMES = 400
QRE_GAMES = 100


def _corpus() -> list[tuple[NormalFormGame, float]]:
    rng = np.random.default_rng(CORPUS_SEED)
    games = []
    for g in range(CORPUS_GAMES):
        counts = tuple(int(n) for n in rng.integers(1, 6, size=int(rng.integers(1, 5))))
        shape = (len(counts), *counts)
        if g % 4 == 2:
            payoffs = rng.integers(-2, 3, size=shape).astype(float)
        else:
            payoffs = rng.uniform(-5.0, 5.0, size=shape)
            if g % 4 == 3:
                payoffs[rng.random(shape) < 0.5] = -0.0
        games.append((NormalFormGame(counts, payoffs), float(rng.uniform(0.0, 3.0))))
    return games


CORPUS = _corpus()


def _outcome(call) -> str:
    try:
        return repr(call())
    except Exception as exc:  # noqa: BLE001 — a raised error is part of the pin
        return f"{type(exc).__name__}: {exc}"


def _digest(lines) -> str:
    return hashlib.sha256("".join(f"{line}\n" for line in lines).encode()).hexdigest()


# configuration -> the model for a game's precision
MODELS = {
    "best_response": lambda lam: BestResponse(),
    "epsilon_nash": lambda lam: EpsilonNash(0.1),
    "logit_qbr": LogitQBR,
    "level_k_exact_br": lambda lam: LevelK((0.2, 0.5, 0.3)),
    "level_k_qbr": lambda lam: LevelK((0.2, 0.5, 0.3), response="qbr", precision=lam),
    "cognitive_hierarchy_exact_br": lambda lam: CognitiveHierarchy(1.5, 3),
    "cognitive_hierarchy_qbr":
        lambda lam: CognitiveHierarchy(1.5, 3, response="qbr", precision=lam),
    "noisy_introspection": lambda lam: NoisyIntrospection(lam, 0.5, 4),
}

PREDICTIONS = {
    "best_response": "dadff821615fc42d5cca3c4c1b939e1f63c5f254a610d39de2386d25d5fa5b47",
    "epsilon_nash": "8490dfe0649ec996fdb1e70ae459a13f41382068b7731ac2fefb75814a5102d6",
    "logit_qbr": "e1fb3206cd331315ec3ea922237a43b6e6f20624f684a395fa450f2ab44d4ea9",
    "level_k_exact_br": "91db45cf6c9ad5789eb3ac97d45f5fac6553a574dc4b18f7cf0f04c573e0e95b",
    "level_k_qbr": "4930600663f9ecb7f6ac6346a98d90f75c4ac8a32153603c521ff7739477830e",
    "cognitive_hierarchy_exact_br":
        "e6d86e1fa399e61a46afa679c3835cf42af136c9349e9852cc02eb7e1f2d8250",
    "cognitive_hierarchy_qbr":
        "0758bd445d6264eaf6add4cbed409f2a763e9a277b35a6706a3cbe7de0606d5b",
    "noisy_introspection": "f102788e0380ff17e5c78dd87aaca8c37319a0971510dc099b6a3b4b980c79ba",
}


@pytest.mark.parametrize("name", MODELS)
def test_predictions_are_pinned(name):
    games = CORPUS[:QRE_GAMES] if name == "logit_qbr" else CORPUS
    model = MODELS[name]
    solved = []

    def predict(game, lam):
        profile = model(lam).predict_profile(game)
        solved.append((game, lam, profile))
        return profile

    lines = [_outcome(lambda: predict(game, lam)) for game, lam in games]
    assert _digest(lines) == PREDICTIONS[name]
    if name == "logit_qbr":  # each solved profile is a fixed point of the oracle's response
        residuals = [oracle.qre_residual(oracle.game_tensor(game.to_dict()),
                                         [s.weights for s in profile], lam)
                     for game, lam, profile in solved]
        assert len(residuals) == 99
        assert max(residuals) < 1e-9


@pytest.mark.parametrize("name", [name for name in MODELS if name != "logit_qbr"])
def test_predictions_match_the_oracle(name):
    """Every non-QRE configuration agrees with the benchmark's einsum oracle."""
    compared, moved = 0, []
    for index, (game, lam) in enumerate(CORPUS):
        model = MODELS[name](lam)
        payoffs = oracle.game_tensor(game.to_dict())
        if name == "epsilon_nash" and not oracle.pure_nash(payoffs):
            continue  # the model raises there; the oracle falls back to uniform
        expected = oracle.predict(payoffs, model_to_dict(model))
        gap = max(float(np.max(np.abs(s.as_array() - e)))
                  for s, e in zip(model.predict_profile(game), expected))
        compared += 1
        if not gap <= 1e-12:
            moved.append((index, game.action_counts, gap))
    assert moved == []
    assert compared == (360 if name == "epsilon_nash" else CORPUS_GAMES)


# Two-player corpus games of at most three actions each, for the dataset.
DATASET_GAMES = [game for game, _ in CORPUS
                 if game.num_players == 2 and max(game.action_counts) <= 3]


def _dataset():
    model = CognitiveHierarchy(1.5, 3, response="qbr", precision=1.0)
    return sample_observations(model, DATASET_GAMES, 600, seed=11)


def test_sample_observations_is_pinned():
    lines = [repr((obs.player, obs.action)) for obs in _dataset()]
    assert _digest(lines) == "0b248b527aec4c180eae1c77b43c685b9d9d90d4175a5ce43168b91ecf579a13"


# precision -> digest; at 2.0 one game's solve fails, and the pin keeps it
LOG_LIKELIHOODS = {
    0.5: "912fc73cdbc6dbc6d474d61904040c7db67b53a0ec134839371a9ae9c1b2efbc",
    2.0: "b2754d778566f8fa24f9864fc9ba73833a69b3949a8d67d81dc5cb3d7f43dd29",
    5.0: "d8b575e698dace1425e41b9e6d0e4ca55b8fcb7a1e6befe344bccbf8fb8ee70f",
}


@pytest.mark.parametrize("precision", LOG_LIKELIHOODS)
def test_log_likelihood_is_pinned(precision):
    data = _dataset()
    line = _outcome(lambda: log_likelihood(qbr_family(), (precision,), data))
    assert _digest([line]) == LOG_LIKELIHOODS[precision]
