"""Bounded-rational choice models over normal-form games.

Every model maps a game to a whole strategy profile (``predict_profile``),
solving or recursing over all players together.  The family covers:

* ``BestResponse`` — exact best response to uniform opponent play, ties
  broken uniformly.
* ``EpsilonNash`` — play the first pure Nash profile's action with
  probability ``1 - epsilon``, spreading ``epsilon`` over the rest.
* ``LogitQBR`` — the logit quantal-response fixed point of the whole game.
* ``LevelK`` — iterated best/logit response seeded at a level-0 anchor,
  mixed across levels by an explicit weight vector.
* ``CognitiveHierarchy`` — each level responds to a truncated, renormalized
  Poisson mixture of all strictly lower levels.
* ``NoisyIntrospection`` — iterated logit response whose precision decays
  geometrically with reasoning depth, truncated at a uniform anchor.

Every model takes its expected utilities from the one contraction kernel in
:mod:`foggame.games`.  Inside this module a strategy profile is a list of
float arrays, one per player; inputs are validated where they enter (model
constructors, and a user-supplied ``level0`` against the game) and
:class:`~foggame.games.MixedStrategy` values are built only for the returned
profile.

All predictions are deterministic; sampling lives in :mod:`foggame.estimation`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Annotated, Callable, Literal, Sequence, Union

import numpy as np

from .games import (
    SUMS_TO_ONE,
    TIE_TOL,
    MixedStrategy,
    NormalFormGame,
    _eu_kernel,
    pure_nash,
)
from .schema import Range, as_json, check_fields, read, read_value

__all__ = [
    "BestResponse", "CognitiveHierarchy", "EpsilonNash", "FixedPointError", "LevelK",
    "LogitQBR", "NoEquilibriumError", "NoisyIntrospection", "model_from_dict", "model_to_dict",
    "qbr_equilibrium",
]


class NoEquilibriumError(ValueError):
    """Raised when a model requires a pure Nash profile and none exists."""


class FixedPointError(RuntimeError):
    """Quantal-response iteration failed to reach the residual tolerance.

    Carries the last iterate and its residual so callers can inspect how
    close the search got.
    """

    def __init__(self, message: str, profile: list[MixedStrategy], residual: float):
        super().__init__(message)
        self.profile = profile
        self.residual = residual


def _softmax(z: np.ndarray) -> np.ndarray:
    """Logit weights over the first axis of ``z``, computed in ``z``'s memory."""
    z -= np.maximum.reduce(z)  # so the weights cannot overflow
    np.exp(z, z)
    z /= np.add.reduce(z)
    return z


def _uniform_profile(game: NormalFormGame) -> list[np.ndarray]:
    return [np.full(n, 1.0 / n) for n in game.action_counts]


def _profile_slices(counts: Sequence[int]) -> list[slice]:
    edges = np.concatenate([[0], np.cumsum(counts)])
    return [slice(int(a), int(b)) for a, b in zip(edges, edges[1:])]


# The QRE solver's step size and floor, response budget, residual target, stalls before a polish.
_DAMPING = 0.5
_MIN_STEP = 1e-3
_MAX_ITERS = 10_000
_TOL = 1e-10
_STALL_LIMIT = 30


Precision = Annotated[float, Range(ge=0)]
Epsilon = Annotated[float, Range(ge=0, le=1)]
LevelWeight = Annotated[float, Range(ge=0)]

# Caps on the recursion depths.  On a 2-core Xeon a 3-player game with 5
# actions each takes 2.5 s at max_level LEVEL_LIMIT (the cost grows with its
# square) and 0.36 s at max_depth DEPTH_LIMIT (linear).
LEVEL_LIMIT = 1000
DEPTH_LIMIT = 10_000


def qbr_equilibrium(game: NormalFormGame, precision: float) -> list[MixedStrategy]:
    """Damped fixed-point iteration for the logit quantal-response equilibrium.

    Starting from the uniform profile, each step moves every player's
    mixture a ``_DAMPING`` fraction toward their logit response to the
    current profile.  Two safeguards handle games where the plain iteration
    cycles or spirals too slowly (adversarial payoffs at high precision):
    when the residual stops improving, the iterate is polished with a
    root-finder seeded at the best point so far, and failing that the step
    is halved and the search resumes from that best point.  The returned
    profile always satisfies ``max |sigma - response(sigma)| < _TOL``;
    :class:`FixedPointError` carries the best iterate and its residual when
    no such point is found within ``_MAX_ITERS`` response evaluations.
    Deterministic throughout.  This is :func:`_qbr_stack` on a stack of one
    game; a stack solves games of one shape in lockstep, bit for bit alike.
    """
    (answer,) = _qbr_stack([game], precision)
    if isinstance(answer, FixedPointError):
        raise answer
    return answer


def _qbr_stack(
    games: Sequence[NormalFormGame], precision: float
) -> list[list[MixedStrategy] | FixedPointError]:
    """Each game's :func:`qbr_equilibrium` profile, or the error it raises.

    Games of one shape step in lockstep, one per column, each with its own step
    size, best point, best residual and stall count; each leaves once it
    converges, and the last one left runs on a plain vector: a stack of one
    would pay the stacked kernel's per-call reshaping with nothing to batch
    (on a 2×2 game 2.6 against 1.2 µs per expected-utility call, and 6.2–6.7
    against 5.7–5.9 ms per λ = 2 likelihood of the shipped data).  Every
    answer is bit for bit the one the game gets alone.
    """
    lam = read_value(precision, Precision, "precision")
    slices = _profile_slices(games[0].action_counts)
    n = len(games)
    answers: list = [None] * n
    # Per game: step size, best residual, stall count, best point (views: no iterate is rewritten).
    step, best_residual, stall = [_DAMPING] * n, [math.inf] * n, [0] * n
    best = [np.concatenate(_uniform_profile(games[0]))] * n
    live = kept = list(range(n))  # the game in each column of x; the columns to keep
    x = np.array(best).T
    for _ in range(_MAX_ITERS):
        if kept is not None:  # the stack changed: rebuild it from the kept columns
            live, kept = [live[col] for col in kept], kept if len(kept) > 1 else kept[0]
            x = x.T[kept].T
            stacked = x.ndim > 1
            payoffs = [games[g].payoffs for g in live]
            eu = _eu_kernel(np.stack(payoffs) if stacked else payoffs[0], stacked)
            cols = [np.s_[:, col] for col in range(len(live))] if stacked else [...]
            steps = np.array([step[g] for g in live]) if stacked else step[live[0]]
            f = np.empty_like(x)
            excess, kept = [f[b] for b in slices], None
        xs = [x[b] for b in slices]
        for p, block in enumerate(excess):  # each player's logit response, less x
            np.subtract(_softmax(lam * eu[p](xs)), xs[p], block)
        residuals = np.maximum.reduce(np.abs(f)).tolist()
        # x + steps * f mixes two points of the simplex with a weight of at
        # most 1/2, so no entry is negative and only the sums need restoring.
        nxt = x + steps * f
        for block in map(nxt.__getitem__, slices):
            block /= np.add.reduce(block)
        finished = []
        for col, residual in enumerate(residuals if x.ndim > 1 else [residuals]):
            g, at = live[col], cols[col]
            if residual < best_residual[g]:
                if residual < _TOL:
                    answers[g] = [MixedStrategy(x[at][b]) for b in slices]
                    finished.append(col)
                else:
                    best_residual[g], best[g], stall[g] = residual, x[at], 0
                continue
            stall[g] += 1
            blown = residual > 4.0 * best_residual[g]
            if not blown and stall[g] < _STALL_LIMIT:
                continue
            stall[g] = 0
            polished = None if blown else _polish(games[g], best[g], best_residual[g], slices, lam)
            if polished is None:  # blown well past the best point, or no better polish:
                step[g] = max(step[g] * 0.5, _MIN_STEP)  # retreat there, smaller step
                steps = np.array([step[i] for i in live]) if x.ndim > 1 else step[g]
            nxt[at] = best[g] if polished is None else polished
        if len(finished) == len(live):
            return answers
        kept = [col for col in range(len(live)) if col not in finished] if finished else None
        x = nxt
    for g in live:
        residual, profile = best_residual[g], [MixedStrategy(best[g][b]) for b in slices]
        message = f"no fixed point within {_MAX_ITERS} iterations (residual {residual:.3e})"
        answers[g] = FixedPointError(message, profile, residual)
    return answers


def _polish(game, start, best_residual, slices, lam) -> np.ndarray | None:
    """The root-finder's point from ``start``, if it beats ``best_residual``."""
    from scipy.optimize import root  # loaded here, so runs that never polish skip it

    eu = _eu_kernel(game.payoffs)

    def excess(y: np.ndarray) -> np.ndarray:
        return np.concatenate(_respond_all(eu, [y[b] for b in slices], "qbr", lam)) - y

    polished = np.maximum(root(excess, start, method="hybr").x, 0.0)
    for b in slices:  # back onto the simplex, unless a block collapses
        total = np.add.reduce(polished[b])
        if not math.isfinite(total) or total <= 0.0:
            return None
        polished[b] /= total
    return polished if np.maximum.reduce(np.abs(excess(polished))) < best_residual else None


Level0 = Union[tuple[MixedStrategy, ...], None]
ResponseKind = Literal["exact_br", "qbr"]


def _level0_profile(game: NormalFormGame, level0: Level0) -> list[np.ndarray]:
    """The level-0 profile as arrays, after checking it fits ``game``."""
    if level0 is None:
        return _uniform_profile(game)
    if len(level0) != game.num_players:
        raise ValueError(
            f"level-0 profile has {len(level0)} strategies for "
            f"{game.num_players} players"
        )
    for i, strat in enumerate(level0):
        if strat.num_actions != game.action_counts[i]:
            raise ValueError(f"level-0 strategy for player {i} has the wrong length")
    return [strat.as_array() for strat in level0]


def _respond_all(
    eu: Sequence[Callable[[Sequence[np.ndarray]], np.ndarray]],
    profile: Sequence[np.ndarray],
    response: ResponseKind,
    precision: float | None,
) -> list[np.ndarray]:
    """Every player's response to ``profile``, given the game's
    :func:`~foggame.games._eu_kernel`: uniform over the actions within
    ``TIE_TOL`` of the best (exact_br), or logit weights at ``precision``."""
    out = []
    for player_eu in eu:
        values = player_eu(profile)
        if response == "exact_br":
            support = values >= np.maximum.reduce(values) - TIE_TOL
            out.append(support / np.add.reduce(support))
        else:
            out.append(_softmax(precision * values))
    return out


def _strategies(arrays) -> tuple[MixedStrategy, ...]:
    return tuple(MixedStrategy(a) for a in arrays)


def _mix(weights: Sequence[float], strategies: Sequence[np.ndarray]) -> np.ndarray:
    """``sum(weights[k] * strategies[k])``, added level by level from zero."""
    acc = np.zeros_like(strategies[0])
    for w, strat in zip(weights, strategies):
        acc += w * strat
    return acc


def _check_response(response: str, precision: float | None) -> None:
    """Raise unless ``precision`` is set exactly when ``response`` is qbr."""
    if response not in ("exact_br", "qbr"):
        raise ValueError(f"unknown response kind {response!r}")
    if response == "exact_br" and precision is not None:
        raise ValueError("precision applies only to the qbr response")
    if response == "qbr" and precision is None:
        raise ValueError("precision must be set for the qbr response")


@dataclass(frozen=True)
class BestResponse:
    """Exact best response to uniform opponent play; ties broken uniformly."""

    def predict_profile(self, game: NormalFormGame) -> tuple[MixedStrategy, ...]:
        return _strategies(
            _respond_all(_eu_kernel(game.payoffs), _uniform_profile(game), "exact_br", None)
        )


@dataclass(frozen=True)
class EpsilonNash:
    """Nash play with an epsilon chance of spreading over the other actions.

    The target profile is the lexicographically first pure Nash equilibrium.
    With no pure equilibrium the model either raises
    :class:`NoEquilibriumError` or falls back to uniform, per
    ``no_nash_fallback``.
    """

    epsilon: Epsilon
    no_nash_fallback: Literal["error", "uniform"] = "error"

    def __post_init__(self) -> None:
        check_fields(self)

    def predict_profile(self, game: NormalFormGame) -> tuple[MixedStrategy, ...]:
        equilibria = pure_nash(game)
        if not equilibria:
            if self.no_nash_fallback == "uniform":
                return _strategies(_uniform_profile(game))
            raise NoEquilibriumError("game has no pure Nash equilibrium")
        profile = []
        for target, n in zip(equilibria[0], game.action_counts):
            if n == 1:
                profile.append(MixedStrategy((1.0,)))
                continue
            w = [self.epsilon / (n - 1)] * n
            w[target] = 1.0 - self.epsilon
            profile.append(MixedStrategy(w))
        return tuple(profile)


@dataclass(frozen=True)
class LogitQBR:
    """Logit quantal-response equilibrium play at a fixed precision."""

    precision: Precision

    def __post_init__(self) -> None:
        check_fields(self)

    def predict_profile(self, game: NormalFormGame) -> tuple[MixedStrategy, ...]:
        return tuple(qbr_equilibrium(game, self.precision))


@dataclass(frozen=True)
class LevelK:
    """Mixture over iterated-response levels.

    ``level_weights[k]`` is the share of level-k reasoners; each player's
    prediction is their weight-mixed strategy across levels
    ``0..len(level_weights) - 1``, where level k players respond to
    opponents playing their level k-1 strategies.
    """

    level_weights: Annotated[tuple[LevelWeight, ...], SUMS_TO_ONE]
    level0: Level0 = None
    response: ResponseKind = "exact_br"
    precision: Precision | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        _check_response(self.response, self.precision)

    def predict_profile(self, game: NormalFormGame) -> tuple[MixedStrategy, ...]:
        eu = _eu_kernel(game.payoffs)
        levels = [_level0_profile(game, self.level0)]
        for _ in range(len(self.level_weights) - 1):
            levels.append(_respond_all(eu, levels[-1], self.response, self.precision))
        return _strategies(
            _mix(self.level_weights, [lv[p] for lv in levels])
            for p in range(game.num_players)
        )


def _truncated_poisson(mean: float, count: int) -> np.ndarray:
    """Poisson(mean) pmf over 0..count-1, renormalized to sum to one."""
    logs = [k * math.log(mean) - math.lgamma(k + 1) for k in range(count)]
    top = max(logs)
    w = np.exp(np.asarray(logs) - top)
    return w / w.sum()


@dataclass(frozen=True)
class CognitiveHierarchy:
    """Poisson cognitive hierarchy, predicting the level-``max_level`` players.

    A level-k player responds to the mixture of levels ``0..k-1`` weighted by
    a Poisson pmf truncated and renormalized over those levels.
    """

    poisson_mean: Annotated[float, Range(gt=0)]
    max_level: Annotated[int, Range(ge=1, le=LEVEL_LIMIT)]
    level0: Level0 = None
    response: ResponseKind = "exact_br"
    precision: Precision | None = None

    def __post_init__(self) -> None:
        check_fields(self)
        _check_response(self.response, self.precision)

    def predict_profile(self, game: NormalFormGame) -> tuple[MixedStrategy, ...]:
        eu = _eu_kernel(game.payoffs)
        levels = [_level0_profile(game, self.level0)]
        pmf = _truncated_poisson(self.poisson_mean, self.max_level + 1)
        for k in range(1, self.max_level + 1):
            share = pmf[:k] / pmf[:k].sum()
            opponent_mix = [
                _mix(share, [lv[p] for lv in levels]) for p in range(game.num_players)
            ]
            levels.append(_respond_all(eu, opponent_mix, self.response, self.precision))
        return _strategies(levels[-1])


@dataclass(frozen=True)
class NoisyIntrospection:
    """Iterated logit response with geometrically decaying precision.

    The response at depth d uses precision ``precision * decay ** d``; the
    recursion starts from a uniform profile at ``max_depth`` (where the
    decayed precision makes the response approximately uniform anyway) and
    returns the depth-0 output.
    """

    precision: Precision
    decay: Annotated[float, Range(gt=0, lt=1)]
    max_depth: Annotated[int, Range(ge=1, le=DEPTH_LIMIT)]

    def __post_init__(self) -> None:
        check_fields(self)

    def predict_profile(self, game: NormalFormGame) -> tuple[MixedStrategy, ...]:
        eu = _eu_kernel(game.payoffs)
        profile = _uniform_profile(game)
        for depth in range(self.max_depth - 1, -1, -1):
            profile = _respond_all(eu, profile, "qbr", self.precision * self.decay**depth)
        return _strategies(profile)


BehavioralModel = Union[
    BestResponse,
    EpsilonNash,
    LogitQBR,
    LevelK,
    CognitiveHierarchy,
    NoisyIntrospection,
]


_MODEL_TAGS = {
    BestResponse: "best_response",
    EpsilonNash: "epsilon_nash",
    LogitQBR: "logit_qbr",
    LevelK: "level_k",
    CognitiveHierarchy: "cognitive_hierarchy",
    NoisyIntrospection: "noisy_introspection",
}


def _level0_from_json(data) -> Level0:
    """``"uniform"``, ``null`` or one weight list per player, read as numbers first."""
    hint = Literal["uniform"] | tuple[tuple[float, ...], ...] | None
    rows = read_value(data, hint, "params.level0")
    return None if rows in (None, "uniform") else tuple(MixedStrategy(r) for r in rows)


_TAG_MODELS = {tag: cls for cls, tag in _MODEL_TAGS.items()}


def model_to_dict(model: BehavioralModel) -> dict:
    """Tagged JSON-friendly form: ``{"model": tag, "params": {...}}``.

    ``params`` is the model's :func:`~foggame.schema.as_json` form, fields in
    declaration order, with an unset ``precision`` (exact best response) left
    out and ``level0`` written as ``"uniform"`` or a list of weight lists.
    """
    tag = _MODEL_TAGS.get(type(model))
    if tag is None:
        raise ValueError(f"unknown model type {type(model).__name__}")
    params: dict = {}
    for name, value in as_json(model).items():
        if name == "level0":
            value = "uniform" if value is None else [s["weights"] for s in value]
        if value is not None:
            params[name] = value
    return {"model": tag, "params": params}


@dataclass(frozen=True)
class ModelBlock:
    """A tagged model record, ``{"model": tag, "params": {...}}``: the input of
    :func:`model_from_dict` and a config's ``model`` block."""

    model: str
    params: dict = field(default_factory=dict)


def _model_from_block(block: ModelBlock) -> BehavioralModel:
    """The model ``block`` names, its ``params`` read through the model class's fields."""
    cls = _TAG_MODELS.get(block.model)
    if cls is None:
        raise ValueError(f"model: unknown model tag {block.model!r}")
    return read(cls, block.params, "params", {"level0": _level0_from_json})


def model_from_dict(data: dict) -> BehavioralModel:
    """Inverse of :func:`model_to_dict`; raises ``ValueError`` on bad input.

    The record is read as a :class:`ModelBlock` (see :mod:`foggame.schema`), so
    an unknown key, a missing or non-string tag and a non-object ``params`` are
    rejected, and each message starts with the part of the record at fault:
    ``model``, ``params`` or ``params.<name>``.  ``params`` is read through the
    model class's fields, so an unknown parameter, a value of the wrong type or
    one outside its field's range is rejected before the constructor runs; only
    ``level0`` has a JSON form of its own.
    """
    return _model_from_block(read(ModelBlock, data, ""))
