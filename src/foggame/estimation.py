"""Fitting behavioral-model parameters to observed choices.

An observation is one discrete choice: a game, the player who moved, and the
action they picked; a dataset is a plain sequence of observations (the
loaders return a tuple).  A model family maps a parameter vector to a
behavioral model and declares each parameter's range once, by the model
field it sets; the log-likelihood of the vector sums the log predicted
probability of each chosen action.  Fitting is derivative-free — a coarse
grid over a box read against those ranges, followed by golden-section
coordinate refinement, sized by a :class:`SearchOptions` — because the
likelihood surfaces of mixture models are piecewise-smooth with plateaus
where gradient methods stall.

Predicted probabilities are floored at ``PROB_FLOOR`` before the log so a
single zero-probability observation (possible under degenerate models such
as a hard best response) cannot send the objective to −∞.  ``fit_result.json``
records the floor so downstream consumers can see it was in effect.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Annotated, Callable, Iterable, Sequence

import numpy as np

from . import behavior
from .behavior import (
    Epsilon,
    EpsilonNash,
    FixedPointError,
    LevelK,
    LevelWeight,
    LogitQBR,
    Precision,
    ResponseKind,
    _check_response,
)
from .games import NormalFormGame
from .schema import ConfigError, Finite, Items, Range, as_int, check_fields, read_value

__all__ = [
    "FitResult", "ModelFamily", "Observation", "cross_validate", "epsilon_nash_family",
    "fit_mle", "level_k_family", "load_observations", "log_likelihood", "qbr_family",
    "sample_observations", "save_observations",
]

PROB_FLOOR = 1e-12

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Observation:
    """One observed discrete choice."""

    game: NormalFormGame
    player: Annotated[int, Range(ge=0)]
    action: Annotated[int, Range(ge=0)]

    def __post_init__(self) -> None:
        check_fields(self)
        if self.player >= self.game.num_players:
            raise ValueError(f"player {self.player} out of range")
        if self.action >= self.game.action_counts[self.player]:
            raise ValueError(
                f"action {self.action} out of range for player {self.player}"
            )


def save_observations(observations: Iterable[Observation], path: str | Path) -> None:
    """Write one JSON object per line: {"game": ..., "player": ..., "action": ...}."""
    with open(path, "w") as handle:
        for obs in observations:
            record = {
                "game": obs.game.to_dict(),
                "player": obs.player,
                "action": obs.action,
            }
            handle.write(json.dumps(record) + "\n")


def load_observations(path: str | Path) -> tuple[Observation, ...]:
    """Read a JSON-lines observation file.

    Blank lines are ignored.  Malformed lines do not abort the scan; they are
    collected and reported together in a single error naming every offending
    line number.  Equal games share one :class:`NormalFormGame` object, and a
    line that, stripped, repeats an earlier good line character for character
    is parsed once and yields that line's :class:`Observation` object again.
    """
    observations: list[Observation] = []
    games: dict[NormalFormGame, NormalFormGame] = {}
    # Keyed on the text, not the parsed record: True == 1 == 1.0 in Python,
    # but only the text keeps a rejected `true` apart from an accepted `1`.
    parsed: dict[str, Observation] = {}
    bad: list[tuple[int, str]] = []
    with open(path) as handle:
        for line_number, line in enumerate(handle, start=1):
            text = line.strip()
            if not text:
                continue
            obs = parsed.get(text)
            if obs is None:
                try:
                    record = json.loads(text)
                    game = NormalFormGame.from_dict(record["game"])
                    game = games.setdefault(game, game)
                    obs = Observation(game, record["player"], record["action"])
                except (ValueError, KeyError, TypeError) as exc:
                    bad.append((line_number, str(exc)))
                    continue
                parsed[text] = obs
            observations.append(obs)
    if bad:
        numbers = ", ".join(str(n) for n, _ in bad)
        raise ValueError(
            f"malformed observation lines: {numbers} (first error: {bad[0][1]})"
        )
    return tuple(observations)


Bounds = tuple[Annotated[tuple[Finite, Finite], Items(ordered=True)], ...]


@dataclass(frozen=True)
class ModelFamily:
    """A named, parameterized slice of model space.

    ``params`` declares each parameter once, as ``(name, type, default)``: the
    annotated type of the model field it sets, whose ``Range`` is its rule,
    and its ``(low, high)`` in the default search box ``bounds``.  ``build``
    maps a parameter vector to a behavioral model.  ``simplex_groups`` lists
    index groups (mixture weights) that ``build`` normalizes to sum to one, so
    the likelihood is scale-invariant within each; a group of zeros is no model.
    """

    name: str
    params: tuple[tuple[str, object, tuple[float, float]], ...]
    build: Callable[[tuple[float, ...]], object]
    simplex_groups: tuple[tuple[int, ...], ...] = ()

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.params)

    @property
    def bounds(self) -> tuple[tuple[float, float], ...]:
        return tuple(default for _, _, default in self.params)

    @property
    def num_params(self) -> int:
        return len(self.params)

    def _read_bounds(self, bounds: Bounds, key: str, sized_by: str | None = None) -> Bounds:
        """``bounds`` as a box of this family: an ordered pair per parameter, read by its
        type under ``<key>.<name>``, and each simplex group's highs with a finite sum > 0.
        ``sized_by``, if given, is the key that set the number of parameters."""
        box = read_value(bounds, Bounds, key)
        if len(box) != self.num_params:
            source = f" (set by {sized_by})" if sized_by else ""
            raise ConfigError(f"{key}: family {self.name!r} has {self.num_params} "
                              f"parameters{source}, got {len(box)} bounds")
        for (name, hint, _), pair in zip(self.params, box):
            read_value(pair, tuple[hint, hint], f"{key}.{name}")
        for group in self.simplex_groups:  # build divides by the group's sum
            names, total = [self.params[i][0] for i in group], sum(box[i][1] for i in group)
            if not 0 < total < math.inf:
                raise ConfigError(f"{key}.{names[0]}: the highs of {', '.join(names)} must "
                                  f"have a positive finite sum, got {total!r}")
        return box


_FITTED_PRECISION = ("precision", Precision, (0.0, 10.0))


def qbr_family() -> ModelFamily:
    """Logit quantal-response-equilibrium family; one precision parameter."""

    def build(theta: tuple[float, ...]) -> LogitQBR:
        return LogitQBR(precision=theta[0])

    return ModelFamily("logit_qbr", (_FITTED_PRECISION,), build)


def epsilon_nash_family() -> ModelFamily:
    """Nash-with-trembles family; one error-rate parameter.

    The uniform fallback keeps the likelihood defined on games without a
    pure equilibrium (those observations are then uninformative about the
    error rate rather than fatal).
    """

    def build(theta: tuple[float, ...]) -> EpsilonNash:
        return EpsilonNash(epsilon=theta[0], no_nash_fallback="uniform")

    return ModelFamily("epsilon_nash", (("epsilon", Epsilon, (0.0, 1.0)),), build)


# The cap on level_k_family's num_levels.  The fit grid has grid_points **
# num_params points: on a 2-core Xeon one level-k likelihood of the shipped
# 1000 rows takes about 2 ms at any level count, so the default 11-point grid
# takes about 6 minutes at 5 levels (161,051 points), 11 times that with a
# fitted precision.  The budget over both keys is still open.
NUM_LEVELS_LIMIT = 5
NumLevels = Annotated[int, Range(ge=1, le=NUM_LEVELS_LIMIT)]


def level_k_family(
    num_levels: NumLevels,
    response: ResponseKind = "exact_br",
    precision: Precision | None = None,
) -> ModelFamily:
    """Mixture over reasoning levels 0..num_levels-1, at most ``NUM_LEVELS_LIMIT``.

    Parameters are the level weights (a simplex group, renormalized inside
    ``build``) plus a trailing precision parameter when ``response`` is
    ``"qbr"`` and no fixed ``precision`` is supplied.
    """
    num_levels = read_value(num_levels, NumLevels, "num_levels")
    precision = read_value(precision, Precision | None, "precision")
    fit_precision = response == "qbr" and precision is None
    if not fit_precision:
        _check_response(response, precision)
    params = tuple((f"weight_{k}", LevelWeight, (0.0, 1.0)) for k in range(num_levels))
    if fit_precision:
        params += (_FITTED_PRECISION,)

    def build(theta: tuple[float, ...]) -> LevelK:
        weights = np.asarray(theta[:num_levels], dtype=float)
        total = float(weights.sum())
        if total <= 0:
            raise ValueError("level weights must not all be zero")
        weights = weights / total
        return LevelK(
            level_weights=tuple(float(w) for w in weights),
            response=response,
            precision=theta[num_levels] if fit_precision else precision,
        )

    return ModelFamily(f"level_k_{num_levels}", params, build, (tuple(range(num_levels)),))


def log_likelihood(
    family: ModelFamily,
    theta: Sequence[float],
    data: Sequence[Observation],
) -> float:
    """Sum of log predicted probabilities of the chosen actions.

    Probabilities are floored at ``PROB_FLOOR``, so the result is always
    finite.  Each distinct game is predicted once (by a :class:`LogitQBR`, in one
    stack per shape).  A :class:`FixedPointError` is re-raised naming ``theta``
    and the index in ``data`` of the earliest failing game's first observation.
    """
    theta = tuple(float(x) for x in theta)
    model = family.build(theta)
    first: dict[NormalFormGame, int] = {}  # each game's first observation
    for index, obs in enumerate(data):
        first.setdefault(obs.game, index)
    if isinstance(model, LogitQBR):
        shapes: dict[tuple[int, ...], list[NormalFormGame]] = {}
        for game in first:
            shapes.setdefault(game.action_counts, []).append(game)
        profiles = {game: answer for games in shapes.values()
                    for game, answer in zip(games, behavior._qbr_stack(games, model.precision))}
        for game, index in first.items():
            if isinstance(exc := profiles[game], FixedPointError):
                at = ", ".join(f"{n}={x!r}" for n, x in zip(family.param_names, theta))
                raise FixedPointError(
                    f"{exc} at {at}, game of observation {index}", exc.profile, exc.residual
                ) from exc
    else:
        profiles = {game: model.predict_profile(game) for game in first}
    total = 0.0
    for obs in data:
        total += math.log(max(profiles[obs.game][obs.player].weights[obs.action], PROB_FLOOR))
    return total


@dataclass(frozen=True)
class FitResult:
    params: tuple[float, ...]
    log_likelihood: float
    evaluations: int
    param_names: tuple[str, ...] = ()
    cv_score: float | None = None


# Caps on SearchOptions.  On a 2-core Xeon, `foggame fit configs/fit_qbr.json`
# (one parameter, 1000 rows; 11 grid points, 30 steps) takes 2.7 s; with
# grid_points at its cap 4.6 s, with refine_iters at its cap 6.1 s.  Steps
# past about 80 probe points the fit has already scored, so refine_iters costs
# little beyond that; the grid has grid_points ** num_params points.
GRID_POINTS_LIMIT = 101
REFINE_ITERS_LIMIT = 1000


@dataclass(frozen=True)
class SearchOptions:
    """Grid points per axis and golden-section steps of :func:`fit_mle`,
    capped at ``GRID_POINTS_LIMIT`` and ``REFINE_ITERS_LIMIT``."""

    grid_points: Annotated[int, Range(ge=3, le=GRID_POINTS_LIMIT)] = 11
    refine_iters: Annotated[int, Range(ge=0, le=REFINE_ITERS_LIMIT)] = 40

    def __post_init__(self) -> None:
        check_fields(self)


class _Tracker:
    """Counts objective evaluations, computes each distinct θ once (−∞, with no
    model, if a simplex group sums to 0), and remembers the best point ever seen."""

    def __init__(self, objective: Callable[[Sequence[float]], float], groups: tuple):
        self.objective = objective
        self.groups = groups
        self.evaluations = 0
        self.values: dict[tuple[float, ...], float] = {}
        self.best_theta: tuple[float, ...] | None = None
        self.best_value = -math.inf

    def __call__(self, theta: Sequence[float]) -> float:
        self.evaluations += 1
        key = tuple(float(x) for x in theta)
        value = self.values.get(key)
        if value is None:
            empty = any(sum(key[i] for i in group) == 0 for group in self.groups)
            value = self.values[key] = -math.inf if empty else self.objective(key)
        if value > self.best_value:
            self.best_value = value
            self.best_theta = key
        return value


def _golden_max(
    line: Callable[[float], float], lo: float, hi: float, iters: int
) -> tuple[float, float]:
    """Golden-section maximization on [lo, hi]; returns the best probe."""
    best_x, best_v = lo, line(lo)
    v_hi = line(hi)
    if v_hi > best_v:
        best_x, best_v = hi, v_hi
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = line(c), line(d)
    for x, v in ((c, fc), (d, fd)):
        if v > best_v:
            best_x, best_v = x, v
    for _ in range(iters):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = line(c)
            if fc > best_v:
                best_x, best_v = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = line(d)
            if fd > best_v:
                best_x, best_v = d, fd
    return best_x, best_v


def fit_mle(
    family: ModelFamily,
    data: Sequence[Observation],
    bounds: Bounds,
    search: SearchOptions = SearchOptions(),
) -> FitResult:
    """Maximize the dataset log-likelihood over the family's parameter box.

    ``bounds`` is read before any evaluation, each end by its parameter's
    type (``bounds.precision: must be >= 0, got -5.0``).  A point whose
    simplex group sums to 0 scores −∞; any other model error is raised.
    Stage one evaluates a full Cartesian grid (``search.grid_points`` per
    axis); stage two runs two cycles of per-coordinate golden-section
    refinement (``search.refine_iters`` shrink steps each) inside the grid
    cell around the best point, renormalizing simplex groups after each
    coordinate move.
    The result is the best point over *all* evaluations, so it can never be
    worse than any grid point.  Fully deterministic.
    """
    if len(data) == 0:
        raise ValueError("dataset is empty")
    box = family._read_bounds(bounds, "bounds")
    evaluate = _Tracker(lambda theta: log_likelihood(family, theta, data), family.simplex_groups)

    axes = [np.linspace(lo, hi, search.grid_points) for lo, hi in box]
    for point in product(*axes):
        evaluate(point)

    theta = list(evaluate.best_theta)
    cells = [(hi - lo) / (search.grid_points - 1) for lo, hi in box]
    in_group = {i: group for group in family.simplex_groups for i in group}
    if search.refine_iters > 0:
        for _cycle in range(2):
            for i in range(family.num_params):
                lo = max(box[i][0], theta[i] - cells[i])
                hi = min(box[i][1], theta[i] + cells[i])
                if hi <= lo:
                    continue

                def line(x: float, i: int = i) -> float:
                    probe = list(theta)
                    probe[i] = x
                    return evaluate(probe)

                x_best, v_best = _golden_max(line, lo, hi, search.refine_iters)
                if math.isfinite(v_best) and v_best >= evaluate.best_value:
                    theta[i] = x_best
                group = in_group.get(i)
                if group is not None:  # theta's groups never sum to 0: such points score -inf
                    total = sum(theta[j] for j in group)
                    scaled = {j: theta[j] / total for j in group}
                    if all(box[j][0] <= scaled[j] <= box[j][1] for j in group):
                        for j in group:
                            theta[j] = scaled[j]

    best_theta = list(evaluate.best_theta)
    for group in family.simplex_groups:
        total = sum(best_theta[j] for j in group)
        for j in group:
            best_theta[j] /= total
    return FitResult(
        params=tuple(best_theta),
        log_likelihood=evaluate.best_value,
        evaluations=evaluate.evaluations,
        param_names=family.param_names,
    )


def fold_indices(
    num_observations: int, k: int, seed: int
) -> list[np.ndarray]:
    """Seeded permutation split into k near-equal contiguous folds."""
    k = read_value(k, Annotated[int, Range(ge=2)], "k")
    seed = as_int(seed, "seed")
    if num_observations < k:
        raise ValueError(
            f"dataset of {num_observations} observations cannot form {k} folds"
        )
    order = np.random.default_rng(seed).permutation(num_observations)
    return np.array_split(order, k)


def cross_validate(
    family: ModelFamily,
    data: Sequence[Observation],
    k: int,
    bounds: Bounds,
    search: SearchOptions = SearchOptions(),
    seed: int = 0,
) -> float:
    """K-fold CV: the mean per-observation held-out log-likelihood.

    Folds come from a seeded shuffle, so the same seed reproduces the same
    assignment and score exactly.  The mean weights every observation
    equally (total held-out log-likelihood over the dataset size).
    """
    total = 0.0
    for fold in fold_indices(len(data), k, seed):
        held_out = set(fold.tolist())
        train = [obs for i, obs in enumerate(data) if i not in held_out]
        fitted = fit_mle(family, train, bounds, search)
        total += log_likelihood(family, fitted.params, [data[i] for i in sorted(held_out)])
    return total / len(data)


def sample_observations(
    model: object,
    games: Sequence[NormalFormGame],
    num_observations: int,
    seed: int = 0,
) -> tuple[Observation, ...]:
    """Draw synthetic choices from a model's predictions.

    Games are visited round-robin; the moving player is drawn uniformly and
    the action from the model's predicted strategy for that seat.  Output is
    a pure function of (model, games, num_observations, seed).
    """
    num_observations = read_value(num_observations, Annotated[int, Range(ge=1)],
                                  "num_observations")
    seed = as_int(seed, "seed")
    games = read_value(games, Annotated[tuple[NormalFormGame, ...], Items()], "games")
    rng = np.random.default_rng(seed)
    cache: dict[NormalFormGame, list[np.ndarray]] = {}
    observations = []
    for i in range(num_observations):
        game = games[i % len(games)]
        player = int(rng.integers(game.num_players))
        profile = cache.get(game)
        if profile is None:
            profile = cache[game] = [s.as_array() for s in model.predict_profile(game)]
        probs = profile[player]
        action = int(rng.choice(len(probs), p=probs))
        observations.append(Observation(game=game, player=player, action=action))
    return tuple(observations)
