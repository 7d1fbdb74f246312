"""Finite normal-form games: payoff tensors, pure Nash, and :func:`_eu_kernel`,
the one expected-utility contraction every model in :mod:`foggame.behavior` uses.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Annotated, Callable, Sequence

import numpy as np

from .schema import Items, Range, as_number, as_object, check_fields, read_value

__all__ = [
    "TIE_TOL", "MixedStrategy", "NormalFormGame", "load_game", "pure_nash", "save_game",
]

# Actions whose expected utility is within TIE_TOL of the maximum count as
# best responses; pure_nash applies the same slack to deviation checks.
TIE_TOL = 1e-9
# Probability vectors (strategies, level weights, lottery probs) sum to one within this.
PROB_SUM_TOL = 1e-9
SUMS_TO_ONE = Items(total=1, slack=PROB_SUM_TOL)
_WEIGHT_EPS = 1e-12
_Weight = Annotated[float, Range(ge=-_WEIGHT_EPS, le=1 + _WEIGHT_EPS)]

ActionCounts = Annotated[tuple[Annotated[int, Range(ge=1)], ...], Items()]


@dataclass(frozen=True)
class MixedStrategy:
    """Probability distribution over a single player's actions."""

    weights: Annotated[tuple[_Weight, ...], SUMS_TO_ONE]

    def __post_init__(self) -> None:
        check_fields(self)

    @property
    def num_actions(self) -> int:
        return len(self.weights)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True, eq=False)
class NormalFormGame:
    """N-player finite game.

    ``payoffs`` has shape ``(num_players, *action_counts)``; entry
    ``payoffs[i, a_0, ..., a_{N-1}]`` is player i's payoff at that joint
    action profile.
    """

    action_counts: ActionCounts
    payoffs: np.ndarray

    def __post_init__(self) -> None:
        # payoffs take any array-like of integers or reals, which no field rule reads
        counts = read_value(self.action_counts, ActionCounts, "action_counts")
        try:
            tensor = np.asarray(self.payoffs)
        except ValueError as exc:  # a ragged nested list
            raise ValueError(f"payoffs: {exc}") from exc
        if tensor.dtype.kind not in "iuf":
            raise ValueError(f"payoffs: must be an array of real numbers, got dtype {tensor.dtype}")
        # a C-ordered copy: the expected-utility sums run in this layout's order
        tensor = tensor.astype(float, order="C")
        expected = (len(counts),) + counts
        if tensor.shape != expected:
            raise ValueError(f"payoff tensor shape {tensor.shape} != expected {expected}")
        if not np.all(np.isfinite(tensor)):
            raise ValueError("payoffs must be finite")
        tensor.setflags(write=False)
        object.__setattr__(self, "action_counts", counts)
        object.__setattr__(self, "payoffs", tensor)
        # The payoffs are read-only, so the hash is fixed; dict lookups reuse it.
        object.__setattr__(self, "_hash", hash((counts, tensor.tobytes())))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, NormalFormGame):
            return NotImplemented
        return self.action_counts == other.action_counts and np.array_equal(
            self.payoffs, other.payoffs
        )

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # Rebuilt when unpickled, since a bytes hash differs between processes.
        return NormalFormGame, (self.action_counts, self.payoffs)

    @property
    def num_players(self) -> int:
        return len(self.action_counts)

    def to_dict(self) -> dict:
        return {
            "action_counts": list(self.action_counts),
            "payoffs": {
                str(p): [float(x) for x in self.payoffs[p].ravel(order="C")]
                for p in range(self.num_players)
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "NormalFormGame":
        """Inverse of :meth:`to_dict`; ``payoffs`` needs exactly the keys
        ``"0"``…``"N-1"``, each a list of numbers.  Raises ``ValueError``."""
        try:
            counts = read_value(data["action_counts"], ActionCounts, "action_counts")
            raw = as_object(data["payoffs"], "payoffs")
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed game record: {exc}") from exc
        keys = [str(p) for p in range(len(counts))]
        unknown = [k for k in raw if k not in keys]
        if unknown:
            raise ValueError(f"payoffs: unknown player key {unknown[0]!r}")
        tensors = []
        size = int(np.prod(counts))
        for p, key in enumerate(keys):
            if key not in raw:
                raise ValueError(f"missing payoffs for player {p}")
            entry = raw[key]
            if not isinstance(entry, list):
                raise ValueError(f"payoffs.{key}: must be a list, got {entry!r}")
            for x in entry:
                # Plain JSON numbers pass at once; as_number judges the rest.
                if type(x) not in (float, int):
                    as_number(x, f"payoffs.{key}")
            if len(entry) != size:
                raise ValueError(
                    f"player {p} has {len(entry)} payoff entries, expected {size}"
                )
            tensors.append(np.asarray(entry, dtype=float).reshape(counts, order="C"))
        return cls(counts, np.stack(tensors))


def save_game(game: NormalFormGame, path: str | Path) -> None:
    Path(path).write_text(json.dumps(game.to_dict(), sort_keys=True, indent=2) + "\n")


def load_game(path: str | Path) -> NormalFormGame:
    return NormalFormGame.from_dict(json.loads(Path(path).read_text()))


def _eu_kernel(payoffs: np.ndarray, stacked: bool = False) -> list[Callable]:
    """One expected-utility function per player, prepared once per game.

    ``eu[i](arrays)`` is each of player i's actions' expected utility, unchecked:
    ``arrays[j]`` is player j's weight vector (the owner's entry is not read; probes
    may step off the simplex).  ``stacked`` payoffs have a leading axis over games of
    one shape, one per contiguous column of ``arrays[j]`` and of the result.  Opponent
    axes are contracted highest-first by ``np.matmul`` on the layout ``np.tensordot(t,
    arrays[j], axes=(j, 0))`` hands ``np.dot``, so the bits match, stacked or not,
    except that a one-term sum equal to -0.0 comes out 0.0.  A single game stays
    unstacked: the stacked form transposes and reshapes every array on each call,
    which makes a stack of one about twice as slow (2.6 against 1.2 µs, 2×2 game).
    """
    lead, tables = (payoffs.shape[:1], payoffs.swapaxes(0, 1)) if stacked else ((), payoffs)
    eus = [_player_eu(table, player, lead) for player, table in enumerate(tables)]
    return [lambda a, eu=eu: eu([v.T[..., None] for v in a]).T for eu in eus] if lead else eus


def _player_eu(table: np.ndarray, player: int, lead: tuple[int, ...]):
    k = len(lead)  # the stack axis, if any, stays first
    steps, shape = [], table.shape[k:]  # (opponent axis, axes with it last, shape before)
    for j in range(len(shape) - 1, -1, -1):
        if j != player:  # an axis above every one left is last already: no transpose
            order = [a for a in range(k + len(shape)) if a != k + j] + [k + j]
            steps.append((j, order if j < len(shape) - 1 else None, lead + shape))
            shape = shape[:j] + shape[j + 1 :]
    if not steps:
        return lambda arrays: table
    (j0, order, _), rest = steps[0], steps[1:]
    moved = table if order is None else table.transpose(order)
    first = moved.reshape(lead + (-1, table.shape[k + j0]))

    def eu(arrays: Sequence[np.ndarray | None]) -> np.ndarray:
        t = np.matmul(first, arrays[j0])
        for j, order, before in rest:
            if order is not None:
                t = t.reshape(before).transpose(order)
            t = np.matmul(t.reshape(lead + (-1, before[k + j])), arrays[j])
        return t.reshape(lead + shape) if lead else t

    return eu


def pure_nash(game: NormalFormGame) -> list[tuple[int, ...]]:
    """All pure-strategy Nash profiles, in lexicographic order.

    A profile qualifies when no player has a unilateral deviation that
    improves their payoff by more than ``TIE_TOL``.
    """
    stable = np.ones(game.action_counts, dtype=bool)
    for player, u in enumerate(game.payoffs):
        stable &= u.max(axis=player, keepdims=True) <= u + TIE_TOL
    return [tuple(profile) for profile in np.argwhere(stable).tolist()]
