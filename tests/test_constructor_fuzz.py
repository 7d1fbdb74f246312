"""Generated bad input for the public constructors.

Each example builds one input dataclass from a valid base with one field
changed to a value that its annotation or its range rules out: a wrong type,
a bool or a string for a number, NaN or ±inf, a non-integral number for an
integer, an empty list, a non-sequence, or an array whose elements are not
numbers.  The constructor must raise ``ValueError``, never ``TypeError`` or
``AttributeError``.  A second property
builds each one from loosely typed valid values (NumPy scalars, integral
floats, lists and arrays) and checks that every stored field has exactly its
annotated type.

The annotations are read here with plain ``typing`` calls, independently of
:mod:`foggame.schema`.
"""

from __future__ import annotations

import dataclasses
import math
import types
from typing import Literal, Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foggame.behavior import (
    CognitiveHierarchy,
    EpsilonNash,
    LevelK,
    LogitQBR,
    NoisyIntrospection,
)
from foggame.estimation import Observation, SearchOptions
from foggame.games import MixedStrategy, NormalFormGame
from foggame.market import FogScenario
from foggame.preferences import Lottery, ProspectParams, SocialPrefParams

GAME = NormalFormGame((2, 2), np.arange(8.0).reshape(2, 2, 2))
HALF = MixedStrategy((0.5, 0.5))

# constructor -> valid keyword arguments; fields left out keep their defaults
BASES = {
    FogScenario: {"num_nodes": 2, "budget": 10.0, "utility_weights": (1.0, 0.5),
                  "initial_prices": (1.0, 2.0), "price_caps": 5.0, "averaging_window": 5},
    Lottery: {"outcomes": (1.0, -2.0), "probs": (0.5, 0.5)},
    ProspectParams: {},
    SocialPrefParams: {},
    EpsilonNash: {"epsilon": 0.1},
    LogitQBR: {"precision": 1.0},
    LevelK: {"level_weights": (0.5, 0.5), "level0": (HALF, HALF),
             "response": "qbr", "precision": 1.0},
    CognitiveHierarchy: {"poisson_mean": 1.5, "max_level": 2, "level0": (HALF, HALF),
                         "response": "qbr", "precision": 1.0},
    NoisyIntrospection: {"precision": 1.0, "decay": 0.5, "max_depth": 3},
    MixedStrategy: {"weights": (0.25, 0.75)},
    Observation: {"game": GAME, "player": 1, "action": 0},
    SearchOptions: {},
    NormalFormGame: {"action_counts": (2, 2), "payoffs": GAME.payoffs},
}
HINTS = {cls: get_type_hints(cls) for cls in BASES}
FIELDS = [(cls, f.name) for cls in BASES for f in dataclasses.fields(cls)]

NON_SEQUENCES = st.sampled_from([{}, {"a": 1}, object()])
NOT_NUMBERS = st.one_of(st.booleans(), st.text(max_size=3), NON_SEQUENCES)
NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
FRACTIONS = st.floats(allow_nan=True, allow_infinity=True).filter(
    lambda x: not float(x).is_integer()
)
# the payoffs' shape with elements that are not integers or reals
NOT_NUMBER_ARRAYS = st.sampled_from(
    [GAME.payoffs.astype(kind) for kind in (bool, str, object, complex)]
    + [GAME.payoffs.astype(kind).tolist() for kind in (bool, str, complex)]
)


def _arms(hint) -> tuple[list, bool]:
    """A hint's arms other than ``None``, and whether it allows ``None``."""
    if get_origin(hint) in (Union, types.UnionType):
        args = get_args(hint)
        return [a for a in args if a is not type(None)], type(None) in args
    return [hint], False


def _bad(hint) -> st.SearchStrategy:
    """Values that every arm of ``hint`` rules out, whatever their range."""
    arms, optional = _arms(hint)
    choices = [] if optional else [st.none()]
    if float in arms:
        choices += [NOT_NUMBERS, NON_FINITE, st.just([])]
    for arm in arms:
        origin, args = get_origin(arm), get_args(arm)
        if arm is int:
            choices += [NOT_NUMBERS, FRACTIONS, st.just([])]
        elif arm is bool:
            choices += [st.integers(), st.floats(), st.text(max_size=3), NON_SEQUENCES]
        elif origin is Literal:
            choices += [st.text(max_size=8).filter(lambda s: s not in args),
                        st.integers(), NON_SEQUENCES]
        elif origin is tuple:
            item = args[0]
            choices += [NON_SEQUENCES, st.text(min_size=1, max_size=3).filter(str.isalpha)]
            if item is not MixedStrategy:  # an empty level-0 profile fails only against a game
                choices.append(st.sampled_from([[], ()]))
            choices.append(st.lists(_bad(item), min_size=1, max_size=3))
        elif isinstance(arm, type) and arm is not float:
            choices += [st.integers(), st.text(max_size=3), st.lists(st.floats(), max_size=2),
                        NON_SEQUENCES]
            if arm is np.ndarray:
                choices.append(NOT_NUMBER_ARRAYS)
    return st.one_of(choices)


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_one_bad_field_raises_value_error(data):
    cls, name = data.draw(st.sampled_from(FIELDS), label="field")
    bad = data.draw(_bad(HINTS[cls][name]), label="value")
    with pytest.raises(ValueError):
        cls(**{**BASES[cls], name: bad})


def _loose(value) -> st.SearchStrategy:
    """``value`` and equal values of other types that its field accepts."""
    if isinstance(value, bool) or not isinstance(value, (int, float, tuple)):
        return st.just(value)
    if isinstance(value, int):
        return st.sampled_from([value, np.int64(value), float(value), np.float64(value)])
    if isinstance(value, float):
        forms = [value, np.float64(value)]
        return st.sampled_from(forms + [int(value)] if value.is_integer() else forms)
    items = st.tuples(*[_loose(item) for item in value])
    forms = [items, items.map(list)]
    if all(isinstance(item, float) for item in value):
        forms.append(st.just(np.array(value)))
    return st.one_of(forms)


def _has_type(value, hint) -> bool:
    arms, optional = _arms(hint)
    if value is None:
        return optional
    for arm in arms:
        origin, args = get_origin(arm), get_args(arm)
        if origin is Literal:
            ok = value in args
        elif origin is tuple:
            ok = type(value) is tuple and all(_has_type(x, args[0]) for x in value)
        elif arm in (float, int, bool, str):
            ok = type(value) is arm
        else:
            ok = isinstance(value, arm)
        if ok:
            return True
    return False


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_stored_values_have_their_annotated_types(data):
    cls = data.draw(st.sampled_from(list(BASES)), label="constructor")
    kwargs = {name: data.draw(_loose(value), label=name)
              for name, value in BASES[cls].items()}
    built = cls(**kwargs)
    for f in dataclasses.fields(built):
        assert _has_type(getattr(built, f.name), HINTS[cls][f.name]), f.name
