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

A third test reads each number's declared range (``Annotated[T, Range(...)]``)
and tries, on every scalar and tuple-element field, each bound, one step past
it (``math.nextafter`` for a float, 1 for an integer), NaN and ±inf.  A value
outside the range must raise ``ValueError`` starting with the field name; a
value inside it must not be refused by its range.  A guard test requires
every integer and float in the input dataclasses, the ``cli`` spec classes
and the fit family factories to declare a range.

A fourth test reads each tuple's declared rule (``Annotated[tuple[...],
Items(...)]``, on a field or on its elements, as in ``fit_mle``'s bounds)
and breaks it: an empty tuple, a sum off by twice its slack when it has a
total, and a reversed pair when it is ordered.  Each must raise
``ValueError`` starting with the field name and naming the rule.

The annotations are read here with plain ``typing`` calls, independently of
:mod:`foggame.schema`.
"""

from __future__ import annotations

import dataclasses
import math
import types
from typing import Annotated, Literal, Union, get_args, get_origin, get_type_hints

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foggame
from foggame import cli
from foggame.behavior import (
    CognitiveHierarchy,
    EpsilonNash,
    LevelK,
    LogitQBR,
    NoisyIntrospection,
)
from foggame.estimation import Observation, SearchOptions, fit_mle, qbr_family
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


# Bound name -> (comparison the value must pass, direction of one step past it)
_BOUND_RULES = {"gt": (lambda x, b: x > b, -1), "ge": (lambda x, b: x >= b, -1),
                "lt": (lambda x, b: x < b, 1), "le": (lambda x, b: x <= b, 1)}


def _range_of(hint):
    """``(number type, range)`` of an ``Annotated[int | float, range]`` hint, else None."""
    if get_origin(hint) is not Annotated:
        return None
    base, *metadata = get_args(hint)
    ranges = [m for m in metadata if all(hasattr(m, name) for name in _BOUND_RULES)]
    return (base, ranges[0]) if ranges else None


def _items_of(hint):
    """The tuple rule of an ``Annotated[tuple[...], Items(...)]`` hint, else None."""
    if get_origin(hint) is not Annotated or get_origin(get_args(hint)[0]) is not tuple:
        return None
    rules = [m for m in get_args(hint)[1:] if hasattr(m, "ordered")]
    return rules[0] if rules else None


def _in_range(value, base, rng) -> bool:
    if base is int and not (isinstance(value, int) or float(value).is_integer()):
        return False
    if not all(getattr(rng, name) is None or holds(value, getattr(rng, name))
               for name, (holds, _) in _BOUND_RULES.items()):
        return False
    return base is int or math.isfinite(value)


def _range_cases():
    """(constructor, field, value, whether the value is in its range)."""
    cases = []
    for cls in BASES:
        for name, hint in get_type_hints(cls, include_extras=True).items():
            arms, _ = _arms(hint)
            for arm in arms:
                if _items_of(arm) is not None:
                    arm = get_args(arm)[0]
                in_tuple = get_origin(arm) is tuple
                ranged = _range_of(get_args(arm)[0] if in_tuple else arm)
                if ranged is None:
                    continue
                base, rng = ranged
                values = [math.nan, math.inf, -math.inf]
                for bound_name, (_, direction) in _BOUND_RULES.items():
                    bound = getattr(rng, bound_name)
                    if bound is not None:
                        past = (bound + direction if base is int
                                else math.nextafter(bound, direction * math.inf))
                        values += [bound, past]
                for value in values:
                    value = base(value) if base is int and math.isfinite(value) else value
                    if in_tuple:
                        given = BASES[cls].get(name, ())
                        value = (value,) + tuple(given[1:] if isinstance(given, tuple) else ())
                        inside = _in_range(value[0], base, rng)
                    else:
                        inside = _in_range(value, base, rng)
                    cases.append(pytest.param(cls, name, value, inside,
                                              id=f"{cls.__name__}.{name}={value!r}"))
    return cases


@pytest.mark.parametrize("cls, name, value, inside", _range_cases())
def test_each_bound_and_one_step_past_it(cls, name, value, inside):
    if not inside:
        with pytest.raises(ValueError, match=f"^{name}: "):
            cls(**{**BASES[cls], name: value})
        return
    try:
        cls(**{**BASES[cls], name: value})
    except ValueError as exc:  # refused for a rule that spans fields
        assert not str(exc).startswith(f"{name}: must be"), exc


# The constructors, and functions whose tuple rules are broken too -> valid arguments
CALLS = {**BASES, fit_mle: {"family": qbr_family(), "data": (Observation(GAME, 0, 0),),
                            "bounds": ((0.0, 1.0),), "search": SearchOptions(3, 0)}}


def _items_cases():
    """(callable, field, value, message) for each way to break a tuple rule
    declared on a field or on its elements; a pair is never empty."""
    cases = []
    for call, base in CALLS.items():
        for name, hint in get_type_hints(call, include_extras=True).items():
            for arm in _arms(hint)[0]:
                rule, nested = _items_of(arm), False
                if rule is None and get_origin(arm) is tuple:
                    rule, nested = _items_of(get_args(arm)[0]), True
                if rule is None:
                    continue
                given = base[name][0] if nested else base[name]
                broken = [] if nested else [((), "must be nonempty")]
                if rule.total is not None:
                    broken.append(((given[0] + 2 * rule.slack,) + given[1:], "must sum to"))
                if rule.ordered:
                    broken.append((given[::-1], "must be in nondecreasing order"))
                for value, message in broken:
                    if nested:
                        value = (value,) + base[name][1:]
                    cases.append(pytest.param(call, name, value, message,
                                              id=f"{call.__name__}.{name}={value!r}"))
    return cases


@pytest.mark.parametrize("call, name, value, message", _items_cases())
def test_each_tuple_rule_refuses_what_breaks_it(call, name, value, message):
    with pytest.raises(ValueError, match=f"^{name}: {message}"):
        call(**{**CALLS[call], name: value})


# Records a run returns, not arguments it reads.
OUTPUTS = {foggame.FitResult, foggame.ModelFamily, foggame.NegotiationTrace}
INPUTS = ([getattr(foggame, name) for name in foggame.__all__
           if dataclasses.is_dataclass(getattr(foggame, name))]
          + [cli.SimulateSpec, cli.FitSpec, cli.PredictSpec, cli.LotterySpec])


def _unranged(hint, path: str, seen: set) -> list[str]:
    """The paths of the int and float leaves below ``hint`` that declare no
    range, walking into dataclasses not yet ``seen``."""
    if get_origin(hint) is Annotated:
        return [] if _range_of(hint) else _unranged(get_args(hint)[0], path, seen)
    if hint in (int, float):
        return [path]
    if get_origin(hint) in (Union, types.UnionType, tuple):
        return [leaf for arg in get_args(hint) if arg is not Ellipsis
                for leaf in _unranged(arg, path, seen)]
    if dataclasses.is_dataclass(hint) and hint not in seen:
        seen.add(hint)
        return _walk(hint, seen)
    return []


def _walk(factory, seen: set) -> list[str]:
    """``_unranged`` over the parameters of a dataclass or function."""
    return [leaf for name, hint in get_type_hints(factory, include_extras=True).items()
            if name != "return"
            for leaf in _unranged(hint, f"{factory.__name__}.{name}", seen)]


def test_every_number_declares_its_range():
    seen = set(OUTPUTS)
    unranged = [leaf for cls in INPUTS for leaf in _unranged(cls, cls.__name__, seen)]
    unranged += [leaf for family in cli._FIT_FAMILIES.values() for leaf in _walk(family, seen)]
    assert len(seen) > 15
    assert unranged == []
