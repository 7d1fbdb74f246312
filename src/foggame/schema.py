"""JSON config blocks and library arguments read through the dataclasses
that define them; :func:`as_json` writes them back.

A block's allowed keys and defaults are the parameters of the dataclass (or
factory function) that consumes it, and each value is read by the rule for
its annotated type:

* ``float`` — a number, bools excluded, returned as a float;
* ``int`` — an integral number (``3`` or ``3.0``), bools excluded;
* ``bool`` — ``true`` or ``false``;
* ``str`` — a string;
* ``Literal[...]`` — one of the listed choices;
* ``tuple[T, ...]`` and ``tuple[T, U]`` — a list (or a tuple), each item read
  as its type;
* a dataclass — an instance as it is, else a nested object, read the same way;
* any other class — an instance of it;
* ``dict`` — an object, passed through;
* ``X | Y`` — ``null`` for ``None``, a list for a tuple arm, else the first
  other arm;
* ``Annotated[T, Range(...)]`` — read as ``T``, then checked against the
  :class:`Range`: within each bound given, and finite if it is a float;
* ``Annotated[tuple[T, ...], Items(...)]`` — read as the tuple, then checked
  against the :class:`Items` rule: nonempty, a sum, an order.

A NumPy array is read as its ``tolist()``.  The input dataclasses call
:func:`check_fields` first in ``__post_init__``, so a library caller's bad
value gets the same field-first message a config's does.

Every error is a :class:`ConfigError` whose message starts with the key path,
e.g. ``model.params.max_level: must be an integer, got 2.7``,
``scenario.budget: must be > 0, got -1.0``, ``experiment.seeds: must be
nonempty``, ``lottery.probs: must sum to 1, got 0.8`` or ``experiment.bounds:
must be in nondecreasing order, got [5.0, 1.0]``.  A rule is declared beside
its type, ``budget: Annotated[float, Range(gt=0)]``, and a per-node field
declares its range on its elements.  Only checks that span fields (lengths
against ``num_nodes``, caps against floors) stay in the constructors; a
constructor's ``ValueError`` is reported under the parameter its message
starts with, or else under the block.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import numbers
import operator
import types
from typing import (Annotated, Any, Callable, Literal, Mapping, Union, get_args, get_origin,
                    get_type_hints)

import numpy as np


class ConfigError(ValueError):
    """Config schema or invariant violation; maps to exit code 2."""


def as_number(value, key: str) -> float:
    """``value`` as a float; bools and non-numbers raise."""
    if type(value) is float:  # the common case, without the slower ABC check
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    raise ConfigError(f"{key}: must be a number, got {value!r}")


def as_int(value, key: str) -> int:
    """``value`` as an int; bools, non-numbers and fractional numbers raise."""
    if type(value) is int:  # the common case, without the slower ABC check
        return value
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ConfigError(f"{key}: must be an integer, got {value!r}")


def as_object(value, key: str) -> dict:
    """``value`` itself if it is a JSON object; anything else raises."""
    if isinstance(value, dict):
        return value
    raise ConfigError(f"{key}: must be a JSON object, got {value!r}")


_BOUNDS = (("gt", ">", operator.gt), ("ge", ">=", operator.ge),
           ("lt", "<", operator.lt), ("le", "<=", operator.le))


@dataclasses.dataclass(frozen=True, eq=False)  # identity hash: _form's cache hashes every hint
class Range:
    """A number's allowed range, declared in its annotation as
    ``Annotated[float, Range(gt=0)]``; a ranged float must also be finite."""

    gt: float | None = None
    ge: float | None = None
    lt: float | None = None
    le: float | None = None

    def check(self, value, key: str):
        """``value`` itself if it lies in the range, else a :class:`ConfigError`
        naming the first bound it breaks (NaN breaks every bound)."""
        for name, symbol, holds in _BOUNDS:
            bound = getattr(self, name)
            if bound is not None and not holds(value, bound):
                raise ConfigError(f"{key}: must be {symbol} {bound}, got {value!r}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key}: must be finite, got {value!r}")
        return value


@dataclasses.dataclass(frozen=True, eq=False)
class Items:
    """A tuple's rule, declared as ``Annotated[tuple[float, ...], Items(total=1)]``:
    nonempty, summing to ``total`` within ``slack`` if given, nondecreasing if ``ordered``."""

    total: float | None = None
    slack: float = 0.0
    ordered: bool = False

    def check(self, value: tuple, key: str) -> tuple:
        """``value`` itself if it keeps the rule, else a :class:`ConfigError`."""
        if not value:
            raise ConfigError(f"{key}: must be nonempty")
        if self.total is not None and abs(sum(value) - self.total) > self.slack:
            raise ConfigError(f"{key}: must sum to {self.total}, got {sum(value)!r}")
        if self.ordered and any(a > b for a, b in zip(value, value[1:])):
            raise ConfigError(f"{key}: must be in nondecreasing order, got {list(value)!r}")
        return value


Finite = Annotated[float, Range()]
_ANNOTATED = type(Finite)


@functools.cache
def _parameters(factory: Callable) -> dict[str, tuple[Any, bool]]:
    """Parameter name -> (annotated type, whether it is required)."""
    hints = get_type_hints(factory, include_extras=True)
    return {
        name: (hints.get(name), p.default is inspect.Parameter.empty)
        for name, p in inspect.signature(factory).parameters.items()
        if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
    }


@functools.cache
def _form(hint) -> tuple[Any, tuple]:
    """``hint``'s origin, with ``X | Y`` as ``Union``, and its arguments."""
    origin = get_origin(hint)
    return (Union if origin is types.UnionType else origin), get_args(hint)


def read_value(value, hint, key: str):
    """``value`` read by the rule for type ``hint``; see the module docstring."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if type(hint) is _ANNOTATED:  # Annotated[T, Range(...)] or Annotated[T, Items(...)]
        return hint.__metadata__[0].check(read_value(value, hint.__origin__, key), key)
    if hint is float:
        return as_number(value, key)
    if hint is int:
        return as_int(value, key)
    if hint is bool:
        if isinstance(value, bool):
            return value
        raise ConfigError(f"{key}: must be true or false, got {value!r}")
    if hint is str:
        if isinstance(value, str):
            return value
        raise ConfigError(f"{key}: must be a string, got {value!r}")
    if hint is dict:
        return as_object(value, key)
    origin, args = _form(hint)
    if origin is Union:
        if value is None and type(None) in args:
            return None
        arms = [arm for arm in args if arm is not type(None)]
        is_list = isinstance(value, (list, tuple))
        arm = next((a for a in arms if (_form(a)[0] is tuple) == is_list), arms[0])
        return read_value(value, arm, key)
    if origin is Literal:
        if value in args:
            return value
        choices = ", ".join(repr(choice) for choice in args)
        raise ConfigError(f"{key}: must be one of {choices}, got {value!r}")
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{key}: must be a list, got {value!r}")
        if len(args) == 2 and args[1] is Ellipsis:
            return tuple(read_value(item, args[0], key) for item in value)
        if len(value) != len(args):
            raise ConfigError(f"{key}: must be a list of {len(args)} values, got {value!r}")
        return tuple(read_value(item, arm, key) for item, arm in zip(value, args))
    if isinstance(hint, type):
        if isinstance(value, hint):
            return value
        if dataclasses.is_dataclass(hint):
            return read(hint, value, key)
        raise ConfigError(f"{key}: must be a {hint.__name__}, got {value!r}")
    raise TypeError(f"{key}: no config rule for type {hint!r}")


def check_fields(obj) -> None:
    """Read every field of dataclass ``obj`` by its annotated type and rule,
    in place, so that its ``__post_init__`` checks see checked values only."""
    for name, (hint, _) in _parameters(type(obj)).items():
        object.__setattr__(obj, name, read_value(getattr(obj, name), hint, name))


def read_fields(
    factory: Callable,
    block,
    key: str,
    names: set[str] | None = None,
    decoders: Mapping[str, Callable] | None = None,
) -> dict:
    """The entries of JSON object ``block`` as keyword arguments of ``factory``.

    Keys must be parameters of ``factory`` (and in ``names`` when given).
    Each value is read by its parameter's type, or by ``decoders[name]``
    when there is one.  Parameters left out keep their defaults.
    """
    params = _parameters(factory)
    kwargs = {}
    for name, value in as_object(block, key or "record").items():
        path = f"{key}.{name}" if key else name
        if name not in params or (names is not None and name not in names):
            raise ConfigError(f"{path}: unknown key")
        decode = (decoders or {}).get(name)
        if decode is None:
            kwargs[name] = read_value(value, params[name][0], path)
            continue
        try:
            kwargs[name] = decode(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: {exc}") from exc
    return kwargs


def check_required(factory: Callable, kwargs: dict, key: str, names: set | None = None) -> None:
    """Raise for a required parameter of ``factory`` (in ``names``, if given) not in ``kwargs``."""
    for name, (_, required) in _parameters(factory).items():
        if required and name not in kwargs and (names is None or name in names):
            raise ConfigError(f"{key}.{name}: missing" if key else f"{name}: missing")


def build(factory: Callable, kwargs: dict, key: str):
    """``factory(**kwargs)``, with a missing parameter or a failed check that
    spans fields reported as a :class:`ConfigError` under its key path."""
    check_required(factory, kwargs, key)
    params = _parameters(factory)
    try:
        return factory(**kwargs)
    except ConfigError:
        raise
    except ValueError as exc:
        name, _, rest = str(exc).partition(" ")
        if name in params or name in kwargs:
            raise ConfigError(f"{key}.{name}: {rest}") from exc
        raise ConfigError(f"{key}: {exc}") from exc


def read(factory: Callable, block, key: str, decoders: Mapping[str, Callable] | None = None):
    """``factory`` called with the entries of JSON object ``block``."""
    return build(factory, read_fields(factory, block, key, decoders=decoders), key)


def as_json(value):
    """A spec value as JSON: dataclasses as objects of every field, tuples as lists."""
    if dataclasses.is_dataclass(value):
        return {f.name: as_json(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, tuple):
        return [as_json(item) for item in value]
    return value
