"""Generated bad configs through ``cli.main``, in one process.

Each example takes one shipped config (``configs/predict_levelk.json``,
``configs/simulate_default.json`` or ``configs/fit_qbr.json``), the
resolved form of the simulate config, which spells out every scenario
field, or the fit config turned into a two-level ``level_k`` fit, whose
weights are a simplex group, and makes one change: one value becomes a wrong JSON type, a boolean
or a string, NaN or ±inf, a negative, zero or non-integral number, an empty
or one-element list, an empty object, or a number scaled by 10, 1/10 or -1;
or one key is dropped; or an unknown key is added to one object.  The run
then goes through ``cli.main`` with ``--out`` under ``tmp_path``, and must
keep the exit-code contract:

* the exit code is 0 or 2;
* on 2, stderr is one line, ``error: <key path>: ...``, that names the
  block that was changed;
* on 0, neither stdout nor any file the run wrote holds NaN or an infinity.

A second test adds to one of these configs a key that only another mode's
spec class reads, drawn from those classes' fields, with any value; the run
must exit 2 with ``error: <key path>: unknown key``.

A third test changes, instead of the config, a file it points to: a copy of
the game record ``data/example_game.json``, read by the predict config under
one of five models, with or without a ``social`` block, or one line of the
fit configs' dataset, under one of three fit families.  The change is one
of the value changes above, or a payoff list one entry short or long, a
missing or an extra player key, or a line cut in half.  The same exit-code
contract holds, and an error names ``experiment.game`` or
``experiment.dataset``, or, from the overflow check, ``model.params.precision``
or ``experiment.bounds``.

So that many examples fit in a few seconds, the fit reads 40 rows of the
shipped dataset (two of its games) and searches a 3-point grid with 2
refinement steps; a change moves these only to the values above or to
their defaults.
"""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foggame.cli import (
    FitSpec,
    LotterySpec,
    PredictSpec,
    SimulateSpec,
    main,
    parse_config,
    resolved_config,
)

REPO = Path(__file__).resolve().parent.parent

VALUES = [None, True, False, "x", -1, 0, 1, 2.5, 7, math.nan, math.inf, -math.inf,
          [], [1], {}]
ERROR_LINE = re.compile(r"error: [\w.]+: [^\n]*\n")
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.IGNORECASE)


def _shipped(name: str) -> dict:
    return json.loads((REPO / "configs" / name).read_text())


@pytest.fixture(scope="module")
def bases(tmp_path_factory) -> dict[str, dict]:
    rows = (REPO / "data" / "qbr_lambda2.jsonl").read_text().splitlines()
    dataset = tmp_path_factory.mktemp("data") / "two_games.jsonl"
    dataset.write_text("".join(row + "\n" for i, row in enumerate(rows[:400]) if i % 20 < 2))
    predict = _shipped("predict_levelk.json")
    predict["experiment"]["game"] = str(REPO / "data" / "example_game.json")
    fit = _shipped("fit_qbr.json")
    fit["experiment"]["dataset"] = str(dataset)
    fit["experiment"]["search"] = {"grid_points": 3, "refine_iters": 2}
    fit_level_k = copy.deepcopy(fit)
    fit_level_k["model"] = {"model": "level_k", "params": {"num_levels": 2}}
    fit_level_k["experiment"]["bounds"] = [[0.0, 1.0], [0.0, 1.0]]
    return {
        "predict": predict,
        "fit": fit,
        "fit_level_k": fit_level_k,
        "simulate": _shipped("simulate_default.json"),
        "simulate_resolved": resolved_config(
            parse_config(REPO / "configs" / "simulate_default.json")),
    }


def _paths(node, prefix: tuple = ()):
    """The path of every value below ``node``, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


def _mutations(value, in_object: bool) -> list:
    """What may replace ``value``: ``("set", new)``, ``("drop",)``, ``("add",)``."""
    changes = [("set", v) for v in VALUES]
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        changes += [("set", value * 10), ("set", value / 10), ("set", -value)]
    if in_object:
        changes.append(("drop",))
    if isinstance(value, dict):
        changes.append(("add",))
    return changes


def _parent(config, path: tuple):
    for key in path[:-1]:
        config = config[key]
    return config


def _mutated(config: dict, path: tuple, change: tuple) -> dict:
    config = copy.deepcopy(config)
    parent = _parent(config, path)
    if change[0] == "set":
        parent[path[-1]] = change[1]
    elif change[0] == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]]["unknown_key"] = 1
    return config


def _other_mode_fields(mode: str) -> list[dataclasses.Field]:
    """The spec fields that only modes other than ``mode`` read."""
    specs = (SimulateSpec, FitSpec, PredictSpec, LotterySpec)
    own = {f.name for spec in specs if spec.mode == mode for f in dataclasses.fields(spec)}
    other = {f.name: f for spec in specs if spec.mode != mode for f in dataclasses.fields(spec)}
    return [other[name] for name in sorted(other.keys() - own)]


def _run(config: dict, mode: str, directory: Path) -> tuple[int, str, str]:
    path = directory / "config.json"
    path.write_text(json.dumps(config))
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main([mode, str(path), "--out", str(directory / "out")])
    return code, stdout.getvalue(), stderr.getvalue()


@settings(max_examples=1000, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_changed_config_value_exits_0_or_2(data, bases, tmp_path):
    name = data.draw(st.sampled_from(sorted(bases)), label="config")
    base = bases[name]
    path = data.draw(st.sampled_from(list(_paths(base))), label="path")
    parent = _parent(base, path)
    change = data.draw(st.sampled_from(_mutations(parent[path[-1]], isinstance(parent, dict))),
                       label="change")
    directory = Path(tempfile.mkdtemp(dir=tmp_path))

    code, stdout, stderr = _run(_mutated(base, path, change), base["experiment"]["mode"],
                                directory)

    assert code in (0, 2), stderr
    if code == 2:
        assert ERROR_LINE.fullmatch(stderr), stderr
        assert re.search(rf"\b{path[0]}\b", stderr), stderr
    else:
        outputs = [stdout] + [f.read_text() for f in directory.rglob("*") if f.is_file()]
        assert not any(NON_FINITE.search(text) for text in outputs)


@settings(max_examples=100, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_key_another_mode_reads_exits_2(data, bases, tmp_path):
    config = copy.deepcopy(bases[data.draw(st.sampled_from(sorted(bases)), label="config")])
    mode = config["experiment"]["mode"]
    key = data.draw(st.sampled_from(_other_mode_fields(mode)), label="key")
    value = data.draw(st.sampled_from(VALUES), label="value")
    (config if key.metadata else config["experiment"])[key.name] = value
    directory = Path(tempfile.mkdtemp(dir=tmp_path))

    code, stdout, stderr = _run(config, mode, directory)

    path = key.name if key.metadata else f"experiment.{key.name}"
    assert (code, stdout, stderr) == (2, "", f"error: {path}: unknown key\n")
    assert not (directory / "out").exists()


# Predict model blocks and fit model blocks with their bounds, for the third test.
PREDICT_MODELS = [
    None,  # the predict config's own level_k block
    {"model": "best_response", "params": {}},
    {"model": "logit_qbr", "params": {"precision": 2.0}},
    {"model": "cognitive_hierarchy", "params": {"poisson_mean": 1.5, "max_level": 2}},
    {"model": "noisy_introspection", "params": {"precision": 1.0, "decay": 0.5, "max_depth": 3}},
]
FIT_MODELS = [
    None,  # the fit config's own logit_qbr block
    ({"model": "level_k", "params": {"num_levels": 2}}, [[0.0, 1.0], [0.0, 1.0]]),
    ({"model": "epsilon_nash", "params": {}}, [[0.0, 1.0]]),
]
RECORD_KEYS = re.compile(
    r"error: (experiment\.game|experiment\.dataset|model\.params\.precision|experiment\.bounds)"
    r"\b")


def _record_mutations(record, path: tuple) -> list:
    """What may replace the value at ``path`` in a game record or dataset
    line: a config change, or, for a payoff list, one entry fewer or more,
    and for the payoffs object, one more player key (``drop`` removes one)."""
    value = _parent(record, path)[path[-1]]
    changes = _mutations(value, isinstance(_parent(record, path), dict))
    if path[-1] == "payoffs" and isinstance(value, dict):
        changes.append(("set", {**value, str(len(value)): next(iter(value.values()))}))
    if len(path) > 1 and path[-2] == "payoffs" and isinstance(value, list):
        changes += [("set", value[:-1]), ("set", value + value[-1:])]
    return changes


@settings(max_examples=400, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_one_changed_record_value_exits_0_or_2(data, bases, tmp_path):
    directory = Path(tempfile.mkdtemp(dir=tmp_path))
    if data.draw(st.booleans(), label="game record"):
        config = copy.deepcopy(bases["predict"])
        model = data.draw(st.sampled_from(PREDICT_MODELS), label="model")
        if model is not None:
            config["model"] = model
        if data.draw(st.booleans(), label="social"):
            config["social"] = {"altruism_weight": 0.5, "inequity_weight": 0.2}
        lines = [json.loads(Path(config["experiment"]["game"]).read_text())]
        config["experiment"]["game"] = str(directory / "game.json")
    else:
        config = copy.deepcopy(bases["fit"])
        family = data.draw(st.sampled_from(FIT_MODELS), label="family")
        if family is not None:
            config["model"], config["experiment"]["bounds"] = family
        text = Path(config["experiment"]["dataset"]).read_text()
        lines = [json.loads(line) for line in text.splitlines()]
        config["experiment"]["dataset"] = str(directory / "data.jsonl")
    index = data.draw(st.integers(0, len(lines) - 1), label="line")
    path = data.draw(st.sampled_from(list(_paths(lines[index])) + [()]), label="path")
    if path:
        change = data.draw(st.sampled_from(_record_mutations(lines[index], path)),
                           label="change")
        texts = [json.dumps(_mutated(line, path, change) if i == index else line)
                 for i, line in enumerate(lines)]
    else:  # the line cut in half
        texts = [json.dumps(line) for line in lines]
        texts[index] = texts[index][: len(texts[index]) // 2]
    target = config["experiment"].get("game") or config["experiment"]["dataset"]
    Path(target).write_text("\n".join(texts) + "\n")

    code, stdout, stderr = _run(config, config["experiment"]["mode"], directory)

    assert code in (0, 2), stderr
    if code == 2:
        assert ERROR_LINE.fullmatch(stderr), stderr
        assert RECORD_KEYS.match(stderr), stderr
    else:
        outputs = [stdout] + [f.read_text() for f in (directory / "out").rglob("*")
                              if f.is_file()]
        assert not any(NON_FINITE.search(text) for text in outputs)
