"""Generated bad configs through ``cli.main``, in one process.

Each example takes one shipped config (``configs/predict_levelk.json``,
``configs/simulate_default.json`` or ``configs/fit_qbr.json``), the
resolved form of the simulate config, which spells out every scenario
field, or the fit config turned into a one-level ``level_k`` fit, whose
weight is a simplex group, and makes one change: one value becomes a wrong JSON type, a boolean
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
    fit_level_k["model"] = {"model": "level_k", "params": {"num_levels": 1}}
    fit_level_k["experiment"]["bounds"] = [[0.0, 1.0]]
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
