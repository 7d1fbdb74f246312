"""Batch front end: seeded simulation sweeps, model fitting, prediction.

One JSON config drives each run.  Its top-level blocks and the keys of its
``experiment`` object (besides ``mode``) are the fields of one spec class per
request shape, which holds only the keys its run reads:

* simulate (:class:`SimulateSpec`): ``scenario`` (the fields of ``FogScenario``;
  ``"preset": "default"`` starts from the stock market), ``seeds``,
  ``out_dir``, ``noise_sweep``, ``averaging_sweep``, ``price_rule``;
* fit (:class:`FitSpec`): ``model``, ``dataset``, ``out_dir``, ``folds``,
  ``cv_seed``, ``bounds``, ``search``;
* predict (:class:`PredictSpec`): ``model``, ``game``, ``social`` (one
  ``SocialPrefParams`` or a list); or, given a ``prospect`` or ``lottery``
  block (:class:`LotterySpec`), just those two.

A ``model`` block is a :class:`~foggame.behavior.ModelBlock`, ``{"model":
"<tag>", "params": {...}}``, whose ``params`` are the model class's fields in
predict and the family factory's (e.g. ``num_levels``) in fit.  Every block
is read through the dataclass that defines it (:mod:`foggame.schema`): each
value must have its field's type, and a key the request does not read, even
one another mode reads, is unknown.
Messages name the key: ``model.params.max_level: must be an integer, got
2.7``, ``experiment.game: missing``, ``scenario: missing``.

Exit codes: 0 success, 2 config/validation error, 3 runtime error.  Outputs
are pure functions of the config (plus explicit flags), written atomically
(temp + rename).  The output directory comes from ``--out``, then the config,
then the ``FOGGAME_OUT`` environment variable, then ``./out``; predict only
prints, so ``--out`` has nothing to override there.

``main(argv)`` may be called repeatedly in one process: the argument parser
is built on the first call, and each call writes the same outputs and returns
the same exit code as a separate ``foggame`` process given that argv (a bad
command line raises ``SystemExit(2)``, as argparse does).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Annotated, ClassVar, Literal, Sequence, get_args

from .behavior import ModelBlock, Precision, _level0_profile, _model_from_block
from .estimation import (
    PROB_FLOOR,
    Bounds,
    ModelFamily,
    SearchOptions,
    cross_validate,
    epsilon_nash_family,
    fit_mle,
    level_k_family,
    load_observations,
    qbr_family,
)
from .games import load_game
from .market import (
    FogScenario,
    NegotiationTrace,
    NoiseLevel,
    PriceRule,
    _negotiate,
    compute_metrics,
    default_scenario,
    write_trace_csv,
)
from .preferences import (
    Lottery,
    ProspectParams,
    SocialPrefParams,
    pt_evaluate,
    transform_game_social,
)
from .schema import ConfigError, Items, Range, as_json, as_object, build, check_required, read
from .schema import read_fields, read_value

OUT_DIR_ENV = "FOGGAME_OUT"

Mode = Literal["simulate", "fit", "predict"]

# Fittable model tag -> its family factory, whose parameters are the keys the
# model block's ``params`` may set.
_FIT_FAMILIES = {
    "logit_qbr": qbr_family,
    "epsilon_nash": epsilon_nash_family,
    "level_k": level_k_family,
}

# Marks a spec field that is a top-level block; the rest are experiment keys.
_BLOCK = {"block": True}


@dataclass(frozen=True)
class SimulateSpec:
    """A market sweep; the sweeps default to the scenario's own setting."""

    mode: ClassVar[Mode] = "simulate"
    scenario: FogScenario = field(metadata=_BLOCK)
    seeds: Annotated[tuple[Annotated[int, Range(ge=0)], ...], Items()]
    out_dir: str = "out"
    noise_sweep: Annotated[tuple[NoiseLevel, ...], Items()] | None = None
    averaging_sweep: Annotated[tuple[bool, ...], Items()] | None = None
    price_rule: PriceRule = "gradient_ascent"

    def __post_init__(self) -> None:
        if self.noise_sweep is None:
            object.__setattr__(self, "noise_sweep", (self.scenario.noise_level,))
        if self.averaging_sweep is None:
            object.__setattr__(self, "averaging_sweep", (self.scenario.averaging,))


@dataclass(frozen=True)
class FitSpec:
    """A maximum-likelihood fit, cross-validated when ``folds`` is set;
    ``family``, the family the model block names, is built with the spec."""

    mode: ClassVar[Mode] = "fit"
    model: ModelBlock = field(metadata=_BLOCK)
    dataset: str
    out_dir: str = "out"
    folds: Annotated[int, Range(ge=2)] | None = None
    cv_seed: Annotated[int, Range(ge=0)] = 0
    bounds: Bounds | None = None
    search: SearchOptions = SearchOptions()

    def __post_init__(self) -> None:
        if not Path(self.dataset).exists():
            raise ConfigError(f"experiment.dataset: path {self.dataset!r} does not exist")
        family = _family_from_model_block(self.model)
        if self.bounds is not None:  # level_k's levels set its size, another family's tag
            sized_by = "params.num_levels" if "num_levels" in self.model.params else "model"
            family._read_bounds(self.bounds, "experiment.bounds", f"model.{sized_by}")
        object.__setattr__(self, "family", family)


@dataclass(frozen=True)
class PredictSpec:
    """Per-player strategies on a game, after any social transform;
    ``behavior``, the model the model block names, is built with the spec."""

    mode: ClassVar[Mode] = "predict"
    model: ModelBlock = field(metadata=_BLOCK)
    game: str
    social: Annotated[tuple[SocialPrefParams, ...], Items()] | None = field(
        default=None, metadata=_BLOCK)

    def __post_init__(self) -> None:
        if not Path(self.game).exists():
            raise ConfigError(f"experiment.game: path {self.game!r} does not exist")
        try:
            behavior = _model_from_block(self.model)
        except ValueError as exc:
            raise ConfigError(f"model.{exc}") from exc
        object.__setattr__(self, "behavior", behavior)


@dataclass(frozen=True)
class LotterySpec:
    """The prospect-theory value of an exogenous lottery."""

    mode: ClassVar[Mode] = "predict"
    prospect: ProspectParams = field(metadata=_BLOCK)
    lottery: Lottery = field(metadata=_BLOCK)


Spec = SimulateSpec | FitSpec | PredictSpec | LotterySpec
_SPECS = {"simulate": SimulateSpec, "fit": FitSpec, "predict": PredictSpec}


def _scenario_from_config(block) -> FogScenario:
    fields = dict(as_object(block, "scenario"))
    preset = fields.pop("preset", None)
    if preset not in (None, "default"):
        raise ConfigError(f"scenario.preset: unknown preset {preset!r}")
    factory = FogScenario if preset is None else default_scenario
    return build(factory, read_fields(FogScenario, fields, "scenario"), "scenario")


def parse_config(path: str | Path, mode: str | None = None, out: str | None = None) -> Spec:
    """Load, validate, and default-fill a config file.

    ``mode`` (from the subcommand) overrides the config's own ``mode`` key;
    having both is fine only when they agree.  ``out`` (from ``--out``)
    overrides the config's ``out_dir``, where the spec has one.  A predict
    config with a ``prospect`` or ``lottery`` block is a :class:`LotterySpec`.
    """
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    raw = dict(as_object(raw, "config root"))
    experiment = dict(as_object(raw.pop("experiment", {}), "experiment"))

    config_mode = experiment.pop("mode", mode)
    if mode is not None and config_mode != mode:
        raise ConfigError(f"experiment.mode: config says {config_mode!r} but the "
                          f"{mode!r} command was invoked")
    spec = _SPECS[read_value(config_mode, Mode, "experiment.mode")]
    if spec is PredictSpec and ("prospect" in raw or "lottery" in raw):
        spec = LotterySpec
    fields = dataclasses.fields(spec)
    blocks = {f.name for f in fields if f.metadata}
    keys = {f.name for f in fields} - blocks
    if "out_dir" in keys and experiment.get("out_dir") in (None, ""):
        experiment["out_dir"] = os.environ.get(OUT_DIR_ENV) or "out"
    if isinstance(raw.get("social"), dict):
        raw["social"] = [raw["social"]]

    block_kwargs = read_fields(spec, raw, "", names=blocks,
                               decoders={"scenario": _scenario_from_config})
    kwargs = read_fields(spec, experiment, "experiment", names=keys)
    if out and "out_dir" in keys:
        kwargs["out_dir"] = out
    check_required(spec, block_kwargs, "", blocks)
    check_required(spec, kwargs, "experiment", keys)
    return spec(**block_kwargs, **kwargs)


def resolved_config(spec: Spec) -> dict:
    """Spec as a config document, unset (``None``) fields left out;
    parsing it back yields an equal spec."""
    config: dict = {"experiment": {"mode": spec.mode}}
    for f in dataclasses.fields(spec):
        value = getattr(spec, f.name)
        if value is not None:
            block = config if f.metadata else config["experiment"]
            block[f.name] = as_json(value)
    return config


def _atomic_write_text(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def _atomic_write_trace(trace: NegotiationTrace, path: Path) -> None:
    tmp = path.with_name(path.name + ".tmp")
    write_trace_csv(trace, tmp)
    os.replace(tmp, path)


def _json_text(payload: dict) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _family_from_model_block(model: ModelBlock) -> ModelFamily:
    """Family to fit, from a tagged model block; ``params`` is its fixed
    structure (e.g. ``num_levels``), not fitted values."""
    factory = _FIT_FAMILIES.get(model.model)
    if factory is None:
        raise ConfigError(f"model.model: {model.model!r} is not a fittable family")
    return read(factory, model.params, "model.params")


def _check_precision(precision: float | None, max_payoff: float, key: str) -> None:
    """Refuse a precision at which a logit response overflows.  Its shift
    ``z - max(z)`` spans up to 2 × precision × max |payoff|; past the largest
    float the weights are NaN, which no solver recovers from.  Python float
    products overflow to inf without a warning."""
    if precision is not None and not math.isfinite(2.0 * precision * max_payoff):
        raise ConfigError(
            f"{key}: must keep 2 × precision × max |payoff| finite, got {precision!r}"
        )


def run_simulate(spec: SimulateSpec) -> int:
    """Run every (noise, averaging, seed) cell in one pass: as the kernel
    ends a cell, write its trace and manifest entry and hand the trace to
    the summary.  A failed cell is recorded in the manifest and the rest
    still run; a kernel fault fails the cells that had not yet ended."""
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out / "resolved_config.json", _json_text(resolved_config(spec)))

    cells = sorted(set(itertools.product(spec.noise_sweep, spec.averaging_sweep, spec.seeds)))
    entries = [{"noise_level": rho, "averaging": averaging, "seed": seed}
               for rho, averaging, seed in cells]

    def written():
        """The trace of each cell that ends well, once it is on disk."""
        try:
            for j, outcome in _negotiate(spec.scenario, cells, spec.price_rule):
                rho, averaging, seed = cells[j]
                name = f"trace_{rho}_{str(averaging).lower()}_{seed}.csv"
                try:
                    if isinstance(outcome, Exception):
                        raise outcome
                    _atomic_write_trace(outcome, out / name)
                except Exception as exc:  # noqa: BLE001 — keep going, record fault
                    entries[j].update(status="failed", error=str(exc))
                    continue
                entries[j].update(status="ok", file=name, rounds=len(outcome.rounds),
                                  converged=outcome.converged,
                                  convergence_round=outcome.convergence_round)
                yield outcome
        except Exception as exc:  # noqa: BLE001 — the fault of every cell still running
            for entry in entries:
                if "status" not in entry:
                    entry.update(status="failed", error=str(exc))

    try:
        summary = {"configs": as_json(compute_metrics(written()))}
    except ValueError:  # with no cell ok, compute_metrics got no trace
        if any(entry.get("status") == "ok" for entry in entries):
            raise
    else:
        _atomic_write_text(out / "summary.json", _json_text(summary))
    failures = sum(entry["status"] == "failed" for entry in entries)
    manifest = {"cells": entries, "num_failed": failures}
    _atomic_write_text(out / "manifest.json", _json_text(manifest))
    return 0 if failures == 0 else 3


def run_fit(spec: FitSpec) -> int:
    """Fit the configured family to the dataset; write and print the result."""
    family = spec.family
    try:
        data = load_observations(spec.dataset)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"experiment.dataset: {exc}") from exc
    if len(data) == 0:
        raise ConfigError("experiment.dataset: empty dataset")
    if spec.folds is not None and len(data) < spec.folds:
        raise ConfigError(
            f"experiment.folds: {spec.folds} folds need at least "
            f"{spec.folds} observations, dataset has {len(data)}"
        )
    bounds = spec.bounds if spec.bounds is not None else family.bounds
    max_payoff = max(float(abs(game.payoffs).max()) for game in {obs.game for obs in data})
    fitted = [high for (_, hint, _), (_, high) in zip(family.params, bounds) if hint is Precision]
    if fitted:
        _check_precision(fitted[0], max_payoff, "experiment.bounds")
    else:
        _check_precision(spec.model.params.get("precision"), max_payoff, "model.params.precision")
    result = fit_mle(family, data, bounds, spec.search)
    if spec.folds is not None:
        cv = cross_validate(family, data, spec.folds, bounds, spec.search, spec.cv_seed)
        result = dataclasses.replace(result, cv_score=cv)
    payload = {"family": family.name, **as_json(result), "probability_floor": PROB_FLOOR}
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out / "fit_result.json", _json_text(payload))
    sys.stdout.write(_json_text(payload))
    return 0


def run_predict(spec: PredictSpec | LotterySpec) -> int:
    """Print per-player predicted strategies (or a lottery valuation)."""
    if isinstance(spec, LotterySpec):
        payload = {"value": pt_evaluate(spec.lottery, spec.prospect)}
        sys.stdout.write(_json_text(payload))
        return 0
    try:
        game = load_game(spec.game)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"experiment.game: {exc}") from exc
    model = spec.behavior
    if spec.social is not None:
        params = spec.social
        if len(params) == 1 and game.num_players > 1:
            params = params * game.num_players
        try:
            game = transform_game_social(game, params)
        except ValueError as exc:
            raise ConfigError(f"social: {exc}") from exc
    try:
        _level0_profile(game, getattr(model, "level0", None))
    except ValueError as exc:
        raise ConfigError(f"model.params.level0: {exc}") from exc
    _check_precision(getattr(model, "precision", None), float(abs(game.payoffs).max()),
                     "model.params.precision")
    strategies = [list(s.weights) for s in model.predict_profile(game)]
    sys.stdout.write(_json_text({"strategies": strategies}))
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built on the first call of main and reused: parsing leaves no state in it.
    parser = argparse.ArgumentParser(
        prog="foggame",
        description="Seeded market simulations, model fitting, and prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in get_args(Mode):
        p = sub.add_parser(command)
        p.add_argument("config", help="path to a JSON config file")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument(
            "--dump-resolved-config",
            action="store_true",
            help="print the resolved config as JSON and exit without running",
        )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        spec = parse_config(args.config, mode=args.command, out=args.out)
        if args.dump_resolved_config:
            sys.stdout.write(_json_text(resolved_config(spec)))
            return 0
        if spec.mode == "simulate":
            return run_simulate(spec)
        if spec.mode == "fit":
            return run_fit(spec)
        return run_predict(spec)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 — runtime fault boundary
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
