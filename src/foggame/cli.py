"""Batch front end: seeded simulation sweeps, model fitting, prediction.

One JSON config drives each run.  Top-level keys:

* ``scenario``   — market constants (the fields of ``FogScenario``); an
  optional ``"preset": "default"`` starts from the stock four-node market.
* ``model``      — behavioral model block (``{"model": "<tag>", "params": {...}}``).
  For predict, ``params`` are the model class's fields; for fit, the
  family's fixed structure (the parameters of its factory, e.g. ``num_levels``).
* ``experiment`` — mode-specific plumbing (the ``ExperimentSpec`` fields that
  are not blocks): seeds, sweeps, paths, output directory, search options.
* ``prospect`` / ``social`` / ``lottery`` — optional utility-transform
  blocks (``ProspectParams``, one or a list of ``SocialPrefParams``,
  ``Lottery``), predict mode only.

Every block is read through the dataclass that defines it (see
:mod:`foggame.schema`): an unknown key is an error, and each value must have
its field's type — a number, an integer, a boolean, a string or one of the
field's listed choices.  Messages name the key, e.g. ``model.params.max_level``.

Exit codes: 0 success, 2 config/validation error, 3 runtime error.  All
outputs are pure functions of the config (plus explicit flags); files are
written atomically (temp + rename) so re-runs are byte-identical and
interrupted runs never leave half-written artifacts.  The default output
directory comes from ``--out``, then the config, then the ``FOGGAME_OUT``
environment variable, then ``./out``.

``main(argv)`` may be called repeatedly in one process.  It builds its
argument parser on the first call and reuses it, and each call writes the
same outputs and returns the same exit code as a separate ``foggame`` process
given that argv (a bad command line raises ``SystemExit(2)``, as argparse
does).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Literal, Sequence, get_args

from .behavior import _level0_profile, model_from_dict
from .estimation import (
    PROB_FLOOR,
    ModelFamily,
    SearchOptions,
    check_bounds,
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
from .schema import ConfigError, as_json, as_object, build, read, read_fields

OUT_DIR_ENV = "FOGGAME_OUT"

Mode = Literal["simulate", "fit", "predict"]

# Fittable model tag -> its family factory, whose parameters are the keys the
# model block's ``params`` may set.
_FIT_FAMILIES = {
    "logit_qbr": qbr_family,
    "epsilon_nash": epsilon_nash_family,
    "level_k": level_k_family,
}

_BLOCK = {"block": True}


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved run description; equal specs run identically.

    Fields with ``_BLOCK`` metadata are top-level config blocks; every other
    field is an ``experiment`` key.  ``noise_sweep`` and ``averaging_sweep``
    default to the scenario's own setting.  The checks here span fields and
    blocks; each block's own values were checked when it was read.
    """

    mode: Mode
    seeds: tuple[int, ...] = ()
    out_dir: str = "out"
    noise_sweep: tuple[float, ...] | None = None
    averaging_sweep: tuple[bool, ...] | None = None
    price_rule: PriceRule = "gradient_ascent"
    dataset: str | None = None
    game: str | None = None
    folds: int | None = None
    cv_seed: int = 0
    bounds: tuple[tuple[float, float], ...] | None = None
    search: SearchOptions = SearchOptions()
    scenario: FogScenario | None = field(default=None, metadata=_BLOCK)
    model: dict | None = field(default=None, metadata=_BLOCK)
    prospect: ProspectParams | None = field(default=None, metadata=_BLOCK)
    social: tuple[SocialPrefParams, ...] | None = field(default=None, metadata=_BLOCK)
    lottery: Lottery | None = field(default=None, metadata=_BLOCK)

    def __post_init__(self) -> None:
        if self.scenario is not None:
            if self.noise_sweep is None:
                object.__setattr__(self, "noise_sweep", (self.scenario.noise_level,))
            if self.averaging_sweep is None:
                object.__setattr__(self, "averaging_sweep", (self.scenario.averaging,))
        if any(seed < 0 for seed in self.seeds):
            raise ConfigError("experiment.seeds: must be >= 0")
        if any(not 0.0 <= rho < 1.0 for rho in self.noise_sweep or ()):
            raise ConfigError("experiment.noise_sweep: values must lie in [0, 1)")
        for key in ("dataset", "game"):
            value = getattr(self, key)
            if value is not None and not Path(value).exists():
                raise ConfigError(f"experiment.{key}: path {value!r} does not exist")
        if self.folds is not None and self.folds < 2:
            raise ConfigError("experiment.folds: must be >= 2")
        if self.cv_seed < 0:
            raise ConfigError("experiment.cv_seed: must be >= 0")
        if self.bounds is not None:
            try:
                check_bounds(self.bounds)
            except ValueError as exc:
                raise ConfigError(f"experiment.bounds: {exc}") from exc
        if self.model is not None and "model" not in self.model:
            raise ConfigError("model.model: missing variant tag")
        if self.social == ():
            raise ConfigError("social: expected an object or nonempty list of objects")
        for key in ("prospect", "social", "lottery"):
            if getattr(self, key) is not None and self.mode != "predict":
                raise ConfigError(f"{key}: only supported in predict mode")
        if self.mode == "simulate":
            if not self.seeds:
                raise ConfigError("experiment.seeds: must be nonempty for simulate")
            if self.scenario is None:
                raise ConfigError("scenario: required for simulate")
        if self.mode == "fit":
            if self.dataset is None:
                raise ConfigError("experiment.dataset: required for fit")
            if self.model is None:
                raise ConfigError("model: required for fit")
        if self.mode == "predict":
            strategic = self.model is not None or self.game is not None
            if strategic and self.prospect is not None:
                raise ConfigError(
                    "prospect: cannot be combined with a strategic model block; "
                    "prospect valuation applies to exogenous lotteries only"
                )
            if strategic:
                if self.model is None or self.game is None:
                    raise ConfigError("model: predict needs both model and experiment.game")
            elif self.prospect is not None or self.lottery is not None:
                if self.prospect is None or self.lottery is None:
                    raise ConfigError("lottery: predict needs both prospect and lottery")
            else:
                raise ConfigError(
                    "model: predict needs either model + experiment.game "
                    "or prospect + lottery"
                )


def _scenario_from_config(block) -> FogScenario:
    fields = dict(as_object(block, "scenario"))
    preset = fields.pop("preset", None)
    if preset not in (None, "default"):
        raise ConfigError(f"scenario.preset: unknown preset {preset!r}")
    factory = FogScenario if preset is None else default_scenario
    return build(factory, read_fields(FogScenario, fields, "scenario"), "scenario")


def parse_config(path: str | Path, mode: str | None = None) -> ExperimentSpec:
    """Load, validate, and default-fill a config file.

    ``mode`` (from the subcommand) overrides the config's own ``mode`` key;
    having both is fine only when they agree.
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

    config_mode = experiment.get("mode")
    if mode is None:
        mode = config_mode
    elif config_mode is not None and config_mode != mode:
        raise ConfigError(
            f"experiment.mode: config says {config_mode!r} but the "
            f"{mode!r} command was invoked"
        )
    experiment["mode"] = mode
    if experiment.get("out_dir") in (None, ""):
        experiment["out_dir"] = os.environ.get(OUT_DIR_ENV) or "out"
    if isinstance(raw.get("social"), dict):
        raw["social"] = [raw["social"]]

    fields = dataclasses.fields(ExperimentSpec)
    blocks = {f.name for f in fields if f.metadata}
    return ExperimentSpec(
        **read_fields(ExperimentSpec, experiment, "experiment",
                      names={f.name for f in fields} - blocks),
        **read_fields(ExperimentSpec, raw, "", names=blocks,
                      decoders={"scenario": _scenario_from_config}),
    )


def resolved_config(spec: ExperimentSpec) -> dict:
    """Spec as a config document; parsing it back yields an equal spec.

    Fields left unset (``None``) are left out.
    """
    config: dict = {"experiment": {}}
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


def _family_from_model_block(model: dict) -> ModelFamily:
    """Family to fit, from a tagged model block.

    For fitting, ``params`` carries the family's fixed structure (e.g.
    ``num_levels``), not fitted values; any other key is an error.
    """
    tag = model["model"]
    factory = _FIT_FAMILIES.get(tag) if isinstance(tag, str) else None
    if factory is None:
        raise ConfigError(f"model.model: {tag!r} is not a fittable family")
    return read(factory, model.get("params", {}), "model.params")


def run_simulate(spec: ExperimentSpec) -> int:
    """Run every (noise, averaging, seed) cell together; write traces +
    summary.  A cell that fails is recorded in the manifest and the rest
    still run."""
    assert spec.scenario is not None
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out / "resolved_config.json", _json_text(resolved_config(spec)))

    cells = sorted({
        (rho, averaging, seed)
        for rho in spec.noise_sweep
        for averaging in spec.averaging_sweep
        for seed in spec.seeds
    })
    try:
        outcomes = _negotiate(spec.scenario, cells, spec.price_rule)
    except Exception as exc:  # noqa: BLE001 — the fault of every cell
        outcomes = [exc] * len(cells)
    manifest_cells = []
    traces: list[NegotiationTrace] = []
    for (rho, averaging, seed), outcome in zip(cells, outcomes):
        entry = {"noise_level": rho, "averaging": averaging, "seed": seed}
        name = f"trace_{rho}_{str(averaging).lower()}_{seed}.csv"
        error = outcome if isinstance(outcome, Exception) else None
        if error is None:
            try:
                _atomic_write_trace(outcome, out / name)
            except Exception as exc:  # noqa: BLE001 — keep going, record fault
                error = exc
        if error is not None:
            entry.update(status="failed", error=str(error))
        else:
            traces.append(outcome)
            entry.update(
                status="ok",
                file=name,
                rounds=len(outcome.rounds),
                converged=outcome.converged,
                convergence_round=outcome.convergence_round,
            )
        manifest_cells.append(entry)
    failures = len(manifest_cells) - len(traces)

    if traces:
        summary = {"configs": as_json(compute_metrics(traces))}
        _atomic_write_text(out / "summary.json", _json_text(summary))
    _atomic_write_text(
        out / "manifest.json",
        _json_text({"cells": manifest_cells, "num_failed": failures}),
    )
    return 0 if failures == 0 else 3


def run_fit(spec: ExperimentSpec) -> int:
    """Fit the configured family to the dataset; write and print the result."""
    assert spec.model is not None and spec.dataset is not None
    family = _family_from_model_block(spec.model)
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
    if len(bounds) != family.num_params:
        raise ConfigError(
            f"experiment.bounds: family {family.name!r} has "
            f"{family.num_params} parameters, got {len(bounds)} bounds"
        )
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


def run_predict(spec: ExperimentSpec) -> int:
    """Print per-player predicted strategies (or a lottery valuation)."""
    if spec.lottery is not None and spec.prospect is not None:
        payload = {"value": pt_evaluate(spec.lottery, spec.prospect)}
        sys.stdout.write(_json_text(payload))
        return 0
    assert spec.model is not None and spec.game is not None
    try:
        game = load_game(spec.game)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"experiment.game: {exc}") from exc
    try:
        model = model_from_dict(spec.model)
    except ValueError as exc:
        raise ConfigError(f"model.{exc}") from exc
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
        spec = parse_config(args.config, mode=args.command)
        if args.out:
            spec = dataclasses.replace(spec, out_dir=args.out)
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
