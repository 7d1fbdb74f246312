"""Batch front end: seeded simulation sweeps, model fitting, prediction.

One JSON config drives each run.  Top-level keys:

* ``scenario``   — market constants (see ``FogScenario``); optional
  ``"preset": "default"`` starts from the stock four-node market.
* ``model``      — behavioral model block (``{"model": "<tag>", "params": {...}}``).
* ``experiment`` — mode-specific plumbing: seeds, sweeps, paths, output
  directory, search options.
* ``prospect`` / ``social`` / ``lottery`` — optional utility-transform
  blocks, predict mode only.

Exit codes: 0 success, 2 config/validation error, 3 runtime error.  All
outputs are pure functions of the config (plus explicit flags); files are
written atomically (temp + rename) so re-runs are byte-identical and
interrupted runs never leave half-written artifacts.  The default output
directory comes from ``--out``, then the config, then the ``FOGGAME_OUT``
environment variable, then ``./out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .behavior import model_from_dict, predict
from .estimation import (
    _SEARCH_DEFAULTS,
    ModelFamily,
    cross_validate,
    epsilon_nash_family,
    fit_mle,
    level_k_family,
    load_observations,
    qbr_family,
)
from .games import load_game
from .market import (
    PRICE_RULES,
    FogScenario,
    NegotiationTrace,
    as_int,
    compute_metrics,
    default_scenario,
    run_negotiation,
    write_trace_csv,
)
from .preferences import (
    Lottery,
    ProspectParams,
    SocialPrefParams,
    pt_evaluate,
    transform_game_social,
)

OUT_DIR_ENV = "FOGGAME_OUT"

_MODES = ("simulate", "fit", "predict")

_SCENARIO_KEYS = {field.name for field in dataclasses.fields(FogScenario)}

_EXPERIMENT_KEYS = {
    "mode",
    "seeds",
    "out_dir",
    "noise_sweep",
    "averaging_sweep",
    "price_rule",
    "dataset",
    "game",
    "folds",
    "cv_seed",
    "bounds",
    "search",
}

# Fittable model tag -> the params keys that fix its family's structure.
_FIT_PARAMS = {
    "logit_qbr": (),
    "epsilon_nash": ("no_nash_fallback",),
    "level_k": ("num_levels", "response", "precision"),
}

_DEFAULT_BOUNDS_BY_PARAM = {
    "precision": (0.0, 10.0),
    "epsilon": (0.0, 1.0),
}


class ConfigError(ValueError):
    """Config schema or invariant violation; maps to exit code 2."""


@dataclass(frozen=True)
class ExperimentSpec:
    """Fully resolved run description; equal specs run identically."""

    mode: str
    scenario: FogScenario | None = None
    model: dict | None = None
    prospect: ProspectParams | None = None
    social: tuple[SocialPrefParams, ...] | None = None
    lottery: Lottery | None = None
    seeds: tuple[int, ...] = ()
    out_dir: str = "out"
    noise_sweep: tuple[float, ...] = ()
    averaging_sweep: tuple[bool, ...] = ()
    price_rule: str = "gradient_ascent"
    dataset: str | None = None
    game_path: str | None = None
    folds: int | None = None
    cv_seed: int = 0
    bounds: tuple[tuple[float, float], ...] | None = None
    search: tuple[int, int] = (
        _SEARCH_DEFAULTS["grid_points"],
        _SEARCH_DEFAULTS["refine_iters"],
    )


def _require_mapping(block, key: str) -> dict:
    if not isinstance(block, dict):
        raise ConfigError(f"{key}: expected a JSON object")
    return block


def _list(value, key: str) -> list:
    if not isinstance(value, list):
        raise ConfigError(f"{key}: expected a JSON list, got {value!r}")
    return value


def _integer(value, key: str, minimum: int) -> int:
    try:
        number = as_int(value, key)
    except ValueError:
        raise ConfigError(f"{key}: must be an integer, got {value!r}") from None
    if number < minimum:
        raise ConfigError(f"{key}: must be >= {minimum}")
    return number


def _number(value, key: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key}: must be a number, got {value!r}")
    return float(value)


def _scenario_from_config(block: dict) -> FogScenario:
    block = dict(block)
    preset = block.pop("preset", None)
    unknown = set(block) - _SCENARIO_KEYS
    if unknown:
        raise ConfigError(f"scenario.{sorted(unknown)[0]}: unknown key")
    for key in ("utility_weights", "quality_factors", "price_floors",
                "margin_factors", "initial_prices", "price_caps"):
        if key in block and isinstance(block[key], list):
            block[key] = tuple(block[key])
    try:
        if preset is None:
            return FogScenario(**block)
        if preset != "default":
            raise ConfigError(f"scenario.preset: unknown preset {preset!r}")
        return default_scenario(**block)
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"scenario: {exc}") from exc


def _social_from_config(block) -> tuple[SocialPrefParams, ...]:
    if isinstance(block, dict):
        block = [block]
    if not isinstance(block, list) or not block:
        raise ConfigError("social: expected an object or nonempty list of objects")
    try:
        return tuple(SocialPrefParams(**entry) for entry in block)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"social: {exc}") from exc


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
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    unknown = set(raw) - {"scenario", "model", "experiment",
                          "prospect", "social", "lottery"}
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown top-level key")

    experiment = _require_mapping(raw.get("experiment", {}), "experiment")
    unknown = set(experiment) - _EXPERIMENT_KEYS
    if unknown:
        raise ConfigError(f"experiment.{sorted(unknown)[0]}: unknown key")

    config_mode = experiment.get("mode")
    if mode is None:
        mode = config_mode
    elif config_mode is not None and config_mode != mode:
        raise ConfigError(
            f"experiment.mode: config says {config_mode!r} but the "
            f"{mode!r} command was invoked"
        )
    if mode not in _MODES:
        raise ConfigError(f"experiment.mode: must be one of {_MODES}")

    scenario = None
    if "scenario" in raw:
        scenario = _scenario_from_config(_require_mapping(raw["scenario"], "scenario"))
    model = raw.get("model")
    if model is not None:
        model = _require_mapping(model, "model")
        if "model" not in model:
            raise ConfigError("model.model: missing variant tag")

    prospect = social = lottery = None
    for key in ("prospect", "social", "lottery"):
        if key in raw and mode != "predict":
            raise ConfigError(f"{key}: only supported in predict mode")
    if "prospect" in raw:
        try:
            prospect = ProspectParams(**_require_mapping(raw["prospect"], "prospect"))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"prospect: {exc}") from exc
    if "social" in raw:
        social = _social_from_config(raw["social"])
    if "lottery" in raw:
        block = _require_mapping(raw["lottery"], "lottery")
        try:
            lottery = Lottery(
                outcomes=tuple(block["outcomes"]), probs=tuple(block["probs"])
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"lottery: {exc}") from exc

    seeds = tuple(
        _integer(seed, "experiment.seeds", 0)
        for seed in _list(experiment.get("seeds", []), "experiment.seeds")
    )
    if mode == "simulate" and not seeds:
        raise ConfigError("experiment.seeds: must be nonempty for simulate")

    out_dir = experiment.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"experiment.out_dir: must be a string, got {out_dir!r}")
    out_dir = out_dir or os.environ.get(OUT_DIR_ENV) or "out"

    noise_sweep = experiment.get("noise_sweep")
    if noise_sweep is None:
        noise_sweep = (scenario.noise_level,) if scenario else ()
    else:
        noise_sweep = tuple(
            _number(x, "experiment.noise_sweep")
            for x in _list(noise_sweep, "experiment.noise_sweep")
        )
        for rho in noise_sweep:
            if not 0.0 <= rho < 1.0:
                raise ConfigError("experiment.noise_sweep: values must lie in [0, 1)")
    averaging_sweep = experiment.get("averaging_sweep")
    if averaging_sweep is None:
        averaging_sweep = (scenario.averaging,) if scenario else ()
    else:
        _list(averaging_sweep, "experiment.averaging_sweep")
        if not all(isinstance(b, bool) for b in averaging_sweep):
            raise ConfigError("experiment.averaging_sweep: values must be booleans")
        averaging_sweep = tuple(averaging_sweep)

    price_rule = experiment.get("price_rule", "gradient_ascent")
    if price_rule not in PRICE_RULES:
        raise ConfigError(f"experiment.price_rule: must be one of {PRICE_RULES}")

    dataset = experiment.get("dataset")
    game_path = experiment.get("game")
    for key, value in (("dataset", dataset), ("game", game_path)):
        if value is None:
            continue
        if not isinstance(value, str):
            raise ConfigError(f"experiment.{key}: must be a path string, got {value!r}")
        if not Path(value).exists():
            raise ConfigError(f"experiment.{key}: path {value!r} does not exist")

    folds = experiment.get("folds")
    if folds is not None:
        folds = _integer(folds, "experiment.folds", 2)
    cv_seed = _integer(experiment.get("cv_seed", 0), "experiment.cv_seed", 0)

    bounds = experiment.get("bounds")
    if bounds is not None:
        pairs = _list(bounds, "experiment.bounds")
        if not all(isinstance(pair, list) and len(pair) == 2 for pair in pairs):
            raise ConfigError("experiment.bounds: expected a list of [low, high] pairs")
        bounds = tuple(
            (_number(lo, "experiment.bounds"), _number(hi, "experiment.bounds"))
            for lo, hi in pairs
        )
        for lo, hi in bounds:
            if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
                raise ConfigError(
                    f"experiment.bounds: [{lo}, {hi}] must be finite with low <= high"
                )
    search_block = experiment.get("search", {})
    _require_mapping(search_block, "experiment.search")
    unknown = set(search_block) - {"grid_points", "refine_iters"}
    if unknown:
        raise ConfigError(f"experiment.search.{sorted(unknown)[0]}: unknown key")
    options = {**_SEARCH_DEFAULTS, **search_block}
    search = (
        _integer(options["grid_points"], "experiment.search.grid_points", 3),
        _integer(options["refine_iters"], "experiment.search.refine_iters", 0),
    )

    # Mode-specific requirements.
    if mode == "simulate" and scenario is None:
        raise ConfigError("scenario: required for simulate")
    if mode == "fit":
        if dataset is None:
            raise ConfigError("experiment.dataset: required for fit")
        if model is None:
            raise ConfigError("model: required for fit")
    if mode == "predict":
        strategic = model is not None or game_path is not None
        lottery_mode = prospect is not None or lottery is not None
        if strategic and prospect is not None:
            raise ConfigError(
                "prospect: cannot be combined with a strategic model block; "
                "prospect valuation applies to exogenous lotteries only"
            )
        if strategic:
            if model is None or game_path is None:
                raise ConfigError("model: predict needs both model and experiment.game")
        elif lottery_mode:
            if prospect is None or lottery is None:
                raise ConfigError("lottery: predict needs both prospect and lottery")
        else:
            raise ConfigError(
                "model: predict needs either model + experiment.game "
                "or prospect + lottery"
            )

    return ExperimentSpec(
        mode=mode,
        scenario=scenario,
        model=model,
        prospect=prospect,
        social=social,
        lottery=lottery,
        seeds=seeds,
        out_dir=str(out_dir),
        noise_sweep=noise_sweep,
        averaging_sweep=averaging_sweep,
        price_rule=price_rule,
        dataset=dataset,
        game_path=game_path,
        folds=folds,
        cv_seed=cv_seed,
        bounds=bounds,
        search=search,
    )


def _as_config(record) -> dict:
    """A dataclass's fields as a config block, tuples written as lists."""
    return {
        name: list(value) if isinstance(value, tuple) else value
        for name, value in dataclasses.asdict(record).items()
    }


def resolved_config(spec: ExperimentSpec) -> dict:
    """Spec as a config document; parsing it back yields an equal spec."""
    experiment: dict = {
        "mode": spec.mode,
        "seeds": list(spec.seeds),
        "out_dir": spec.out_dir,
        "price_rule": spec.price_rule,
        "cv_seed": spec.cv_seed,
        "search": {"grid_points": spec.search[0], "refine_iters": spec.search[1]},
    }
    if spec.noise_sweep or spec.scenario is not None:
        experiment["noise_sweep"] = list(spec.noise_sweep)
        experiment["averaging_sweep"] = list(spec.averaging_sweep)
    for key, value in (
        ("dataset", spec.dataset),
        ("game", spec.game_path),
        ("folds", spec.folds),
    ):
        if value is not None:
            experiment[key] = value
    if spec.bounds is not None:
        experiment["bounds"] = [list(pair) for pair in spec.bounds]

    config: dict = {"experiment": experiment}
    if spec.scenario is not None:
        config["scenario"] = _as_config(spec.scenario)
    if spec.model is not None:
        config["model"] = spec.model
    if spec.prospect is not None:
        config["prospect"] = _as_config(spec.prospect)
    if spec.social is not None:
        config["social"] = [_as_config(s) for s in spec.social]
    if spec.lottery is not None:
        config["lottery"] = _as_config(spec.lottery)
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
    params = model.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("model.params: expected a JSON object")
    allowed = _FIT_PARAMS.get(tag) if isinstance(tag, str) else None
    if allowed is None:
        raise ConfigError(f"model.model: {tag!r} is not a fittable family")
    unknown = set(params) - set(allowed)
    if unknown:
        raise ConfigError(
            f"model.params.{sorted(unknown)[0]}: unknown key for fitting {tag!r}"
        )
    if tag == "logit_qbr":
        return qbr_family()
    if tag == "epsilon_nash":
        fallback = params.get("no_nash_fallback", "uniform")
        if fallback not in ("error", "uniform"):
            raise ConfigError(
                f"model.params.no_nash_fallback: must be 'error' or 'uniform', "
                f"got {fallback!r}"
            )
        return epsilon_nash_family(fallback)
    if "num_levels" not in params:
        raise ConfigError("model.params.num_levels: required to fit a level_k family")
    response = params.get("response", "exact_br")
    if response not in ("exact_br", "qbr"):
        raise ConfigError(
            f"model.params.response: must be 'exact_br' or 'qbr', got {response!r}"
        )
    if response == "exact_br" and "precision" in params:
        raise ConfigError("model.params.precision: only meaningful for the qbr response")
    precision = params.get("precision")
    if precision is not None:
        precision = _number(precision, "model.params.precision")
        if not (math.isfinite(precision) and precision >= 0):
            raise ConfigError("model.params.precision: must be finite and >= 0")
    return level_k_family(
        _integer(params["num_levels"], "model.params.num_levels", 1),
        response,
        precision,
    )


def _default_bounds(family: ModelFamily) -> tuple[tuple[float, float], ...]:
    bounds = []
    for name in family.param_names:
        if name in _DEFAULT_BOUNDS_BY_PARAM:
            bounds.append(_DEFAULT_BOUNDS_BY_PARAM[name])
        elif name.startswith("weight_"):
            bounds.append((0.0, 1.0))
        else:
            raise ConfigError(
                f"experiment.bounds: no default for parameter {name!r}; set bounds"
            )
    return tuple(bounds)


def run_simulate(spec: ExperimentSpec) -> int:
    """Run every (noise, averaging, seed) cell; write traces + summary."""
    assert spec.scenario is not None
    out = Path(spec.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _atomic_write_text(out / "resolved_config.json", _json_text(resolved_config(spec)))

    cells = {
        (rho, averaging, seed)
        for rho in spec.noise_sweep
        for averaging in spec.averaging_sweep
        for seed in spec.seeds
    }
    manifest_cells = []
    traces: list[NegotiationTrace] = []
    for rho, averaging, seed in sorted(cells):
        entry = {"noise_level": rho, "averaging": averaging, "seed": seed}
        try:
            scenario = dataclasses.replace(
                spec.scenario, noise_level=rho, averaging=averaging
            )
            trace = run_negotiation(scenario, spec.price_rule, seed)
            name = f"trace_{rho}_{str(averaging).lower()}_{seed}.csv"
            _atomic_write_trace(trace, out / name)
        except Exception as exc:  # noqa: BLE001 — keep going, record fault
            entry.update(status="failed", error=str(exc))
        else:
            traces.append(trace)
            entry.update(
                status="ok",
                file=name,
                rounds=len(trace.rounds),
                converged=trace.converged,
                convergence_round=trace.convergence_round,
            )
        manifest_cells.append(entry)
    failures = len(manifest_cells) - len(traces)

    if traces:
        summary = compute_metrics(traces)
        _atomic_write_text(out / "summary.json", _json_text(summary.to_dict()))
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
    except ValueError as exc:
        raise ConfigError(f"experiment.dataset: {exc}") from exc
    if len(data) == 0:
        raise ConfigError("experiment.dataset: empty dataset")
    if spec.folds is not None and len(data) < spec.folds:
        raise ConfigError(
            f"experiment.folds: {spec.folds} folds need at least "
            f"{spec.folds} observations, dataset has {len(data)}"
        )
    bounds = spec.bounds if spec.bounds is not None else _default_bounds(family)
    if len(bounds) != family.num_params:
        raise ConfigError(
            f"experiment.bounds: family {family.name!r} has "
            f"{family.num_params} parameters, got {len(bounds)} bounds"
        )
    search = {"grid_points": spec.search[0], "refine_iters": spec.search[1]}
    result = fit_mle(family, data, bounds, search)
    if spec.folds is not None:
        cv = cross_validate(family, data, spec.folds, bounds, search, spec.cv_seed)
        result = dataclasses.replace(result, cv_score=cv)
    payload = {"family": family.name, **result.to_dict()}
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
    assert spec.model is not None and spec.game_path is not None
    try:
        game = load_game(spec.game_path)
    except ValueError as exc:
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
    strategies = [
        list(predict(model, game, player).weights)
        for player in range(game.num_players)
    ]
    sys.stdout.write(_json_text({"strategies": strategies}))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foggame",
        description="Seeded market simulations, model fitting, and prediction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command in _MODES:
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
