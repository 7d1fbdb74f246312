from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import foggame.cli as cli
from foggame import behavior, estimation, market
from foggame.behavior import EpsilonNash, LevelK, model_from_dict, model_to_dict
from foggame.cli import (
    OUT_DIR_ENV,
    ConfigError,
    main,
    parse_config,
    resolved_config,
)
from foggame.estimation import (
    Observation,
    SearchOptions,
    sample_observations,
    save_observations,
)
from foggame.games import load_game, save_game
from foggame.preferences import (
    Lottery,
    ProspectParams,
    SocialPrefParams,
    pt_evaluate,
    transform_game_social,
)

from conftest import random_game

REPO = Path(__file__).resolve().parent.parent

# Game records whose payoffs are not a list of numbers per player "0".."N-1".
_GOOD_ROW = [1.0, 0.0, 0.0, 1.0]
BAD_PAYOFFS = [
    5,
    {"0": {"a": 1.0}, "1": _GOOD_ROW},
    {"0": [{}, 0.0, 0.0, 1.0], "1": _GOOD_ROW},
    {"0": [True, 0.0, 0.0, 1.0], "1": _GOOD_ROW},
    {"0": _GOOD_ROW, "1": ["1.5", 0.0, 0.0, 1.0]},
    {"0": _GOOD_ROW, "1": _GOOD_ROW, "7": _GOOD_ROW},
    {"0": _GOOD_ROW},
]
BAD_PAYOFF_IDS = ["non-object", "object-entry", "object-payoff", "bool", "string", "extra-key",
                  "missing-player"]

# Predict model blocks that take a logit `precision`; each test adds it.
PRECISION_MODELS = [
    {"model": "logit_qbr", "params": {}},
    {"model": "level_k", "params": {"level_weights": [0.5, 0.5], "response": "qbr"}},
    {"model": "cognitive_hierarchy",
     "params": {"poisson_mean": 1.5, "max_level": 2, "response": "qbr"}},
    {"model": "noisy_introspection", "params": {"decay": 0.5, "max_depth": 3}},
]

# Configs whose resolved form must parse back to the same spec: the shipped
# ones plus one of each optional block and every fit option.
ROUND_TRIP_CONFIGS = {
    "shipped_fit_qbr": "configs/fit_qbr.json",
    "shipped_predict_levelk": "configs/predict_levelk.json",
    "shipped_simulate_default": "configs/simulate_default.json",
    "shipped_simulate_sweep": "configs/simulate_sweep.json",
    "simulate_sweeps": {
        "scenario": {"preset": "default", "noise_level": 0.05},
        "experiment": {
            "mode": "simulate",
            "seeds": [3, 4],
            "noise_sweep": [0.0, 0.05],
            "averaging_sweep": [False, True],
            "out_dir": "o",
        },
    },
    "predict_prospect_lottery": {
        "prospect": {"gain_curvature": 0.8, "loss_aversion": 2.0},
        "lottery": {"outcomes": [-3.0, 1.5, 10.0], "probs": [0.3, 0.5, 0.2]},
        "experiment": {"mode": "predict"},
    },
    "predict_social_list": {
        "model": {"model": "cognitive_hierarchy",
                  "params": {"poisson_mean": 1.5, "max_level": 3,
                             "response": "qbr", "precision": 2.0}},
        "social": [
            {"altruism_weight": 0.5},
            {"inequity_weight": 0.25, "envy_weight": 0.1,
             "inequity_metric": "mean_deviation"},
        ],
        "experiment": {"mode": "predict", "game": "data/example_game.json"},
    },
    "fit_bounds_folds_search": {
        "model": {"model": "level_k",
                  "params": {"num_levels": 2, "response": "qbr"}},
        "experiment": {
            "mode": "fit",
            "dataset": "data/qbr_lambda2.jsonl",
            "bounds": [[0, 1], [0.0, 1.0], [0.5, 4]],
            "folds": 3,
            "cv_seed": 5,
            "search": {"grid_points": 5},
            "out_dir": "o",
        },
    },
}


def _src_env() -> dict:
    """The environment of a child process that imports foggame from ``src``."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))}


def write_config(tmp_path: Path, payload: dict, name: str = "config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(payload, indent=2))
    return str(path)


def simulate_config(out_dir: Path, **experiment) -> dict:
    exp = {"mode": "simulate", "seeds": [0], "out_dir": str(out_dir)}
    exp.update(experiment)
    return {
        "scenario": {"preset": "default", "max_rounds": 150},
        "experiment": exp,
    }


def fit_config(**experiment) -> dict:
    """A logit-QBR fit of the shipped dataset, with ``experiment`` keys added."""
    return {
        "model": {"model": "logit_qbr"},
        "experiment": {"mode": "fit", "dataset": str(REPO / "data" / "qbr_lambda2.jsonl"),
                       **experiment},
    }


class TestParseConfig:
    def test_minimal_config_fills_defaults(self, tmp_path, monkeypatch):
        monkeypatch.delenv(OUT_DIR_ENV, raising=False)
        path = write_config(
            tmp_path,
            {
                "scenario": {"num_nodes": 2, "budget": 5.0},
                "experiment": {"mode": "simulate", "seeds": [0, 1]},
            },
        )
        spec = parse_config(path)
        assert spec.mode == "simulate"
        assert spec.scenario.num_nodes == 2
        assert spec.scenario.price_floors == (1.0, 1.0)
        assert spec.seeds == (0, 1)
        assert spec.out_dir == "out"
        assert spec.price_rule == "gradient_ascent"
        assert spec.noise_sweep == (0.0,)
        assert spec.averaging_sweep == (False,)
        fit = parse_config(write_config(tmp_path, fit_config(), name="fit.json"))
        assert fit.out_dir == "out"
        assert (fit.folds, fit.cv_seed, fit.bounds) == (None, 0, None)
        assert fit.search == SearchOptions(grid_points=11, refine_iters=40)

    def test_invariant_violation_names_key(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": {
                    "num_nodes": 1,
                    "budget": 5.0,
                    "price_floors": 2.0,
                    "initial_prices": 1.0,
                },
                "experiment": {"mode": "simulate", "seeds": [0]},
            },
        )
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "initial_prices" in str(err.value)

    def test_unknown_keys_are_named(self, tmp_path):
        for payload, fragment in [
            ({"mystery": 1, "experiment": {"mode": "predict"}}, "mystery"),
            (
                {
                    "scenario": {"num_nodes": 1, "budget": 1.0, "colour": 3},
                    "experiment": {"mode": "simulate", "seeds": [0]},
                },
                "scenario.colour",
            ),
            (
                {"experiment": {"mode": "predict", "gpus": 8}},
                "experiment.gpus",
            ),
            (fit_config(search={"steps": 5}), "experiment.search.steps"),
        ]:
            path = write_config(tmp_path, payload)
            with pytest.raises(ConfigError) as err:
                parse_config(path)
            assert fragment in str(err.value)

    def test_mode_mismatch_rejected(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": {"num_nodes": 1, "budget": 1.0},
                "experiment": {"mode": "simulate", "seeds": [0]},
            },
        )
        with pytest.raises(ConfigError):
            parse_config(path, mode="fit")

    def test_simulate_needs_seeds(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": {"num_nodes": 1, "budget": 1.0},
                "experiment": {"mode": "simulate"},
            },
        )
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "seeds" in str(err.value)

    def test_prospect_restricted_to_predict(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": {"num_nodes": 1, "budget": 1.0},
                "experiment": {"mode": "simulate", "seeds": [0]},
                "prospect": {},
            },
        )
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_noise_sweep_range_checked(self, tmp_path):
        path = write_config(
            tmp_path,
            {
                "scenario": {"num_nodes": 1, "budget": 1.0},
                "experiment": {
                    "mode": "simulate",
                    "seeds": [0],
                    "noise_sweep": [0.0, 1.0],
                },
            },
        )
        with pytest.raises(ConfigError) as err:
            parse_config(path)
        assert "noise_sweep" in str(err.value)

    def test_env_var_supplies_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "from_env"))
        path = write_config(
            tmp_path,
            {
                "scenario": {"num_nodes": 1, "budget": 1.0},
                "experiment": {"mode": "simulate", "seeds": [0]},
            },
        )
        assert parse_config(path).out_dir == str(tmp_path / "from_env")

    def test_config_out_dir_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path / "from_env"))
        path = write_config(
            tmp_path,
            {
                "scenario": {"num_nodes": 1, "budget": 1.0},
                "experiment": {
                    "mode": "simulate",
                    "seeds": [0],
                    "out_dir": str(tmp_path / "explicit"),
                },
            },
        )
        assert parse_config(path).out_dir == str(tmp_path / "explicit")

    @pytest.mark.parametrize("config", sorted(ROUND_TRIP_CONFIGS))
    def test_resolved_round_trip(self, tmp_path, monkeypatch, config):
        # Relative dataset and game paths resolve against the repo root,
        # as they do for the shipped configs.
        monkeypatch.chdir(REPO)
        monkeypatch.delenv(OUT_DIR_ENV, raising=False)
        payload = ROUND_TRIP_CONFIGS[config]
        if isinstance(payload, str):
            payload = json.loads((REPO / payload).read_text())
        spec = parse_config(write_config(tmp_path, payload))
        resolved = resolved_config(spec)
        dumped = write_config(tmp_path, resolved, name="resolved.json")
        assert parse_config(dumped) == spec
        assert resolved_config(parse_config(dumped)) == resolved

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError):
            parse_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            parse_config(path)


LEVEL_K = {"model": "level_k", "params": {"level_weights": [0.25, 0.5, 0.25]}}

# One config per request shape, each with only the keys its run reads.
REQUESTS = {
    "simulate": lambda out: simulate_config(out),
    "fit": lambda out: fit_config(out_dir=str(out)),
    "predict": lambda out: {
        "model": LEVEL_K,
        "experiment": {"mode": "predict", "game": str(REPO / "data" / "example_game.json")},
    },
    "lottery": lambda out: {
        "prospect": {},
        "lottery": {"outcomes": [1.0, -1.0], "probs": [0.5, 0.5]},
        "experiment": {"mode": "predict"},
    },
}

# (request shape, path of a key only another shape reads, a value for it)
CROSS_SHAPE_KEYS = [
    ("simulate", "experiment.dataset", "data/qbr_lambda2.jsonl"),
    ("simulate", "experiment.folds", 3),
    ("simulate", "experiment.search", {"grid_points": 5}),
    ("simulate", "model", LEVEL_K),
    ("fit", "experiment.seeds", [0]),
    ("fit", "experiment.price_rule", "foc_root"),
    ("fit", "scenario", {"preset": "default"}),
    ("fit", "social", {"altruism_weight": 0.5}),
    ("predict", "experiment.seeds", [0]),
    ("predict", "experiment.folds", 3),
    ("predict", "experiment.out_dir", "o"),
    ("predict", "scenario", {"preset": "default"}),
    ("lottery", "experiment.game", "data/example_game.json"),
    ("lottery", "model", LEVEL_K),
    ("lottery", "social", {"altruism_weight": 0.5}),
]


def _request(shape: str, out: Path) -> dict:
    return copy.deepcopy(REQUESTS[shape](out))


def _mode(config: dict) -> str:
    return config["experiment"]["mode"]


class TestRequestShapes:
    """Each request shape accepts exactly the keys its run reads."""

    @pytest.mark.parametrize("shape, key, value", CROSS_SHAPE_KEYS,
                             ids=[f"{shape}-{key}" for shape, key, _ in CROSS_SHAPE_KEYS])
    def test_key_another_shape_reads_exits_2(self, tmp_path, capsys, shape, key, value):
        config = _request(shape, tmp_path / "out")
        *parents, name = key.split(".")
        (config[parents[0]] if parents else config)[name] = value
        assert main([_mode(config), write_config(tmp_path, config)]) == 2
        assert capsys.readouterr() == ("", f"error: {key}: unknown key\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape", ["fit", "predict"])
    def test_unknown_model_block_key_exits_2(self, tmp_path, capsys, shape):
        config = _request(shape, tmp_path / "out")
        config["model"] = {**config["model"], "colour": 3}
        assert main([_mode(config), write_config(tmp_path, config)]) == 2
        assert capsys.readouterr() == ("", "error: model.colour: unknown key\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shape, key", [
        ("simulate", "scenario"),
        ("simulate", "experiment.seeds"),
        ("fit", "model"),
        ("fit", "experiment.dataset"),
        ("fit", "model.model"),
        ("predict", "model"),
        ("predict", "experiment.game"),
        ("predict", "model.model"),
        ("lottery", "lottery"),
        ("lottery", "prospect"),
    ])
    def test_missing_key_named_by_its_path(self, tmp_path, capsys, shape, key):
        config = _request(shape, tmp_path / "out")
        *parents, name = key.split(".")
        del (config[parents[0]] if parents else config)[name]
        assert main([_mode(config), write_config(tmp_path, config)]) == 2
        assert capsys.readouterr() == ("", f"error: {key}: missing\n")

    @pytest.mark.parametrize("name, blocks, keys", [
        ("simulate_default", {"scenario"},
         {"mode", "seeds", "out_dir", "noise_sweep", "averaging_sweep", "price_rule"}),
        ("fit_qbr", {"model"}, {"mode", "dataset", "out_dir", "cv_seed", "bounds", "search"}),
        ("predict_levelk", {"model"}, {"mode", "game"}),
    ], ids=["simulate_default", "fit_qbr", "predict_levelk"])
    def test_resolved_config_holds_only_keys_the_run_reads(
            self, monkeypatch, capsys, name, blocks, keys):
        monkeypatch.chdir(REPO)
        config = f"configs/{name}.json"
        assert main([_mode(json.loads(Path(config).read_text())), config,
                     "--dump-resolved-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert set(dumped) == blocks | {"experiment"}
        assert set(dumped["experiment"]) == keys
        if name == "predict_levelk":
            assert dumped == json.loads(Path(config).read_text())

    def test_out_flag_has_nothing_to_override_in_predict(self, tmp_path, capsys):
        config = _request("predict", tmp_path / "out")
        path = write_config(tmp_path, config)
        assert main(["predict", path]) == 0
        plain = capsys.readouterr()
        assert main(["predict", path, "--out", str(tmp_path / "flag")]) == 0
        assert capsys.readouterr() == plain
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


class TestSimulate:
    def test_single_cell_end_to_end(self, tmp_path):
        out = tmp_path / "out"
        path = write_config(tmp_path, simulate_config(out))
        assert main(["simulate", path]) == 0

        trace_file = out / "trace_0.0_false_0.csv"
        assert trace_file.exists()
        assert (out / "resolved_config.json").exists()

        summary = json.loads((out / "summary.json").read_text())
        assert summary["configs"][0]["convergence_rate"] == 1.0

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["num_failed"] == 0
        cell = manifest["cells"][0]
        assert cell["status"] == "ok" and cell["converged"] is True

        # row count = header + rounds x nodes
        lines = trace_file.read_text().strip().split("\n")
        assert len(lines) == 1 + cell["rounds"] * 4

    def test_byte_identical_reruns(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg = simulate_config(
            out_a, seeds=[0, 1], noise_sweep=[0.0, 0.1]
        )
        path_a = write_config(tmp_path, cfg, name="a.json")
        cfg_b = json.loads(json.dumps(cfg))
        cfg_b["experiment"]["out_dir"] = str(out_b)
        path_b = write_config(tmp_path, cfg_b, name="b.json")

        assert main(["simulate", path_a]) == 0
        assert main(["simulate", path_b]) == 0
        for name in sorted(p.name for p in out_a.glob("*.csv")):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / "summary.json").read_bytes() == (
            out_b / "summary.json"
        ).read_bytes()

    def test_cell_order_does_not_change_output(self, tmp_path):
        out_a, out_b = tmp_path / "ascending", tmp_path / "shuffled"
        cfg = simulate_config(out_a, seeds=[0, 1, 2], noise_sweep=[0.0, 0.1])
        path_a = write_config(tmp_path, cfg, name="ascending.json")
        cfg_b = simulate_config(out_b, seeds=[2, 0, 1, 0], noise_sweep=[0.1, 0.0])
        path_b = write_config(tmp_path, cfg_b, name="shuffled.json")

        assert main(["simulate", path_a]) == 0
        assert main(["simulate", path_b]) == 0
        names = sorted(p.name for p in out_a.glob("*.csv"))
        assert names == sorted(p.name for p in out_b.glob("*.csv"))
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        assert (out_a / "manifest.json").read_bytes() == (
            out_b / "manifest.json"
        ).read_bytes()

    def test_out_flag_overrides_config(self, tmp_path):
        out_cfg, out_flag = tmp_path / "cfg", tmp_path / "flag"
        path = write_config(tmp_path, simulate_config(out_cfg))
        assert main(["simulate", path, "--out", str(out_flag)]) == 0
        assert (out_flag / "summary.json").exists()
        assert not out_cfg.exists()

    def test_failed_cell_recorded_in_manifest(self, tmp_path, monkeypatch):
        real = cli._negotiate

        def flaky(scenario, cells, price_rule):
            for j, outcome in real(scenario, cells, price_rule):
                yield j, RuntimeError("synthetic fault") if cells[j][2] == 1 else outcome

        monkeypatch.setattr(cli, "_negotiate", flaky)
        out = tmp_path / "out"
        path = write_config(tmp_path, simulate_config(out, seeds=[0, 1, 2]))
        assert main(["simulate", path]) == 3

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["num_failed"] == 1
        by_seed = {cell["seed"]: cell for cell in manifest["cells"]}
        assert by_seed[1]["status"] == "failed"
        assert "synthetic fault" in by_seed[1]["error"]
        assert by_seed[0]["status"] == by_seed[2]["status"] == "ok"
        # successful cells keep their outputs
        assert (out / "trace_0.0_false_0.csv").exists()
        assert not (out / "trace_0.0_false_1.csv").exists()
        assert (out / "summary.json").exists()

    def test_kernel_fault_fails_every_cell(self, tmp_path, monkeypatch):
        def broken(scenario, cells, price_rule):
            raise MemoryError("synthetic allocation failure")

        monkeypatch.setattr(cli, "_negotiate", broken)
        out = tmp_path / "out"
        path = write_config(tmp_path, simulate_config(out, seeds=[0, 1]))
        assert main(["simulate", path]) == 3

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["num_failed"] == len(manifest["cells"]) == 2
        for cell in manifest["cells"]:
            assert cell["status"] == "failed"
            assert cell["error"] == "synthetic allocation failure"
        assert not list(out.glob("*.csv"))
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("ended", [1, 3])
    def test_kernel_fault_fails_only_the_cells_still_running(self, tmp_path, monkeypatch, ended):
        # the clean cells converge long before the noisy ones, which run on
        # to max_rounds; the kernel fails after ``ended`` cells have ended
        real, done = cli._negotiate, []

        def faulty(scenario, cells, price_rule):
            for j, outcome in real(scenario, cells, price_rule):
                if len(done) == ended:
                    raise MemoryError("synthetic allocation failure")
                done.append(cells[j])
                yield j, outcome

        monkeypatch.setattr(cli, "_negotiate", faulty)
        out = tmp_path / "out"
        path = write_config(tmp_path, simulate_config(out, seeds=[0, 1, 2],
                                                      noise_sweep=[0.0, 0.1]))
        assert main(["simulate", path]) == 3

        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["num_failed"] == 6 - ended
        for cell in manifest["cells"]:
            key = (cell["noise_level"], cell["averaging"], cell["seed"])
            if key in done:
                assert cell["status"] == "ok"
                assert (out / cell["file"]).exists()
            else:
                assert cell["status"] == "failed"
                assert cell["error"] == "synthetic allocation failure"
        assert len(list(out.glob("*.csv"))) == ended
        summary = json.loads((out / "summary.json").read_text())
        assert sum(config["num_traces"] for config in summary["configs"]) == ended

    def test_cell_written_before_the_next_cell_ends(self, tmp_path, monkeypatch):
        real, on_disk = cli._negotiate, []
        out = tmp_path / "out"

        def watched(scenario, cells, price_rule):
            for j, outcome in real(scenario, cells, price_rule):
                yield j, outcome
                # the run asks for the next cell only once this one is written
                rho, averaging, seed = cells[j]
                on_disk.append((out / f"trace_{rho}_{str(averaging).lower()}_{seed}.csv").exists())

        monkeypatch.setattr(cli, "_negotiate", watched)
        path = write_config(tmp_path, simulate_config(out, seeds=[0, 1], noise_sweep=[0.0, 0.1]))
        assert main(["simulate", path]) == 0
        assert on_disk == [True] * 4

    def test_run_keeps_no_trace_beside_the_one_it_writes(self, tmp_path, monkeypatch):
        # 40 raw noisy cells run all 2000 rounds; a run that kept every
        # trace until the last cell ended would peak above their summed size
        written, write = [], cli.write_trace_csv

        def sized(trace, path):
            written.append(sum(a.nbytes for a in (trace.prices, trace.demands,
                                                   trace.gains, trace.utilities)))
            write(trace, path)

        monkeypatch.setattr(cli, "write_trace_csv", sized)
        config = simulate_config(tmp_path / "out", seeds=list(range(40)), noise_sweep=[0.05])
        config["scenario"] = {"preset": "default"}
        spec = parse_config(write_config(tmp_path, config))
        tracemalloc.start()
        try:
            assert cli.run_simulate(spec) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(written) == 40
        assert peak < sum(written)

    def test_negative_zero_noise_exits_0(self, tmp_path):
        out_zero, out_neg = tmp_path / "zero", tmp_path / "neg"
        assert main(["simulate", write_config(tmp_path, simulate_config(out_zero), "z.json")]) == 0
        config = simulate_config(out_neg, noise_sweep=[-0.0])
        config["scenario"]["noise_level"] = -0.0
        assert main(["simulate", write_config(tmp_path, config, "n.json")]) == 0
        assert (out_neg / "trace_-0.0_false_0.csv").read_bytes() == (
            out_zero / "trace_0.0_false_0.csv").read_bytes()

    def test_overflowing_scenario_fails_its_cells(self, tmp_path):
        # demands overflow in the first round; each cell records the same
        # error the public demand check gives, and the run exits 3
        out = tmp_path / "out"
        config = simulate_config(out, seeds=[0, 1])
        config["scenario"] = {"num_nodes": 2, "budget": 1e300, "price_floors": 1e-10}
        for rule in ("gradient_ascent", "foc_root"):
            config["experiment"]["price_rule"] = rule
            path = write_config(tmp_path, config, name=f"{rule}.json")
            with np.errstate(over="ignore"):
                assert main(["simulate", path]) == 3
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["num_failed"] == 2
            for cell in manifest["cells"]:
                assert cell["status"] == "failed"
                assert cell["error"] == "demands must be finite"
            assert not (out / "summary.json").exists()

    def test_dump_resolved_config_runs_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, simulate_config(out))
        assert main(["simulate", path, "--dump-resolved-config"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["experiment"]["mode"] == "simulate"
        assert not out.exists()

    def test_bad_config_exit_code(self, tmp_path):
        path = write_config(tmp_path, {"experiment": {"mode": "simulate"}})
        assert main(["simulate", path]) == 2
        assert main(["simulate", str(tmp_path / "missing.json")]) == 2

    def test_workers_option_removed(self, tmp_path, capsys):
        out = tmp_path / "out"
        path = write_config(tmp_path, simulate_config(out, workers=2))
        assert main(["simulate", path]) == 2
        assert "experiment.workers" in capsys.readouterr().err
        path = write_config(tmp_path, simulate_config(out), name="plain.json")
        with pytest.raises(SystemExit) as err:
            main(["simulate", path, "--workers", "2"])
        assert err.value.code == 2
        assert not out.exists()


class TestRepeatedMain:
    """``main`` builds its parser once per process; no call leaks into the next."""

    def _predict_config(self, tmp_path) -> str:
        return write_config(tmp_path, {
            "model": {"model": "level_k", "params": {"level_weights": [0.25, 0.5, 0.25]}},
            "experiment": {"mode": "predict", "game": str(REPO / "data" / "example_game.json")},
        })

    def test_parser_is_built_once(self):
        assert cli._build_parser() is cli._build_parser()

    def test_bad_argv_leaves_next_call_unchanged(self, tmp_path, capsys):
        path = self._predict_config(tmp_path)
        alone = subprocess.run([sys.executable, "-m", "foggame.cli", "predict", path],
                               env=_src_env(), capture_output=True, text=True)
        assert alone.returncode == 0

        cli._build_parser.cache_clear()
        assert main(["predict", path]) == 0
        first = capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["predict"])
        assert err.value.code == 2
        assert capsys.readouterr().err.startswith("usage: foggame")
        assert main(["predict", path]) == 0
        assert capsys.readouterr() == first == (alone.stdout, "")

    def test_dump_then_plain_call_runs(self, tmp_path, capsys):
        path = self._predict_config(tmp_path)
        assert main(["predict", path, "--dump-resolved-config"]) == 0
        assert "experiment" in json.loads(capsys.readouterr().out)
        assert main(["predict", path]) == 0
        assert list(json.loads(capsys.readouterr().out)) == ["strategies"]

    @pytest.mark.parametrize("source", ["config", "env"])
    def test_out_flag_does_not_stick(self, tmp_path, monkeypatch, source):
        flag, default = tmp_path / "flag", tmp_path / "default"
        config = simulate_config(default)
        if source == "env":
            del config["experiment"]["out_dir"]
            monkeypatch.setenv(OUT_DIR_ENV, str(default))
        path = write_config(tmp_path, config)
        assert main(["simulate", path, "--out", str(flag)]) == 0
        written = sorted(p.name for p in flag.iterdir())
        assert "manifest.json" in written and not default.exists()
        assert main(["simulate", path]) == 0
        assert sorted(p.name for p in default.iterdir()) == written
        assert sorted(p.name for p in flag.iterdir()) == written


class TestConfigTypes:
    """A value of the wrong type exits 2 and names its key; nothing runs."""

    def _rejected(self, tmp_path, capsys, config, key):
        path = write_config(tmp_path, config)
        assert main([config["experiment"]["mode"], path]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_string_seed(self, tmp_path, capsys):
        config = simulate_config(tmp_path / "out", seeds=["x"])
        self._rejected(tmp_path, capsys, config, "experiment.seeds")

    def test_bool_seed(self, tmp_path, capsys):
        config = simulate_config(tmp_path / "out", seeds=[True])
        self._rejected(tmp_path, capsys, config, "experiment.seeds")

    def test_negative_seed(self, tmp_path, capsys):
        config = simulate_config(tmp_path / "out", seeds=[-1])
        self._rejected(tmp_path, capsys, config, "experiment.seeds")

    def test_string_noise_level(self, tmp_path, capsys):
        config = simulate_config(tmp_path / "out", noise_sweep=["a"])
        self._rejected(tmp_path, capsys, config, "experiment.noise_sweep")

    def test_fractional_max_rounds(self, tmp_path, capsys):
        config = simulate_config(tmp_path / "out")
        config["scenario"]["max_rounds"] = 10.5
        self._rejected(tmp_path, capsys, config, "max_rounds")

    def test_max_rounds_beyond_the_limit(self, tmp_path, capsys):
        config = simulate_config(tmp_path / "out")
        config["scenario"]["max_rounds"] = 10**15
        self._rejected(tmp_path, capsys, config, "scenario.max_rounds")

    def test_fractional_num_nodes(self, tmp_path, capsys):
        config = simulate_config(tmp_path / "out")
        config["scenario"]["num_nodes"] = 4.5
        self._rejected(tmp_path, capsys, config, "num_nodes")

    def test_bool_averaging_window(self, tmp_path, capsys):
        config = simulate_config(tmp_path / "out")
        config["scenario"]["averaging_window"] = True
        self._rejected(tmp_path, capsys, config, "averaging_window")

    def test_string_budget(self, tmp_path, capsys):
        config = simulate_config(tmp_path / "out")
        config["scenario"]["budget"] = "ten"
        self._rejected(tmp_path, capsys, config, "budget")

    def test_non_list_sweep(self, tmp_path, capsys):
        config = simulate_config(tmp_path / "out", averaging_sweep=True)
        self._rejected(tmp_path, capsys, config, "experiment.averaging_sweep")

    def test_fractional_search_option(self, tmp_path, capsys):
        config = fit_config(out_dir=str(tmp_path / "out"), search={"grid_points": 7.5})
        self._rejected(tmp_path, capsys, config, "experiment.search.grid_points")

    def test_integral_float_accepted(self, tmp_path):
        config = simulate_config(tmp_path / "out", seeds=[1.0])
        config["scenario"]["max_rounds"] = 20.0
        spec = parse_config(write_config(tmp_path, config))
        assert spec.seeds == (1,)
        assert spec.scenario.max_rounds == 20


@pytest.fixture()
def observation_file(tmp_path, pd_game, asym_game, coord_game):
    truth = EpsilonNash(epsilon=0.2, no_nash_fallback="uniform")
    data = sample_observations(
        truth, [pd_game, asym_game, coord_game], 300, seed=17
    )
    path = tmp_path / "observations.jsonl"
    save_observations(data, path)
    return path


class TestFit:
    def test_fit_epsilon_recovery(self, tmp_path, observation_file, capsys):
        out = tmp_path / "fit_out"
        path = write_config(
            tmp_path,
            {
                "model": {"model": "epsilon_nash", "params": {}},
                "experiment": {
                    "mode": "fit",
                    "dataset": str(observation_file),
                    "out_dir": str(out),
                    "folds": 3,
                    "search": {"grid_points": 11, "refine_iters": 10},
                },
            },
        )
        assert main(["fit", path]) == 0
        printed = json.loads(capsys.readouterr().out)
        stored = json.loads((out / "fit_result.json").read_text())
        assert printed == stored
        assert stored["family"] == "epsilon_nash"
        assert stored["param_names"] == ["epsilon"]
        assert 0.05 <= stored["params"][0] <= 0.4
        assert stored["log_likelihood"] <= 0
        assert stored["cv_score"] is not None and stored["cv_score"] <= 0

    def test_empty_dataset_message(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        path = write_config(
            tmp_path,
            {
                "model": {"model": "logit_qbr", "params": {}},
                "experiment": {"mode": "fit", "dataset": str(empty)},
            },
        )
        assert main(["fit", path]) == 2
        assert "empty dataset" in capsys.readouterr().err

    def test_solver_failure_exits_3_and_says_where(self, tmp_path, monkeypatch, capsys, pd_game):
        dataset = tmp_path / "obs.jsonl"
        save_observations([Observation(pd_game, 0, 1)], dataset)
        path = write_config(
            tmp_path,
            {
                "model": {"model": "logit_qbr", "params": {}},
                "experiment": {"mode": "fit", "dataset": str(dataset)},
            },
        )

        def failing(games, precision):
            return [
                behavior.FixedPointError(
                    "no fixed point within 10000 iterations (residual 2.380e-03)", [], 2.38e-3
                )
                for _ in games
            ]

        monkeypatch.setattr(behavior, "_qbr_stack", failing)
        assert main(["fit", path]) == 3
        assert capsys.readouterr().err == (
            "runtime error: no fixed point within 10000 iterations (residual 2.380e-03)"
            " at precision=0.0, game of observation 0\n"
        )

    def test_too_many_folds(self, tmp_path, pd_game):
        small = tmp_path / "small.jsonl"
        save_observations([Observation(pd_game, 0, 1)] * 4, small)
        path = write_config(
            tmp_path,
            {
                "model": {"model": "logit_qbr", "params": {}},
                "experiment": {
                    "mode": "fit",
                    "dataset": str(small),
                    "folds": 5,
                },
            },
        )
        assert main(["fit", path]) == 2

    def test_malformed_dataset_lists_lines(self, tmp_path, pd_game, capsys):
        good_file = tmp_path / "seed.jsonl"
        save_observations([Observation(pd_game, 0, 1)], good_file)
        good_line = good_file.read_text().strip()
        bad = tmp_path / "bad.jsonl"
        bad.write_text(f"{good_line}\nnot json\n")
        path = write_config(
            tmp_path,
            {
                "model": {"model": "logit_qbr", "params": {}},
                "experiment": {"mode": "fit", "dataset": str(bad)},
            },
        )
        assert main(["fit", path]) == 2
        assert "2" in capsys.readouterr().err

    def test_unfittable_model_rejected(self, tmp_path, observation_file):
        path = write_config(
            tmp_path,
            {
                "model": {"model": "best_response", "params": {}},
                "experiment": {
                    "mode": "fit",
                    "dataset": str(observation_file),
                },
            },
        )
        assert main(["fit", path]) == 2

    def test_fractional_num_levels_rejected(self, tmp_path, observation_file, capsys):
        path = write_config(
            tmp_path,
            {
                "model": {"model": "level_k", "params": {"num_levels": 2.5}},
                "experiment": {
                    "mode": "fit",
                    "dataset": str(observation_file),
                },
            },
        )
        assert main(["fit", path]) == 2
        assert "model.params.num_levels" in capsys.readouterr().err


    def test_non_integer_choice_rejected(self, tmp_path, pd_game, capsys):
        record = {"game": pd_game.to_dict(), "player": True, "action": 1}
        dataset = tmp_path / "bad.jsonl"
        dataset.write_text(json.dumps(record) + "\n")
        path = write_config(
            tmp_path,
            {
                "model": {"model": "logit_qbr", "params": {}},
                "experiment": {"mode": "fit", "dataset": str(dataset)},
            },
        )
        assert main(["fit", path]) == 2
        assert "experiment.dataset: malformed observation lines: 1" in capsys.readouterr().err

    @pytest.mark.parametrize("payoffs", BAD_PAYOFFS, ids=BAD_PAYOFF_IDS)
    def test_malformed_payoffs_reported_as_line(self, tmp_path, pd_game, capsys, payoffs):
        good = {"game": pd_game.to_dict(), "player": 0, "action": 1}
        bad = {"game": {"action_counts": [2, 2], "payoffs": payoffs}, "player": 0, "action": 1}
        dataset = tmp_path / "bad.jsonl"
        dataset.write_text(json.dumps(good) + "\n" + json.dumps(bad) + "\n")
        path = write_config(
            tmp_path,
            {
                "model": {"model": "logit_qbr", "params": {}},
                "experiment": {"mode": "fit", "dataset": str(dataset)},
            },
        )
        assert main(["fit", path]) == 2
        assert "experiment.dataset: malformed observation lines: 2 " in capsys.readouterr().err


# Fit configs no model can take: (model block, experiment.bounds or None,
# message).  A bound is read by the type of the model field its parameter
# sets, and an epsilon_nash fit always falls back to uniform play.
BAD_FIT_SPACES = [
    ({"model": "logit_qbr"}, [[-5.0, -1.0]],
     "experiment.bounds.precision: must be >= 0, got -5.0"),
    ({"model": "epsilon_nash", "params": {"no_nash_fallback": "error"}}, None,
     "model.params.no_nash_fallback: unknown key"),
    ({"model": "level_k", "params": {"num_levels": 1}}, [[0.0, 0.0]],
     "experiment.bounds.weight_0: the highs of weight_0 must have a positive finite sum, "
     "got 0.0"),
    ({"model": "logit_qbr"}, [[-1.0, 10.0]],
     "experiment.bounds.precision: must be >= 0, got -1.0"),
    ({"model": "epsilon_nash"}, [[0.0, 2.0]],
     "experiment.bounds.epsilon: must be <= 1, got 2.0"),
    ({"model": "level_k", "params": {"num_levels": 2}}, [[0.0, 1.0], [-1.0, 1.0]],
     "experiment.bounds.weight_1: must be >= 0, got -1.0"),
    ({"model": "level_k", "params": {"num_levels": 2, "response": "qbr"}},
     [[0.0, 1.0], [0.0, 1.0], [-1.0, 3.0]],
     "experiment.bounds.precision: must be >= 0, got -1.0"),
    ({"model": "level_k", "params": {"num_levels": 2}}, [[0.0, 1e308], [0.0, 1e308]],
     "experiment.bounds.weight_0: the highs of weight_0, weight_1 must have a positive "
     "finite sum, got inf"),
]
BAD_FIT_SPACE_IDS = ["qbr-negative", "epsilon-error-fallback", "level_k-zero-highs",
                     "qbr-below-0", "epsilon-above-1", "level_k-negative-weight",
                     "level_k-negative-precision", "level_k-highs-overflow"]


class TestFitConfigValues:
    """A bad fit-mode value exits 2 and names its key before any fitting."""

    def _rejected(self, tmp_path, capsys, observation_file, model, key, **experiment):
        path = write_config(
            tmp_path,
            {
                "model": model,
                "experiment": {
                    "mode": "fit",
                    "dataset": str(observation_file),
                    "out_dir": str(tmp_path / "out"),
                    **experiment,
                },
            },
        )
        assert main(["fit", path]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_reversed_bounds(self, tmp_path, capsys, observation_file):
        self._rejected(tmp_path, capsys, observation_file,
                       {"model": "logit_qbr", "params": {}},
                       "experiment.bounds", bounds=[[5.0, 1.0]])

    def test_unknown_level_k_response(self, tmp_path, capsys, observation_file):
        self._rejected(tmp_path, capsys, observation_file,
                       {"model": "level_k",
                        "params": {"num_levels": 2, "response": "bogus"}},
                       "model.params.response")

    def test_unknown_no_nash_fallback(self, tmp_path, capsys, observation_file):
        self._rejected(tmp_path, capsys, observation_file,
                       {"model": "epsilon_nash", "params": {"no_nash_fallback": 7}},
                       "model.params.no_nash_fallback")

    def test_negative_level_k_precision(self, tmp_path, capsys, observation_file):
        self._rejected(tmp_path, capsys, observation_file,
                       {"model": "level_k", "params": {
                           "num_levels": 2, "response": "qbr", "precision": -1.0}},
                       "model.params.precision")

    def test_unknown_param_key(self, tmp_path, capsys, observation_file):
        self._rejected(tmp_path, capsys, observation_file,
                       {"model": "level_k", "params": {"num_levels": 2, "levels": 9}},
                       "model.params.levels")

    def test_precision_with_exact_br(self, tmp_path, capsys, observation_file):
        self._rejected(tmp_path, capsys, observation_file,
                       {"model": "level_k", "params": {
                           "num_levels": 2, "response": "exact_br", "precision": 5.0}},
                       "model.params.precision")

    @pytest.mark.parametrize("model, bounds, message", [
        ({"model": "logit_qbr"}, [[1e308, 1.7e308]], "experiment.bounds: must keep "
         "2 × precision × max |payoff| finite, got 1.7e+308"),
        ({"model": "level_k", "params": {"num_levels": 2, "response": "qbr"}},
         [[0.0, 1.0], [0.0, 1.0], [0.0, 1e308]], "experiment.bounds: must keep "
         "2 × precision × max |payoff| finite, got 1e+308"),
        ({"model": "level_k", "params": {"num_levels": 2, "response": "qbr", "precision": 1e308}},
         None, "model.params.precision: must keep "
         "2 × precision × max |payoff| finite, got 1e+308"),
    ], ids=["qbr-bounds", "level_k-bounds", "level_k-fixed"])
    def test_precision_overflow_exits_2_before_any_solve(
            self, tmp_path, capsys, monkeypatch, model, bounds, message):
        monkeypatch.setattr(behavior, "_qbr_stack", _never("a QRE solve"))
        monkeypatch.setattr(behavior, "_respond_all", _never("a response"))
        config = fit_config(out_dir=str(tmp_path / "out"))
        config["model"] = model
        if bounds is not None:
            config["experiment"]["bounds"] = bounds
        started = time.perf_counter()
        assert main(["fit", write_config(tmp_path, config)]) == 2
        assert time.perf_counter() - started < 1.0
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, bounds, message", BAD_FIT_SPACES, ids=BAD_FIT_SPACE_IDS)
    def test_space_no_model_takes_exits_2_before_any_work(
            self, tmp_path, capsys, monkeypatch, observation_file, model, bounds, message):
        monkeypatch.setattr(estimation, "log_likelihood", _never("the likelihood"))
        experiment = {} if bounds is None else {"bounds": bounds}
        started = time.perf_counter()
        self._rejected(tmp_path, capsys, observation_file, model, f"error: {message}\n",
                       **experiment)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize("key", ["grid_points", "refine_iters"])
    def test_search_beyond_its_cap_exits_2_before_fitting(
            self, tmp_path, capsys, monkeypatch, observation_file, key):
        def evaluated(*args, **kwargs):
            raise AssertionError("the fit evaluated the likelihood")

        monkeypatch.setattr(estimation, "log_likelihood", evaluated)
        self._rejected(tmp_path, capsys, observation_file, {"model": "logit_qbr"},
                       f"error: experiment.search.{key}: must be <= ", search={key: 10**6})


# Bad model parameter -> (value, predict model block, fit model block or None).
# A key that exists in both modes must get the same message in both.
BAD_MODEL_PARAMS = {
    "max_level": (2.7, {"model": "cognitive_hierarchy", "params": {"poisson_mean": 1.5}},
                  None),
    "max_depth": (True, {"model": "noisy_introspection",
                         "params": {"precision": 1.0, "decay": 0.5}}, None),
    "epsilon": ("0.1", {"model": "epsilon_nash", "params": {}}, None),
    "precision": (True, {"model": "logit_qbr", "params": {}},
                  {"model": "level_k", "params": {"num_levels": 2, "response": "qbr"}}),
    "response": ("bogus", {"model": "level_k", "params": {"level_weights": [1.0]}},
                 {"model": "level_k", "params": {"num_levels": 2}}),
    "no_nash_fallback": (7, {"model": "epsilon_nash", "params": {"epsilon": 0.1}}, None),
}


@pytest.mark.parametrize("key", sorted(BAD_MODEL_PARAMS))
def test_bad_model_param_named_alike_in_predict_and_fit(tmp_path, capsys, key):
    value, predict_model, fit_model = BAD_MODEL_PARAMS[key]
    runs = [("predict", predict_model, {"game": str(REPO / "data" / "example_game.json")})]
    if fit_model is not None:
        runs.append(("fit", fit_model, {"dataset": str(REPO / "data" / "qbr_lambda2.jsonl")}))
    errors = []
    for mode, model, experiment in runs:
        model = {"model": model["model"], "params": {**model["params"], key: value}}
        config = {"model": model, "experiment": {"mode": mode, **experiment}}
        assert main([mode, write_config(tmp_path, config), "--out", str(tmp_path / "out")]) == 2
        errors.append(capsys.readouterr().err)
    assert f"model.params.{key}: " in errors[0]
    assert len(set(errors)) == 1
    assert not (tmp_path / "out").exists()


def _never(what: str):
    def reached(*args, **kwargs):
        raise AssertionError(f"the run reached {what}")

    return reached


class TestWorkCaps:
    """A count beyond its cap exits 2 naming the key, before any work."""

    def _rejected(self, tmp_path, capsys, config, mode, message):
        path = write_config(tmp_path, config)
        assert main([mode, path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("model, key, limit", [
        ("cognitive_hierarchy", "max_level", behavior.LEVEL_LIMIT),
        ("noisy_introspection", "max_depth", behavior.DEPTH_LIMIT),
    ])
    def test_predict_recursion_beyond_its_cap(self, tmp_path, capsys, monkeypatch,
                                              model, key, limit):
        cls = behavior._TAG_MODELS[model]
        monkeypatch.setattr(cls, "predict_profile", _never("the model"))
        params = {"poisson_mean": 1.5} if key == "max_level" else {"precision": 1.0, "decay": 0.5}
        config = {"model": {"model": model, "params": {**params, key: limit + 1}},
                  "experiment": {"mode": "predict",
                                 "game": str(REPO / "data" / "example_game.json")}}
        self._rejected(tmp_path, capsys, config, "predict",
                       f"model.params.{key}: must be <= {limit}, got {limit + 1}")

    def test_fit_levels_beyond_their_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(estimation, "log_likelihood", _never("the likelihood"))
        limit = estimation.NUM_LEVELS_LIMIT
        config = fit_config()
        config["model"] = {"model": "level_k", "params": {"num_levels": limit + 1}}
        self._rejected(tmp_path, capsys, config, "fit",
                       f"model.params.num_levels: must be <= {limit}, got {limit + 1}")

    def test_simulate_nodes_beyond_their_cap(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_negotiate", _never("the market kernel"))
        limit = market.NODE_LIMIT
        config = simulate_config(tmp_path / "out")
        config["scenario"] = {"num_nodes": limit + 1, "budget": 10.0}
        self._rejected(tmp_path, capsys, config, "simulate",
                       f"scenario.num_nodes: must be <= {limit}, got {limit + 1}")


@pytest.mark.parametrize("mode, model, bounds, message", [
    ("predict", {"model": "nope", "params": {"x": 1}}, None,
     "model.model: unknown model tag 'nope'"),
    ("fit", {"model": "level_k", "params": {"num_levels": 2, "levels": 9}}, None,
     "model.params.levels: unknown key"),
    ("fit", {"model": "level_k", "params": {"num_levels": 2}}, [[0.0, 1.0]],
     "experiment.bounds: family 'level_k_2' has 2 parameters (set by "
     "model.params.num_levels), got 1 bounds"),
] + [("fit", *space) for space in BAD_FIT_SPACES] + [
    ("fit", {"model": "logit_qbr"}, [[0.0, 1.0], [0.0, 1.0]],
     "experiment.bounds: family 'logit_qbr' has 1 parameters (set by model.model), "
     "got 2 bounds"),
])
def test_dump_checks_the_model_block(tmp_path, capsys, monkeypatch, mode, model, bounds, message):
    monkeypatch.setattr(estimation, "log_likelihood", _never("the likelihood"))
    experiment = ({"game": str(REPO / "data" / "example_game.json")} if mode == "predict"
                  else {"dataset": str(REPO / "data" / "qbr_lambda2.jsonl")})
    if bounds is not None:
        experiment["bounds"] = bounds
    config = {"model": model, "experiment": {"mode": mode, **experiment}}
    started = time.perf_counter()
    assert main([mode, write_config(tmp_path, config), "--dump-resolved-config"]) == 2
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr() == ("", f"error: {message}\n")


# A broken tuple rule: (mode, blocks, experiment keys, message).
TUPLE_RULES = {
    "empty_noise_sweep": ("simulate", {"scenario": {"preset": "default"}},
                          {"seeds": [0], "noise_sweep": []},
                          "experiment.noise_sweep: must be nonempty"),
    "empty_averaging_sweep": ("simulate", {"scenario": {"preset": "default"}},
                              {"seeds": [0], "averaging_sweep": []},
                              "experiment.averaging_sweep: must be nonempty"),
    "level_weights_sum": ("predict", {"model": {"model": "level_k",
                                                "params": {"level_weights": [0.5, 0.3]}}},
                          {"game": str(REPO / "data" / "example_game.json")},
                          "model.params.level_weights: must sum to 1, got 0.8"),
    "lottery_probs_sum": ("predict", {"prospect": {}, "lottery": {"outcomes": [1.0, 2.0],
                                                                  "probs": [0.5, 0.3]}},
                          {}, "lottery.probs: must sum to 1, got 0.8"),
    "empty_social": ("predict", {"model": {"model": "best_response"}, "social": []},
                     {"game": str(REPO / "data" / "example_game.json")},
                     "social: must be nonempty"),
    "reversed_bounds": ("fit", {"model": {"model": "logit_qbr"}},
                        {"dataset": str(REPO / "data" / "qbr_lambda2.jsonl"),
                         "bounds": [[5.0, 1.0]]},
                        "experiment.bounds: must be in nondecreasing order, got [5.0, 1.0]"),
}


@pytest.mark.parametrize("dump", [False, True], ids=["run", "dump"])
@pytest.mark.parametrize("case", sorted(TUPLE_RULES))
def test_broken_tuple_rule_exits_2_naming_its_field(tmp_path, capsys, case, dump):
    mode, blocks, experiment, message = TUPLE_RULES[case]
    out = tmp_path / "out"
    config = {**blocks, "experiment": {"mode": mode, **experiment}}
    if mode != "predict":
        config["experiment"]["out_dir"] = str(out)
    argv = [mode, write_config(tmp_path, config)] + ["--dump-resolved-config"] * dump
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_qbr_response_without_precision_exits_2(tmp_path, capsys):
    model = {"model": "level_k", "params": {"level_weights": [0.5, 0.5], "response": "qbr"}}
    config = {"model": model, "experiment": {
        "mode": "predict", "game": str(REPO / "data" / "example_game.json")}}
    assert main(["predict", write_config(tmp_path, config)]) == 2
    assert capsys.readouterr() == (
        "", "error: model.params.precision: must be set for the qbr response\n")


@pytest.mark.parametrize("mode, key", [("predict", "game"), ("fit", "dataset")])
def test_directory_as_input_path_exits_2(tmp_path, capsys, mode, key):
    config = {
        "model": {"model": "logit_qbr", "params": {"precision": 1.0} if mode == "predict" else {}},
        "experiment": {"mode": mode, key: str(tmp_path)},
    }
    assert main([mode, write_config(tmp_path, config)]) == 2
    assert f"error: experiment.{key}: " in capsys.readouterr().err


def test_public_names_resolve():
    import foggame

    names = foggame.__all__
    assert len(names) == len(set(names))
    assert [name for name in names if not hasattr(foggame, name)] == []
    namespace: dict = {}
    exec("from foggame import *", namespace)
    assert set(names) <= set(namespace)

def test_cli_import_leaves_scipy_unloaded():
    # SciPy is loaded only when the QRE solver polishes an iterate, so a
    # simulate or non-QRE predict run never pays for importing it.
    code = "import sys, foggame.cli; sys.exit('scipy' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=_src_env()).returncode == 0


class TestShippedArtifacts:
    """The configs/ and data/ files in the repo stay mutually consistent."""

    repo_root = Path(__file__).resolve().parent.parent

    def test_fit_config_recovers_recorded_precision(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(self.repo_root)
        meta = json.loads(
            (self.repo_root / "data" / "qbr_lambda2.meta.json").read_text()
        )
        code = main(
            ["fit", "configs/fit_qbr.json", "--out", str(tmp_path)]
        )
        assert code == 0
        result = json.loads(capsys.readouterr().out)
        lo, hi = meta["expected_recovery_band"]
        assert lo <= result["params"][0] <= hi
        digest = hashlib.sha256((tmp_path / "fit_result.json").read_bytes()).hexdigest()
        assert digest == "f59be22687816658be3bbcc66fa40c91213e4ded957d011add3f0af0fba89b09"

    def test_predict_config_matches_library(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(self.repo_root)
        from foggame.behavior import model_from_dict
        from foggame.games import load_game

        config = json.loads(
            (self.repo_root / "configs" / "predict_levelk.json").read_text()
        )
        assert main(["predict", "configs/predict_levelk.json"]) == 0
        out = json.loads(capsys.readouterr().out)
        game = load_game(self.repo_root / "data" / "example_game.json")
        model = model_from_dict(config["model"])
        for player in range(game.num_players):
            oracle = model.predict_profile(game)[player].weights
            assert out["strategies"][player] == pytest.approx(oracle)

    def test_generator_script_reproduces_dataset(self, tmp_path, monkeypatch):
        import subprocess
        import sys

        script = self.repo_root / "scripts" / "make_shipped_data.py"
        # The script imports foggame, which an uninstalled checkout only
        # finds through src/ on the path.
        src = str(self.repo_root / "src")
        monkeypatch.setenv(
            "PYTHONPATH", os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        )
        subprocess.run(
            [sys.executable, str(script), "--out-dir", str(tmp_path)],
            check=True,
            capture_output=True,
        )
        for name in ("qbr_lambda2.jsonl", "qbr_lambda2.meta.json", "example_game.json"):
            assert (tmp_path / name).read_bytes() == (
                self.repo_root / "data" / name
            ).read_bytes()


class TestPredict:
    def _game_file(self, tmp_path, game) -> str:
        path = tmp_path / "game.json"
        save_game(game, path)
        return str(path)

    def test_uniform_prediction_printed(self, tmp_path, pennies_game, capsys):
        path = write_config(
            tmp_path,
            {
                "model": {"model": "logit_qbr", "params": {"precision": 0.0}},
                "experiment": {
                    "mode": "predict",
                    "game": self._game_file(tmp_path, pennies_game),
                },
            },
        )
        assert main(["predict", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["strategies"] == [[0.5, 0.5], [0.5, 0.5]]

    def test_point_mass_on_dominant_action(self, tmp_path, pd_game, capsys):
        path = write_config(
            tmp_path,
            {
                "model": {"model": "best_response", "params": {}},
                "experiment": {
                    "mode": "predict",
                    "game": self._game_file(tmp_path, pd_game),
                },
            },
        )
        assert main(["predict", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["strategies"] == [[0.0, 1.0], [0.0, 1.0]]

    def test_level_k_matches_library(self, tmp_path, asym_game, capsys):
        model = LevelK(level_weights=(0.0, 1.0))
        path = write_config(
            tmp_path,
            {
                "model": model_to_dict(model),
                "experiment": {
                    "mode": "predict",
                    "game": self._game_file(tmp_path, asym_game),
                },
            },
        )
        assert main(["predict", path]) == 0
        out = json.loads(capsys.readouterr().out)
        for player in range(2):
            oracle = model.predict_profile(asym_game)[player].weights
            assert out["strategies"][player] == pytest.approx(oracle)

    def test_social_transform_applied(self, tmp_path, pd_game, capsys):
        model = LevelK(level_weights=(0.0, 1.0))
        path = write_config(
            tmp_path,
            {
                "model": model_to_dict(model),
                "social": {"altruism_weight": 1.0},
                "experiment": {
                    "mode": "predict",
                    "game": self._game_file(tmp_path, pd_game),
                },
            },
        )
        assert main(["predict", path]) == 0
        out = json.loads(capsys.readouterr().out)
        params = SocialPrefParams(altruism_weight=1.0)
        transformed = transform_game_social(pd_game, [params, params])
        for player in range(2):
            oracle = model.predict_profile(transformed)[player].weights
            assert out["strategies"][player] == pytest.approx(oracle)

    def test_lottery_valuation(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "prospect": {},
                "lottery": {"outcomes": [100.0, -50.0], "probs": [0.5, 0.5]},
                "experiment": {"mode": "predict"},
            },
        )
        assert main(["predict", path]) == 0
        out = json.loads(capsys.readouterr().out)
        oracle = pt_evaluate(
            Lottery(outcomes=(100.0, -50.0), probs=(0.5, 0.5)), ProspectParams()
        )
        assert out["value"] == pytest.approx(oracle, abs=1e-12)
        assert out["value"] == pytest.approx(-5.387529248799424, abs=1e-11)

    @pytest.mark.parametrize("loss_aversion", [float("nan"), float("inf"), 0.5])
    def test_bad_loss_aversion_exits_2(self, tmp_path, capsys, loss_aversion):
        path = write_config(
            tmp_path,
            {
                "prospect": {"loss_aversion": loss_aversion},
                "lottery": {"outcomes": [10.0, -5.0], "probs": [0.5, 0.5]},
                "experiment": {"mode": "predict"},
            },
        )
        assert main(["predict", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "prospect.loss_aversion" in captured.err

    def test_nan_probs_exit_2(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "prospect": {},
                "lottery": {"outcomes": [1.0, 2.0], "probs": [float("nan")] * 2},
                "experiment": {"mode": "predict"},
            },
        )
        assert main(["predict", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: lottery.probs: must be >= 0, got nan\n"

    def test_prospect_cannot_wrap_strategic_model(self, tmp_path, pd_game):
        path = write_config(
            tmp_path,
            {
                "model": {"model": "best_response", "params": {}},
                "prospect": {},
                "experiment": {
                    "mode": "predict",
                    "game": self._game_file(tmp_path, pd_game),
                },
            },
        )
        assert main(["predict", path]) == 2

    def test_unknown_lottery_key(self, tmp_path, capsys):
        path = write_config(
            tmp_path,
            {
                "prospect": {},
                "lottery": {"outcomes": [1, 2], "probs": [0.5, 0.5], "weights": [9, 9]},
                "experiment": {"mode": "predict"},
            },
        )
        assert main(["predict", path]) == 2
        assert "lottery.weights" in capsys.readouterr().err

    def test_non_integer_action_counts_rejected(self, tmp_path, capsys):
        game = tmp_path / "game.json"
        record = {"action_counts": [2.9, True], "payoffs": {"0": [1.0, 0.0], "1": [0.0, 1.0]}}
        game.write_text(json.dumps(record))
        path = write_config(
            tmp_path,
            {
                "model": {"model": "best_response", "params": {}},
                "experiment": {"mode": "predict", "game": str(game)},
            },
        )
        assert main(["predict", path]) == 2
        assert "experiment.game: action_counts: must be an integer" in capsys.readouterr().err

    def test_logit_qbr_three_player_game_solves_once(self, tmp_path, monkeypatch, capsys):
        game = random_game(np.random.default_rng(3), counts=(2, 3, 2))
        solved = []
        real = behavior.qbr_equilibrium

        def counting(game, precision, *args, **kwargs):
            solved.append(game)
            return real(game, precision, *args, **kwargs)

        monkeypatch.setattr(behavior, "qbr_equilibrium", counting)
        path = write_config(
            tmp_path,
            {
                "model": {"model": "logit_qbr", "params": {"precision": 1.5}},
                "experiment": {"mode": "predict", "game": self._game_file(tmp_path, game)},
            },
        )
        assert main(["predict", path]) == 0
        assert solved == [game]
        out = json.loads(capsys.readouterr().out)
        assert out["strategies"] == [list(s.weights) for s in real(game, 1.5)]

    # A block that does not fit the 2-player game: (blocks, start of the message).
    # The last is the social block, which the run checks against the game too.
    @pytest.mark.parametrize(
        "blocks, message",
        [
            ({"model": {"model": "level_k", "params": {
                "level_weights": [0.5, 0.5], "level0": [[0.5, 0.5], [0.2, 0.3, 0.5]]}}},
             "model.params.level0: "),
            ({"model": {"model": "cognitive_hierarchy", "params": {
                "poisson_mean": 1.5, "max_level": 2, "level0": [[0.5, 0.5]]}}},
             "model.params.level0: "),
            ({"model": {"model": "best_response", "params": {}}, "social": [{}, {}, {}]},
             "social: need one SocialPrefParams per player (2), got 3\n"),
        ],
        ids=["level_k-wrong-length", "cognitive_hierarchy-one-strategy", "social-one-too-many"],
    )
    def test_level0_that_does_not_fit_the_game_exits_2(self, tmp_path, capsys, blocks, message):
        config = {**blocks,
                  "experiment": {"mode": "predict", "game": str(REPO / "data" / "example_game.json")}}
        assert main(["predict", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {message}")

    @pytest.mark.parametrize("tag", ["level_k", "cognitive_hierarchy"])
    @pytest.mark.parametrize(
        "level0, expected",
        [
            ([["0.5", "0.5"], ["0.5", "0.5"]], "must be a number, got '0.5'"),
            ([[True, False], [0.5, 0.5]], "must be a number, got True"),
            ("uniformm", "must be one of 'uniform', got 'uniformm'"),
            (5, "must be one of 'uniform', got 5"),
            ([[0.5, 0.5], None], "must be a list, got None"),
        ],
        ids=["strings", "bools", "misspelt", "number", "null-row"],
    )
    def test_level0_of_the_wrong_type_exits_2(self, tmp_path, capsys, tag, level0, expected):
        params = {"level_k": {"level_weights": [0.5, 0.5]},
                  "cognitive_hierarchy": {"poisson_mean": 1.5, "max_level": 2}}[tag]
        config = {"model": {"model": tag, "params": {**params, "level0": level0}},
                  "experiment": {"mode": "predict", "game": str(REPO / "data" / "example_game.json")}}
        assert main(["predict", write_config(tmp_path, config)]) == 2
        assert capsys.readouterr().err == f"error: model.params.level0: {expected}\n"

    # At 5e307, precision × max |payoff| (3.13) is finite but the softmax shift,
    # up to twice that, is not.
    @pytest.mark.parametrize("precision", [1e308, 5e307, 1e300])
    @pytest.mark.parametrize("model", PRECISION_MODELS, ids=[m["model"] for m in PRECISION_MODELS])
    def test_precision_overflow_is_refused_before_any_solve(
        self, tmp_path, capsys, monkeypatch, model, precision
    ):
        game = REPO / "data" / "example_game.json"
        config = {"model": {**model, "params": {**model["params"], "precision": precision}},
                  "experiment": {"mode": "predict", "game": str(game)}}
        if precision > 1e300:
            monkeypatch.setattr(behavior, "_respond_all", _never("a response"))
            monkeypatch.setattr(behavior, "_qbr_stack", _never("a QRE solve"))
            assert main(["predict", write_config(tmp_path, config)]) == 2
            assert capsys.readouterr() == ("", "error: model.params.precision: must keep 2 × "
                                           f"precision × max |payoff| finite, got {precision!r}\n")
        else:
            expected = model_from_dict(config["model"]).predict_profile(load_game(game))
            assert main(["predict", write_config(tmp_path, config)]) == 0
            out, err = capsys.readouterr()
            assert err == ""
            assert json.loads(out)["strategies"] == [list(s.weights) for s in expected]

    def test_no_pure_nash_still_exits_3(self, tmp_path, pennies_game, capsys):
        path = write_config(
            tmp_path,
            {
                "model": {"model": "epsilon_nash", "params": {"epsilon": 0.1}},
                "experiment": {"mode": "predict", "game": self._game_file(tmp_path, pennies_game)},
            },
        )
        assert main(["predict", path]) == 3
        assert "runtime error: game has no pure Nash equilibrium" in capsys.readouterr().err

    @pytest.mark.parametrize("payoffs", BAD_PAYOFFS, ids=BAD_PAYOFF_IDS)
    def test_malformed_payoffs_exit_2(self, tmp_path, capsys, payoffs):
        game = tmp_path / "game.json"
        game.write_text(json.dumps({"action_counts": [2, 2], "payoffs": payoffs}))
        path = write_config(
            tmp_path,
            {
                "model": {"model": "best_response", "params": {}},
                "experiment": {"mode": "predict", "game": str(game)},
            },
        )
        assert main(["predict", path]) == 2
        assert "error: experiment.game: " in capsys.readouterr().err

    def test_predict_needs_some_target(self, tmp_path):
        path = write_config(tmp_path, {"experiment": {"mode": "predict"}})
        assert main(["predict", path]) == 2

    def _rejected(self, tmp_path, capsys, game, params, key):
        path = write_config(
            tmp_path,
            {
                "model": {"model": "level_k", "params": params},
                "experiment": {
                    "mode": "predict",
                    "game": self._game_file(tmp_path, game),
                },
            },
        )
        assert main(["predict", path]) == 2
        assert key in capsys.readouterr().err

    def test_unknown_param_key(self, tmp_path, pd_game, capsys):
        self._rejected(tmp_path, capsys, pd_game,
                       {"level_weights": [0.5, 0.5], "levels": 9},
                       "model.params.levels")

    def test_precision_with_exact_br(self, tmp_path, pd_game, capsys):
        self._rejected(tmp_path, capsys, pd_game,
                       {"level_weights": [0.5, 0.5], "precision": 5.0},
                       "model.params.precision")

    def test_invalid_model_params(self, tmp_path, pd_game):
        path = write_config(
            tmp_path,
            {
                "model": {"model": "logit_qbr", "params": {"precision": -3.0}},
                "experiment": {
                    "mode": "predict",
                    "game": self._game_file(tmp_path, pd_game),
                },
            },
        )
        assert main(["predict", path]) == 2
