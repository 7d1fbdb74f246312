from __future__ import annotations

import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from foggame import behavior, estimation
from foggame.behavior import EpsilonNash, FixedPointError, LevelK, LogitQBR, NoEquilibriumError
from foggame.cli import main
from foggame.estimation import (
    PROB_FLOOR,
    FitResult,
    Observation,
    SearchOptions,
    cross_validate,
    epsilon_nash_family,
    fit_mle,
    fold_indices,
    level_k_family,
    load_observations,
    log_likelihood,
    qbr_family,
    sample_observations,
    save_observations,
)
from foggame.games import MixedStrategy, NormalFormGame
from foggame.schema import as_json

from conftest import random_game, two_player

REPO = Path(__file__).resolve().parent.parent


class TestObservation:
    def test_valid(self, pd_game):
        obs = Observation(game=pd_game, player=1, action=0)
        assert obs.action == 0

    def test_player_out_of_range(self, pd_game):
        with pytest.raises(ValueError):
            Observation(game=pd_game, player=2, action=0)

    def test_action_out_of_range(self, pd_game):
        with pytest.raises(ValueError):
            Observation(game=pd_game, player=0, action=2)

    @pytest.mark.parametrize(
        "field, value", [("player", True), ("player", 1.5), ("action", 0.5), ("action", "1")]
    )
    def test_choice_must_be_an_integer(self, pd_game, field, value):
        with pytest.raises(ValueError, match=f"^{field}: must be an integer"):
            Observation(**{"game": pd_game, "player": 0, "action": 0, field: value})
        obs = Observation(pd_game, 1.0, np.int64(0))
        assert (obs.player, obs.action) == (1, 0)
        assert type(obs.player) is int and type(obs.action) is int


def _pool_game(first_payoff) -> dict:
    return {"action_counts": [2, 2],
            "payoffs": {"0": [first_payoff, 0, 5, 1], "1": [3, 5, 0, 1]}}


# Good and bad observation lines, several of which parse to equal values:
# `1` and `1.0` give one game, but `true` is rejected.
_LINE_POOL = (
    json.dumps({"game": _pool_game(1), "player": 0, "action": 1}),
    json.dumps({"game": _pool_game(1.0), "player": 0, "action": 1}),
    json.dumps({"player": 0, "action": 1, "game": _pool_game(1)}),
    "  " + json.dumps({"game": _pool_game(1), "player": 0, "action": 1}),
    json.dumps({"game": _pool_game(1), "player": 1, "action": 0}),
    json.dumps({"game": _pool_game(2), "player": True, "action": 0}),
    json.dumps({"game": _pool_game(True), "player": 0, "action": 1}),
    json.dumps({"game": _pool_game(1), "player": 2, "action": 1}),
    json.dumps({"game": _pool_game(1), "player": 0}),
    "{oops",
    "",
)


def _parse_each_line(path: Path) -> tuple[Observation, ...] | str:
    """Every non-blank line parsed on its own: the observations, or the text of
    the error that ``load_observations`` should raise."""
    observations, bad = [], []
    for number, line in enumerate(path.read_text().splitlines(), start=1):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
            game = NormalFormGame.from_dict(record["game"])
            observations.append(Observation(game, record["player"], record["action"]))
        except (ValueError, KeyError, TypeError) as exc:
            bad.append((number, str(exc)))
    if bad:
        numbers = ", ".join(str(n) for n, _ in bad)
        return f"malformed observation lines: {numbers} (first error: {bad[0][1]})"
    return tuple(observations)


class TestObservationIO:
    def test_round_trip(self, tmp_path, pd_game, asym_game):
        data = [Observation(pd_game, 0, 1), Observation(asym_game, 1, 0)]
        path = tmp_path / "obs.jsonl"
        save_observations(data, path)
        again = load_observations(path)
        assert again == tuple(data)
        assert again[0].game == pd_game
        assert again[0].action == 1
        assert again[1].game == asym_game

    def test_file_is_json_lines(self, tmp_path, pd_game):
        path = tmp_path / "obs.jsonl"
        save_observations((Observation(pd_game, 0, 0),), path)
        record = json.loads(path.read_text().strip())
        assert set(record) == {"game", "player", "action"}

    def test_blank_lines_ignored(self, tmp_path, pd_game):
        good = json.dumps(
            {"game": pd_game.to_dict(), "player": 0, "action": 1}
        )
        path = tmp_path / "obs.jsonl"
        path.write_text(f"\n{good}\n\n{good}\n")
        assert len(load_observations(path)) == 2

    def test_malformed_lines_reported_together(self, tmp_path, pd_game):
        good = json.dumps(
            {"game": pd_game.to_dict(), "player": 0, "action": 1}
        )
        missing = json.dumps({"game": pd_game.to_dict(), "player": 0})
        path = tmp_path / "obs.jsonl"
        path.write_text(f"{good}\n{{oops\n{good}\n{missing}\n")
        with pytest.raises(ValueError) as err:
            load_observations(path)
        message = str(err.value)
        assert "2" in message and "4" in message


    @pytest.mark.parametrize("field, value", [("player", True), ("action", 1.7), ("action", "1")])
    def test_non_integer_choice_reported(self, tmp_path, pd_game, field, value):
        record = {"game": pd_game.to_dict(), "player": 0, "action": 1}
        path = tmp_path / "obs.jsonl"
        path.write_text(f"{json.dumps(record)}\n{json.dumps({**record, field: value})}\n")
        with pytest.raises(ValueError, match=f"lines: 2 .*{field}: must be an integer"):
            load_observations(path)

    def test_equal_games_share_one_object(self, tmp_path, pd_game, asym_game):
        games = (pd_game, asym_game, pd_game, asym_game, pd_game)
        path = tmp_path / "obs.jsonl"
        save_observations((Observation(g, 0, 1) for g in games), path)
        loaded = load_observations(path)
        assert [obs.game for obs in loaded] == list(games)
        assert loaded[0].game is loaded[2].game is loaded[4].game
        assert loaded[1].game is loaded[3].game
        assert loaded[0].game is not loaded[1].game

    def test_bad_line_after_shared_games_reported(self, tmp_path, pd_game):
        good = json.dumps({"game": pd_game.to_dict(), "player": 0, "action": 1})
        bad = json.dumps({"game": pd_game.to_dict(), "player": 2, "action": 1})
        path = tmp_path / "obs.jsonl"
        path.write_text(f"{good}\n{good}\n{bad}\n{good}\n")
        with pytest.raises(ValueError) as err:
            load_observations(path)
        assert str(err.value) == (
            "malformed observation lines: 3 (first error: player 2 out of range)"
        )

    def test_integral_float_choice_accepted(self, tmp_path, pd_game):
        path = tmp_path / "obs.jsonl"
        path.write_text(json.dumps({"game": pd_game.to_dict(), "player": 1.0, "action": 0}))
        [obs] = load_observations(path)
        assert (obs.player, obs.action) == (1, 0)

    def test_repeated_line_loads_as_one_shared_observation(self, tmp_path, pd_game):
        good = json.dumps({"game": pd_game.to_dict(), "player": 0, "action": 1})
        other = json.dumps({"game": pd_game.to_dict(), "player": 1, "action": 1})
        path = tmp_path / "obs.jsonl"
        path.write_text(f"{good}\n{other}\n  {good}\n{good}\n")
        loaded = load_observations(path)
        assert loaded == (Observation(pd_game, 0, 1), Observation(pd_game, 1, 1),
                          Observation(pd_game, 0, 1), Observation(pd_game, 0, 1))
        assert loaded[0] is loaded[2] is loaded[3]
        assert loaded[1] is not loaded[0]

    def test_true_payoff_rejected_after_the_same_line_with_one(self, tmp_path):
        record = {"game": {"action_counts": [2, 2],
                           "payoffs": {"0": [1, 0, 5, 1], "1": [3, 5, 0, 1]}},
                  "player": 0, "action": 0}
        one = json.dumps(record)
        true = one.replace("[1, 0, 5, 1]", "[true, 0, 5, 1]")
        assert true != one
        path = tmp_path / "obs.jsonl"
        path.write_text(f"{one}\n{true}\n{one}\n")
        with pytest.raises(ValueError) as err:
            load_observations(path)
        assert str(err.value) == (
            "malformed observation lines: 2 (first error: payoffs.0: must be a number, got True)"
        )

    def test_repeated_bad_line_reported_at_every_line_number(self, tmp_path, pd_game):
        good = json.dumps({"game": pd_game.to_dict(), "player": 0, "action": 1})
        bad = json.dumps({"game": pd_game.to_dict(), "player": 2, "action": 1})
        path = tmp_path / "obs.jsonl"
        path.write_text(f"{bad}\n{good}\n{bad}\n\n{bad}\n")
        with pytest.raises(ValueError) as err:
            load_observations(path)
        assert str(err.value) == (
            "malformed observation lines: 1, 3, 5 (first error: player 2 out of range)"
        )

    def test_one_game_in_two_key_orders_shares_one_object(self, tmp_path, pd_game):
        data = pd_game.to_dict()
        forward = {"game": data, "player": 0, "action": 1}
        backward = {"action": 1, "player": 0,
                    "game": {"payoffs": dict(reversed(data["payoffs"].items())),
                             "action_counts": data["action_counts"]}}
        path = tmp_path / "obs.jsonl"
        path.write_text(f"{json.dumps(forward)}\n{json.dumps(backward)}\n")
        first, second = load_observations(path)
        assert first == second == Observation(pd_game, 0, 1)
        assert first is not second
        assert first.game is second.game

    @settings(max_examples=200, derandomize=True, deadline=None, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(picks=st.lists(st.integers(0, len(_LINE_POOL) - 1), max_size=12))
    def test_load_matches_a_line_by_line_parse(self, tmp_path, picks):
        path = tmp_path / "obs.jsonl"
        path.write_text("".join(_LINE_POOL[i] + "\n" for i in picks))
        expected = _parse_each_line(path)
        if isinstance(expected, str):
            with pytest.raises(ValueError) as err:
                load_observations(path)
            assert str(err.value) == expected
        else:
            loaded = load_observations(path)
            assert loaded == expected
            # Equal games share one object, and so do equal lines' observations.
            assert len({id(obs.game) for obs in loaded}) == len({obs.game for obs in loaded})
            texts = [_LINE_POOL[i].strip() for i in picks if _LINE_POOL[i].strip()]
            first = {}
            for text, obs in zip(texts, loaded, strict=True):
                assert first.setdefault(text, obs) is obs


class TestLogLikelihood:
    def test_half_probability_single_observation(self, pennies_game):
        data = (Observation(pennies_game, 0, 0),)
        # uniform play: the chosen action has probability exactly 1/2
        got = log_likelihood(qbr_family(), (0.0,), data)
        assert got == pytest.approx(math.log(0.5), abs=1e-12)

    def test_additivity_over_identical_observations(self, pennies_game):
        single = (Observation(pennies_game, 0, 0),)
        many = single * 7
        one = log_likelihood(qbr_family(), (0.0,), single)
        assert log_likelihood(qbr_family(), (0.0,), many) == pytest.approx(
            7 * one, abs=1e-12
        )

    def test_additivity_over_concatenation(self, pd_game, asym_game):
        a = (Observation(pd_game, 0, 1), Observation(pd_game, 1, 0))
        b = (Observation(asym_game, 0, 0),)
        both = a + b
        family = qbr_family()
        assert log_likelihood(family, (1.5,), both) == pytest.approx(
            log_likelihood(family, (1.5,), a)
            + log_likelihood(family, (1.5,), b),
            abs=1e-12,
        )

    def test_product_then_log_oracle(self, pd_game, asym_game, coord_game):
        observations = (
            Observation(pd_game, 0, 1),
            Observation(asym_game, 1, 0),
            Observation(coord_game, 0, 0),
        )
        model = LogitQBR(precision=1.0)
        prod = 1.0
        for obs in observations:
            prod *= model.predict_profile(obs.game)[obs.player].weights[obs.action]
        got = log_likelihood(qbr_family(), (1.0,), observations)
        assert got == pytest.approx(math.log(prod), abs=1e-10)

    def test_floor_keeps_zero_probability_finite(self, pd_game):
        # epsilon=0 puts zero mass on the dominated action
        data = (Observation(pd_game, 0, 0),)
        got = log_likelihood(epsilon_nash_family(), (0.0,), data)
        assert math.isfinite(got)
        assert got == pytest.approx(math.log(PROB_FLOOR), abs=1e-12)

    def test_never_positive_for_probabilities(self, corpus):
        family = qbr_family()
        rng = np.random.default_rng(2)
        observations = []
        for game in corpus:
            observations.append(
                Observation(game, int(rng.integers(2)), int(rng.integers(2)))
            )
        assert log_likelihood(family, (2.0,), observations) <= 0.0

    def test_one_qbr_solve_per_game(self, monkeypatch):
        data = load_observations(REPO / "data" / "qbr_lambda2.jsonl")
        games = {obs.game for obs in data}
        assert {(obs.game, obs.player) for obs in data} == {
            (game, player) for game in games for player in (0, 1)
        }
        solved = []
        real = behavior._qbr_stack

        def counting(games, precision):
            solved.extend(games)
            return real(games, precision)

        monkeypatch.setattr(behavior, "_qbr_stack", counting)
        for theta in (0.5, 2.0):
            solved.clear()
            log_likelihood(qbr_family(), (theta,), data)
            assert len(solved) == len(games) == 20

    def test_solver_failure_names_theta_and_observation(self, monkeypatch, pd_game, asym_game):
        data = [Observation(g, p, 0) for g, p in [(pd_game, 0), (asym_game, 1), (asym_game, 0)]]
        stuck = [MixedStrategy((0.5, 0.5))] * 2
        real = behavior._qbr_stack

        def failing(games, precision):
            return [
                FixedPointError("no fixed point (residual 1.000e-02)", stuck, 0.01)
                if game == asym_game else answer
                for game, answer in zip(games, real(games, precision))
            ]

        monkeypatch.setattr(behavior, "_qbr_stack", failing)
        with pytest.raises(FixedPointError) as err:
            log_likelihood(qbr_family(), (np.float64(2.5),), data)
        assert str(err.value) == (
            "no fixed point (residual 1.000e-02) at precision=2.5, game of observation 1"
        )
        assert err.value.profile is stuck and err.value.residual == 0.01

    def test_invalid_theta_raises(self, pd_game):
        data = (Observation(pd_game, 0, 0),)
        with pytest.raises(ValueError):
            log_likelihood(qbr_family(), (-1.0,), data)


class TestFamilies:
    def test_qbr_family_shape(self):
        family = qbr_family()
        assert family.param_names == ("precision",)
        assert isinstance(family.build((2.0,)), LogitQBR)

    def test_epsilon_family_fallback(self, pennies_game):
        family = epsilon_nash_family()
        model = family.build((0.3,))
        assert isinstance(model, EpsilonNash)
        # uniform fallback keeps likelihood defined without a pure equilibrium
        assert model.predict_profile(pennies_game)[0].weights == (0.5, 0.5)

    def test_level_k_family_normalizes_weights(self):
        family = level_k_family(2)
        model = family.build((2.0, 2.0))
        assert isinstance(model, LevelK)
        assert model.level_weights == (0.5, 0.5)
        assert family.simplex_groups == ((0, 1),)

    def test_level_k_family_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            level_k_family(2).build((0.0, 0.0))

    def test_level_k_family_qbr_appends_precision(self):
        family = level_k_family(2, response="qbr")
        assert family.param_names == ("weight_0", "weight_1", "precision")
        model = family.build((1.0, 3.0, 2.5))
        assert model.precision == 2.5
        assert model.level_weights == (0.25, 0.75)

    def test_level_k_family_fixed_precision(self):
        family = level_k_family(2, response="qbr", precision=1.5)
        assert family.param_names == ("weight_0", "weight_1")
        assert family.build((1.0, 1.0)).precision == 1.5

    def test_bad_num_levels(self):
        with pytest.raises(ValueError):
            level_k_family(0)

    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    def test_num_levels_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="^num_levels: must be an integer"):
            level_k_family(bad)
        assert level_k_family(2.0).name == "level_k_2"

    def test_families_state_their_default_box(self):
        unit, precision = (0.0, 1.0), (0.0, 10.0)
        assert qbr_family().bounds == (precision,)
        assert epsilon_nash_family().bounds == (unit,)
        assert level_k_family(3).bounds == (unit, unit, unit)
        assert level_k_family(2, response="qbr").bounds == (unit, unit, precision)
        assert level_k_family(2, response="qbr", precision=1.5).bounds == (unit, unit)


class TestFitMle:
    def test_repeated_theta_counted_but_solved_once(self, monkeypatch):
        # Action 1 gains exactly 1 (first game) or 2 (second game) over
        # action 0 whatever the opponent plays, so all-action-1 data is more
        # likely at every higher precision.  The best θ is then the top grid
        # point, and the second golden-section cycle repeats the first.
        games = [
            two_player([[3.0, 0.0], [4.0, 1.0]], [[3.0, 4.0], [0.0, 1.0]]),
            two_player([[2.0, 0.0], [4.0, 2.0]], [[2.0, 4.0], [0.0, 2.0]]),
        ]
        data = tuple(Observation(games[i % 2], i // 2 % 2, 1) for i in range(8))
        solved = []
        real = behavior._qbr_stack

        def counting(games, precision):
            solved.extend((precision, game) for game in games)
            return real(games, precision)

        monkeypatch.setattr(behavior, "_qbr_stack", counting)
        result = fit_mle(qbr_family(), data, [(0.0, 10.0)], SearchOptions(6, 2))
        assert result.params == (10.0,)
        assert result.evaluations == 18
        thetas = {precision for precision, _ in solved}
        # 6 grid points, then 2 interior probes and 2 shrink steps in cycle 1.
        assert len(thetas) == 10
        assert len(solved) == len(set(solved)) == 2 * len(thetas)

    def test_uniform_data_fits_near_zero(
        self, pennies_game, asym_game, coord_game
    ):
        games = [pennies_game, asym_game, coord_game]
        data = sample_observations(
            LogitQBR(precision=0.0), games, 240, seed=10
        )
        result = fit_mle(
            qbr_family(),
            data,
            bounds=[(0.0, 10.0)],
            search=SearchOptions(grid_points=11, refine_iters=10),
        )
        first_step = 10.0 / 10
        assert result.params[0] < first_step

    def test_result_at_least_every_grid_point(self, pd_game, asym_game):
        data = (
            Observation(pd_game, 0, 1),
            Observation(asym_game, 0, 0),
            Observation(asym_game, 1, 1),
        )
        family = qbr_family()
        bounds = [(0.0, 5.0)]
        result = fit_mle(family, data, bounds, SearchOptions(grid_points=6, refine_iters=8))
        for lam in np.linspace(0.0, 5.0, 6):
            assert result.log_likelihood >= log_likelihood(
                family, (float(lam),), data
            ) - 1e-12

    def test_deterministic(self, asym_game, coord_game):
        data = sample_observations(
            LogitQBR(precision=1.2), [asym_game, coord_game], 80, seed=4
        )
        kwargs = dict(
            bounds=[(0.0, 8.0)], search=SearchOptions(grid_points=9, refine_iters=12)
        )
        a = fit_mle(qbr_family(), data, **kwargs)
        b = fit_mle(qbr_family(), data, **kwargs)
        assert a == b

    def test_level_weight_mixture_recovery(self, asym_game, pd_game):
        rng = np.random.default_rng(99)
        games = [asym_game, pd_game] + [random_game(rng) for _ in range(3)]
        truth = LevelK(level_weights=(0.3, 0.7))
        data = sample_observations(truth, games, 400, seed=8)
        result = fit_mle(
            level_k_family(2),
            data,
            bounds=[(0.0, 1.0), (0.0, 1.0)],
            search=SearchOptions(grid_points=6, refine_iters=12),
        )
        assert sum(result.params) == pytest.approx(1.0, abs=1e-9)
        assert abs(result.params[1] - 0.7) < 0.15

    def test_fit_result_serialization(self, tmp_path, pennies_game, capsys):
        data = (Observation(pennies_game, 0, 0),)
        search = SearchOptions(grid_points=3, refine_iters=0)
        result = fit_mle(qbr_family(), data, bounds=[(0.0, 2.0)], search=search)
        payload = as_json(result)
        assert payload == {
            "params": list(result.params),
            "log_likelihood": result.log_likelihood,
            "evaluations": result.evaluations,
            "param_names": ["precision"],
            "cv_score": None,
        }
        assert result.evaluations > 0
        # fit_result.json is that object plus the family and the probability floor.
        save_observations(data, tmp_path / "obs.jsonl")
        config = {
            "model": {"model": "logit_qbr"},
            "experiment": {"mode": "fit", "dataset": str(tmp_path / "obs.jsonl"),
                           "bounds": [[0.0, 2.0]], "search": as_json(search),
                           "out_dir": str(tmp_path / "out")},
        }
        (tmp_path / "fit.json").write_text(json.dumps(config))
        assert main(["fit", str(tmp_path / "fit.json")]) == 0
        capsys.readouterr()
        stored = json.loads((tmp_path / "out" / "fit_result.json").read_text())
        assert stored == {"family": "logit_qbr", **payload, "probability_floor": PROB_FLOOR}

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            fit_mle(qbr_family(), (), bounds=[(0.0, 1.0)])

    def test_bounds_length_checked(self, pennies_game):
        data = (Observation(pennies_game, 0, 0),)
        with pytest.raises(ValueError):
            fit_mle(qbr_family(), data, bounds=[(0.0, 1.0), (0.0, 1.0)])

    @pytest.mark.parametrize("family, bounds, message", [
        (qbr_family(), [(-5.0, -1.0)], "bounds.precision: must be >= 0, got -5.0"),
        (qbr_family(), [(-1.0, 10.0)], "bounds.precision: must be >= 0, got -1.0"),
        (epsilon_nash_family(), [(0.0, 2.0)], "bounds.epsilon: must be <= 1, got 2.0"),
        (level_k_family(1), [(0.0, 0.0)],
         "bounds.weight_0: the highs of weight_0 must have a positive finite sum, got 0.0"),
        (level_k_family(2), [(0.0, 1e308), (0.0, 1e308)],
         "bounds.weight_0: the highs of weight_0, weight_1 must have a positive finite sum, "
         "got inf"),
        (level_k_family(2), [(0.0, 1.0), (-1.0, 1.0)], "bounds.weight_1: must be >= 0, got -1.0"),
        (level_k_family(2, response="qbr"), [(0.0, 1.0), (0.0, 1.0), (-1.0, 3.0)],
         "bounds.precision: must be >= 0, got -1.0"),
    ], ids=["qbr-negative", "qbr-below-0", "epsilon-above-1", "level_k-zero-highs",
            "level_k-highs-overflow", "level_k-negative-weight", "level_k-negative-precision"])
    def test_box_outside_the_declared_ranges_refused_before_any_evaluation(
            self, monkeypatch, pennies_game, family, bounds, message):
        def evaluated(*args, **kwargs):
            raise AssertionError("the fit evaluated the likelihood")

        monkeypatch.setattr(estimation, "log_likelihood", evaluated)
        data = tuple(Observation(pennies_game, 0, a) for a in (0, 1, 0, 1))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fit_mle(family, data, bounds)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cross_validate(family, data, 2, bounds)

    def test_model_error_at_a_grid_point_is_raised(self, pd_game, pennies_game):
        # At epsilon 0.5 the model has no uniform fallback, and pennies_game
        # has no pure Nash profile: that grid point raises, and so does the fit.
        family = epsilon_nash_family()

        def build(theta):
            return EpsilonNash(theta[0]) if theta[0] == 0.5 else family.build(theta)

        data = (Observation(pd_game, 0, 1), Observation(pennies_game, 0, 0))
        with pytest.raises(NoEquilibriumError, match="no pure Nash equilibrium"):
            fit_mle(dataclasses.replace(family, build=build), data, [(0.0, 1.0)],
                    SearchOptions(grid_points=3, refine_iters=0))

    @pytest.mark.parametrize(
        "search, bounds",
        [
            ({"grid_points": 7.5}, [(0.0, 1.0)]),
            ({"grid_points": True}, [(0.0, 1.0)]),
            ({"refine_iters": True}, [(0.0, 1.0)]),
            (None, [(True, "3")]),
            ({"grid_points": "5"}, [(0.0, 1.0)]),
            ({"refine_iters": 2.5}, [(0.0, 1.0)]),
        ],
    )
    def test_search_and_bounds_values_typed(self, pennies_game, search, bounds):
        # Same rules as a config file: integers are not truncated, bools and
        # strings are not numbers.  Search options are checked when built.
        if search is not None:
            [(field, _)] = search.items()
            with pytest.raises(ValueError, match=f"^{field}: must be an integer"):
                SearchOptions(**search)
            assert type(getattr(SearchOptions(**{field: 5.0}), field)) is int
            return
        data = tuple(Observation(pennies_game, 0, a) for a in (0, 1, 0, 1))
        with pytest.raises(ValueError):
            fit_mle(qbr_family(), data, bounds)
        with pytest.raises(ValueError):
            cross_validate(qbr_family(), data, 2, bounds)


class TestCrossValidation:
    def test_identical_halves_equal_fold_scores(self, asym_game):
        obs = Observation(asym_game, 0, 1)
        data = (obs, obs, obs, obs)
        family, bounds = qbr_family(), [(0.0, 4.0)]
        search = SearchOptions(grid_points=5, refine_iters=0)
        folds = []
        for fold in fold_indices(len(data), 2, seed=0):
            held_out = set(fold.tolist())
            train = [data[i] for i in range(len(data)) if i not in held_out]
            fitted = fit_mle(family, train, bounds, search)
            folds.append(log_likelihood(family, fitted.params, [data[i] for i in sorted(held_out)]))
        assert folds[0] == pytest.approx(folds[1], abs=1e-12)
        score = cross_validate(family, data, 2, bounds, search, seed=0)
        assert score == sum(folds) / len(data)

    def test_seed_reproducibility(self, pd_game, asym_game):
        data = sample_observations(
            EpsilonNash(epsilon=0.25, no_nash_fallback="uniform"),
            [pd_game, asym_game],
            40,
            seed=3,
        )
        kwargs = dict(
            k=4,
            bounds=[(0.0, 1.0)],
            search=SearchOptions(grid_points=9, refine_iters=0),
        )
        a = cross_validate(epsilon_nash_family(), data, seed=11, **kwargs)
        b = cross_validate(epsilon_nash_family(), data, seed=11, **kwargs)
        assert a == b
        assert np.all(
            fold_indices(40, 4, 11)[0] == fold_indices(40, 4, 11)[0]
        )

    def test_heldout_not_better_than_training_on_average(
        self, pd_game, asym_game, coord_game, dominant_3x2_game
    ):
        games = [pd_game, asym_game, coord_game, dominant_3x2_game]
        truth = EpsilonNash(epsilon=0.25, no_nash_fallback="uniform")
        data = sample_observations(truth, games, 60, seed=21)
        family = epsilon_nash_family()
        bounds = [(0.0, 1.0)]
        search = SearchOptions(grid_points=9, refine_iters=6)
        train = fit_mle(family, data, bounds, search)
        train_per_obs = train.log_likelihood / len(data)
        scores = [
            cross_validate(family, data, 3, bounds, search, seed=s)
            for s in range(20)
        ]
        assert sum(scores) / len(scores) <= train_per_obs + 1e-9

    def test_too_many_folds_rejected(self, pennies_game):
        obs = Observation(pennies_game, 0, 0)
        data = (obs,) * 4
        with pytest.raises(ValueError):
            cross_validate(
                qbr_family(), data, k=5, bounds=[(0.0, 1.0)]
            )
        with pytest.raises(ValueError):
            fold_indices(4, 1, 0)

    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    def test_fold_count_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="^k: must be an integer"):
            fold_indices(10, bad, 0)
        assert len(fold_indices(10, 2.0, 0)) == 2

    @pytest.mark.parametrize("bad", [1.5, True, "1"])
    def test_fold_seed_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="^seed: must be an integer"):
            fold_indices(10, 2, bad)
        for a, b in zip(fold_indices(10, 2, 3.0), fold_indices(10, 2, 3)):
            assert np.array_equal(a, b)


class TestSampleObservations:
    def test_deterministic(self, pd_game, asym_game):
        model = LogitQBR(precision=1.0)
        a = sample_observations(model, [pd_game, asym_game], 30, seed=5)
        b = sample_observations(model, [pd_game, asym_game], 30, seed=5)
        assert a == b

    def test_round_robin_games(self, pd_game, asym_game, coord_game):
        games = [pd_game, asym_game, coord_game]
        data = sample_observations(LogitQBR(0.0), games, 7, seed=0)
        for i, obs in enumerate(data):
            assert obs.game == games[i % 3]

    def test_uniform_model_uniform_actions(self, pennies_game):
        data = sample_observations(LogitQBR(0.0), [pennies_game], 600, seed=1)
        freq = sum(obs.action == 0 for obs in data) / len(data)
        assert abs(freq - 0.5) < 0.08

    def test_validation(self, pd_game):
        with pytest.raises(ValueError, match="^games: must be nonempty$"):
            sample_observations(LogitQBR(0.0), [], 5)
        with pytest.raises(ValueError):
            sample_observations(LogitQBR(0.0), [pd_game], 0)

    @pytest.mark.parametrize(
        "field, bad",
        [("num_observations", 2.5), ("num_observations", True), ("seed", 1.5), ("seed", True)],
    )
    def test_count_and_seed_must_be_integers(self, pd_game, field, bad):
        args = {"num_observations": 3, "seed": 0, field: bad}
        with pytest.raises(ValueError, match=f"^{field}: must be an integer"):
            sample_observations(LogitQBR(1.0), [pd_game], **args)
        model = LogitQBR(1.0)
        assert sample_observations(model, [pd_game], 3.0, seed=2.0) == sample_observations(
            model, [pd_game], 3, seed=2
        )


def test_fit_result_invariant_nonpositive(pennies_game):
    obs = Observation(pennies_game, 0, 0)
    result = fit_mle(
        qbr_family(),
        (obs,) * 3,
        bounds=[(0.0, 3.0)],
        search=SearchOptions(grid_points=4, refine_iters=0),
    )
    assert isinstance(result, FitResult)
    assert result.log_likelihood <= 0.0
