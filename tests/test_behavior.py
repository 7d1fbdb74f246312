from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foggame import behavior
from foggame.behavior import (
    BestResponse,
    CognitiveHierarchy,
    EpsilonNash,
    FixedPointError,
    LevelK,
    LogitQBR,
    NoEquilibriumError,
    NoisyIntrospection,
    model_from_dict,
    model_to_dict,
    qbr_equilibrium,
)
from foggame.games import MixedStrategy

from conftest import logit_choice, random_game, two_player

# exp(1)/(1+exp(1)) and its complement, evaluated independently
LOGIT_1_0_LAM1 = (0.7310585786300049, 0.2689414213699951)


def _softmax_oracle(utilities, lam):
    z = np.asarray(utilities, dtype=float) * lam
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def _br_oracle(payoff_matrix, opponent_weights):
    """Uniform distribution over argmax rows of E[u] against a column mix."""
    eu = payoff_matrix @ np.asarray(opponent_weights)
    winners = np.nonzero(eu >= eu.max() - 1e-9)[0]
    w = np.zeros(len(eu))
    w[winners] = 1.0 / len(winners)
    return w


class TestLogitQBR:
    def test_zero_precision_exactly_uniform(self):
        for n in (2, 3, 5):
            out = logit_choice([float(i) for i in range(n)], 0.0)
            assert out == tuple([1.0 / n] * n)

    def test_unit_gap_lambda_one(self):
        out = logit_choice([1.0, 0.0], 1.0)
        assert out[0] == pytest.approx(LOGIT_1_0_LAM1[0], abs=1e-12)
        assert out[1] == pytest.approx(LOGIT_1_0_LAM1[1], abs=1e-12)

    def test_high_precision_concentrates(self):
        out = logit_choice([1.0, 0.0], 50.0)
        assert out[0] > 0.999999

    def test_overflow_safe(self):
        out = logit_choice([1e6, 0.0, -1e6], 1e4)
        assert math.isfinite(sum(out))
        assert out[0] == pytest.approx(1.0)

    def test_ordering_follows_utilities(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            u = rng.normal(size=4)
            out = logit_choice(u, 1.7)
            for i in range(4):
                for j in range(4):
                    if u[i] > u[j]:
                        assert out[i] > out[j]

    def test_argmax_mass_monotone_in_precision(self):
        u = [0.9, 0.1, -0.4]
        masses = [logit_choice(u, lam)[0] for lam in (0, 1, 2, 4, 8)]
        assert all(b >= a for a, b in zip(masses, masses[1:]))

    @settings(max_examples=200, derandomize=True, deadline=None, database=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        shift=st.floats(-1e3, 1e3, allow_nan=False),
    )
    def test_shift_invariance(self, seed, shift):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=3)
        base = logit_choice(u, 2.0)
        shifted = logit_choice(u + shift, 2.0)
        assert max(abs(a - b) for a, b in zip(base, shifted)) < 1e-12

    def test_matches_softmax_oracle(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            u = rng.normal(size=3)
            lam = float(rng.uniform(0, 6))
            oracle = _softmax_oracle(u, lam)
            got = logit_choice(u, lam)
            assert np.allclose(got, oracle, atol=1e-12)


class TestQbrEquilibrium:
    def test_zero_precision_is_uniform_exactly(self, pennies_game):
        profile = qbr_equilibrium(pennies_game, 0.0)
        assert profile[0].weights == (0.5, 0.5)
        assert profile[1].weights == (0.5, 0.5)

    def test_symmetric_game_symmetric_fixed_point(self, coord_game):
        profile = qbr_equilibrium(coord_game, 1.3)
        assert np.allclose(profile[0].weights, profile[1].weights, atol=1e-8)

    def test_residual_by_substitution_corpus(self, corpus):
        for game in corpus:
            for lam in (0.0, 0.5, 2.0, 8.0):
                profile = qbr_equilibrium(game, lam)
                p = np.asarray(profile[0].weights)
                q = np.asarray(profile[1].weights)
                r0 = _softmax_oracle(game.payoffs[0] @ q, lam)
                r1 = _softmax_oracle(p @ game.payoffs[1], lam)
                residual = max(
                    np.abs(r0 - p).max(), np.abs(r1 - q).max()
                )
                assert residual < 1e-10

    def test_random_games_high_precision(self):
        rng = np.random.default_rng(17)
        for _ in range(15):
            game = random_game(rng)
            profile = qbr_equilibrium(game, 10.0)
            p = np.asarray(profile[0].weights)
            q = np.asarray(profile[1].weights)
            r0 = _softmax_oracle(game.payoffs[0] @ q, 10.0)
            r1 = _softmax_oracle(p @ game.payoffs[1], 10.0)
            assert max(np.abs(r0 - p).max(), np.abs(r1 - q).max()) < 1e-10

    def test_nonconvergence_error_carries_state(self, asym_game, monkeypatch):
        # uniform start is far from the fixed point; two steps can't get there
        monkeypatch.setattr(behavior, "_MAX_ITERS", 2)
        with pytest.raises(FixedPointError, match="^no fixed point within 2 iterations") as err:
            qbr_equilibrium(asym_game, 5.0)
        assert isinstance(err.value.profile, list)
        assert all(isinstance(s, MixedStrategy) for s in err.value.profile)
        assert err.value.residual > 0

    def test_three_player_general_path(self):
        rng = np.random.default_rng(21)
        game = random_game(rng, counts=(2, 3, 2), scale=2.0)
        profile = qbr_equilibrium(game, 1.5)
        assert [s.num_actions for s in profile] == [2, 3, 2]
        for s in profile:
            assert sum(s.weights) == pytest.approx(1.0, abs=1e-9)

    def test_parameter_validation(self, pd_game):
        with pytest.raises(ValueError):
            qbr_equilibrium(pd_game, -1.0)

    @pytest.mark.parametrize(
        "name, bad, rule",
        [
            ("precision", True, "a number"),
            ("precision", "2", "a number"),
        ],
    )
    def test_arguments_read_as_numbers(self, pd_game, name, bad, rule):
        args = {"precision": 1.0, name: bad}
        with pytest.raises(ValueError, match=f"^{name}: must be {rule}, got {bad!r}"):
            qbr_equilibrium(pd_game, **args)


class TestBestResponseModel:
    def test_dominant_action_point_mass(self, pd_game):
        assert BestResponse().predict_profile(pd_game)[0].weights == (0.0, 1.0)
        assert BestResponse().predict_profile(pd_game)[1].weights == (0.0, 1.0)

    def test_tie_breaks_uniform(self, tie_game):
        assert BestResponse().predict_profile(tie_game)[0].weights == (0.5, 0.5)

    def test_responds_to_uniform_opponents(self, asym_game):
        # vs uniform column mix: row EUs are (0.5, 2.0) -> row 1
        assert BestResponse().predict_profile(asym_game)[0].weights == (0.0, 1.0)


class TestEpsilonNash:
    def test_zero_epsilon_point_mass(self, asym_game):
        out = EpsilonNash(epsilon=0.0).predict_profile(asym_game)[0]
        assert out.weights == (1.0, 0.0)

    def test_three_action_split(self, dominant_3x2_game):
        out = EpsilonNash(epsilon=0.3).predict_profile(dominant_3x2_game)[0]
        assert out.weights[0] == pytest.approx(0.7)
        assert out.weights[1] == pytest.approx(0.15)
        assert out.weights[2] == pytest.approx(0.15)

    def test_selects_lexicographically_first_equilibrium(self, coord_game):
        # equilibria (0,0) and (1,1); the first one selects action 0
        out = EpsilonNash(epsilon=0.2).predict_profile(coord_game)[0]
        assert out.weights == (0.8, 0.2)

    def test_no_nash_error(self, pennies_game):
        with pytest.raises(NoEquilibriumError):
            EpsilonNash(epsilon=0.1).predict_profile(pennies_game)[0]

    def test_no_nash_uniform_fallback(self, pennies_game):
        model = EpsilonNash(epsilon=0.1, no_nash_fallback="uniform")
        out = model.predict_profile(pennies_game)[0]
        assert out.weights == (0.5, 0.5)

    def test_no_nash_uniform_fallback_three_actions(self):
        beats = np.array([[0.0, -1.0, 1.0], [1.0, 0.0, -1.0], [-1.0, 1.0, 0.0]])
        rock_paper_scissors = two_player(beats, -beats)
        model = EpsilonNash(epsilon=0.1, no_nash_fallback="uniform")
        third = 1.0 / 3.0
        assert model.predict_profile(rock_paper_scissors) == (
            MixedStrategy((third, third, third)),
        ) * 2

    def test_validation(self):
        with pytest.raises(ValueError):
            EpsilonNash(epsilon=-0.1)
        with pytest.raises(ValueError):
            EpsilonNash(epsilon=1.2)
        with pytest.raises(ValueError):
            EpsilonNash(epsilon=0.5, no_nash_fallback="panic")

    def test_single_action_game_epsilon_irrelevant(self):
        from foggame.games import NormalFormGame

        game = NormalFormGame(
            action_counts=(1, 1), payoffs=np.zeros((2, 1, 1))
        )
        out = EpsilonNash(epsilon=0.4).predict_profile(game)[0]
        assert out.weights == (1.0,)


class TestLogitQBRModel:
    def test_zero_precision_uniform(self, corpus):
        model = LogitQBR(precision=0.0)
        for game in corpus:
            for player in range(2):
                assert model.predict_profile(game)[player].weights == (0.5, 0.5)

    def test_prediction_is_equilibrium_component(self, asym_game):
        model = LogitQBR(precision=2.0)
        profile = qbr_equilibrium(asym_game, 2.0)
        for player in range(2):
            assert model.predict_profile(asym_game)[player].weights == pytest.approx(
                profile[player].weights
            )

    def test_validation(self):
        with pytest.raises(ValueError):
            LogitQBR(precision=-1.0)


class TestLevelK:
    def test_pure_level0_uniform(self, asym_game):
        model = LevelK(level_weights=(1.0,))
        assert model.predict_profile(asym_game)[0].weights == (0.5, 0.5)

    def test_pure_level0_custom(self, asym_game):
        custom = (MixedStrategy((0.9, 0.1)), MixedStrategy((0.2, 0.8)))
        model = LevelK(level_weights=(1.0,), level0=custom)
        assert model.predict_profile(asym_game)[0].weights == (0.9, 0.1)
        assert model.predict_profile(asym_game)[1].weights == (0.2, 0.8)

    @pytest.mark.parametrize("bad", [("1",), (True,), (0.5, "0.5")])
    def test_level_weights_must_be_numbers(self, bad):
        with pytest.raises(ValueError, match="^level_weights: must be a number"):
            LevelK(bad)
        assert LevelK((1,)).level_weights == (1.0,)

    def test_dominant_action_any_level(self, pd_game):
        for weights in [(0.0, 1.0), (0.0, 0.0, 1.0)]:
            model = LevelK(level_weights=weights)
            assert model.predict_profile(pd_game)[0].weights == (0.0, 1.0)

    def test_pennies_level1_uniform(self, pennies_game):
        # vs uniform, every action ties; uniform tie-break keeps uniform
        model = LevelK(level_weights=(0.0, 1.0))
        assert model.predict_profile(pennies_game)[0].weights == (0.5, 0.5)

    def test_level2_matches_hand_recursion(self, asym_game):
        # Hand recursion with raw numpy, independent of the library:
        u0, u1 = asym_game.payoffs[0], asym_game.payoffs[1]
        l0 = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
        l1 = [_br_oracle(u0, l0[1]), _br_oracle(u1.T, l0[0])]
        l2 = [_br_oracle(u0, l1[1]), _br_oracle(u1.T, l1[0])]
        model = LevelK(level_weights=(0.0, 0.0, 1.0))
        for player, oracle in enumerate(l2):
            got = model.predict_profile(asym_game)[player].weights
            assert np.allclose(got, oracle, atol=1e-10)

    def test_mixture_weights_combine_levels(self, asym_game):
        u0 = asym_game.payoffs[0]
        l0 = np.array([0.5, 0.5])
        l1 = _br_oracle(u0, np.array([0.5, 0.5]))
        oracle = 0.3 * l0 + 0.7 * l1
        model = LevelK(level_weights=(0.3, 0.7))
        assert np.allclose(
            model.predict_profile(asym_game)[0].weights, oracle, atol=1e-10
        )

    def test_qbr_response_matches_softmax_recursion(self, asym_game):
        lam = 1.3
        u0, u1 = asym_game.payoffs[0], asym_game.payoffs[1]
        l0 = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
        l1 = [
            _softmax_oracle(u0 @ l0[1], lam),
            _softmax_oracle(l0[0] @ u1, lam),
        ]
        model = LevelK(level_weights=(0.0, 1.0), response="qbr", precision=lam)
        for player, oracle in enumerate(l1):
            got = model.predict_profile(asym_game)[player].weights
            assert np.allclose(got, oracle, atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            LevelK(level_weights=())
        with pytest.raises(ValueError):
            LevelK(level_weights=(0.5, 0.4))
        with pytest.raises(ValueError):
            LevelK(level_weights=(1.0,), response="qbr")  # missing precision
        with pytest.raises(ValueError):
            LevelK(level_weights=(1.0,), response="telepathy")

    def test_level0_shape_checked(self, asym_game):
        model = LevelK(
            level_weights=(1.0,),
            level0=(MixedStrategy((1.0,)), MixedStrategy((0.5, 0.5))),
        )
        with pytest.raises(ValueError):
            model.predict_profile(asym_game)[0]


class TestCognitiveHierarchy:
    def test_max_level_one_equals_level1(self, asym_game):
        ch = CognitiveHierarchy(poisson_mean=1.5, max_level=1)
        lk = LevelK(level_weights=(0.0, 1.0))
        for player in range(2):
            assert ch.predict_profile(asym_game)[player].weights == pytest.approx(
                lk.predict_profile(asym_game)[player].weights
            )

    def test_dominant_action_any_tau(self, pd_game):
        for tau in (0.5, 1.5, 4.0):
            ch = CognitiveHierarchy(poisson_mean=tau, max_level=3)
            assert ch.predict_profile(pd_game)[0].weights == (0.0, 1.0)

    def test_hand_unrolled_truncated_poisson(self, asym_game):
        # Oracle: Poisson(1.5) pmf renormalized over strictly lower levels.
        tau = 1.5
        pmf = [math.exp(-tau) * tau**k / math.factorial(k) for k in range(3)]
        u0, u1 = asym_game.payoffs[0], asym_game.payoffs[1]
        lv = [[np.array([0.5, 0.5]), np.array([0.5, 0.5])]]
        for k in (1, 2, 3):
            w = np.array(pmf[:k]) / sum(pmf[:k])
            belief = [
                sum(w[j] * lv[j][p] for j in range(k)) for p in range(2)
            ]
            lv.append(
                [
                    _br_oracle(u0, belief[1]),
                    _br_oracle(u1.T, belief[0]),
                ]
            )
        ch = CognitiveHierarchy(poisson_mean=tau, max_level=3)
        for player in range(2):
            got = ch.predict_profile(asym_game)[player].weights
            assert np.allclose(got, lv[3][player], atol=1e-10)

    @pytest.mark.parametrize("bad", [2.7, True, "2"])
    def test_max_level_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="^max_level: must be an integer"):
            CognitiveHierarchy(1.5, bad)
        ch = CognitiveHierarchy(1.5, 2.0)
        assert ch.max_level == 2 and type(ch.max_level) is int

    def test_validation(self):
        with pytest.raises(ValueError):
            CognitiveHierarchy(poisson_mean=0.0, max_level=2)
        with pytest.raises(ValueError):
            CognitiveHierarchy(poisson_mean=1.0, max_level=0)


class TestNoisyIntrospection:
    def test_zero_base_precision_uniform(self, asym_game):
        model = NoisyIntrospection(precision=0.0, decay=0.5, max_depth=4)
        assert model.predict_profile(asym_game)[0].weights == (0.5, 0.5)

    def test_depth_one_is_single_logit_step(self, asym_game):
        lam = 2.2
        model = NoisyIntrospection(precision=lam, decay=0.7, max_depth=1)
        u0 = asym_game.payoffs[0]
        oracle = _softmax_oracle(u0 @ np.array([0.5, 0.5]), lam)
        got = model.predict_profile(asym_game)[0].weights
        assert np.allclose(got, oracle, atol=1e-12)

    def test_depth_three_hand_unrolled(self, asym_game):
        lam0, decay = 4.0, 0.5
        u0, u1 = asym_game.payoffs[0], asym_game.payoffs[1]
        profile = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
        for depth in (2, 1, 0):
            lam = lam0 * decay**depth
            profile = [
                _softmax_oracle(u0 @ profile[1], lam),
                _softmax_oracle(profile[0] @ u1, lam),
            ]
        model = NoisyIntrospection(precision=lam0, decay=decay, max_depth=3)
        for player in range(2):
            got = model.predict_profile(asym_game)[player].weights
            assert np.allclose(got, profile[player], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoisyIntrospection(precision=1.0, decay=0.0, max_depth=2)
        with pytest.raises(ValueError):
            NoisyIntrospection(precision=1.0, decay=1.0, max_depth=2)
        with pytest.raises(ValueError):
            NoisyIntrospection(precision=1.0, decay=0.5, max_depth=0)
        with pytest.raises(ValueError):
            NoisyIntrospection(precision=-1.0, decay=0.5, max_depth=2)

    @pytest.mark.parametrize("bad", [2.5, True, "2"])
    def test_max_depth_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="^max_depth: must be an integer"):
            NoisyIntrospection(1.0, 0.5, bad)
        model = NoisyIntrospection(1.0, 0.5, 3.0)
        assert model.max_depth == 3 and type(model.max_depth) is int


@pytest.mark.parametrize(
    "field, build",
    [
        ("precision", lambda v: LogitQBR(v)),
        ("epsilon", lambda v: EpsilonNash(v)),
        ("precision", lambda v: LevelK((1.0,), response="qbr", precision=v)),
        ("precision", lambda v: CognitiveHierarchy(1.5, 2, response="qbr", precision=v)),
        ("poisson_mean", lambda v: CognitiveHierarchy(v, 2)),
        ("precision", lambda v: NoisyIntrospection(v, 0.5, 3)),
        ("decay", lambda v: NoisyIntrospection(1.0, v, 3)),
    ],
)
def test_model_scalars_must_be_numbers(field, build):
    for bad in ("0.5", True):
        with pytest.raises(ValueError, match=f"^{field}: must be a number, got {bad!r}"):
            build(bad)
    value = getattr(build(np.float64(0.5)), field)
    assert value == 0.5 and type(value) is float


@pytest.mark.parametrize(
    "build",
    [lambda: LevelK((1.0,), response="qbr"), lambda: CognitiveHierarchy(1.5, 2, response="qbr")],
    ids=["LevelK", "CognitiveHierarchy"],
)
def test_qbr_response_needs_a_precision(build):
    with pytest.raises(ValueError, match="^precision must be set for the qbr response$"):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda level0: LevelK((1.0,), level0=level0),
        lambda level0: CognitiveHierarchy(1.0, 2, level0=level0),
    ],
    ids=["LevelK", "CognitiveHierarchy"],
)
@pytest.mark.parametrize("bad", [[[0.5, 0.5], [0.5, 0.5]], 5, "uniform"])
def test_level0_entries_must_be_strategies(build, bad):
    with pytest.raises(ValueError, match="^level0: "):
        build(bad)
    level0 = [MixedStrategy((0.5, 0.5))] * 2
    assert build(level0).level0 == tuple(level0)


@pytest.mark.parametrize(
    "build",
    [
        LogitQBR,
        lambda v: NoisyIntrospection(v, 0.5, 3),
        lambda v: LevelK((1.0,), response="qbr", precision=v),
        lambda v: qbr_equilibrium(two_player([[1.0]], [[1.0]]), v),
    ],
    ids=["LogitQBR", "NoisyIntrospection", "LevelK", "qbr_equilibrium"],
)
@pytest.mark.parametrize("bad", [math.nan, -1.0])
def test_precision_checked_alike(build, bad):
    with pytest.raises(ValueError, match=f"^precision: must be >= 0, got {bad!r}$"):
        build(bad)


class TestSerialization:
    @pytest.mark.parametrize(
        "model",
        [
            BestResponse(),
            EpsilonNash(epsilon=0.25, no_nash_fallback="uniform"),
            LogitQBR(precision=3.5),
            LevelK(level_weights=(0.2, 0.8)),
            LevelK(
                level_weights=(0.1, 0.9),
                level0=(MixedStrategy((0.7, 0.3)), MixedStrategy((0.4, 0.6))),
                response="qbr",
                precision=1.1,
            ),
            CognitiveHierarchy(poisson_mean=1.5, max_level=3),
            pytest.param(
                CognitiveHierarchy(
                    poisson_mean=0.8,
                    max_level=2,
                    level0=(MixedStrategy((0.2, 0.8)), MixedStrategy((0.5, 0.5))),
                    response="qbr",
                    precision=0.7,
                ),
                id="CognitiveHierarchy-all-fields",
            ),
            NoisyIntrospection(precision=2.0, decay=0.6, max_depth=3),
        ],
        ids=lambda m: type(m).__name__,
    )
    def test_round_trip(self, model, asym_game):
        data = model_to_dict(model)
        assert set(data) == {"model", "params"}
        again = model_from_dict(data)
        assert again == model
        # behavioral equivalence too
        assert again.predict_profile(asym_game) == model.predict_profile(asym_game)

    @pytest.mark.parametrize(
        "model, expected",
        [
            (BestResponse(), {"model": "best_response", "params": {}}),
            (
                EpsilonNash(epsilon=0.25, no_nash_fallback="uniform"),
                {"model": "epsilon_nash",
                 "params": {"epsilon": 0.25, "no_nash_fallback": "uniform"}},
            ),
            (LogitQBR(precision=3.5), {"model": "logit_qbr", "params": {"precision": 3.5}}),
            (
                LevelK(level_weights=(0.2, 0.8)),
                {"model": "level_k",
                 "params": {"level_weights": [0.2, 0.8], "level0": "uniform",
                            "response": "exact_br"}},
            ),
            (
                LevelK(
                    level_weights=(0.1, 0.9),
                    level0=(MixedStrategy((0.7, 0.3)), MixedStrategy((0.4, 0.6))),
                    response="qbr",
                    precision=1.1,
                ),
                {"model": "level_k",
                 "params": {"level_weights": [0.1, 0.9], "level0": [[0.7, 0.3], [0.4, 0.6]],
                            "response": "qbr", "precision": 1.1}},
            ),
            (
                CognitiveHierarchy(poisson_mean=1.5, max_level=3),
                {"model": "cognitive_hierarchy",
                 "params": {"poisson_mean": 1.5, "max_level": 3, "level0": "uniform",
                            "response": "exact_br"}},
            ),
            (
                CognitiveHierarchy(poisson_mean=0.8, max_level=2, response="qbr", precision=0.7),
                {"model": "cognitive_hierarchy",
                 "params": {"poisson_mean": 0.8, "max_level": 2, "level0": "uniform",
                            "response": "qbr", "precision": 0.7}},
            ),
            (
                NoisyIntrospection(precision=2.0, decay=0.6, max_depth=3),
                {"model": "noisy_introspection",
                 "params": {"precision": 2.0, "decay": 0.6, "max_depth": 3}},
            ),
        ],
        ids=["BestResponse", "EpsilonNash", "LogitQBR", "LevelK-uniform", "LevelK-profile",
             "CognitiveHierarchy", "CognitiveHierarchy-qbr", "NoisyIntrospection"],
    )
    def test_record_is_pinned(self, model, expected):
        # repr pins key order, list versus tuple and int versus float too.
        assert repr(model_to_dict(model)) == repr(expected)

    def test_logit_qbr_record_matches_shipped_generator(self):
        meta = json.loads(
            (Path(__file__).resolve().parent.parent / "data" / "qbr_lambda2.meta.json")
            .read_text()
        )
        assert model_to_dict(LogitQBR(2.0)) == meta["generator"]

    def test_rejects_unknown_tag(self):
        with pytest.raises(ValueError):
            model_from_dict({"model": "psychic", "params": {}})

    def test_rejects_missing_tag(self):
        with pytest.raises(ValueError):
            model_from_dict({"params": {}})

    @pytest.mark.parametrize("record, message", [
        ({"params": {}}, "model: missing"),
        ({"model": "psychic"}, "model: unknown model tag 'psychic'"),
        ({"model": 5}, "model: must be a string, got 5"),
        ({"model": "best_response", "params": {}, "note": 1}, "note: unknown key"),
        ({"model": "logit_qbr", "params": 3}, "params: must be a JSON object, got 3"),
        ({"model": "logit_qbr", "params": {"precision": -1.0}},
         "params.precision: must be >= 0, got -1.0"),
        ([], "record: must be a JSON object, got []"),
    ], ids=["no-tag", "unknown-tag", "tag-type", "unknown-key", "params-type", "param-range",
            "not-an-object"])
    def test_record_is_read_as_a_model_block(self, record, message):
        # the same reader as a config's model block, which prefixes "model."
        with pytest.raises(ValueError) as err:
            model_from_dict(record)
        assert str(err.value) == message

    def test_every_prediction_is_distribution(self, corpus):
        models = [
            BestResponse(),
            EpsilonNash(epsilon=0.3, no_nash_fallback="uniform"),
            LogitQBR(precision=1.5),
            LevelK(level_weights=(0.25, 0.5, 0.25)),
            CognitiveHierarchy(poisson_mean=1.5, max_level=2),
            NoisyIntrospection(precision=3.0, decay=0.5, max_depth=3),
        ]
        for game in corpus:
            for model in models:
                for player in range(2):
                    out = model.predict_profile(game)[player]
                    assert all(w >= 0 for w in out.weights)
                    assert sum(out.weights) == pytest.approx(1.0, abs=1e-9)


SIX_MODELS = [
    BestResponse(),
    EpsilonNash(epsilon=0.2),
    LogitQBR(precision=1.5),
    LevelK(level_weights=(0.25, 0.5, 0.25), response="qbr", precision=1.0),
    CognitiveHierarchy(poisson_mean=1.5, max_level=2),
    NoisyIntrospection(precision=3.0, decay=0.5, max_depth=3),
]


class TestPredictProfile:
    @pytest.mark.parametrize("model", SIX_MODELS, ids=lambda m: type(m).__name__)
    def test_predict_is_the_profile_entry(self, model):
        game = random_game(np.random.default_rng(11), counts=(2, 3, 2))
        if isinstance(model, EpsilonNash):
            model = EpsilonNash(epsilon=0.2, no_nash_fallback="uniform")
        profile = model.predict_profile(game)
        assert isinstance(profile, tuple)
        assert [s.num_actions for s in profile] == [2, 3, 2]
        assert all(isinstance(s, MixedStrategy) for s in profile)
