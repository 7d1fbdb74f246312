from __future__ import annotations

import itertools
import math
import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foggame.behavior import BestResponse, LevelK
from foggame.games import (
    TIE_TOL,
    MixedStrategy,
    NormalFormGame,
    load_game,
    pure_nash,
    save_game,
)
from foggame import games
from foggame.games import _eu_kernel

from conftest import random_game, two_player


def _eu(payoffs, player, arrays):
    """``player``'s expected utilities through a freshly prepared kernel."""
    return _eu_kernel(payoffs)[player](arrays)


class TestMixedStrategy:
    def test_valid_weights(self):
        s = MixedStrategy((0.25, 0.75))
        assert s.weights == (0.25, 0.75)
        assert s.num_actions == 2

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MixedStrategy((-0.1, 1.1))

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            MixedStrategy((0.5, 0.6))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            MixedStrategy(())

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            MixedStrategy((math.inf, 0.0))

    @pytest.mark.parametrize("bad", [("0.5", "0.5"), (True, False)])
    def test_weights_must_be_numbers(self, bad):
        with pytest.raises(ValueError, match="^weights: must be a number"):
            MixedStrategy(bad)
        s = MixedStrategy((np.float64(0.25), 0.75))
        assert s.weights == (0.25, 0.75) and type(s.weights[0]) is float

    def test_as_array_is_copy(self):
        s = MixedStrategy((0.5, 0.5))
        arr = s.as_array()
        arr[0] = 99.0
        assert s.weights == (0.5, 0.5)


class TestBelief:
    """A player's belief is the whole profile with their own entry unread."""

    def test_from_profile_skips_owner(self):
        game = random_game(np.random.default_rng(3), counts=(2, 3, 2))
        profile = [np.array([1.0, 0.0]), np.array([0.0, 1.0, 0.0]), np.array([0.5, 0.5])]
        expected = _eu(game.payoffs, 1, profile)
        for owner_entry in (None, np.full(5, np.nan)):
            belief = [profile[0], owner_entry, profile[2]]
            assert np.array_equal(_eu(game.payoffs, 1, belief), expected)


class TestNormalFormGame:
    def test_two_player_shape(self, pd_game):
        assert pd_game.num_players == 2
        assert pd_game.action_counts == (2, 2)
        assert pd_game.payoffs.shape == (2, 2, 2)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            NormalFormGame(action_counts=(2, 2), payoffs=np.zeros((2, 2, 3)))

    def test_rejects_nonfinite(self):
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 0] = np.nan
        with pytest.raises(ValueError):
            NormalFormGame(action_counts=(2, 2), payoffs=bad)

    @pytest.mark.parametrize("counts, shape", [((2.9, 2), (2, 2, 2)), ((True, 2), (2, 1, 2))])
    def test_action_counts_must_be_integers(self, counts, shape):
        with pytest.raises(ValueError, match="^action_counts: must be an integer"):
            NormalFormGame(counts, np.zeros(shape))
        game = NormalFormGame((2.0, np.int64(2)), np.zeros((2, 2, 2)))
        assert game.action_counts == (2, 2)
        assert all(type(n) is int for n in game.action_counts)

    @pytest.mark.parametrize("payoffs", [{}, object(), [[True, False]], [["1", "2.5"]],
                                         [[1.0, [2.0]]], np.array([[1j, 0]])])
    def test_payoffs_must_be_real_numbers(self, payoffs):
        with pytest.raises(ValueError, match="^payoffs: "):
            NormalFormGame((2,), payoffs)

    @pytest.mark.parametrize("payoffs", [[[1, 2]], [[1, 2.5]], np.array([[1, 2]], dtype=np.uint8),
                                         np.array([[1.0, 2.5]], dtype=np.float32)])
    def test_integer_and_real_payoffs_load_as_floats(self, payoffs):
        game = NormalFormGame((2,), payoffs)
        assert game.payoffs.dtype == np.float64
        assert game.payoffs.tolist() == np.asarray(payoffs, dtype=float).tolist()

    def test_payoffs_are_stored_in_c_order(self):
        payoffs = np.asfortranarray(np.arange(8.0).reshape(2, 2, 2))
        game = NormalFormGame((2, 2), payoffs)
        assert game.payoffs.flags.c_contiguous
        assert np.array_equal(game.payoffs, payoffs)

    def test_rejects_zero_actions(self):
        with pytest.raises(ValueError):
            NormalFormGame(action_counts=(0, 2), payoffs=np.zeros((2, 0, 2)))

    def test_payoffs_immutable(self, pd_game):
        with pytest.raises(ValueError):
            pd_game.payoffs[0, 0, 0] = 7.0

    def test_equality_and_hash(self, pd_game):
        clone = two_player(
            [[3.0, 0.0], [5.0, 1.0]],
            [[3.0, 5.0], [0.0, 1.0]],
        )
        assert clone == pd_game
        assert hash(clone) == hash(pd_game)
        assert clone in {pd_game}
        # Equal games hash equal however they were built, and the hash is
        # the value of the counts and payoff bytes.
        again = NormalFormGame.from_dict(pd_game.to_dict())
        assert again == pd_game and hash(again) == hash(pd_game)
        assert hash(pd_game) == hash(((2, 2), pd_game.payoffs.tobytes()))

    def test_unpickled_game_hashes_like_a_fresh_one(self, pd_game):
        # bytes hashes are salted per process, so a pickled hash would go stale
        script = (
            "import pickle, sys; import numpy as np; from foggame.games import NormalFormGame; "
            "g = pickle.loads(sys.stdin.buffer.read()); "
            "fresh = NormalFormGame(g.action_counts, np.array(g.payoffs)); "
            "print(g == fresh, hash(g) == hash(fresh), fresh in {g: 1})"
        )
        src = os.path.dirname(os.path.dirname(games.__file__))
        env = {**os.environ, "PYTHONHASHSEED": "12345", "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", script], input=pickle.dumps(pd_game),
            capture_output=True, env=env, check=True,
        )
        assert out.stdout.decode().split() == ["True", "True", "True"]

    def test_dict_round_trip(self, corpus):
        for game in corpus:
            again = NormalFormGame.from_dict(game.to_dict())
            assert again == game

    def test_dict_format(self, pd_game):
        d = pd_game.to_dict()
        assert d["action_counts"] == [2, 2]
        assert d["payoffs"]["0"] == [3.0, 0.0, 5.0, 1.0]
        assert d["payoffs"]["1"] == [3.0, 5.0, 0.0, 1.0]

    def test_file_round_trip(self, pd_game, tmp_path):
        path = tmp_path / "game.json"
        save_game(pd_game, path)
        assert load_game(path) == pd_game

    def test_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError):
            NormalFormGame.from_dict({"action_counts": [2, 2]})
        with pytest.raises(ValueError):
            NormalFormGame.from_dict(
                {"action_counts": [2, 2], "payoffs": {"0": [1, 2, 3]}}
            )

    def test_from_dict_rejects_non_integer_counts(self):
        payoffs = {"0": [0.0, 1.0], "1": [1.0, 0.0]}
        for counts in ([2.9, True], [2.9, 1], [2, True], ["2", 1]):
            with pytest.raises(ValueError, match="action_counts: must be an integer"):
                NormalFormGame.from_dict({"action_counts": counts, "payoffs": payoffs})
        game = NormalFormGame.from_dict({"action_counts": [2.0, 1], "payoffs": payoffs})
        assert game.action_counts == (2, 1)

    @pytest.mark.parametrize("counts, message", [
        ([], "action_counts: must be nonempty"),
        ([2, 0], "action_counts: must be >= 1, got 0"),
        (2, "action_counts: must be a list, got 2"),
    ])
    def test_from_dict_reads_counts_as_the_constructor_does(self, counts, message):
        for build in (lambda: NormalFormGame.from_dict({"action_counts": counts, "payoffs": {}}),
                      lambda: NormalFormGame(counts, np.zeros(0))):
            with pytest.raises(ValueError, match=f"^{message}$"):
                build()

    @pytest.mark.parametrize(
        "payoffs, message",
        [
            (5, "payoffs: must be a JSON object"),
            ({"0": {"a": 1.0}, "1": [1.0, 0.0]}, "payoffs.0: must be a list"),
            ({"0": [{}, 1.0], "1": [1.0, 0.0]}, "payoffs.0: must be a number"),
            ({"0": [True, 1.0], "1": [1.0, 0.0]}, "payoffs.0: must be a number"),
            ({"0": [0.0, 1.0], "1": ["1.5", 0.0]}, "payoffs.1: must be a number"),
            ({"0": [0.0, 1.0], "1": [1.0, 0.0], "7": [1.0, 1.0]},
             "payoffs: unknown player key '7'"),
        ],
        ids=["non-object", "object-entry", "object-payoff", "bool", "string", "extra-key"],
    )
    def test_from_dict_reads_payoffs_strictly(self, payoffs, message):
        with pytest.raises(ValueError, match=message):
            NormalFormGame.from_dict({"action_counts": [2, 1], "payoffs": payoffs})


def _best_response_set(game, player, profile=None) -> list[int]:
    """Support of the exact best response to ``profile`` (uniform play if None)."""
    if profile is None:
        strategy = BestResponse().predict_profile(game)[player]
    else:
        level0 = tuple(MixedStrategy(tuple(w)) for w in profile)
        model = LevelK(level_weights=(0.0, 1.0), level0=level0)
        strategy = model.predict_profile(game)[player]
    return np.flatnonzero(strategy.as_array()).tolist()


class TestExpectedUtility:
    def test_degenerate_belief_selects_column(self, pd_game):
        assert _eu(pd_game.payoffs, 0, [None, np.array([1.0, 0.0])])[1] == 5.0

    def test_constant_payoff_expectation(self, tie_game):
        eu = _eu(tie_game.payoffs, 1, [np.full(2, 0.5), None])
        assert eu[0] == pytest.approx(2.0)

    def test_brute_force_oracle_2x3(self):
        rng = np.random.default_rng(7)
        game = random_game(rng, counts=(2, 3))
        eu = _eu(game.payoffs, 0, [None, np.full(3, 1.0 / 3.0)])
        for action in range(2):
            oracle = sum(
                (1.0 / 3.0) * game.payoffs[0][action, j] for j in range(3)
            )
            assert eu[action] == pytest.approx(oracle, abs=1e-12)

    def test_brute_force_oracle_three_player(self):
        rng = np.random.default_rng(11)
        game = random_game(rng, counts=(2, 2, 2))
        marginals = (np.array([0.3, 0.7]), np.array([0.6, 0.4]))
        eu = _eu(game.payoffs, 1, [marginals[0], None, marginals[1]])
        for action in range(2):
            oracle = 0.0
            for a0 in range(2):
                for a2 in range(2):
                    p = marginals[0][a0] * marginals[1][a2]
                    oracle += p * game.payoffs[1][a0, action, a2]
            assert eu[action] == pytest.approx(oracle, abs=1e-12)

    def test_linear_in_belief(self, asym_game):
        e1 = _eu(asym_game.payoffs, 0, [None, np.array([1.0, 0.0])])
        e2 = _eu(asym_game.payoffs, 0, [None, np.array([0.0, 1.0])])
        for t in (0.0, 0.25, 0.5, 1.0):
            mixed = _eu(asym_game.payoffs, 0, [None, np.array([1.0 - t, t])])
            np.testing.assert_allclose(mixed, (1 - t) * e1 + t * e2, rtol=0.0, atol=1e-12)


class TestBestResponseSet:
    def test_dominant_action_singleton(self, pd_game):
        assert _best_response_set(pd_game, 0) == [1]

    def test_total_tie_returns_all(self, tie_game):
        assert _best_response_set(tie_game, 0) == [0, 1]

    def test_matches_argmax_oracle_random_3x3(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            game = random_game(rng, counts=(3, 3))
            weights = rng.dirichlet(np.ones(3))
            eus = game.payoffs[0] @ weights
            oracle = [
                a for a in range(3) if eus[a] >= eus.max() - TIE_TOL
            ]
            profile = [np.full(3, 1.0 / 3.0), weights]
            assert _best_response_set(game, 0, profile) == oracle

    def test_near_tie_within_tolerance_included(self):
        eps = 1e-10  # inside TIE_TOL
        game = two_player(
            [[1.0, 1.0], [1.0 - eps, 1.0 - eps]],
            [[0.0, 0.0], [0.0, 0.0]],
        )
        assert _best_response_set(game, 0) == [0, 1]

    def test_shift_invariance(self, asym_game):
        shifted = NormalFormGame(
            action_counts=asym_game.action_counts,
            payoffs=np.stack(
                [asym_game.payoffs[0] + 100.0, asym_game.payoffs[1]]
            ),
        )
        profile = [np.array([0.5, 0.5]), np.array([0.4, 0.6])]
        assert _best_response_set(shifted, 0, profile) == _best_response_set(
            asym_game, 0, profile
        )

    def test_positive_scaling_invariance(self, asym_game):
        scaled = NormalFormGame(
            action_counts=asym_game.action_counts,
            payoffs=np.stack(
                [asym_game.payoffs[0] * 3.5, asym_game.payoffs[1]]
            ),
        )
        profile = [np.array([0.5, 0.5]), np.array([0.4, 0.6])]
        assert _best_response_set(scaled, 0, profile) == _best_response_set(
            asym_game, 0, profile
        )


def _deviation_check_nash(game: NormalFormGame) -> list[tuple[int, ...]]:
    """Brute-force oracle: profiles with no improving unilateral deviation."""
    out = []
    for profile in itertools.product(
        *[range(n) for n in game.action_counts]
    ):
        stable = True
        for player in range(game.num_players):
            here = game.payoffs[player][profile]
            for alt in range(game.action_counts[player]):
                trial = list(profile)
                trial[player] = alt
                if game.payoffs[player][tuple(trial)] > here + TIE_TOL:
                    stable = False
                    break
            if not stable:
                break
        if stable:
            out.append(profile)
    return out


class TestPureNash:
    def test_mutual_defection(self, pd_game):
        assert pure_nash(pd_game) == [(1, 1)]

    def test_coordination_has_both_diagonals(self, coord_game):
        assert pure_nash(coord_game) == [(0, 0), (1, 1)]

    def test_pennies_empty(self, pennies_game):
        assert pure_nash(pennies_game) == []

    def test_asym_unique(self, asym_game):
        assert pure_nash(asym_game) == [(0, 0)]

    def test_tie_game_everything(self, tie_game):
        assert pure_nash(tie_game) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_lexicographic_order(self, coord_game):
        profiles = pure_nash(coord_game)
        assert profiles == sorted(profiles)

    def test_three_player_matches_deviation_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            game = random_game(rng, counts=(2, 2, 2))
            assert pure_nash(game) == _deviation_check_nash(game)

    def test_corpus_matches_deviation_oracle(self, corpus):
        for game in corpus:
            assert pure_nash(game) == _deviation_check_nash(game)

    def test_larger_games_match_oracle(self):
        rng = np.random.default_rng(37)
        for counts in [(3, 3), (4, 2), (2, 3, 2), (4, 4)]:
            for _ in range(5):
                game = random_game(rng, counts=counts)
                assert pure_nash(game) == _deviation_check_nash(game)

    def test_shift_invariance(self, coord_game):
        shifted = NormalFormGame(
            action_counts=coord_game.action_counts,
            payoffs=np.stack(
                [coord_game.payoffs[0] - 42.0, coord_game.payoffs[1]]
            ),
        )
        assert pure_nash(shifted) == pure_nash(coord_game)

    def test_tie_heavy_integer_games_match_oracle(self):
        rng = np.random.default_rng(41)
        for _ in range(60):
            counts = tuple(int(n) for n in rng.integers(2, 4, size=3))
            payoffs = rng.integers(-1, 2, size=(3, *counts)).astype(float)
            game = NormalFormGame(counts, payoffs)
            assert pure_nash(game) == _deviation_check_nash(game)

    @staticmethod
    def _one_deviation(gain: float) -> NormalFormGame:
        """2x2 game where only row's switch from (0, 0) to (1, 0) pays ``gain``."""
        row = np.array([[0.0, 0.0], [gain, -1.0]])
        col = np.array([[0.0, -1.0], [0.0, -1.0]])
        return two_player(row, col)

    def test_deviation_gaining_exactly_tie_tol_is_not_improving(self):
        game = self._one_deviation(TIE_TOL)
        assert (0, 0) in pure_nash(game)
        assert pure_nash(game) == _deviation_check_nash(game)

    def test_deviation_gaining_one_ulp_over_tie_tol_breaks_equilibrium(self):
        game = self._one_deviation(np.nextafter(TIE_TOL, 1.0))
        assert (0, 0) not in pure_nash(game)
        assert pure_nash(game) == _deviation_check_nash(game)


def _per_action_eu(game: NormalFormGame, player: int, arrays) -> list[float]:
    """Oracle: sum over every joint profile of probability times payoff."""
    values = []
    for action in range(game.action_counts[player]):
        total = 0.0
        ranges = [
            [action] if j == player else range(n)
            for j, n in enumerate(game.action_counts)
        ]
        for profile in itertools.product(*ranges):
            prob = math.prod(
                arrays[j][a] for j, a in enumerate(profile) if j != player
            )
            total += prob * game.payoffs[player][profile]
        values.append(total)
    return values


def test_eu_kernel_matches_per_action_loop():
    rng = np.random.default_rng(43)
    for _ in range(80):
        num_players = int(rng.integers(2, 4))
        counts = tuple(int(n) for n in rng.integers(2, 6, size=num_players))
        game = random_game(rng, counts=counts)
        eu = _eu_kernel(game.payoffs)
        arrays = [rng.dirichlet(np.ones(n)) for n in counts]
        for player in range(num_players):
            np.testing.assert_allclose(
                eu[player](arrays),
                _per_action_eu(game, player, arrays),
                rtol=0.0,
                atol=1e-12,
            )


def _tensordot_eu(payoffs: np.ndarray, player: int, arrays) -> np.ndarray:
    """Oracle: opponent axes contracted highest-first with ``np.tensordot``."""
    t = payoffs[player]
    for j in range(len(arrays) - 1, -1, -1):
        if j != player:
            t = np.tensordot(t, arrays[j], axes=(j, 0))
    return t


def test_eu_kernel_matches_tensordot_bit_for_bit():
    """Same bytes as tensordot on 1-4 players, 1-action players included, for
    simplex weights, off-simplex probes and slices of one profile vector, alone
    and as the first (contiguous) column of a stack beside a game of the same shape."""
    rng = np.random.default_rng(2024)
    checked = 0
    for case in range(300):
        num_players = int(rng.integers(1, 5))
        counts = tuple(int(n) for n in rng.integers(1, 5, size=num_players))
        game = random_game(rng, counts=counts)
        if case % 4 == 0:
            game = NormalFormGame(counts, np.round(game.payoffs))
        eu = _eu_kernel(game.payoffs)
        other = random_game(rng, counts=counts).payoffs
        stacked = _eu_kernel(np.stack([game.payoffs, other]), stacked=True)
        for draw in range(3):
            if draw == 0:
                arrays = [rng.dirichlet(np.ones(n)) for n in counts]
            elif draw == 1:
                arrays = [rng.normal(0.3, 1.0, size=n) for n in counts]
            else:
                flat = rng.dirichlet(np.ones(sum(counts)))
                edges = np.cumsum((0,) + counts)
                arrays = [flat[a:b] for a, b in zip(edges, edges[1:])]
            for player in range(num_players):
                got = eu[player](arrays)
                want = _tensordot_eu(game.payoffs, player, arrays)
                assert got.shape == want.shape == (counts[player],)
                assert got.tobytes() == want.tobytes()
                column = stacked[player]([np.array([a, a[::-1]]).T for a in arrays])[:, 0]
                assert column.tobytes() == want.tobytes()
                checked += 1
    assert checked > 1500


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(
    data=st.data(),
    t=st.sampled_from([0.0, 0.25, 0.5, 1.0]),
)
def test_expected_utility_belief_linearity_property(data, t):
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    game = random_game(rng, counts=(2, 2))
    w1 = rng.dirichlet(np.ones(2))
    w2 = rng.dirichlet(np.ones(2))
    mixed_w = (1 - t) * w1 + t * w2
    left = _eu(game.payoffs, 0, [None, mixed_w])
    right = (1 - t) * _eu(game.payoffs, 0, [None, w1]) + t * _eu(
        game.payoffs, 0, [None, w2]
    )
    np.testing.assert_allclose(left, right, rtol=0.0, atol=1e-9)
