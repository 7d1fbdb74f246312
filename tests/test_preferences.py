from __future__ import annotations

import math

import numpy as np
import pytest

from foggame.games import NormalFormGame
from foggame.preferences import (
    Lottery,
    ProspectParams,
    SocialPrefParams,
    pt_evaluate,
    pt_value,
    pt_weight,
    transform_game_social,
)

# Independently evaluated closed forms (frozen):
#   10 ** 0.88, 100 ** 0.88, -2.25 * 50 ** 0.88,
#   w(p) = p^g / (p^g + (1-p)^g)^(1/g) at (0.1, 0.61) and (0.5, 0.61),
#   and the resulting two-term mixed-lottery valuation.
POW_10_088 = 7.5857757502918375
POW_100_088 = 57.543993733715695
LOSS_50_DEFAULT = -70.35194713433611
W_01_061 = 0.18630256637717418
W_05_061 = 0.42063935433575617
MIXED_LOTTERY_DEFAULT = -5.387529248799424


class TestLottery:
    def test_valid_construction(self):
        lot = Lottery(outcomes=(100.0, -50.0), probs=(0.5, 0.5))
        assert lot.outcomes == (100.0, -50.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            Lottery(outcomes=(1.0, 2.0), probs=(1.0,))

    def test_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            Lottery(outcomes=(1.0, 2.0), probs=(0.4, 0.4))

    def test_probs_in_unit_interval(self):
        with pytest.raises(ValueError):
            Lottery(outcomes=(1.0, 2.0), probs=(-0.1, 1.1))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Lottery(outcomes=(), probs=())

    @pytest.mark.parametrize("probs", [(math.nan, math.nan), (math.nan, 1.0)])
    def test_nan_probs_rejected(self, probs):
        with pytest.raises(ValueError, match=r"^probs: must be >= 0, got nan$"):
            Lottery(outcomes=(1.0, 2.0), probs=probs)

    @pytest.mark.parametrize(
        "outcomes, probs, field",
        [((True,), (1,), "outcomes"), (("3",), ("1",), "outcomes"), ((3,), ("1",), "probs")],
    )
    def test_values_must_be_numbers(self, outcomes, probs, field):
        with pytest.raises(ValueError, match=f"^{field}: must be a number"):
            Lottery(outcomes, probs)
        lot = Lottery((3,), (1,))
        assert lot.outcomes == (3.0,) and type(lot.probs[0]) is float


class TestProspectParams:
    def test_defaults_valid(self):
        params = ProspectParams()
        assert params.gain_curvature == 0.88
        assert params.loss_aversion == 2.25

    def test_curvature_bounds(self):
        with pytest.raises(ValueError):
            ProspectParams(gain_curvature=0.0)
        with pytest.raises(ValueError):
            ProspectParams(gain_curvature=1.2)
        with pytest.raises(ValueError):
            ProspectParams(loss_curvature=-0.5)

    def test_loss_aversion_at_least_one(self):
        assert ProspectParams(loss_aversion=1.0).loss_aversion == 1.0
        for bad, rule in ((0.9, ">= 1"), (math.nan, ">= 1"), (math.inf, "finite")):
            with pytest.raises(ValueError, match=f"^loss_aversion: must be {rule}, got {bad!r}$"):
                ProspectParams(loss_aversion=bad)

    def test_weight_curvature_safe_region(self):
        # below ~0.28 the curve stops being monotone and is rejected
        ProspectParams(weight_curvature=0.3)
        ProspectParams(weight_curvature=1.0)
        with pytest.raises(ValueError):
            ProspectParams(weight_curvature=0.2)
        with pytest.raises(ValueError):
            ProspectParams(weight_curvature=0.28)
        with pytest.raises(ValueError):
            ProspectParams(weight_curvature=1.5)

    def test_weight_curve_increasing_over_whole_safe_region(self):
        grid = np.linspace(0.0, 1.0, 101)
        for curve in np.linspace(0.28, 1.0, 2001)[1:]:
            params = ProspectParams(weight_curvature=float(curve))
            values = [pt_weight(float(p), params) for p in grid]
            assert all(b > a for a, b in zip(values, values[1:])), curve

    @pytest.mark.parametrize(
        "field, bad",
        [("gain_curvature", True), ("loss_aversion", "3"), ("reference", "0")],
    )
    def test_values_must_be_numbers(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field}: must be a number, got {bad!r}"):
            ProspectParams(**{field: bad})
        params = ProspectParams(loss_aversion=3, reference=np.float64(1.0))
        assert type(params.loss_aversion) is float and type(params.reference) is float


class TestPtValue:
    def test_reference_maps_to_zero(self):
        assert pt_value(0.0, ProspectParams()) == 0.0
        assert pt_value(7.5, ProspectParams(reference=7.5)) == 0.0

    def test_linear_case_direct_arithmetic(self):
        params = ProspectParams(
            gain_curvature=1.0, loss_curvature=1.0, loss_aversion=2.0
        )
        assert pt_value(-1.0, params) == -2.0
        assert pt_value(3.0, params) == 3.0

    def test_power_gain_frozen(self):
        assert pt_value(10.0, ProspectParams()) == pytest.approx(
            POW_10_088, abs=1e-12
        )
        assert pt_value(100.0, ProspectParams()) == pytest.approx(
            POW_100_088, abs=1e-12
        )

    def test_power_loss_frozen(self):
        assert pt_value(-50.0, ProspectParams()) == pytest.approx(
            LOSS_50_DEFAULT, abs=1e-11
        )

    def test_reference_shifts_argument(self):
        params = ProspectParams(reference=5.0)
        assert pt_value(15.0, params) == pytest.approx(POW_10_088, abs=1e-12)

    def test_strictly_increasing_on_grid(self):
        params = ProspectParams()
        xs = np.linspace(-20.0, 20.0, 81)
        vals = [pt_value(x, params) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_loss_aversion_inequality_on_grid(self):
        # |v(ref - d)| >= v(ref + d) whenever loss scale >= 1 and the two
        # curvatures agree
        for scale in (1.0, 1.5, 2.25):
            params = ProspectParams(loss_aversion=scale)
            for d in np.linspace(0.1, 50.0, 25):
                assert abs(pt_value(-d, params)) >= pt_value(d, params)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            pt_value(float("nan"), ProspectParams())
        with pytest.raises(ValueError):
            pt_value(float("inf"), ProspectParams())


class TestPtWeight:
    def test_exact_endpoints(self):
        params = ProspectParams()
        assert pt_weight(0.0, params) == 0.0
        assert pt_weight(1.0, params) == 1.0

    def test_identity_curve_at_unit_curvature(self):
        params = ProspectParams(weight_curvature=1.0)
        for p in np.linspace(0.0, 1.0, 21):
            assert pt_weight(float(p), params) == pytest.approx(p, abs=1e-12)

    def test_frozen_values(self):
        params = ProspectParams(weight_curvature=0.61)
        assert pt_weight(0.1, params) == pytest.approx(W_01_061, abs=1e-12)
        assert pt_weight(0.5, params) == pytest.approx(W_05_061, abs=1e-12)

    def test_small_probabilities_overweighted(self):
        params = ProspectParams(weight_curvature=0.61)
        assert pt_weight(0.01, params) > 0.01
        assert pt_weight(0.05, params) > 0.05

    def test_strictly_increasing(self):
        for curve in (0.3, 0.5, 0.61, 0.8, 1.0):
            params = ProspectParams(weight_curvature=curve)
            grid = np.linspace(0.0, 1.0, 201)
            vals = [pt_weight(float(p), params) for p in grid]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pt_weight(-0.01, ProspectParams())
        with pytest.raises(ValueError):
            pt_weight(1.01, ProspectParams())


class TestPtEvaluate:
    def test_degenerate_at_reference_is_zero(self):
        lot = Lottery(outcomes=(0.0,), probs=(1.0,))
        assert pt_evaluate(lot, ProspectParams()) == 0.0

    def test_identity_transforms_give_expected_value(self):
        params = ProspectParams(
            gain_curvature=1.0,
            loss_curvature=1.0,
            loss_aversion=1.0,
            weight_curvature=1.0,
        )
        lot = Lottery(outcomes=(10.0, -4.0, 2.0), probs=(0.2, 0.5, 0.3))
        expected = 10.0 * 0.2 - 4.0 * 0.5 + 2.0 * 0.3
        assert pt_evaluate(lot, params) == pytest.approx(expected, abs=1e-12)

    def test_mixed_lottery_frozen_oracle(self):
        lot = Lottery(outcomes=(100.0, -50.0), probs=(0.5, 0.5))
        got = pt_evaluate(lot, ProspectParams())
        assert got == pytest.approx(MIXED_LOTTERY_DEFAULT, abs=1e-11)

    def test_term_by_term_against_components(self):
        params = ProspectParams()
        lot = Lottery(outcomes=(100.0, -50.0), probs=(0.5, 0.5))
        manual = pt_weight(0.5, params) * pt_value(100.0, params) + pt_weight(
            0.5, params
        ) * pt_value(-50.0, params)
        assert pt_evaluate(lot, params) == pytest.approx(manual, abs=1e-12)


class TestSocialPrefParams:
    def test_defaults_selfish(self):
        params = SocialPrefParams()
        assert params.selfish_weight == 1.0
        assert params.altruism_weight == 0.0

    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            SocialPrefParams(altruism_weight=-0.5)

    def test_rejects_all_zero(self):
        with pytest.raises(ValueError):
            SocialPrefParams(selfish_weight=0.0)

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError):
            SocialPrefParams(inequity_metric="gini")

    @pytest.mark.parametrize(
        "field, bad", [("selfish_weight", True), ("selfish_weight", "1"), ("envy_weight", "0")]
    )
    def test_weights_must_be_numbers(self, field, bad):
        with pytest.raises(ValueError, match=f"^{field}: must be a number, got {bad!r}"):
            SocialPrefParams(**{field: bad})
        params = SocialPrefParams(selfish_weight=1, envy_weight=np.float64(0.5))
        assert type(params.selfish_weight) is float and type(params.envy_weight) is float


def _one_cell(base, params) -> list[float]:
    """Every player's recomposed payoff in a one-cell game with payoffs ``base``."""
    game = NormalFormGame((1,) * len(base), np.reshape(base, (-1,) + (1,) * len(base)))
    return transform_game_social(game, params).payoffs.ravel().tolist()


class TestSocialUtility:
    def test_selfish_baseline(self):
        params = SocialPrefParams()
        assert _one_cell((2.0, 3.0), [params, params]) == [2.0, 3.0]

    def test_equal_base_kills_inequity_and_envy(self):
        for metric in ("range", "mean_deviation"):
            params = SocialPrefParams(
                inequity_weight=2.0, envy_weight=3.0, inequity_metric=metric
            )
            assert _one_cell((4.0, 4.0, 4.0), [params] * 3) == [4.0] * 3

    def test_altruism_and_envy_arithmetic(self):
        altruistic = SocialPrefParams(altruism_weight=1.0)
        assert _one_cell((2.0, 3.0), [altruistic] * 2) == [5.0, 5.0]
        envious = SocialPrefParams(altruism_weight=1.0, envy_weight=1.0)
        assert _one_cell((2.0, 3.0), [envious] * 2) == [4.0, 5.0]

    def test_envy_only_upward(self):
        # the top player envies no one
        params = SocialPrefParams(envy_weight=5.0)
        assert _one_cell((2.0, 3.0), [params] * 2) == [2.0 - 5.0, 3.0]

    def test_inequity_metrics_differ(self):
        base = (0.0, 3.0, 6.0)
        ranged = SocialPrefParams(inequity_weight=1.0, inequity_metric="range")
        dev = SocialPrefParams(
            inequity_weight=1.0, inequity_metric="mean_deviation"
        )
        # range = 6; mean deviation = mean(|-3|, |0|, |3|) = 2
        assert _one_cell(base, [ranged] * 3) == [0.0 - 6.0, 3.0 - 6.0, 6.0 - 6.0]
        assert _one_cell(base, [dev, ranged, dev]) == [0.0 - 2.0, 3.0 - 6.0, 6.0 - 2.0]


def _social_cell_oracle(base, player: int, params: SocialPrefParams) -> float:
    """One player's recomposed payoff in one cell, computed on its own."""
    base = np.asarray(list(base), dtype=float)
    own = base[player]
    others = float(base.sum() - own)
    envy = max(0.0, float(base.max()) - own)
    if params.inequity_metric == "range":
        inequity = float(base.max() - base.min())
    else:
        inequity = float(np.mean(np.abs(base - base.mean())))
    return float(
        params.selfish_weight * own
        + params.altruism_weight * others
        - params.inequity_weight * inequity
        - params.envy_weight * envy
    )


class TestTransformGameSocial:
    def test_all_selfish_identity(self, pd_game):
        out = transform_game_social(
            pd_game, [SocialPrefParams(), SocialPrefParams()]
        )
        assert np.array_equal(out.payoffs, pd_game.payoffs)
        assert out.action_counts == pd_game.action_counts

    def test_constant_game_stays_constant(self):
        game = NormalFormGame(
            action_counts=(2, 2), payoffs=np.full((2, 2, 2), 3.0)
        )
        params = SocialPrefParams(
            altruism_weight=0.5, inequity_weight=1.0, envy_weight=1.0
        )
        out = transform_game_social(game, [params, params])
        flat = out.payoffs.reshape(2, -1)
        for row in flat:
            assert np.all(row == row[0])

    def test_altruism_cells_match_per_cell_oracle(self, asym_game):
        # Every weight and both inequity metrics, on 1-3 player games with
        # integer ties and -0.0 payoffs, and on an 8-player game, where NumPy
        # sums a cell's payoffs pairwise rather than one by one.
        rng = np.random.default_rng(11)
        games = [asym_game, NormalFormGame((3,), rng.normal(size=(1, 3)))]
        for counts in ((2, 3), (3, 2, 2), (2, 2, 3)):
            shape = (len(counts),) + counts
            games.append(NormalFormGame(counts, rng.normal(scale=4.0, size=shape)))
            ties = rng.integers(-2, 3, size=shape).astype(float)
            ties[ties == 0] = -0.0
            games.append(NormalFormGame(counts, ties))
        games.append(NormalFormGame((2,) * 8, rng.normal(size=(8,) + (2,) * 8)))
        for game in games:
            n = game.num_players
            for metrics in (["range"] * n, ["mean_deviation"] * n,
                            ["range", "mean_deviation"] * n):
                params = [
                    SocialPrefParams(*rng.uniform(0.0, 2.0, size=4),
                                     inequity_metric=metric)
                    for metric in metrics[:n]
                ]
                expected = np.empty_like(game.payoffs)
                for cell in np.ndindex(*game.action_counts):
                    base = game.payoffs[(slice(None),) + cell]
                    for player in range(n):
                        expected[(player,) + cell] = _social_cell_oracle(
                            base, player, params[player]
                        )
                out = transform_game_social(game, params)
                assert np.array_equal(out.payoffs, expected)

    def test_wrong_params_count(self, pd_game):
        with pytest.raises(ValueError):
            transform_game_social(pd_game, [SocialPrefParams()])

    def test_three_player_shape_preserved(self):
        rng = np.random.default_rng(5)
        game = NormalFormGame(
            action_counts=(2, 2, 2), payoffs=rng.normal(size=(3, 2, 2, 2))
        )
        out = transform_game_social(game, [SocialPrefParams()] * 3)
        assert out.payoffs.shape == (3, 2, 2, 2)
        assert np.array_equal(out.payoffs, game.payoffs)
