from __future__ import annotations

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from foggame.market import (
    DEMAND_FLOOR,
    ROUND_LIMIT,
    TRACE_COLUMNS,
    FogScenario,
    NegotiationTrace,
    compute_metrics,
    default_scenario,
    fog_gain,
    instability_index,
    optimal_demand,
    run_negotiation,
    user_utility,
    write_trace_csv,
)
from foggame import market
from foggame.market import _Market

from conftest import negotiate_all


def _one_node(**overrides) -> FogScenario:
    base = dict(num_nodes=1, budget=10.0, price_floors=1.0, price_caps=20.0)
    base.update(overrides)
    return FogScenario(**base)


def _synthetic_trace(
    scenario: FogScenario, price_rows, demand_rows
) -> NegotiationTrace:
    return NegotiationTrace(
        scenario=scenario,
        price_rule="gradient_ascent",
        seed=0,
        prices=price_rows,
        demands=demand_rows,
        gains=np.zeros((len(price_rows), scenario.num_nodes)),
        utilities=np.zeros(len(price_rows)),
        converged=False,
        convergence_round=None,
    )


TRACE_ARRAYS = ("prices", "demands", "gains", "utilities")


def _same_trace(a: NegotiationTrace, b: NegotiationTrace) -> bool:
    return all(
        np.array_equal(getattr(a, name), getattr(b, name)) for name in TRACE_ARRAYS
    ) and (a.converged, a.convergence_round) == (b.converged, b.convergence_round)


def _constrained_optimum(scenario: FogScenario, prices) -> np.ndarray:
    """Numeric budget-constrained maximizer of the user's utility."""
    c = np.asarray(prices, dtype=float)
    m = scenario.num_nodes

    def objective(r):
        return -user_utility(scenario, r, c)

    x0 = np.full(m, scenario.budget / (m * c.mean()))
    result = minimize(
        objective,
        x0,
        method="SLSQP",
        bounds=[(1e-8, None)] * m,
        constraints=[
            {"type": "eq", "fun": lambda r: float(c @ r) - scenario.budget}
        ],
        options={"ftol": 1e-14, "maxiter": 500},
    )
    assert result.success, result.message
    return result.x


class TestFogScenario:
    def test_scalar_broadcast(self):
        scn = FogScenario(num_nodes=3, budget=5.0, price_floors=2.0)
        assert scn.price_floors == (2.0, 2.0, 2.0)
        assert scn.price_caps == (20.0, 20.0, 20.0)
        assert scn.initial_prices == (2.0, 2.0, 2.0)

    def test_vector_lengths_checked(self):
        with pytest.raises(ValueError):
            FogScenario(num_nodes=3, budget=5.0, price_floors=(1.0, 2.0))

    def test_defaults(self):
        scn = default_scenario()
        assert scn.num_nodes == 4
        assert scn.budget == 10.0
        assert scn.price_caps == tuple(10.0 * f for f in scn.price_floors)
        assert scn.noise_level == 0.0
        assert scn.averaging is False
        assert scn.max_rounds == 2000
        assert scn.convergence_tol == 1e-4
        assert scn.convergence_window == 20

    def test_initial_prices_must_respect_bounds(self):
        with pytest.raises(ValueError):
            FogScenario(
                num_nodes=1, budget=5.0, price_floors=2.0, initial_prices=1.0
            )
        with pytest.raises(ValueError):
            FogScenario(
                num_nodes=1,
                budget=5.0,
                price_floors=1.0,
                price_caps=3.0,
                initial_prices=4.0,
            )

    def test_caps_must_cover_floors(self):
        with pytest.raises(ValueError):
            FogScenario(
                num_nodes=1, budget=5.0, price_floors=2.0, price_caps=1.0
            )

    def test_integer_fields_reject_bools_and_fractions(self):
        for field in ("num_nodes", "max_rounds", "convergence_window",
                      "averaging_window"):
            for bad in (True, 4.5, "4"):
                with pytest.raises(ValueError, match=field):
                    FogScenario(**{"num_nodes": 1, "budget": 5.0, field: bad})
        scn = FogScenario(num_nodes=2.0, budget=5.0, max_rounds=np.int64(30))
        assert scn.num_nodes == 2 and type(scn.num_nodes) is int
        assert scn.max_rounds == 30 and type(scn.max_rounds) is int

    def test_numeric_fields_reject_non_numbers(self):
        with pytest.raises(ValueError, match="budget"):
            FogScenario(num_nodes=1, budget="5")
        with pytest.raises(ValueError, match="price_floors"):
            FogScenario(num_nodes=2, budget=5.0, price_floors=(1.0, True))
        with pytest.raises(ValueError, match="averaging"):
            FogScenario(num_nodes=1, budget=5.0, averaging=1)
        fields = ("budget", "utility_scale", "step_size", "noise_level", "convergence_tol")
        for field in fields:
            with pytest.raises(ValueError, match=f"^{field}: must be a number, got True"):
                FogScenario(**{"num_nodes": 1, "budget": 5.0, field: True})
        scn = FogScenario(num_nodes=2, budget=10, utility_scale=2, step_size=np.int64(8),
                          noise_level=0, convergence_tol=np.float32(0.5))
        for field in fields:
            assert type(getattr(scn, field)) is float
        assert scn.budget == 10.0 and scn.convergence_tol == 0.5

    def test_parameter_ranges(self):
        with pytest.raises(ValueError):
            FogScenario(num_nodes=0, budget=5.0)
        with pytest.raises(ValueError):
            FogScenario(num_nodes=1, budget=-1.0)
        with pytest.raises(ValueError):
            FogScenario(num_nodes=1, budget=5.0, margin_factors=1.5)
        with pytest.raises(ValueError):
            FogScenario(num_nodes=1, budget=5.0, margin_factors=0.0)
        with pytest.raises(ValueError):
            FogScenario(num_nodes=1, budget=5.0, noise_level=1.0)
        with pytest.raises(ValueError):
            FogScenario(num_nodes=1, budget=5.0, convergence_window=1)
        with pytest.raises(ValueError):
            FogScenario(num_nodes=1, budget=5.0, averaging_window=0)


class TestUserUtility:
    def test_log1_leaves_only_cost(self):
        scn = _one_node()
        assert user_utility(scn, [1.0], [1.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_vanishing_price_limit(self):
        scn = _one_node(price_floors=1e-9, initial_prices=1e-9)
        assert user_utility(scn, [1.0], [1e-9]) == pytest.approx(0.0, abs=1e-8)

    def test_term_by_term_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            alpha = rng.uniform(0.2, 3.0, size=2)
            beta = rng.uniform(0.2, 3.0, size=2)
            scale = float(rng.uniform(0.5, 2.0))
            scn = FogScenario(
                num_nodes=2,
                budget=10.0,
                utility_scale=scale,
                utility_weights=tuple(alpha),
                quality_factors=tuple(beta),
                price_floors=(0.5, 0.5),
            )
            r = rng.uniform(0.1, 4.0, size=2)
            c = rng.uniform(0.5, 4.0, size=2)
            manual = (
                scale * (alpha[0] * math.log(r[0] * beta[0]))
                + scale * (alpha[1] * math.log(r[1] * beta[1]))
                - c[0] * r[0]
                - c[1] * r[1]
            )
            assert user_utility(scn, r, c) == pytest.approx(manual, abs=1e-12)

    def test_nonpositive_demand_rejected(self):
        scn = _one_node()
        with pytest.raises(ValueError):
            user_utility(scn, [0.0], [1.0])
        with pytest.raises(ValueError):
            user_utility(scn, [-1.0], [1.0])


class TestFogGain:
    def test_floor_price_zero_gain(self):
        scn = _one_node()
        for r in (0.0, 1.0, 7.3):
            assert fog_gain(scn, [1.0], [r]).tolist() == [0.0]

    def test_direct_arithmetic(self):
        scn = _one_node(margin_factors=0.5)
        assert fog_gain(scn, [3.0], [2.0])[0] == pytest.approx(2.0, abs=1e-12)

    def test_nodes_match_per_node_formula(self):
        scn = default_scenario()
        prices = [2.0, 1.5, 3.0, 4.5]
        demands = [1.0, 2.5, 0.5, 3.0]
        got = fog_gain(scn, prices, demands)
        for i in range(scn.num_nodes):
            kappa, floor = scn.margin_factors[i], scn.price_floors[i]
            assert got[i] == kappa * (prices[i] - floor) * demands[i]

    def test_zero_demand_zero_gain(self):
        scn = _one_node(margin_factors=0.9)
        assert fog_gain(scn, [5.0], [0.0]).tolist() == [0.0]

    def test_below_floor_rejected(self):
        scn = _one_node()
        with pytest.raises(ValueError):
            fog_gain(scn, [0.5], [1.0])

    def test_bad_node_rejected(self):
        # a price or demand for a node the scenario does not have
        scn = _one_node()
        with pytest.raises(ValueError):
            fog_gain(scn, [2.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError):
            fog_gain(scn, [2.0], [1.0, 1.0])

    def test_negative_demand_rejected(self):
        scn = _one_node()
        with pytest.raises(ValueError):
            fog_gain(scn, [2.0], [-1.0])


class TestOptimalDemand:
    def test_single_node_exhausts_budget(self):
        scn = _one_node()
        assert optimal_demand(scn, [2.0]) == pytest.approx([5.0])

    def test_equal_weights_split(self):
        scn = FogScenario(
            num_nodes=2, budget=12.0, price_floors=(1.0, 1.0), price_caps=20.0
        )
        assert optimal_demand(scn, [2.0, 3.0]) == pytest.approx([3.0, 2.0])

    def test_weighted_split_and_kkt_oracle(self):
        scn = FogScenario(
            num_nodes=2,
            budget=9.0,
            utility_weights=(2.0, 1.0),
            price_floors=(1.0, 1.0),
            price_caps=20.0,
        )
        got = optimal_demand(scn, [1.0, 1.0])
        assert got == pytest.approx([6.0, 3.0])
        oracle = _constrained_optimum(scn, [1.0, 1.0])
        assert np.allclose(got, oracle, rtol=1e-6)

    def test_matches_numeric_optimizer_random(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            m = int(rng.integers(1, 6))
            floors = rng.uniform(0.2, 1.0, size=m)
            scn = FogScenario(
                num_nodes=m,
                budget=float(rng.uniform(2.0, 30.0)),
                utility_weights=tuple(rng.uniform(0.3, 3.0, size=m)),
                quality_factors=tuple(rng.uniform(0.3, 3.0, size=m)),
                price_floors=tuple(floors),
                price_caps=50.0,
            )
            prices = floors + rng.uniform(0.1, 4.0, size=m)
            got = optimal_demand(scn, prices)
            oracle = _constrained_optimum(scn, prices)
            assert np.allclose(got, oracle, rtol=1e-6)

    @settings(max_examples=1000, derandomize=True, deadline=None, database=None)
    @given(data=st.data())
    def test_budget_identity_property(self, data):
        m = data.draw(st.integers(1, 6), label="nodes")
        budget = data.draw(st.floats(0.1, 1e4), label="budget")
        weights = tuple(
            data.draw(st.floats(0.01, 50.0), label=f"w{i}") for i in range(m)
        )
        prices = [
            data.draw(st.floats(0.01, 100.0), label=f"c{i}") for i in range(m)
        ]
        scn = FogScenario(
            num_nodes=m,
            budget=budget,
            utility_weights=weights,
            price_floors=0.01,
            price_caps=100.0,
        )
        r = optimal_demand(scn, prices)
        assert abs(float(np.dot(prices, r)) - budget) <= 1e-9 * budget

    def test_monotone_in_price_and_budget(self):
        scn = FogScenario(
            num_nodes=2, budget=10.0, price_floors=(0.5, 0.5), price_caps=20.0
        )
        r_low = optimal_demand(scn, [1.0, 2.0])
        r_high = optimal_demand(scn, [1.5, 2.0])
        assert r_high[0] < r_low[0]
        bigger = FogScenario(
            num_nodes=2, budget=14.0, price_floors=(0.5, 0.5), price_caps=20.0
        )
        r_rich = optimal_demand(bigger, [1.0, 2.0])
        assert np.all(r_rich > r_low)

    def test_revenue_independent_of_price(self):
        scn = default_scenario()
        total = sum(scn.utility_weights)
        for prices in ([1.0, 0.8, 1.2, 0.9], [3.0, 2.0, 6.0, 4.5]):
            r = optimal_demand(scn, prices)
            revenue = np.asarray(prices) * r
            expected = scn.budget * np.asarray(scn.utility_weights) / total
            assert np.allclose(revenue, expected, atol=1e-12)


def _next_prices(scn: FogScenario, history) -> np.ndarray:
    """The negotiation's next prices after ``history``'s (prices, demands)
    rows: a probe after one row, else a gradient step on the last two."""
    k = _Market(scn)
    rows = [(np.asarray(c, dtype=float), np.asarray(r, dtype=float)) for c, r in history]
    if len(rows) == 1:
        return k.project(rows[0][0] + k.probe)
    (c_prev, r_prev), (c_last, r_last) = rows[-2:]
    return k.gradient_step(c_last, c_prev, k.gain(c_last, r_last) - k.gain(c_prev, r_prev))


class TestPriceUpdate:
    def test_foc_rule_lands_on_cap(self):
        # gain is strictly increasing in price under the closed-form demand,
        # so the first-order rule returns the cap; cross-check that boundary
        # against a dense grid argmax of the gain itself.
        for kappa in (0.1, 0.5, 1.0):
            scn = _one_node(margin_factors=kappa, max_rounds=3)
            got = run_negotiation(scn, price_rule="foc_root").prices[1]
            assert got.tolist() == list(scn.price_caps)
            grid = np.linspace(scn.price_floors[0], scn.price_caps[0], 4001)
            gains = [
                kappa * (c - scn.price_floors[0]) * optimal_demand(scn, [c])[0]
                for c in grid
            ]
            assert grid[int(np.argmax(gains))] == scn.price_caps[0]

    def test_foc_rule_step_lands_on_cap_in_negotiation(self):
        scn = default_scenario(max_rounds=10)
        trace = run_negotiation(scn, price_rule="foc_root")
        assert tuple(trace.prices[0].tolist()) == scn.initial_prices
        assert tuple(trace.prices[1].tolist()) == scn.price_caps

    def test_gradient_clamped_at_cap(self):
        scn = _one_node(step_size=8.0)
        # rising gain between the two entries -> positive slope at the cap
        history = [([18.0], [1.0]), ([20.0], [1.1])]
        assert _next_prices(scn, history).tolist() == [20.0]

    def test_gradient_zero_slope_keeps_price(self):
        scn = _one_node(margin_factors=0.5)
        # equal gains at both entries: 0.5*(2-1)*2 == 0.5*(3-1)*1
        history = [([2.0], [2.0]), ([3.0], [1.0])]
        assert _next_prices(scn, history).tolist() == [3.0]

    def test_unmoved_price_is_kept(self):
        scn = _one_node()
        history = [([4.0], [2.0]), ([4.0], [1.0])]
        assert _next_prices(scn, history).tolist() == [4.0]

    def test_single_entry_probes_upward(self):
        scn = _one_node(step_size=2.0)
        assert _next_prices(scn, [([1.0], [5.0])])[0] == pytest.approx(3.0)

    def test_probe_respects_cap(self):
        scn = _one_node(step_size=100.0)
        assert _next_prices(scn, [([1.0], [5.0])]).tolist() == [20.0]

    def test_nodes_step_independently(self):
        # every node follows the one-node rule on its own (price, demand) pair
        scn = default_scenario()
        history = [([2.0, 1.0, 3.0, 0.9], [1.0, 2.0, 0.5, 4.0]),
                   ([2.5, 1.0, 2.0, 1.4], [0.9, 2.2, 0.8, 3.0])]
        got = _next_prices(scn, history)
        for i in range(scn.num_nodes):
            node = FogScenario(
                num_nodes=1,
                budget=scn.budget,
                price_floors=scn.price_floors[i],
                price_caps=scn.price_caps[i],
                margin_factors=scn.margin_factors[i],
                step_size=scn.step_size,
            )
            alone = [([c[i]], [r[i]]) for c, r in history]
            assert got[i] == _next_prices(node, alone)[0]

    def test_noise_free_trace_replays_price_steps(self):
        # without noise or averaging each price row follows from the two
        # before it (the second from the first by the upward probe)
        scn = default_scenario(max_rounds=80, step_size=0.5)
        trace = run_negotiation(scn, price_rule="gradient_ascent")
        rows = list(zip(trace.prices, trace.demands))
        assert len(rows) > 10
        assert np.array_equal(trace.prices[1], _next_prices(scn, rows[:1]))
        for t in range(2, len(rows)):
            assert np.array_equal(trace.prices[t], _next_prices(scn, rows[t - 2 : t]))


def _pinned_price_node(**overrides) -> FogScenario:
    """One node whose price cannot move, so its clean demand is constant (5)."""
    base = dict(
        num_nodes=1,
        budget=10.0,
        price_floors=2.0,
        price_caps=2.0,
        convergence_tol=1e-15,
    )
    base.update(overrides)
    return FogScenario(**base)


class TestInjectNoise:
    """Execution noise as the negotiation loop applies it."""

    def test_zero_noise_identity(self):
        trace = run_negotiation(default_scenario(max_rounds=60))
        for prices, demands in zip(trace.prices, trace.demands):
            clean = optimal_demand(trace.scenario, prices)
            assert np.array_equal(demands, clean)

    def test_support_bound(self):
        rho = 0.1
        trace = run_negotiation(
            default_scenario(noise_level=rho, max_rounds=500), seed=1
        )
        for prices, demands in zip(trace.prices, trace.demands):
            ratio = demands / optimal_demand(trace.scenario, prices)
            assert np.all(ratio >= 1.0 - rho) and np.all(ratio <= 1.0 + rho)

    def test_seed_determinism(self):
        scn = default_scenario(noise_level=0.1, averaging=True, max_rounds=100)
        assert _same_trace(run_negotiation(scn, seed=42), run_negotiation(scn, seed=42))

    def test_demand_then_price_draw_order(self):
        # round 1 spends one demand vector and one price vector of draws;
        # round 2's demands use the third vector of the stream
        rho = 0.05
        scn = default_scenario(noise_level=rho, max_rounds=2)
        trace = run_negotiation(scn, seed=9)
        rng = np.random.default_rng(9)
        first, _, second = (rng.uniform(-rho, rho, size=4) for _ in range(3))
        for prices, demands, draw in zip(trace.prices, trace.demands, (first, second)):
            clean = optimal_demand(scn, prices)
            assert np.array_equal(demands, clean * (1.0 + draw))

    def test_vector_draw_matches_scalar_draws(self):
        for m in (1, 4, 130):
            vector = np.random.default_rng(m).uniform(-0.1, 0.1, size=m)
            stream = np.random.default_rng(m)
            scalars = [stream.uniform(-0.1, 0.1) for _ in range(m)]
            assert vector.tolist() == scalars

    def test_block_draw_matches_per_round_draws(self):
        # the loop draws all rounds' noise at once, demand then price per round
        for m in (1, 4, 130):
            block = np.random.default_rng(m).uniform(-0.1, 0.1, size=(50, 2, m))
            stream = np.random.default_rng(m)
            rounds = [[stream.uniform(-0.1, 0.1, size=m) for _ in range(2)]
                      for _ in range(50)]
            assert np.array_equal(block, np.asarray(rounds))

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            default_scenario(noise_level=1.0)
        with pytest.raises(ValueError):
            default_scenario(noise_level=-0.1)


class TestSignalAverage:
    """Averaging as the negotiation loop applies it to noisy responses."""

    def test_two_values(self):
        rho = 0.1
        scn = _pinned_price_node(noise_level=rho, averaging=True, max_rounds=2)
        trace = run_negotiation(scn, seed=4)
        rng = np.random.default_rng(4)
        first, _, second = (rng.uniform(-rho, rho, size=1) for _ in range(3))
        samples = [5.0 * (1.0 + first[0]), 5.0 * (1.0 + second[0])]
        assert trace.demands[1].tolist() == [np.mean(samples)]

    def test_single_value(self):
        raw = default_scenario(noise_level=0.1, max_rounds=1)
        averaged = default_scenario(noise_level=0.1, max_rounds=1, averaging=True)
        a = run_negotiation(raw, seed=6)
        b = run_negotiation(averaged, seed=6)
        assert _same_trace(a, b)

    def test_constant(self):
        trace = run_negotiation(_pinned_price_node(averaging=True, max_rounds=50))
        assert np.all(trace.demands == 5.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _pinned_price_node(averaging=True, averaging_window=0)

    def test_slice_mean_matches_stacked_mean(self):
        # the loop averages row slices of one preallocated array; earlier
        # releases averaged a stacked list of rows, and the bytes must agree
        for m in (1, 4):
            rng = np.random.default_rng(m)
            samples = np.empty((2000, m))
            rows = []
            for t in range(2000):
                samples[t] = rng.uniform(0.5, 2.0, size=m)
                rows.append(samples[t].copy())
                assert np.array_equal(
                    np.mean(samples[: t + 1], axis=0), np.mean(rows, axis=0)
                )
                start = max(0, t + 1 - 7)
                assert np.array_equal(
                    np.mean(samples[start : t + 1], axis=0),
                    np.mean(rows[-7:], axis=0),
                )

    def test_running_sum_matches_stacked_mean_from_two_nodes(self):
        # cumulative averaging keeps a running sum when there are two or more
        # nodes: NumPy's mean over axis 0 then adds the rows in order, so the
        # running sum divided by the count is the same float
        for m in (2, 3, 4, 8, 33, 130):
            rng = np.random.default_rng(m)
            samples = 5.0 * (1.0 + rng.uniform(-0.1, 0.1, size=(2000, m)))
            total = np.zeros(m)
            for t in range(1, 2001):
                np.add(total, samples[t - 1], out=total)
                assert np.array_equal(total / t, np.mean(samples[:t], axis=0)), (m, t)

    def test_one_node_keeps_slice_mean(self):
        # a (t x 1) stack is summed pairwise, so a running sum drifts from the
        # pinned mean; the kernel must take the slice mean for one node
        rho, rounds = 0.1, 2000
        scn = _pinned_price_node(noise_level=rho, averaging=True, max_rounds=rounds)
        trace = run_negotiation(scn, seed=8)
        rng = np.random.default_rng(8)
        samples = np.empty((rounds, 1))
        for t in range(rounds):
            samples[t] = 5.0 * (1.0 + rng.uniform(-rho, rho, size=1))
            if t + 1 < rounds:
                rng.uniform(-rho, rho, size=1)  # the price draw
        slice_means = [np.mean(samples[: t + 1], axis=0)[0] for t in range(rounds)]
        running = np.cumsum(samples[:, 0]) / np.arange(1, rounds + 1)
        assert trace.demands[:, 0].tolist() == slice_means
        assert np.count_nonzero(running != trace.demands[:, 0]) > 0

    def test_averaging_variance_decay(self):
        # the mean of t i.i.d. multiplicative-noise samples drifts from the
        # clean value like O(1/sqrt(t)); with prices pinned every node is an
        # independent sample, so fit the log-log slope across three decades
        checkpoints = (10, 100, 1000)
        scn = FogScenario(
            num_nodes=25,
            budget=10.0,
            price_floors=2.0,
            price_caps=2.0,
            noise_level=0.1,
            averaging=True,
            max_rounds=1000,
            convergence_tol=1e-15,
        )
        clean = optimal_demand(scn, scn.price_floors)
        squares = {t: [] for t in checkpoints}
        for seed in range(8):
            trace = run_negotiation(scn, seed=1000 + seed)
            for t in checkpoints:
                dev = trace.demands[t - 1] / clean - 1.0
                squares[t].extend(dev * dev)
        log_t = np.log([float(t) for t in checkpoints])
        log_rms = np.log([math.sqrt(np.mean(squares[t])) for t in checkpoints])
        slope = np.polyfit(log_t, log_rms, 1)[0]
        assert -0.65 <= slope <= -0.35


def _first_quiet_round(trace: NegotiationTrace) -> int | None:
    """First round whose trailing window changed by less than the tolerance.

    Every price and demand must move by less than ``convergence_tol``
    (relative to its previous value) between each pair of consecutive
    rounds in ``[t - convergence_window + 1, t]``.
    """
    tol = trace.scenario.convergence_tol
    window = trace.scenario.convergence_window
    values = np.concatenate([trace.prices, trace.demands], axis=1)
    change = np.abs(np.diff(values, axis=0)) / np.maximum(np.abs(values[:-1]), 1e-12)
    run = 0
    for pair, quiet in enumerate(change.max(axis=1) < tol):
        run = run + 1 if quiet else 0
        round_number = pair + 2
        if round_number >= window and run >= window - 1:
            return round_number
    return None


class TestDetectConvergence:
    """The windowed quiet criterion as ``run_negotiation`` applies it."""

    def test_constant_trace_converges_at_window(self):
        scn = _pinned_price_node(convergence_tol=1e-4, convergence_window=5)
        trace = run_negotiation(scn)
        assert trace.converged and trace.convergence_round == 5
        assert len(trace.rounds) == 5

    def test_two_cycle_never_converges(self):
        # raw noise moves a pinned-price node's demand by far more than the
        # tolerance every round, so no trailing window is ever quiet
        scn = _pinned_price_node(
            noise_level=0.1, convergence_tol=1e-4, convergence_window=4, max_rounds=40
        )
        trace = run_negotiation(scn, seed=0)
        assert not trace.converged and trace.convergence_round is None
        assert len(trace.rounds) == scn.max_rounds
        assert _first_quiet_round(trace) is None

    def test_geometric_decay_first_quiet_window(self):
        # cumulative averaging of a pinned-price node's noisy demand: the
        # executed demand's round-to-round change decays with the round
        n, tol, window, rho, seed = 400, 1e-3, 6, 0.1, 3
        scn = _pinned_price_node(
            noise_level=rho,
            averaging=True,
            convergence_tol=tol,
            convergence_window=window,
            max_rounds=n,
        )
        trace = run_negotiation(scn, seed=seed)

        # direct computation from the seeded noise stream (demand 5 at price 2)
        draws = np.random.default_rng(seed).uniform(-rho, rho, size=(n, 2, 1))
        samples = 5.0 * (1.0 + draws[:, 0])
        series = [float(np.mean(samples[:t], axis=0)[0]) for t in range(1, n + 1)]
        quiet = [abs(b - a) / abs(a) < tol for a, b in zip(series, series[1:])]
        expected = None
        run = 0
        for idx, ok in enumerate(quiet):
            run = run + 1 if ok else 0
            round_number = idx + 2
            if round_number >= window and run >= window - 1:
                expected = round_number
                break
        assert expected is not None and expected > window

        assert trace.converged and trace.convergence_round == expected
        assert trace.demands[:, 0].tolist() == series[:expected]

    def test_matches_windowed_oracle(self):
        outcomes = []
        for rule in ("gradient_ascent", "foc_root"):
            for rho in (0.0, 0.05, 0.1):
                for averaging, window in ((False, None), (True, None), (True, 5)):
                    for seed in range(3):
                        scn = default_scenario(
                            noise_level=rho,
                            averaging=averaging,
                            averaging_window=window,
                            max_rounds=400,
                            convergence_tol=1e-3,
                            convergence_window=10,
                        )
                        trace = run_negotiation(scn, rule, seed)
                        assert trace.convergence_round == _first_quiet_round(trace)
                        assert trace.converged == (trace.convergence_round is not None)
                        if not trace.converged:
                            assert len(trace.rounds) == scn.max_rounds
                        outcomes.append(trace.converged)
        assert len(outcomes) >= 50
        assert any(outcomes) and not all(outcomes)

    def test_parameter_validation(self):
        for tol in (0.0, -1e-4, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="convergence_tol"):
                _one_node(convergence_tol=tol)
        for window in (1, 0, -3):
            with pytest.raises(ValueError, match="convergence_window"):
                _one_node(convergence_window=window)


def _alone(scenario: FogScenario, cell, price_rule: str):
    """One cell run as a batch of one: its trace, or the error it raised."""
    rho, averaging, seed = cell
    alone = dataclasses.replace(scenario, noise_level=rho, averaging=averaging)
    try:
        return run_negotiation(alone, price_rule, seed)
    except ValueError as exc:
        return exc


def _same_outcome(a, b) -> bool:
    if isinstance(a, ValueError) or isinstance(b, ValueError):
        return type(a) is type(b) and str(a) == str(b)
    return _same_trace(a, b) and a.scenario == b.scenario and a.seed == b.seed


def _oracle(scenario: FogScenario, cell, price_rule: str):
    """One cell, one round at a time, from the rules ``run_negotiation``
    documents: its trace, or the error that ended it.

    Each round draws u then v, uniform on ±noise_level per node.  The user's
    sample is the closed-form demand times ``1 + u``; each node's sample is
    its intended price times ``1 + v``.  An actor executes its latest
    sample, or with averaging ``np.mean`` over all its samples or its last
    ``averaging_window``.  Prices are projected onto [floor, cap] and demands
    floored at DEMAND_FLOOR.  A node's intended price first probes upward by
    ``step_size * floor``, then climbs the finite-difference slope of its
    gain over its last two intended prices; under ``foc_root`` it is the
    cap.
    """
    rho, averaging, seed = cell
    s = dataclasses.replace(scenario, noise_level=rho, averaging=averaging)
    rng = np.random.default_rng(seed)
    floors, caps = np.array(s.price_floors), np.array(s.price_caps)
    alpha, beta = np.array(s.utility_weights), np.array(s.quality_factors)
    kappa = np.array(s.margin_factors)
    span = s.averaging_window

    def execute(history: list, sample: np.ndarray) -> np.ndarray:
        history.append(sample)
        if not averaging:
            return sample
        return np.mean(np.array(history if span is None else history[-span:]), axis=0)

    c = np.array(s.initial_prices)  # the prices in force
    intended, node_gains = [c], []
    demand_samples, price_samples, prices, demands = [], [], [], []
    quiet_run = 0
    for t in range(s.max_rounds):
        u, v = (1.0 + rng.uniform(-rho, rho, size=s.num_nodes) for _ in range(2))
        if not np.isfinite(c).all():
            return ValueError("prices must be finite and >= price_floors")
        sample = s.budget * alpha / (c * sum(s.utility_weights)) * u
        r = np.maximum(execute(demand_samples, sample), DEMAND_FLOOR)
        if not np.isfinite(r).all():
            return ValueError("demands must be finite")
        prices.append(c)
        demands.append(r)
        if t:
            last = np.concatenate([prices[-1], demands[-1]])
            prior = np.concatenate([prices[-2], demands[-2]])
            change = np.abs(last - prior) / np.maximum(np.abs(prior), 1e-12)
            quiet_run = quiet_run + 1 if change.max() < s.convergence_tol else 0
        converged = t + 1 >= s.convergence_window and quiet_run >= s.convergence_window - 1
        if converged or t + 1 == s.max_rounds:
            break
        node_gains.append(kappa * (intended[-1] - floors) * r)
        if price_rule == "foc_root":
            following = caps
        elif t == 0:
            following = np.clip(intended[-1] + s.step_size * floors, floors, caps)
        else:
            delta = intended[-1] - intended[-2]
            moved = np.abs(delta) > 1e-12 * np.maximum(1.0, np.abs(intended[-1]))
            rise = node_gains[-1] - node_gains[-2]
            slope = np.where(moved, rise / np.where(moved, delta, 1.0), 0.0)
            following = np.clip(intended[-1] + s.step_size * slope, floors, caps)
        intended.append(following)
        c = np.clip(execute(price_samples, following * v), floors, caps)

    p, r = np.array(prices), np.array(demands)
    return NegotiationTrace(
        scenario=s,
        price_rule=price_rule,
        seed=seed,
        prices=p,
        demands=r,
        gains=kappa * (p - floors) * r,
        utilities=s.utility_scale * np.sum(alpha * np.log(r * beta), axis=-1)
        - np.sum(p * r, axis=-1),
        converged=converged,
        convergence_round=len(prices) if converged else None,
    )


MIXED_CELLS = [
    (rho, averaging, seed)
    for rho in (0.0, 0.05, 0.1)
    for averaging in (False, True)
    for seed in (0, 1)
]


class TestStackedKernel:
    """All cells of a simulate run advance together in ``_negotiate``."""

    @pytest.mark.parametrize("price_rule", ["gradient_ascent", "foc_root"])
    @pytest.mark.parametrize("window", [None, 5])
    @pytest.mark.parametrize("num_nodes", [1, 4])
    def test_each_cell_matches_its_batch_of_one(self, num_nodes, window, price_rule):
        loop = dict(max_rounds=300, convergence_tol=1e-3, convergence_window=10,
                    averaging_window=window)
        if num_nodes == 1:
            scn = _one_node(**loop)
        else:
            scn = default_scenario(**loop)
        outcomes = negotiate_all(scn, MIXED_CELLS, price_rule)
        assert len(outcomes) == len(MIXED_CELLS)
        for cell, trace in zip(MIXED_CELLS, outcomes):
            assert _same_outcome(trace, _alone(scn, cell, price_rule)), cell
            assert (trace.scenario.noise_level, trace.scenario.averaging) == cell[:2]
            assert trace.convergence_round == _first_quiet_round(trace), cell
            assert trace.converged or len(trace.rounds) == scn.max_rounds
        # each trace holds its own rows and nothing of the other cells'
        for trace in outcomes:
            own = (2, len(trace.rounds), scn.num_nodes)
            assert trace.prices.base is trace.demands.base
            assert trace.prices.base.shape == own
        assert any(t.converged for t in outcomes)
        assert not all(t.converged for t in outcomes)

    @pytest.mark.parametrize("block", [1, 7, 64])
    def test_block_size_changes_no_bit(self, block, monkeypatch):
        scn = default_scenario(max_rounds=200, convergence_tol=1e-3,
                               convergence_window=10)
        expected = negotiate_all(scn, MIXED_CELLS, "gradient_ascent")
        monkeypatch.setattr(market, "_BLOCK_ROUNDS", block)
        for a, b in zip(negotiate_all(scn, MIXED_CELLS, "gradient_ascent"), expected):
            assert _same_outcome(a, b)

    @pytest.mark.parametrize("offset", [0, 1])
    def test_convergence_on_a_block_edge(self, offset):
        # a pinned-price node is quiet from its second round on, so it
        # converges at exactly ``convergence_window``: the last row of a
        # block (blocks of 16, 16 and 32 rounds end at round 64), or the first
        # row of the next
        window = market._BLOCK_ROUNDS + offset
        scn = _pinned_price_node(convergence_tol=1e-4, convergence_window=window,
                                 max_rounds=3 * market._BLOCK_ROUNDS)
        cells = [(0.0, False, 0), (0.0, True, 0), (0.1, False, 3), (0.1, True, 3)]
        outcomes = negotiate_all(scn, cells, "gradient_ascent")
        for cell, trace in zip(cells, outcomes):
            assert _same_outcome(trace, _alone(scn, cell, "gradient_ascent"))
        assert [t.convergence_round for t in outcomes[:2]] == [window, window]
        assert not outcomes[2].converged
        assert len(outcomes[2].rounds) == scn.max_rounds

    def test_overflowing_cell_fails_alone_and_quietly(self):
        # demands sit near the largest float, so a raw noisy cell overflows
        # in the round its noise pushes a demand past it; it must leave the
        # stack in that round, touch none of the other cells and raise no
        # warning that the cells run one by one do not raise
        scn = FogScenario(num_nodes=2, budget=1e300, price_floors=1e-10,
                          price_caps=3.34e-9, initial_prices=3.34e-9,
                          max_rounds=100, convergence_tol=1e-3, convergence_window=10)
        cells = [(rho, False, seed) for rho in (0.0, 0.1) for seed in range(8)]
        with warnings.catch_warnings(record=True) as stacked:
            warnings.simplefilter("always")
            outcomes = negotiate_all(scn, cells, "gradient_ascent")
        with warnings.catch_warnings(record=True) as one_by_one:
            warnings.simplefilter("always")
            alone = [_alone(scn, cell, "gradient_ascent") for cell in cells]
        messages = {str(w.message) for w in stacked}
        assert messages == {str(w.message) for w in one_by_one}
        assert messages == {"overflow encountered in multiply"}
        failed = [isinstance(o, ValueError) for o in outcomes]
        assert not any(failed[:8]) and any(failed[8:]) and not all(failed[8:])
        # the clean cells converge in the first block, the noisy ones fail
        # or run on around them
        assert [o.convergence_round for o in outcomes[:8]] == [10] * 8
        for cell, a, b in zip(cells, outcomes, alone):
            assert _same_outcome(a, b), cell
            if isinstance(a, ValueError):
                assert str(a) == "demands must be finite"

    def test_memory_follows_the_rounds_run(self):
        # nothing is sized by max_rounds: cells that converge early run in
        # a few blocks' memory, whatever the cap on rounds
        cells = [(0.0, averaging, seed) for averaging in (False, True)
                 for seed in range(30)]
        for scn in (default_scenario(max_rounds=ROUND_LIMIT, averaging_window=5),
                    _one_node(max_rounds=ROUND_LIMIT)):
            tracemalloc.start()
            try:
                outcomes = negotiate_all(scn, cells, "gradient_ascent")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 2_000_000
            for trace in outcomes:
                assert trace.converged and len(trace.rounds) < 1000
                assert trace.prices.base.shape == (2, len(trace.rounds), scn.num_nodes)

    def test_overflow_in_every_cell(self):
        # the first round's demand overflows whatever the noise or averaging
        scn = FogScenario(num_nodes=2, budget=1e300, price_floors=1e-10,
                          averaging_window=5)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for rule in ("gradient_ascent", "foc_root"):
                for outcome in negotiate_all(scn, MIXED_CELLS, rule):
                    assert isinstance(outcome, ValueError)
                    assert str(outcome) == "demands must be finite"
        assert {str(w.message) for w in caught} == {"overflow encountered in divide"}

    def test_overflow_inside_a_frozen_block(self):
        # Prices start at their caps, so the stack is frozen after round 1.
        # Demands sit near the largest float / 28, so a cumulative cell's
        # running demand sum overflows after about 20 rounds.  Cells (0.5,
        # True, 5) and (0.5, True, 0) fail in rows 21 and 22, inside the
        # block of rows 16-31.  The other cells run on beside them: they
        # include averaged ones, whose running sums must be rewound to the
        # failing row.
        base = FogScenario(num_nodes=2, budget=1.26e307,
                           price_floors=0.5, price_caps=1.0, initial_prices=1.0,
                           max_rounds=27, convergence_tol=1e-3, convergence_window=40)
        cells = [(0.0, True, 0), (0.1, False, 1), (0.5, True, 5), (0.5, True, 0),
                 (0.5, True, 8)]
        # max_rounds: the cells that fail, so rows 21 and 22 and no other
        fails = {21: [], 22: [2], 23: [2, 3], 27: [2, 3]}
        for rounds, failing in fails.items():
            scn = dataclasses.replace(base, max_rounds=rounds)
            with warnings.catch_warnings(record=True) as stacked:
                warnings.simplefilter("always")
                outcomes = negotiate_all(scn, cells, "gradient_ascent")
            with warnings.catch_warnings(record=True) as one_by_one:
                warnings.simplefilter("always")
                alone = [_alone(scn, cell, "gradient_ascent") for cell in cells]
            messages = {str(w.message) for w in stacked}
            assert messages == {str(w.message) for w in one_by_one}
            assert messages == ({"overflow encountered in accumulate"} if failing else set())
            with np.errstate(over="ignore"):
                expected = [_oracle(scn, cell, "gradient_ascent") for cell in cells]
            for p, (cell, a, b, c) in enumerate(zip(cells, outcomes, alone, expected)):
                assert _same_outcome(a, b) and _same_outcome(a, c), (rounds, cell)
                if p in failing:
                    assert str(a) == "demands must be finite"
                else:
                    assert len(a.rounds) == rounds


class TestKernelOracle:
    """``_negotiate`` against a plain round-by-round reference, ``_oracle``."""

    CELLS = [(0.0, False, 0), (0.0, True, 0), (0.05, True, 1), (0.1, False, 2),
             (0.1, True, 3)]

    @pytest.mark.parametrize("price_rule", ["gradient_ascent", "foc_root"])
    @pytest.mark.parametrize("window", [None, 1, 5, 50])
    @pytest.mark.parametrize("num_nodes", [1, 4])
    def test_kernel_matches_the_oracle(self, num_nodes, window, price_rule, monkeypatch):
        # A small step makes the prices climb slowly.  Alone, the averaged
        # gradient cells' intended prices stop moving after 16 to 129
        # rounds, on a block edge or inside the second to fifth block; the
        # clean raw cell's still move when the run ends, so the whole stack
        # never freezes.
        loop = dict(step_size=0.5, max_rounds=150, convergence_tol=1e-3,
                    convergence_window=10, averaging_window=window)
        scn = _one_node(**loop) if num_nodes == 1 else default_scenario(**loop)
        steps = [0]  # gradient steps of the stacked run, then of each cell alone
        step = _Market.gradient_step

        def counted(self, *args):
            steps[-1] += 1
            return step(self, *args)

        monkeypatch.setattr(_Market, "gradient_step", counted)
        expected = [_oracle(scn, cell, price_rule) for cell in self.CELLS]
        for cell, got, want in zip(self.CELLS, negotiate_all(scn, self.CELLS, price_rule),
                                   expected):
            assert _same_outcome(got, want), ("stacked", cell)
        for cell, want in zip(self.CELLS, expected):
            steps.append(0)
            (got,) = negotiate_all(scn, [cell], price_rule)
            assert _same_outcome(got, want), ("alone", cell)
        if price_rule == "gradient_ascent":
            # a batch of one steps its prices once a round until they freeze
            frozen_after = [n + 1 for n in steps[1:]]
            assert any(market._FIRST_BLOCK_ROUNDS < n < 140 for n in frozen_after)
            assert max(frozen_after) == scn.max_rounds - 1
        else:
            assert steps == [0] * (1 + len(self.CELLS))

    def test_overflow_matches_the_oracle(self):
        # the raw noisy cells overflow in the first rounds; averaged cells
        # with a window survive longer
        scn = FogScenario(num_nodes=2, budget=1e300, price_floors=1e-10,
                          price_caps=3.34e-9, initial_prices=3.34e-9, averaging_window=5,
                          max_rounds=100, convergence_tol=1e-3, convergence_window=10)
        cells = [(rho, averaging, seed) for rho in (0.0, 0.1) for averaging in (False, True)
                 for seed in range(4)]
        for rule in ("gradient_ascent", "foc_root"):
            with np.errstate(over="ignore"):
                outcomes = negotiate_all(scn, cells, rule)
                expected = [_oracle(scn, cell, rule) for cell in cells]
            assert any(isinstance(o, ValueError) for o in outcomes)
            for cell, got, want in zip(cells, outcomes, expected):
                assert _same_outcome(got, want), (rule, cell)


class TestNegotiationTrace:
    def test_arrays_are_read_only(self):
        trace = run_negotiation(default_scenario(noise_level=0.05, max_rounds=30))
        n = len(trace.rounds)
        assert trace.rounds == range(1, n + 1)
        assert trace.utilities.shape == (n,)
        for name in TRACE_ARRAYS[:3]:
            array = getattr(trace, name)
            assert array.shape == (n, 4)
            with pytest.raises(ValueError):
                array[0, 0] = 1.0
        with pytest.raises(ValueError):
            trace.utilities[0] = 1.0

    def test_caller_arrays_cannot_change_a_trace(self):
        trace = run_negotiation(default_scenario(noise_level=0.05, max_rounds=30))
        given = {name: np.array(getattr(trace, name)) for name in TRACE_ARRAYS}
        frozen_view = given["prices"].view()
        frozen_view.flags.writeable = False  # read-only, but its base is not
        copy = dataclasses.replace(trace, **given | {"prices": frozen_view})
        for array in given.values():
            array += 1.0
        assert _same_trace(copy, trace)
        # arrays that no writable array shares are kept as they are
        kept = dataclasses.replace(trace)
        assert all(getattr(kept, name) is getattr(trace, name) for name in TRACE_ARRAYS)

    def test_gains_and_utilities_follow_public_formulas(self):
        # the kernel computes gains and utilities for all rounds at once;
        # each row must equal the per-round public formula bit for bit
        rng = np.random.default_rng(5)
        for m in (1, 4, 33, 130):
            scn = FogScenario(
                num_nodes=m,
                budget=10.0,
                utility_scale=1.3,
                utility_weights=tuple(rng.uniform(0.2, 3.0, size=m)),
                quality_factors=tuple(rng.uniform(0.2, 3.0, size=m)),
                price_floors=tuple(rng.uniform(0.5, 2.0, size=m)),
                noise_level=0.1,
                averaging=True,
                max_rounds=40,
            )
            trace = run_negotiation(scn, seed=m)
            for t in range(len(trace.rounds)):
                prices, demands = trace.prices[t], trace.demands[t]
                assert np.array_equal(trace.gains[t], fog_gain(scn, prices, demands))
                assert trace.utilities[t] == user_utility(scn, demands, prices)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"\(rounds x nodes\)"):
            _synthetic_trace(_one_node(), [[1.0, 2.0]], [[1.0]])


class TestRunNegotiation:
    def test_noise_free_converges_to_caps(self):
        trace = run_negotiation(default_scenario())
        assert trace.converged
        assert trace.convergence_round is not None
        assert trace.convergence_round <= trace.scenario.max_rounds
        assert tuple(trace.prices[-1].tolist()) == trace.scenario.price_caps
        expected = optimal_demand(trace.scenario, trace.prices[-1])
        assert np.allclose(trace.demands[-1], expected, rtol=1e-9)

    def test_negative_zero_noise_runs_as_zero(self):
        clean = run_negotiation(default_scenario())
        trace = run_negotiation(default_scenario(noise_level=-0.0))
        assert np.array_equal(trace.prices, clean.prices)
        assert np.array_equal(trace.demands, clean.demands)

    def test_noise_free_budget_identity_every_round(self):
        trace = run_negotiation(default_scenario())
        budget = trace.scenario.budget
        for prices, demands in zip(trace.prices, trace.demands):
            spend = float(np.dot(prices, demands))
            assert abs(spend - budget) <= 1e-9 * budget

    def test_round_states_well_formed(self):
        trace = run_negotiation(default_scenario(noise_level=0.1), seed=3)
        floors = np.asarray(trace.scenario.price_floors)
        caps = np.asarray(trace.scenario.price_caps)
        assert trace.rounds == range(1, len(trace.utilities) + 1)
        assert np.all(trace.prices >= floors - 1e-12)
        assert np.all(trace.prices <= caps + 1e-12)
        assert np.all(trace.demands >= DEMAND_FLOOR)

    def test_raw_noise_fails_to_converge(self):
        trace = run_negotiation(default_scenario(noise_level=0.1), seed=0)
        assert not trace.converged
        assert len(trace.rounds) == trace.scenario.max_rounds
        assert instability_index(trace) > 0.001

    def test_averaging_restores_convergence(self):
        scn = default_scenario(noise_level=0.1, averaging=True)
        trace = run_negotiation(scn, seed=0)
        assert trace.converged
        clean = run_negotiation(default_scenario())
        final = trace.prices[-1]
        target = clean.prices[-1]
        assert np.all(np.abs(final - target) / target < 0.05)

    def test_bit_identical_reruns(self):
        scn = default_scenario(noise_level=0.1, max_rounds=200)
        a = run_negotiation(scn, seed=7)
        b = run_negotiation(scn, seed=7)
        assert _same_trace(a, b)

    def test_seed_changes_noisy_path(self):
        scn = default_scenario(noise_level=0.1, max_rounds=50)
        a = run_negotiation(scn, seed=1)
        b = run_negotiation(scn, seed=2)
        assert not _same_trace(a, b)

    def test_window_one_averaging_equals_raw(self):
        raw = default_scenario(noise_level=0.1, max_rounds=300)
        windowed = default_scenario(
            noise_level=0.1, max_rounds=300, averaging=True, averaging_window=1
        )
        a = run_negotiation(raw, seed=5)
        b = run_negotiation(windowed, seed=5)
        assert _same_trace(a, b)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError):
            run_negotiation(default_scenario(), price_rule="psychic")

    def test_overflowing_demand_fails_like_the_public_check(self):
        # the loop checks only for overflow; it raises the message that
        # fog_gain's validation gives for the same demands
        scn = FogScenario(num_nodes=2, budget=1e300, price_floors=1e-10)
        with np.errstate(over="ignore"):
            demands = optimal_demand(scn, scn.initial_prices)
            with pytest.raises(ValueError, match="^demands must be finite$"):
                fog_gain(scn, scn.initial_prices, demands)
            for rule in ("gradient_ascent", "foc_root"):
                with pytest.raises(ValueError, match="^demands must be finite$"):
                    run_negotiation(scn, rule)


class TestMetrics:
    def test_converged_noise_free_instability_negligible(self):
        trace = run_negotiation(default_scenario())
        (cfg,) = compute_metrics([trace])
        assert cfg.convergence_rate == 1.0
        assert cfg.mean_instability_index < 1e-9

    def test_duplicate_traces_same_aggregates(self):
        trace = run_negotiation(default_scenario())
        (single,) = compute_metrics([trace])
        (doubled,) = compute_metrics([trace, trace])
        assert doubled.num_traces == 2
        for field in (
            "noise_level",
            "averaging",
            "convergence_rate",
            "mean_convergence_round",
            "mean_final_user_utility",
            "mean_final_fog_gain_total",
            "mean_instability_index",
        ):
            assert getattr(doubled, field) == getattr(single, field)

    def test_groups_sorted_by_configuration(self):
        noisy = run_negotiation(
            default_scenario(noise_level=0.1, max_rounds=100), seed=1
        )
        clean = run_negotiation(default_scenario(), seed=1)
        summary = compute_metrics([noisy, clean])
        assert [c.noise_level for c in summary] == [0.0, 0.1]

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])

    def test_instability_of_alternating_prices(self):
        scn = _one_node(convergence_window=4)
        prices = [[1.0], [3.0], [1.0], [3.0], [1.0], [3.0]]
        trace = _synthetic_trace(scn, prices, [[1.0]] * 6)
        # over the last 4 rounds prices are (1,3,1,3): std=1, mean=2
        assert instability_index(trace) == pytest.approx(0.5)


class TestTraceCsv:
    def test_layout_and_round_trip(self, tmp_path):
        scn = default_scenario(max_rounds=40)
        trace = run_negotiation(scn)
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ",".join(TRACE_COLUMNS)
        assert len(lines) == 1 + len(trace.rounds) * scn.num_nodes

        first = lines[1].split(",")
        assert first[0] == "1" and first[1] == "0"
        assert float(first[2]) == trace.prices[0, 0]
        assert float(first[4]) == trace.utilities[0]

        # prices, demands and utilities are float reprs; gains keep the
        # NumPy-scalar spelling of earlier releases
        rows = [line.split(",") for line in lines[1:]]
        prices = trace.prices.ravel().tolist()
        assert [row[2] for row in rows] == [repr(x) for x in prices]
        assert [row[5] for row in rows] == [repr(x) for x in trace.gains.ravel()]
        assert path.read_bytes().count(b"\r\n") == len(lines)

        # user utility repeats across the nodes of one round
        round_one = [line.split(",") for line in lines[1 : 1 + scn.num_nodes]]
        assert len({row[4] for row in round_one}) == 1

    def test_gain_spelling_matches_numpy_scalar_repr(self):
        # the writer spells fog_gain as f"np.float64({x!r})" from plain
        # floats; that must equal repr(np.float64(x)) for every float64
        bits = np.random.default_rng(2024).integers(
            0, 2**64, size=1_000_000, dtype=np.uint64, endpoint=False
        )
        tiny = np.finfo(float).smallest_subnormal
        edges = [0.0, -0.0, math.inf, -math.inf, math.nan, tiny, -tiny, 1.0, -1.0,
                 np.finfo(float).smallest_normal, np.finfo(float).max]
        for switch in (1e-4, 1e16):
            for x in (switch, np.nextafter(switch, 0), np.nextafter(switch, math.inf)):
                edges += [float(x), -float(x)]
        values = np.concatenate([bits.view(np.float64), np.asarray(edges)])
        spelled = [f"np.float64({x!r})" for x in values.tolist()]
        assert spelled == [repr(x) for x in values]
