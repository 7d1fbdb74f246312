"""End-to-end acceptance checks, one test per shipped claim.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per claim.  The heavy 100-seed market batches are computed once per module
and shared.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from foggame.behavior import (
    CognitiveHierarchy,
    EpsilonNash,
    LevelK,
    LogitQBR,
    NoisyIntrospection,
    qbr_equilibrium,
)
from foggame.cli import main
from foggame.estimation import (
    SearchOptions,
    epsilon_nash_family,
    fit_mle,
    qbr_family,
    sample_observations,
)
from foggame.games import pure_nash
from foggame.market import (
    FogScenario,
    NegotiationTrace,
    default_scenario,
    instability_index,
    optimal_demand,
    run_negotiation,
    user_utility,
)
from foggame.preferences import (
    ProspectParams,
    SocialPrefParams,
    pt_value,
    pt_weight,
    transform_game_social,
)

from conftest import logit_choice, negotiate_all, random_game

SEEDS = tuple(range(100))


# ---------------------------------------------------------------- fixtures


@pytest.fixture(scope="module")
def rational_trace():
    return run_negotiation(default_scenario())


def _seed_batch(noise_level: float, averaging: bool):
    """One stacked kernel run over ``SEEDS``: the traces ``run_negotiation``
    gives seed by seed, bit for bit (see ``tests/test_market.py``)."""
    cells = [(noise_level, averaging, seed) for seed in SEEDS]
    traces = negotiate_all(default_scenario(), cells, "gradient_ascent")
    assert all(isinstance(trace, NegotiationTrace) for trace in traces)
    return traces


@pytest.fixture(scope="module")
def raw10_batch():
    return _seed_batch(0.10, False)


@pytest.fixture(scope="module")
def raw05_batch():
    return _seed_batch(0.05, False)


@pytest.fixture(scope="module")
def avg10_batch():
    return _seed_batch(0.10, True)


# ------------------------------------------------------------------ helpers


def _softmax_oracle(utilities, lam):
    z = np.asarray(utilities, dtype=float) * lam
    z = z - z.max()
    w = np.exp(z)
    return w / w.sum()


def _br_oracle(payoff_matrix, opponent_weights):
    eu = payoff_matrix @ np.asarray(opponent_weights)
    winners = np.nonzero(eu >= eu.max() - 1e-9)[0]
    w = np.zeros(len(eu))
    w[winners] = 1.0 / len(winners)
    return w


def _budget_constrained_oracle(scenario: FogScenario, prices) -> np.ndarray:
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


def _bootstrap_gap_lower_bound(high_vals, low_vals, seed: int) -> float:
    """2.5th percentile of mean(high) - mean(low) under seed resampling."""
    rng = np.random.default_rng(seed)
    high = np.asarray(high_vals, dtype=float)
    low = np.asarray(low_vals, dtype=float)
    diffs = np.empty(2000)
    for b in range(2000):
        hi = high[rng.integers(len(high), size=len(high))].mean()
        lo = low[rng.integers(len(low), size=len(low))].mean()
        diffs[b] = hi - lo
    return float(np.percentile(diffs, 2.5))


# ----------------------------------------------------------------- criteria


def test_rational_negotiation_converges_to_demand_optimum(rational_trace):
    trace = rational_trace
    scenario = trace.scenario
    assert trace.converged and trace.convergence_round is not None
    assert trace.convergence_round <= 2000

    expected = optimal_demand(scenario, trace.prices[-1])
    rel = np.abs(trace.demands[-1] - expected) / expected
    assert float(rel.max()) < 1e-6

    for prices, demands in zip(trace.prices, trace.demands):
        spend = float(np.dot(prices, demands))
        assert abs(spend - scenario.budget) <= 1e-9 * scenario.budget


def test_closed_form_demand_matches_constrained_oracle():
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        m = int(rng.integers(1, 6))
        floors = rng.uniform(0.2, 1.5, size=m)
        scenario = FogScenario(
            num_nodes=m,
            budget=float(rng.uniform(1.0, 40.0)),
            utility_scale=float(rng.uniform(0.5, 2.0)),
            utility_weights=tuple(rng.uniform(0.2, 4.0, size=m)),
            quality_factors=tuple(rng.uniform(0.2, 4.0, size=m)),
            price_floors=tuple(floors),
            price_caps=100.0,
        )
        prices = floors + rng.uniform(0.05, 5.0, size=m)
        closed_form = optimal_demand(scenario, prices)
        oracle = _budget_constrained_oracle(scenario, prices)
        rel = np.abs(closed_form - oracle) / np.abs(oracle)
        assert float(rel.max()) < 1e-6


def test_noise_destabilizes_negotiation(
    rational_trace, raw05_batch, raw10_batch
):
    failed = sum(not t.converged for t in raw10_batch)
    assert failed >= 95

    base = instability_index(rational_trace)
    noisy10 = float(np.mean([instability_index(t) for t in raw10_batch]))
    noisy05 = float(np.mean([instability_index(t) for t in raw05_batch]))
    assert noisy10 >= 10.0 * base
    assert noisy10 > 0.0
    assert base < noisy05 < noisy10


def test_signal_averaging_restores_convergence(rational_trace, avg10_batch):
    converged = sum(t.converged for t in avg10_batch)
    assert converged >= 95

    target_prices = rational_trace.prices[-1]
    target_demands = rational_trace.demands[-1]
    for trace in avg10_batch:
        price_dev = np.abs(trace.prices[-1] - target_prices) / target_prices
        demand_dev = np.abs(trace.demands[-1] - target_demands) / target_demands
        assert float(price_dev.max()) < 0.05
        assert float(demand_dev.max()) < 0.05


def test_efficiency_ordering_across_noise_treatments(
    rational_trace, raw10_batch, avg10_batch
):
    def finals(traces):
        uu = [float(t.utilities[-1]) for t in traces]
        fg = [sum(t.gains[-1].tolist()) for t in traces]
        return uu, fg

    rational_uu, rational_fg = finals([rational_trace])
    avg_uu, avg_fg = finals(avg10_batch)
    raw_uu, raw_fg = finals(raw10_batch)

    failures = []
    checks = [
        ("user utility: rational >= averaged", rational_uu, avg_uu, 1),
        ("user utility: averaged >= raw", avg_uu, raw_uu, 2),
        ("fog gain: rational >= averaged", rational_fg, avg_fg, 3),
        ("fog gain: averaged >= raw", avg_fg, raw_fg, 4),
    ]
    for label, high, low, salt in checks:
        gap = float(np.mean(high) - np.mean(low))
        ci_low = _bootstrap_gap_lower_bound(high, low, seed=7000 + salt)
        if not (gap >= 0 and ci_low > 0):
            failures.append(
                f"{label}: mean gap {gap:+.4f}, 95% lower bound {ci_low:+.4f}"
            )
    assert not failures, "; ".join(failures)


def test_logit_choice_limit_behavior():
    for n in (2, 3, 6):
        got = logit_choice([float(i) for i in range(n)], 0.0)
        assert got == tuple([1.0 / n] * n)

    assert logit_choice([1.0, 0.0], 50.0)[0] > 0.999999

    rng = np.random.default_rng(31)
    for _ in range(10):
        u = rng.normal(size=4)
        base = logit_choice(u, 2.0)
        for shift in (-500.0, -3.7, 0.9, 42.0, 500.0):
            moved = logit_choice(u + shift, 2.0)
            assert max(abs(a - b) for a, b in zip(base, moved)) < 1e-12


def test_iterated_reasoning_models_match_hand_recursions(corpus):
    for game in corpus:
        u0, u1 = game.payoffs[0], game.payoffs[1]
        uniform = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]

        # two rounds of exact best response from a uniform anchor
        l1 = [_br_oracle(u0, uniform[1]), _br_oracle(u1.T, uniform[0])]
        l2 = [_br_oracle(u0, l1[1]), _br_oracle(u1.T, l1[0])]
        model = LevelK(level_weights=(0.0, 0.0, 1.0))
        for player in range(2):
            got = model.predict_profile(game)[player].weights
            assert np.allclose(got, l2[player], atol=1e-10)

        # three levels responding to renormalized-Poisson mixtures below
        tau = 1.5
        pmf = [math.exp(-tau) * tau**k / math.factorial(k) for k in range(3)]
        levels = [uniform]
        for k in (1, 2, 3):
            w = np.array(pmf[:k]) / sum(pmf[:k])
            belief = [
                sum(w[j] * levels[j][p] for j in range(k)) for p in range(2)
            ]
            levels.append(
                [_br_oracle(u0, belief[1]), _br_oracle(u1.T, belief[0])]
            )
        ch = CognitiveHierarchy(poisson_mean=tau, max_level=3)
        for player in range(2):
            got = ch.predict_profile(game)[player].weights
            assert np.allclose(got, levels[3][player], atol=1e-10)

        # three logit steps with geometrically decaying precision
        lam0, decay = 4.0, 0.5
        profile = uniform
        for depth in (2, 1, 0):
            lam = lam0 * decay**depth
            profile = [
                _softmax_oracle(u0 @ profile[1], lam),
                _softmax_oracle(profile[0] @ u1, lam),
            ]
        ni = NoisyIntrospection(precision=lam0, decay=decay, max_depth=3)
        for player in range(2):
            got = ni.predict_profile(game)[player].weights
            assert np.allclose(got, profile[player], atol=1e-10)


def test_qbr_equilibrium_residual_bound(corpus):
    for game in corpus:
        zero = qbr_equilibrium(game, 0.0)
        assert zero[0].weights == (0.5, 0.5)
        assert zero[1].weights == (0.5, 0.5)
        for lam in (0.5, 1.0, 2.0, 5.0, 10.0):
            profile = qbr_equilibrium(game, lam)
            p = np.asarray(profile[0].weights)
            q = np.asarray(profile[1].weights)
            r0 = _softmax_oracle(game.payoffs[0] @ q, lam)
            r1 = _softmax_oracle(p @ game.payoffs[1], lam)
            residual = max(np.abs(r0 - p).max(), np.abs(r1 - q).max())
            assert residual < 1e-8


def test_mle_parameter_recovery():
    rng = np.random.default_rng(12345)
    qbr_games = [random_game(rng) for _ in range(20)]
    qbr_hits = 0
    for seed in range(10):
        data = sample_observations(LogitQBR(precision=2.0), qbr_games, 1000, seed)
        fitted = fit_mle(
            qbr_family(),
            data,
            bounds=[(0.0, 10.0)],
            search=SearchOptions(grid_points=11, refine_iters=30),
        )
        if 1.7 <= fitted.params[0] <= 2.3:
            qbr_hits += 1
    assert qbr_hits >= 8

    rng = np.random.default_rng(777)
    nash_games = []
    while len(nash_games) < 20:
        game = random_game(rng)
        if pure_nash(game):
            nash_games.append(game)
    truth = EpsilonNash(epsilon=0.2, no_nash_fallback="uniform")
    eps_hits = 0
    for seed in range(10):
        data = sample_observations(truth, nash_games, 1000, seed)
        fitted = fit_mle(
            epsilon_nash_family(),
            data,
            bounds=[(0.0, 1.0)],
            search=SearchOptions(grid_points=11, refine_iters=30),
        )
        if abs(fitted.params[0] - 0.2) <= 0.05:
            eps_hits += 1
    assert eps_hits >= 8


def test_prospect_and_social_identities(pd_game):
    params = ProspectParams()
    assert pt_weight(0.0, params) == 0.0
    assert pt_weight(1.0, params) == 1.0

    straight = ProspectParams(weight_curvature=1.0)
    for p in np.linspace(0.0, 1.0, 21):
        assert pt_weight(float(p), straight) == pytest.approx(p, abs=1e-12)

    assert pt_value(0.0, params) == 0.0
    assert pt_value(3.0, ProspectParams(reference=3.0)) == 0.0
    for d in np.linspace(0.25, 40.0, 20):
        assert abs(pt_value(-d, params)) >= pt_value(d, params)

    selfish = [SocialPrefParams(), SocialPrefParams()]
    out = transform_game_social(pd_game, selfish)
    assert np.array_equal(out.payoffs, pd_game.payoffs)


def test_cli_reruns_byte_identical(tmp_path, capsys, pd_game):
    from foggame.behavior import model_to_dict
    from foggame.estimation import save_observations
    from foggame.games import save_game

    out = tmp_path / "sim"
    sim_cfg = tmp_path / "sim.json"
    sim_cfg.write_text(
        json.dumps(
            {
                "scenario": {"preset": "default", "max_rounds": 200},
                "experiment": {
                    "mode": "simulate",
                    "seeds": [0, 1],
                    "noise_sweep": [0.0, 0.1],
                    "averaging_sweep": [False, True],
                    "out_dir": str(out),
                },
            }
        )
    )

    def snapshot():
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    assert main(["simulate", str(sim_cfg)]) == 0
    first = snapshot()
    assert main(["simulate", str(sim_cfg)]) == 0
    assert snapshot() == first

    dataset = tmp_path / "obs.jsonl"
    save_observations(
        sample_observations(
            EpsilonNash(epsilon=0.2, no_nash_fallback="uniform"),
            [pd_game],
            60,
            seed=2,
        ),
        dataset,
    )
    fit_out = tmp_path / "fit"
    fit_cfg = tmp_path / "fit.json"
    fit_cfg.write_text(
        json.dumps(
            {
                "model": {"model": "epsilon_nash", "params": {}},
                "experiment": {
                    "mode": "fit",
                    "dataset": str(dataset),
                    "out_dir": str(fit_out),
                    "search": {"grid_points": 9, "refine_iters": 5},
                },
            }
        )
    )
    assert main(["fit", str(fit_cfg)]) == 0
    first_fit = (fit_out / "fit_result.json").read_bytes()
    capsys.readouterr()
    assert main(["fit", str(fit_cfg)]) == 0
    assert (fit_out / "fit_result.json").read_bytes() == first_fit

    game_file = tmp_path / "game.json"
    save_game(pd_game, game_file)
    predict_cfg = tmp_path / "predict.json"
    predict_cfg.write_text(
        json.dumps(
            {
                "model": model_to_dict(LogitQBR(precision=1.5)),
                "experiment": {"mode": "predict", "game": str(game_file)},
            }
        )
    )
    capsys.readouterr()
    assert main(["predict", str(predict_cfg)]) == 0
    first_out = capsys.readouterr().out
    assert main(["predict", str(predict_cfg)]) == 0
    assert capsys.readouterr().out == first_out
