"""Price/demand negotiation between one offloading user and M fog nodes.

Each round the user splits a fixed budget across nodes (closed-form optimal
demand given current prices), then every node adapts its price to climb its
own gain.  Optional multiplicative noise models imprecise play, and optional
signal averaging executes the running mean of each actor's noisy responses
instead of the latest one.

Two structural facts about this market shape the dynamics and are worth
stating up front:

* the budget-saturating demand makes node revenue ``price * demand``
  independent of the price, so node gain increases monotonically in price
  and rational prices climb to their caps (a boundary equilibrium), and
* noise therefore perturbs announced prices only downward from the cap,
  while demand noise is symmetric.

Noise is treated as execution noise: a node's adaptation state tracks its
own computed (pre-noise) prices, while the announced price — what the user
sees and pays — carries the perturbation and is projected back into
``[price_floor, price_cap]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Callable, Iterable, Literal, Sequence, get_args

import numpy as np

from .schema import as_bool, as_int, as_number

# Noisy demands are floored here so log-utility stays defined.
DEMAND_FLOOR = 1e-9

PriceRule = Literal["gradient_ascent", "foc_root"]
PRICE_RULES = get_args(PriceRule)


def _broadcast(value, n: int, name: str) -> tuple[float, ...]:
    vec = (value,) * n if np.isscalar(value) else tuple(value)
    if len(vec) != n:
        raise ValueError(f"{name} must have length {n}, got {len(vec)}")
    vec = tuple(as_number(x, name) for x in vec)
    if any(not np.isfinite(x) for x in vec):
        raise ValueError(f"{name} must be finite")
    return vec


@dataclass(frozen=True)
class FogScenario:
    """Market constants plus loop controls for one negotiation.

    Per-node fields accept a scalar (broadcast to all nodes) or a sequence
    of length ``num_nodes``.  ``initial_prices`` defaults to the price
    floors; ``price_caps`` defaults to ten times the floors.  With
    ``averaging`` on, ``averaging_window`` limits the mean to the last so
    many responses; ``None`` keeps the default cumulative mean over the
    whole run.
    """

    num_nodes: int
    budget: float
    utility_scale: float = 1.0
    utility_weights: tuple[float, ...] | float = 1.0
    quality_factors: tuple[float, ...] | float = 1.0
    price_floors: tuple[float, ...] | float = 1.0
    margin_factors: tuple[float, ...] | float = 0.5
    initial_prices: tuple[float, ...] | float | None = None
    price_caps: tuple[float, ...] | float | None = None
    step_size: float = 8.0
    noise_level: float = 0.0
    averaging: bool = False
    averaging_window: int | None = None
    max_rounds: int = 2000
    convergence_tol: float = 1e-4
    convergence_window: int = 20

    def __post_init__(self) -> None:
        integers = ["num_nodes", "max_rounds", "convergence_window"]
        if self.averaging_window is not None:
            integers.append("averaging_window")
        for name in integers:
            object.__setattr__(self, name, as_int(getattr(self, name), name))
        for name in ("budget", "utility_scale", "step_size", "noise_level",
                     "convergence_tol"):
            object.__setattr__(self, name, as_number(getattr(self, name), name))
        as_bool(self.averaging, "averaging")
        m = self.num_nodes
        if m < 1:
            raise ValueError("num_nodes must be >= 1")
        if not np.isfinite(self.budget) or self.budget <= 0:
            raise ValueError("budget must be positive")
        if not np.isfinite(self.utility_scale) or self.utility_scale <= 0:
            raise ValueError("utility_scale must be positive")

        weights = _broadcast(self.utility_weights, m, "utility_weights")
        quality = _broadcast(self.quality_factors, m, "quality_factors")
        floors = _broadcast(self.price_floors, m, "price_floors")
        margins = _broadcast(self.margin_factors, m, "margin_factors")
        if any(x <= 0 for x in weights):
            raise ValueError("utility_weights must be positive")
        if any(x <= 0 for x in quality):
            raise ValueError("quality_factors must be positive")
        if any(x <= 0 for x in floors):
            raise ValueError("price_floors must be positive")
        if any(not 0 < x <= 1 for x in margins):
            raise ValueError("margin_factors must lie in (0, 1]")

        if self.price_caps is None:
            caps = tuple(10.0 * f for f in floors)
        else:
            caps = _broadcast(self.price_caps, m, "price_caps")
        if any(c < f for c, f in zip(caps, floors)):
            raise ValueError("price_caps must be >= price_floors elementwise")

        if self.initial_prices is None:
            init = floors
        else:
            init = _broadcast(self.initial_prices, m, "initial_prices")
        if any(not f <= c0 <= c for c0, f, c in zip(init, floors, caps)):
            raise ValueError(
                "initial_prices must lie between price_floors and price_caps"
            )

        if not np.isfinite(self.step_size) or self.step_size <= 0:
            raise ValueError("step_size must be positive")
        if not 0.0 <= self.noise_level < 1.0:
            raise ValueError("noise_level must lie in [0, 1)")
        if self.averaging_window is not None and self.averaging_window < 1:
            raise ValueError("averaging_window must be >= 1 when set")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be >= 1")
        if not np.isfinite(self.convergence_tol) or self.convergence_tol <= 0:
            raise ValueError("convergence_tol must be positive")
        if self.convergence_window < 2:
            raise ValueError("convergence_window must be >= 2")

        object.__setattr__(self, "utility_weights", weights)
        object.__setattr__(self, "quality_factors", quality)
        object.__setattr__(self, "price_floors", floors)
        object.__setattr__(self, "margin_factors", margins)
        object.__setattr__(self, "initial_prices", init)
        object.__setattr__(self, "price_caps", caps)


def default_scenario(**overrides) -> FogScenario:
    """The stock 1-user/4-node market used by the shipped configs."""
    base = dict(
        num_nodes=4,
        budget=10.0,
        utility_scale=1.0,
        utility_weights=(1.0, 0.8, 1.2, 0.6),
        quality_factors=(1.0, 1.5, 0.7, 2.0),
        price_floors=(1.0, 0.8, 1.2, 0.9),
        margin_factors=(0.5, 0.7, 0.4, 0.6),
        step_size=8.0,
    )
    base.update(overrides)
    return FogScenario(**base)


def _check_prices(scenario: FogScenario, prices: Sequence[float]) -> np.ndarray:
    c = np.asarray(prices, dtype=float)
    if c.shape != (scenario.num_nodes,):
        raise ValueError(f"expected {scenario.num_nodes} prices, got {c.shape}")
    lowest = np.asarray(scenario.price_floors) - 1e-12
    if not (np.isfinite(c) & (c >= lowest)).all():
        raise ValueError("prices must be finite and >= price_floors")
    return c


def _check_demands(c: np.ndarray, demands: Sequence[float]) -> np.ndarray:
    r = np.asarray(demands, dtype=float)
    if r.shape != c.shape:
        raise ValueError("demands and prices must have equal length")
    if not np.isfinite(r).all():
        raise ValueError("demands must be finite")
    return r


class _Market:
    """A validated scenario's constants as arrays, and the market formulas.

    The formulas are unchecked and take per-node vectors or (rounds x nodes)
    arrays; the public functions below validate, then call them.
    """

    def __init__(self, s: FogScenario):
        self.floors, self.caps = np.asarray(s.price_floors), np.asarray(s.price_caps)
        self.alpha = np.asarray(s.utility_weights)
        self.beta = np.asarray(s.quality_factors)
        self.kappa, self.scale = np.asarray(s.margin_factors), s.utility_scale
        self.budget_alpha = s.budget * self.alpha
        self.total_weight = float(sum(s.utility_weights))
        self.step_size, self.probe = s.step_size, s.step_size * self.floors

    def demand(self, c: np.ndarray) -> np.ndarray:
        return self.budget_alpha / (c * self.total_weight)

    def gain(self, c: np.ndarray, r: np.ndarray) -> np.ndarray:
        return self.kappa * (c - self.floors) * r

    def utility(self, c: np.ndarray, r: np.ndarray):
        benefit = self.scale * np.sum(self.alpha * np.log(r * self.beta), axis=-1)
        return benefit - np.sum(c * r, axis=-1)

    def project(self, prices: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return np.minimum(np.maximum(prices, self.floors), self.caps, out=out)

    def gradient_step(self, c_last, c_prev, rise) -> np.ndarray:
        """Climb each node's finite-difference gain slope ``rise / delta_c``
        (zero where the price did not move), projected onto [floor, cap]."""
        delta_c = c_last - c_prev
        moved = np.abs(delta_c) > 1e-12 * np.maximum(1.0, np.abs(c_last))
        slope = np.divide(rise, delta_c, out=np.zeros(delta_c.shape), where=moved)
        return self.project(c_last + self.step_size * slope)


def user_utility(
    scenario: FogScenario, demands: Sequence[float], prices: Sequence[float]
) -> float:
    """Log-quality benefit of the allocation minus its total cost."""
    c = _check_prices(scenario, prices)
    r = _check_demands(c, demands)
    if (r <= 0).any():
        raise ValueError("demands must be positive")
    return float(_Market(scenario).utility(c, r))


def fog_gain(
    scenario: FogScenario, prices: Sequence[float], demands: Sequence[float]
) -> np.ndarray:
    """Each node's margin over its floor price, damped by its margin factor."""
    c = _check_prices(scenario, prices)
    r = _check_demands(c, demands)
    if (r < 0).any():
        raise ValueError("demands must be nonnegative")
    return _Market(scenario).gain(c, r)


def optimal_demand(scenario: FogScenario, prices: Sequence[float]) -> np.ndarray:
    """Budget-saturating demand split.

    Node m receives ``budget * weight_m / (price_m * total_weight)``: the
    unique maximizer of the log-benefit among allocations spending the
    budget exactly.
    """
    return _Market(scenario).demand(_check_prices(scenario, prices))


@dataclass(frozen=True, eq=False)
class NegotiationTrace:
    """Complete record of one negotiation run, one row per round.

    ``prices`` (in force), ``demands`` (executed) and ``gains`` are read-only
    (rounds x nodes) arrays and ``utilities`` holds the user's utility per
    round.  ``rounds`` numbers the rows from 1.
    """

    scenario: FogScenario
    price_rule: PriceRule
    seed: int
    prices: np.ndarray
    demands: np.ndarray
    gains: np.ndarray
    utilities: np.ndarray
    converged: bool
    convergence_round: int | None

    def __post_init__(self) -> None:
        for name in ("prices", "demands", "gains", "utilities"):
            array = np.array(getattr(self, name), dtype=float)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        shape = (len(self.utilities), self.scenario.num_nodes)
        if not self.prices.shape == self.demands.shape == self.gains.shape == shape:
            raise ValueError("prices, demands and gains must be (rounds x nodes)")

    @property
    def rounds(self) -> range:
        return range(1, len(self.utilities) + 1)


def _averager(scenario: FogScenario) -> Callable[[np.ndarray, int], np.ndarray]:
    """What an actor executes in round ``count``: its sample, or a mean.

    With two or more nodes a running sum over the count equals NumPy's mean
    of the stacked samples bit for bit (NumPy adds them row by row); one
    node's (t x 1) stack is summed pairwise, so it, like a window, takes the
    mean of a row slice.
    """
    if not scenario.averaging:
        return lambda sample, count: sample
    window = scenario.averaging_window
    if window is None and scenario.num_nodes >= 2:
        total = np.zeros(scenario.num_nodes)

        def running_mean(sample: np.ndarray, count: int) -> np.ndarray:
            np.add(total, sample, out=total)
            return total / count

        return running_mean
    samples = np.empty((scenario.max_rounds, scenario.num_nodes))

    def slice_mean(sample: np.ndarray, count: int) -> np.ndarray:
        samples[count - 1] = sample
        start = 0 if window is None else max(0, count - window)
        return np.mean(samples[start:count], axis=0)

    return slice_mean


def run_negotiation(
    scenario: FogScenario,
    price_rule: PriceRule = "gradient_ascent",
    seed: int = 0,
) -> NegotiationTrace:
    """Run the negotiation loop until convergence or ``max_rounds``.

    Round structure: the user best-responds to the prices in force, then
    every node computes its next price.  With noise on, each response is
    multiplied by ``1 + u`` with u uniform on ``±noise_level``, one draw per
    node: first a vector for the demands, then one for the prices.  With
    averaging on, each actor executes the mean of its own noisy responses
    (all of them, or the last ``averaging_window``) instead of the latest
    sample.  Executed prices are projected onto ``[floor, cap]``; executed
    demands are floored at ``DEMAND_FLOOR``.

    Convergence at round t means every price and demand changed by less
    than ``convergence_tol`` (relative) between consecutive rounds across
    the whole trailing window ``[t - convergence_window + 1, t]``.

    ``FogScenario`` has validated the inputs and projection keeps prices in
    range, so each round checks only for overflow.  Output is a pure
    function of ``(scenario, price_rule, seed)``.
    """
    if price_rule not in PRICE_RULES:
        raise ValueError(f"unknown price rule {price_rule!r}")
    k = _Market(scenario)
    m, rho = scenario.num_nodes, scenario.noise_level
    tol, window = scenario.convergence_tol, scenario.convergence_window
    gradient = price_rule == "gradient_ascent"
    executed_demand, executed_price = _averager(scenario), _averager(scenario)
    # Noise factors of round t + 1: row 0 for the demands, row 1 for the
    # prices.  One block draw consumes the stream like per-round vector draws,
    # and without noise every factor is exactly 1.
    rng = np.random.default_rng(seed)
    noise = 1.0 + rng.uniform(-rho, rho, size=(scenario.max_rounds, 2, m))

    # Row t holds the prices in force and the executed demands of round t + 1.
    state = np.empty((scenario.max_rounds, 2, m))
    state[0, 0] = scenario.initial_prices
    intended = state[0, 0].copy()  # node-side pre-noise adaptation state
    previous = intended_gain = None
    quiet, converged = 0, False

    for t in range(scenario.max_rounds):
        c, r = state[t]
        sample = k.demand(c) * noise[t, 0]
        np.maximum(executed_demand(sample, t + 1), DEMAND_FLOOR, out=r)
        if not np.isfinite(r).all():
            # a price that is not finite makes its demand not finite too
            if not np.isfinite(c).all():
                raise ValueError("prices must be finite and >= price_floors")
            raise ValueError("demands must be finite")

        if t:
            last = state[t - 1]
            change = np.abs(state[t] - last) / np.maximum(np.abs(last), 1e-12)
            quiet = quiet + 1 if change.max() < tol else 0
        converged = t + 1 >= window and quiet >= window - 1
        if converged or t + 1 == scenario.max_rounds:
            break

        if not gradient:
            # foc_root: under r(c) = B w / (c W) the gain's slope
            # r (1 - kappa (c - f) / c) >= r f / c > 0, so the root is the cap
            intended = k.caps
        else:
            gain = k.gain(intended, r)
            if intended_gain is None:
                following = k.project(intended + k.probe)
            else:
                following = k.gradient_step(intended, previous, gain - intended_gain)
            previous, intended, intended_gain = intended, following, gain
        k.project(executed_price(intended * noise[t, 1], t + 1), out=state[t + 1, 0])

    prices, demands = state[: t + 1, 0], state[: t + 1, 1]
    return NegotiationTrace(
        scenario=scenario,
        price_rule=price_rule,
        seed=seed,
        prices=prices,
        demands=demands,
        gains=k.gain(prices, demands),
        utilities=k.utility(prices, demands),
        converged=converged,
        convergence_round=t + 1 if converged else None,
    )


@dataclass(frozen=True)
class ConfigMetrics:
    """Aggregates for one (noise_level, averaging) configuration."""

    noise_level: float
    averaging: bool
    num_traces: int
    convergence_rate: float
    mean_convergence_round: float | None
    mean_final_user_utility: float
    mean_final_fog_gain_total: float
    mean_instability_index: float


def instability_index(trace: NegotiationTrace) -> float:
    """Mean over nodes of std/mean of price over the trailing window."""
    prices = trace.prices[-trace.scenario.convergence_window :]
    ratio = prices.std(axis=0, ddof=0) / prices.mean(axis=0)
    return float(ratio.mean())


def compute_metrics(traces: Iterable[NegotiationTrace]) -> tuple[ConfigMetrics, ...]:
    """Group traces by (noise_level, averaging) and aggregate final behavior,
    one :class:`ConfigMetrics` per group in sorted order."""
    batch = list(traces)
    if not batch:
        raise ValueError("compute_metrics needs at least one trace")
    groups: dict[tuple[float, bool], list[NegotiationTrace]] = {}
    for trace in batch:
        key = (trace.scenario.noise_level, trace.scenario.averaging)
        groups.setdefault(key, []).append(trace)

    configs = []
    for (rho, averaging) in sorted(groups, key=lambda k: (k[0], k[1])):
        members = groups[(rho, averaging)]
        rounds_converged = [t.convergence_round for t in members if t.converged]
        configs.append(
            ConfigMetrics(
                noise_level=rho,
                averaging=averaging,
                num_traces=len(members),
                convergence_rate=sum(t.converged for t in members) / len(members),
                mean_convergence_round=(
                    fmean(rounds_converged) if rounds_converged else None
                ),
                mean_final_user_utility=fmean(
                    float(t.utilities[-1]) for t in members
                ),
                mean_final_fog_gain_total=fmean(
                    sum(t.gains[-1].tolist()) for t in members
                ),
                mean_instability_index=fmean(instability_index(t) for t in members),
            )
        )
    return tuple(configs)


TRACE_COLUMNS = ("round", "node_id", "price", "demand", "user_utility", "fog_gain")


def write_trace_csv(trace: NegotiationTrace, path: str | Path) -> None:
    """One row per node per round; the user utility is repeated per round.

    The ``fog_gain`` column reads ``np.float64(x)``, the repr of a NumPy
    scalar under NumPy 2, which earlier releases wrote.  It is spelled from
    plain floats on purpose: ``f"np.float64({x!r})"`` equals
    ``repr(np.float64(x))`` for every float64, and the trace bytes are
    pinned, so the spelling stays until the reference digests are
    re-recorded.
    """
    lines = [",".join(TRACE_COLUMNS)]
    nodes = range(trace.scenario.num_nodes)
    for t, prices, demands, utility, gains in zip(
        trace.rounds,
        trace.prices.tolist(),
        trace.demands.tolist(),
        trace.utilities.tolist(),
        trace.gains.tolist(),
    ):
        utility = repr(utility)
        lines.extend(
            f"{t},{i},{prices[i]!r},{demands[i]!r},{utility},np.float64({gains[i]!r})"
            for i in nodes
        )
    lines.append("")
    with open(path, "w", newline="") as handle:
        handle.write("\r\n".join(lines))
