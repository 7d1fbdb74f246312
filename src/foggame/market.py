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

The (noise level, averaging, seed) cells of a simulate run advance together
in one stacked kernel, and each cell gets the bits it would get alone;
``run_negotiation`` is a batch of one.  Once a step leaves every intended
price where it was, the slope is 0 and no price moves again, so from there
the kernel runs a block of rounds at a time, bit for bit as round by round.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from statistics import fmean
from typing import Annotated, Iterable, Iterator, Literal, Sequence, get_args

import numpy as np

from .schema import Finite, Range, check_fields

__all__ = [
    "DEMAND_FLOOR", "FogScenario", "NegotiationTrace", "compute_metrics", "default_scenario",
    "fog_gain", "optimal_demand", "run_negotiation", "user_utility", "write_trace_csv",
]

# Noisy demands are floored here so log-utility stays defined.
DEMAND_FLOOR = 1e-9
# The cap on max_rounds, so a cell that never converges stops.  On a 2-core
# Xeon 10^6 rounds take 1.5 s once the prices stop moving (the default
# market at noise 0.1: after 20 rounds), and about 25 s if they never do.
ROUND_LIMIT = 10**6
# The cap on num_nodes.  On a 2-core Xeon a noisy 2000-round cell of 1000
# nodes runs in 0.2-0.3 s and writes a 190 MB trace CSV in 6.5 s; the CSV
# grows linearly with the nodes (0.7 MB at 4).
NODE_LIMIT = 1000

Positive = Annotated[float, Range(gt=0)]
# A noise level, shared by the scenario and a simulate run's noise sweep.
NoiseLevel = Annotated[float, Range(ge=0, lt=1)]
Margin = Annotated[float, Range(gt=0, le=1)]

PriceRule = Literal["gradient_ascent", "foc_root"]
PRICE_RULES = get_args(PriceRule)


def _broadcast(value: tuple[float, ...] | float, n: int, name: str) -> tuple[float, ...]:
    vec = (value,) * n if isinstance(value, float) else value
    if len(vec) != n:
        raise ValueError(f"{name} must have length {n}, got {len(vec)}")
    return vec


@dataclass(frozen=True)
class FogScenario:
    """Market constants plus loop controls for one negotiation.

    Per-node fields accept a scalar (broadcast to all nodes) or a list,
    tuple or array of length ``num_nodes``.  ``initial_prices`` defaults to
    the price floors; ``price_caps`` defaults to ten times the floors.  With
    ``averaging`` on, ``averaging_window`` limits the mean to the last so
    many responses; ``None`` keeps the default cumulative mean over the
    whole run.  ``num_nodes`` is at most ``NODE_LIMIT`` and ``max_rounds`` at
    most ``ROUND_LIMIT``.
    """

    num_nodes: Annotated[int, Range(ge=1, le=NODE_LIMIT)]
    budget: Positive
    utility_scale: Positive = 1.0
    utility_weights: tuple[Positive, ...] | Positive = 1.0
    quality_factors: tuple[Positive, ...] | Positive = 1.0
    price_floors: tuple[Positive, ...] | Positive = 1.0
    margin_factors: tuple[Margin, ...] | Margin = 0.5
    initial_prices: tuple[Finite, ...] | Finite | None = None
    price_caps: tuple[Finite, ...] | Finite | None = None
    step_size: Positive = 8.0
    noise_level: NoiseLevel = 0.0
    averaging: bool = False
    averaging_window: Annotated[int, Range(ge=1)] | None = None
    max_rounds: Annotated[int, Range(ge=1, le=ROUND_LIMIT)] = 2000
    convergence_tol: Positive = 1e-4
    convergence_window: Annotated[int, Range(ge=2)] = 20

    def __post_init__(self) -> None:
        check_fields(self)
        m = self.num_nodes
        weights = _broadcast(self.utility_weights, m, "utility_weights")
        quality = _broadcast(self.quality_factors, m, "quality_factors")
        floors = _broadcast(self.price_floors, m, "price_floors")
        margins = _broadcast(self.margin_factors, m, "margin_factors")

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
    arrays; the public functions below validate, then call them.  With
    ``cells``, each per-node constant is tiled to (cells x nodes), so the
    stacked kernel's operands share one contiguous shape and every ufunc
    takes NumPy's fast path.
    """

    def __init__(self, s: FogScenario, cells: int | None = None):
        def per_node(values) -> np.ndarray:
            vec = np.asarray(values)
            return vec if cells is None else np.tile(vec, (cells, 1))

        self.floors, self.caps = per_node(s.price_floors), per_node(s.price_caps)
        self.alpha = per_node(s.utility_weights)
        self.beta = per_node(s.quality_factors)
        self.kappa, self.scale = per_node(s.margin_factors), s.utility_scale
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
    round.  ``rounds`` numbers the rows from 1.  An array is kept as given
    only when it and every array it views are read-only; any other is
    copied, so no caller can change a trace.
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
            array = base = np.asarray(getattr(self, name), dtype=float)
            while isinstance(base, np.ndarray) and not base.flags.writeable:
                base = base.base
            if base is not None:
                array = array.copy()
                array.flags.writeable = False
            object.__setattr__(self, name, array)
        shape = (len(self.utilities), self.scenario.num_nodes)
        if not self.prices.shape == self.demands.shape == self.gains.shape == shape:
            raise ValueError("prices, demands and gains must be (rounds x nodes)")

    @property
    def rounds(self) -> range:
        return range(1, len(self.utilities) + 1)


# Rounds per noise draw, and the most rounds the kernel runs before it
# settles them.  Blocks start shorter and double, so that a cell that
# converges early runs few rounds past its end.
_BLOCK_ROUNDS = 64
_FIRST_BLOCK_ROUNDS = 16


def _negotiate(
    scenario: FogScenario,
    cells: Sequence[tuple[float, bool, int]],
    price_rule: PriceRule,
) -> Iterator[tuple[int, NegotiationTrace | ValueError]]:
    """Run the (noise_level, averaging, seed) cells of one scenario together.

    The live cells advance on one stacked (actor x cells x nodes) state, and
    every operation is elementwise per cell, so each cell gets the bits it
    would get alone.  A cell draws its noise from its own
    ``default_rng(seed)`` one block of rounds at a time, which consumes the
    stream like one whole-run draw.

    Rounds run one at a time until the stack is frozen: the last step left
    every live cell's intended (pre-noise) prices exactly where they were,
    or the rule is ``foc_root``, whose intended prices are the caps.  That
    is for good: the price change is then 0, so the slope is 0 and
    ``project(x + step * 0.0)`` returns x.  A frozen block's rows run at
    once: the price samples and their executed means, then the demands'.
    These are the per-round operations on more rows, so no bit changes:
    ``np.add.accumulate`` adds a running sum in the per-round order, and a
    window or one-node mean is still a per-row slice mean.

    The rows are settled at the end of each block, or at once when a demand
    is not finite: a cell ends at its first row with a demand that is not
    finite or at its first converged row, whichever comes first, and leaves
    the stack with its own rows.  So a cell runs at most one block past its
    convergence and not one round past an overflow, and memory follows the
    rounds actually run.  As each cell ends, yields its index in ``cells``
    and its trace or the ``ValueError`` that ended it; the caller may drop
    the trace before the next cell ends.
    """
    if price_rule not in PRICE_RULES:
        raise ValueError(f"unknown price rule {price_rule!r}")
    scenarios = [
        dataclasses.replace(scenario, noise_level=rho, averaging=averaging)
        for rho, averaging, _ in cells
    ]
    rngs = [np.random.default_rng(seed) for _, _, seed in cells]

    n, m, rounds = len(cells), scenario.num_nodes, scenario.max_rounds
    k, stacked = _Market(scenario), _Market(scenario, n)
    tol, window = scenario.convergence_tol, scenario.convergence_window
    gradient = price_rule == "gradient_ascent"
    averaged = np.repeat([[s.averaging] for s in scenarios], m, axis=1)
    # whether any live cell averages, and whether they differ
    averaging, mixed = bool(averaged.any()), not averaged.all()
    # With two or more nodes a running sum over the count equals NumPy's mean
    # of the stacked samples bit for bit (NumPy adds them row by row).  One
    # node's samples are summed pairwise, so it, like a window, takes the
    # mean of a slice of a (cells x rounds x nodes) buffer, which NumPy
    # reduces cell by cell exactly as it reduces one cell's own stack.
    span = scenario.averaging_window
    running = span is None and m >= 2
    totals = np.zeros((2, n, m))  # demands, prices
    samples = np.empty((2, n, 0, m))

    def executed(actor: int, sample: np.ndarray, t: int) -> np.ndarray:
        """What each cell's actor executes in rounds t + 1 .. t + len(sample),
        given its (rows x cells x nodes) samples of them: a sample, or a mean."""
        if not averaging:
            return sample
        rows = len(sample)
        if running:
            # accumulate adds the rows one by one, as the rounds would
            sums = np.add.accumulate(np.concatenate([totals[actor, None], sample]))[1:]
            totals[actor] = sums[-1]
            mean = sums / np.arange(t + 1, t + 1 + rows)[:, None, None]
        else:
            samples[actor, :, t : t + rows] = sample.swapaxes(0, 1)
            mean = np.empty_like(sample)
            for s in range(t, t + rows):
                start = 0 if span is None else max(0, s + 1 - span)
                mean[s - t] = np.mean(samples[actor, :, start : s + 1], axis=1)
        return np.where(averaged, mean, sample) if mixed else mean

    def next_prices(r, factors: np.ndarray, t: int, out=None) -> np.ndarray:
        """The prices each cell executes in rounds t + 2 .. t + 1 +
        len(factors).  Until the stack is frozen a call is one round, and r
        holds that round's executed demands."""
        nonlocal intended, previous, intended_gain, frozen
        if not frozen:
            gain = stacked.gain(intended, r)
            if intended_gain is None:
                following = stacked.project(intended + stacked.probe)
            else:
                following = stacked.gradient_step(intended, previous, gain - intended_gain)
            previous, intended, intended_gain = intended, following, gain
            # bit for bit, which is == here: live intended prices are finite, > 0
            frozen = previous.tobytes() == intended.tobytes()
        return stacked.project(executed(1, intended * factors, t), out=out)

    def demand_rows(i: int, stop: int) -> None:
        """Execute the demands of block rows i .. stop - 1, whose prices are set."""
        sample = stacked.demand(block[0, i:stop]) * noise[i:stop, 0]
        np.maximum(executed(0, sample, first + i), DEMAND_FLOOR, out=block[1, i:stop])

    def frozen_rows(i: int, stop: int) -> int:
        """Run frozen block rows i .. stop - 1 at once, row i's prices set.
        Returns the last row run: stop - 1, or the first row whose demand is
        not finite."""
        sums_before = totals.copy()
        if stop > i + 1:
            next_prices(None, noise[i : stop - 1, 1], first + i, out=block[0, i + 1 : stop])
        demand_rows(i, stop)
        bad = ~np.isfinite(block[1, i:stop]).all(axis=(1, 2))
        if not bad[:-1].any():
            return stop - 1
        # the rows after that one never ran: run up to it again from the
        # running sums it started from
        totals[:] = sums_before
        return frozen_rows(i, i + int(bad.argmax()) + 1)

    def finished(j: int, last: np.ndarray, row: int, converged: bool):
        state = np.concatenate(records[j] + [last], axis=1)  # its own (2 x rows x nodes)
        records[j] = []
        state.flags.writeable = False
        prices, demands = state
        return NegotiationTrace(
            scenario=scenarios[j],
            price_rule=price_rule,
            seed=cells[j][2],
            prices=prices,
            demands=demands,
            gains=k.gain(prices, demands),
            utilities=k.utility(prices, demands),
            converged=converged,
            convergence_round=row + 1 if converged else None,
        )

    live = np.arange(n)  # the cells still running, in stacking order
    records: list[list[np.ndarray]] = [[] for _ in cells]  # their settled rows
    upcoming = np.tile(np.asarray(scenario.initial_prices), (n, 1))
    # The node-side pre-noise adaptation state.  foc_root: under r(c) =
    # B w / (c W) the gain's slope r (1 - kappa (c - f) / c) >= r f / c > 0,
    # so the root is the cap, from the first step on.
    intended = upcoming.copy() if gradient else stacked.caps
    previous = intended_gain = None
    frozen = not gradient  # whether no live cell's intended prices move again
    noise = np.empty((0, 2, n, m))
    # The row before the block.  Row 0 has none, and whether it counts as
    # quiet does not matter: it is each cell's first moved row either way.
    before = np.ones((2, n, m))
    moved = np.zeros(n, dtype=int)  # each cell's last row that was not quiet
    first = 0  # the block's first row

    while True:
        if not len(noise):
            # Noise factors: actor 0 for the demands, actor 1 for the prices.
            # Without noise every factor is exactly 1.
            size = min(_BLOCK_ROUNDS, max(_FIRST_BLOCK_ROUNDS, first), rounds - first)
            noise = np.empty((size, 2, len(live), m))
            for p, j in enumerate(live):
                # abs: NumPy rejects uniform(0.0, -0.0), so -0.0 draws as 0.0 does
                rho = abs(scenarios[j].noise_level)
                noise[:, :, p] = rngs[j].uniform(-rho, rho, size=(size, 2, m))
            noise += 1.0
        size = len(noise)
        if averaging and not running and samples.shape[2] < first + size:
            grown = np.empty((2, len(live), min(rounds, max(first + size, 2 * first)), m))
            grown[:, :, :first] = samples[:, :, :first]
            samples = grown
        # Row first + i holds the prices in force and the executed demands of
        # round first + i + 1.
        block = np.empty((2, size, len(live), m))
        block[0, 0] = upcoming
        for i in range(size):
            if frozen:
                i = frozen_rows(i, size)
                break
            demand_rows(i, i + 1)
            if i + 1 == size or not np.isfinite(block[1, i]).all():
                break
            next_prices(block[1, i], noise[i : i + 1, 1], first + i, out=block[0, i + 1 : i + 2])
        t = first + i
        c, r = block[:, i]

        # Row t is quiet when every price and demand moved by less than the
        # tolerance since row t - 1; the cell has converged at row t once
        # rows t - window + 2 .. t are all quiet.  Only the last row can
        # hold a demand that is not finite.
        values = block[:, : i + 1]
        rows = np.arange(first, t + 1)[:, None]
        prior = np.concatenate([before[:, None], values[:, :-1]], axis=1)
        change = np.abs(values - prior) / np.maximum(np.abs(prior), 1e-12)
        quiet = change.max(axis=(0, 3)) < tol
        moved_rows = np.maximum.accumulate(np.where(quiet, moved, rows), axis=0)
        converged = (rows + 1 >= window) & (rows - moved_rows >= window - 1)
        failed = ~np.isfinite(r).all(axis=1)
        ending = converged.copy()
        ending[-1] |= failed | (t + 1 == rounds)
        ended = ending.any(axis=0)
        for p in np.flatnonzero(ended):
            j, row = int(live[p]), int(ending[:, p].argmax())
            if row == i and failed[p]:
                records[j] = []
                # a price that is not finite makes its demand not finite too
                yield j, ValueError("demands must be finite" if np.isfinite(c[p]).all()
                                    else "prices must be finite and >= price_floors")
            else:
                yield j, finished(j, values[:, : row + 1, p], first + row, bool(converged[row, p]))

        keep = np.flatnonzero(~ended)
        if not keep.size:
            return
        for p in keep:
            records[live[p]].append(values[:, :, p].copy())
        before, moved = values[:, -1], moved_rows[-1]
        if keep.size < len(live):
            live, stacked = live[keep], _Market(scenario, keep.size)
            averaged, moved, before = averaged[keep], moved[keep], before[:, keep]
            averaging, mixed = bool(averaged.any()), not averaged.all()
            totals, samples = totals[:, keep], samples[:, keep]
            noise, r, intended = noise[:, :, keep], r[keep], intended[keep]
            if intended_gain is not None:
                previous, intended_gain = previous[keep], intended_gain[keep]
        upcoming = next_prices(r, noise[i : i + 1, 1], t)[0]
        noise, first = noise[i + 1 :], t + 1


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
    range, so the loop checks only for overflow.  This is a batch of one
    cell of the simulate kernel.  Output is a pure function of
    ``(scenario, price_rule, seed)``.
    """
    cell = (scenario.noise_level, scenario.averaging, seed)
    ((_, outcome),) = _negotiate(scenario, [cell], price_rule)
    if isinstance(outcome, ValueError):
        raise outcome
    return outcome


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
    one :class:`ConfigMetrics` per group in sorted order.  Each trace is read
    once, as it arrives, down to the five numbers aggregated; ``fmean`` sums
    exactly, so the order of the traces changes no bit."""
    groups: dict[tuple[float, bool], list[tuple]] = {}
    for t in traces:
        key = (t.scenario.noise_level, t.scenario.averaging)
        groups.setdefault(key, []).append((
            t.converged, t.convergence_round, float(t.utilities[-1]),
            sum(t.gains[-1].tolist()), instability_index(t),
        ))
    if not groups:
        raise ValueError("compute_metrics needs at least one trace")

    configs = []
    for (rho, averaging) in sorted(groups):
        converged, rounds, utilities, gains, instability = zip(*groups[(rho, averaging)])
        rounds_converged = [r for c, r in zip(converged, rounds) if c]
        configs.append(
            ConfigMetrics(
                noise_level=rho,
                averaging=averaging,
                num_traces=len(converged),
                convergence_rate=sum(converged) / len(converged),
                mean_convergence_round=fmean(rounds_converged) if rounds_converged else None,
                mean_final_user_utility=fmean(utilities),
                mean_final_fog_gain_total=fmean(gains),
                mean_instability_index=fmean(instability),
            )
        )
    return tuple(configs)


TRACE_COLUMNS = ("round", "node_id", "price", "demand", "user_utility", "fog_gain")
# Rounds per write of a trace CSV.
_CSV_ROUNDS = 64


def write_trace_csv(trace: NegotiationTrace, path: str | Path) -> None:
    """One row per node per round; the user utility is repeated per round.

    The ``fog_gain`` column reads ``np.float64(x)``, the repr of a NumPy
    scalar under NumPy 2, which earlier releases wrote.  It is spelled from
    plain floats on purpose: ``f"np.float64({x!r})"`` equals
    ``repr(np.float64(x))`` for every float64, and the trace bytes are
    pinned, so the spelling stays until the reference digests are
    re-recorded.
    """
    m = trace.scenario.num_nodes
    with open(path, "w", newline="") as handle:
        handle.write(",".join(TRACE_COLUMNS) + "\r\n")
        # a few rounds at a time, so the text of the whole trace is never
        # held at once: one repr pass per column, then one format per row
        for first in range(0, len(trace.utilities), _CSV_ROUNDS):
            block = slice(first, first + _CSV_ROUNDS)
            rows = zip(
                [f"{t},{i}" for t in trace.rounds[block] for i in range(m)],
                map(repr, trace.prices[block].ravel().tolist()),
                map(repr, trace.demands[block].ravel().tolist()),
                [u for u in map(repr, trace.utilities[block].tolist()) for _ in range(m)],
                map(repr, trace.gains[block].ravel().tolist()),
            )
            handle.write(
                "".join(f"{key},{c},{r},{u},np.float64({g})\r\n" for key, c, r, u, g in rows)
            )
