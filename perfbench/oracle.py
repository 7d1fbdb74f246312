"""Independent NumPy re-derivations of the outputs the benchmark checks.

Nothing here imports foggame, so a check that passes is evidence about the
program rather than the program agreeing with itself.  Each function follows
the definition in the matching foggame docstring; contractions use
``np.einsum`` instead of the library's ``tensordot`` chains.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

TIE_TOL = 1e-9


def game_tensor(record: dict) -> np.ndarray:
    """Payoff tensor of shape (players, *action_counts) from a game record."""
    counts = tuple(int(n) for n in record["action_counts"])
    return np.stack(
        [
            np.asarray(record["payoffs"][str(p)], dtype=float).reshape(counts)
            for p in range(len(counts))
        ]
    )


def eu_vector(payoffs: np.ndarray, player: int, profile) -> np.ndarray:
    """Expected utility of each of ``player``'s actions against ``profile``."""
    n = payoffs.shape[0]
    axes = "abcdefgh"[:n]
    others = [j for j in range(n) if j != player]
    subscripts = axes + "".join("," + axes[j] for j in others) + "->" + axes[player]
    return np.einsum(subscripts, payoffs[player], *(profile[j] for j in others))


def softmax(u: np.ndarray, precision: float) -> np.ndarray:
    z = precision * u
    w = np.exp(z - z.max())
    return w / w.sum()


def uniform_profile(payoffs: np.ndarray) -> list[np.ndarray]:
    return [np.full(n, 1.0 / n) for n in payoffs.shape[1:]]


def best_response(payoffs: np.ndarray, player: int, profile) -> np.ndarray:
    """Uniform mix over actions within TIE_TOL of the best expected utility."""
    u = eu_vector(payoffs, player, profile)
    support = (u >= u.max() - TIE_TOL).astype(float)
    return support / support.sum()


def _respond(payoffs, player, profile, response, precision):
    if response == "exact_br":
        return best_response(payoffs, player, profile)
    return softmax(eu_vector(payoffs, player, profile), precision)


def pure_nash(payoffs: np.ndarray) -> list[tuple[int, ...]]:
    """Pure profiles where no unilateral deviation gains more than TIE_TOL."""
    n = payoffs.shape[0]
    found = []
    for profile in itertools.product(*(range(k) for k in payoffs.shape[1:])):
        stable = True
        for p in range(n):
            line = list(profile)
            line[p] = slice(None)
            if payoffs[(p, *line)].max() > payoffs[(p, *profile)] + TIE_TOL:
                stable = False
                break
        if stable:
            found.append(profile)
    return found


def level_k(payoffs, player, weights, response, precision) -> np.ndarray:
    levels = [uniform_profile(payoffs)]
    for _ in range(len(weights) - 1):
        prev = levels[-1]
        levels.append(
            [_respond(payoffs, p, prev, response, precision) for p in range(len(prev))]
        )
    return sum(w * profile[player] for w, profile in zip(weights, levels))


def cognitive_hierarchy(payoffs, player, mean, max_level, response, precision):
    logs = np.array([k * math.log(mean) - math.lgamma(k + 1) for k in range(max_level + 1)])
    pmf = np.exp(logs - logs.max())
    pmf /= pmf.sum()
    levels = [uniform_profile(payoffs)]
    for k in range(1, max_level + 1):
        share = pmf[:k] / pmf[:k].sum()
        mix = [
            sum(s * levels[i][p] for i, s in enumerate(share))
            for p in range(payoffs.shape[0])
        ]
        levels.append(
            [_respond(payoffs, p, mix, response, precision) for p in range(len(mix))]
        )
    return levels[max_level][player]


def noisy_introspection(payoffs, player, precision, decay, max_depth):
    profile = uniform_profile(payoffs)
    for depth in range(max_depth - 1, -1, -1):
        lam = precision * decay**depth
        profile = [
            softmax(eu_vector(payoffs, p, profile), lam) for p in range(len(profile))
        ]
    return profile[player]


def epsilon_nash(payoffs, player, epsilon) -> np.ndarray:
    """The ``no_nash_fallback="uniform"`` variant."""
    n = payoffs.shape[1 + player]
    equilibria = pure_nash(payoffs)
    if not equilibria:
        return np.full(n, 1.0 / n)
    if n == 1:
        return np.ones(1)
    w = np.full(n, epsilon / (n - 1))
    w[equilibria[0][player]] = 1.0 - epsilon
    return w


def social_transform(payoffs: np.ndarray, blocks: list[dict]) -> np.ndarray:
    """Every cell's payoff vector recomposed from each player's social view."""
    n = payoffs.shape[0]
    if len(blocks) == 1:
        blocks = blocks * n
    total = payoffs.sum(axis=0)
    top = payoffs.max(axis=0)
    out = np.empty_like(payoffs)
    for p, b in enumerate(blocks):
        if b.get("inequity_metric", "range") == "range":
            inequity = top - payoffs.min(axis=0)
        else:
            inequity = np.abs(payoffs - payoffs.mean(axis=0)).mean(axis=0)
        own = payoffs[p]
        out[p] = (
            b.get("selfish_weight", 1.0) * own
            + b.get("altruism_weight", 0.0) * (total - own)
            - b.get("inequity_weight", 0.0) * inequity
            - b.get("envy_weight", 0.0) * np.maximum(0.0, top - own)
        )
    return out


def predict(payoffs: np.ndarray, model: dict) -> list[np.ndarray]:
    """Every player's predicted strategy for a tagged model block."""
    tag, params = model["model"], model.get("params", {})
    players = range(payoffs.shape[0])
    if tag == "best_response":
        uniform = uniform_profile(payoffs)
        return [best_response(payoffs, p, uniform) for p in players]
    if tag == "epsilon_nash":
        return [epsilon_nash(payoffs, p, params["epsilon"]) for p in players]
    if tag == "level_k":
        return [
            level_k(payoffs, p, params["level_weights"], params.get("response", "exact_br"),
                    params.get("precision"))
            for p in players
        ]
    if tag == "cognitive_hierarchy":
        return [
            cognitive_hierarchy(payoffs, p, params["poisson_mean"], params["max_level"],
                                params.get("response", "exact_br"), params.get("precision"))
            for p in players
        ]
    if tag == "noisy_introspection":
        return [
            noisy_introspection(payoffs, p, params["precision"], params["decay"],
                                params["max_depth"])
            for p in players
        ]
    raise ValueError(f"no oracle for model {tag!r}")


def qre_residual(payoffs: np.ndarray, strategies, precision: float) -> float:
    """max |sigma - logit response(sigma)| over every player and action."""
    profile = [np.asarray(s, dtype=float) for s in strategies]
    return max(
        float(np.max(np.abs(profile[p] - softmax(eu_vector(payoffs, p, profile), precision))))
        for p in range(len(profile))
    )


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def qre_2x2_all(payoffs: np.ndarray, precision: float, grid_points: int = 20_001) -> list[list[np.ndarray]]:
    """Every logit QRE of a 2x2 game, found as roots of a 1-D map.

    With p and q the probabilities of action 0, a fixed point satisfies
    ``p = s(lam * d_row(q(p)))`` where ``q(p) = s(lam * d_col(p))``; the
    left-hand side minus p is positive at 0 and negative at 1, so its sign
    changes on a fine grid bracket every simple root.
    """
    u0, u1 = payoffs[0], payoffs[1]

    def q_of(p):
        return _sigmoid(precision * ((u1[0, 0] - u1[0, 1]) * p + (u1[1, 0] - u1[1, 1]) * (1 - p)))

    def gap(p):
        q = q_of(p)
        return _sigmoid(precision * ((u0[0, 0] - u0[1, 0]) * q + (u0[0, 1] - u0[1, 1]) * (1 - q))) - p

    grid = np.linspace(0.0, 1.0, grid_points)
    values = gap(grid)
    found = []
    for i in np.flatnonzero(np.sign(values[:-1]) != np.sign(values[1:])):
        lo, hi = grid[i], grid[i + 1]
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            if np.sign(gap(mid)) == np.sign(values[i]):
                lo = mid
            else:
                hi = mid
        p = 0.5 * (lo + hi)
        q = float(q_of(p))
        found.append([np.array([p, 1.0 - p]), np.array([q, 1.0 - q])])
    return found


def qre_2x2_principal(payoffs: np.ndarray, precision: float, steps: int = 20) -> list[np.ndarray]:
    """The logit QRE on the branch that starts at uniform play when lam = 0.

    Follows the branch by raising the precision in ``steps`` steps and taking
    the equilibrium nearest the previous one each time.
    """
    current = [np.array([0.5, 0.5]), np.array([0.5, 0.5])]
    for lam in np.linspace(0.0, precision, steps + 1)[1:]:
        candidates = qre_2x2_all(payoffs, lam, grid_points=2_001)
        current = min(candidates, key=lambda eq: abs(eq[0][0] - current[0][0]) + abs(eq[1][0] - current[1][0]))
    return current


def prospect_value(outcomes, probs, params: dict) -> float:
    """Prospect-theory value of a lottery (power value, one-parameter weights)."""
    alpha = params.get("gain_curvature", 0.88)
    beta = params.get("loss_curvature", 0.88)
    loss_aversion = params.get("loss_aversion", 2.25)
    gamma = params.get("weight_curvature", 0.61)
    reference = params.get("reference", 0.0)
    total = 0.0
    for x, p in zip(outcomes, probs):
        g = x - reference
        value = g**alpha if g >= 0 else -loss_aversion * (-g) ** beta
        weight = p**gamma / (p**gamma + (1.0 - p) ** gamma) ** (1.0 / gamma)
        total += weight * value
    return total
