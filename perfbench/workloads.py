"""Seeded inputs for the three benchmark workloads.

Batch ``k`` of a workload draws only from
``np.random.default_rng([seed, WORKLOAD_IDS[name], k])``, so the same seed
gives the same files byte for byte, and a longer run only appends batches to
a shorter one.  Nothing here imports foggame: the inputs never depend on the
code under test.  Paths inside configs are relative to the checkout root,
which is where the workload processes run.

A batch is the workload's stated input size and a list of operations; each
operation is one ``foggame <mode> <config>`` invocation (see ``command``).
"""

from __future__ import annotations

import json
from collections import Counter
from pathlib import Path

import numpy as np

import oracle

WORKLOAD_IDS = {"sweep": 1, "fit_qbr": 2, "predict_mix": 3}

# Nominal seconds one batch takes at the commit that defined the benchmark,
# on a 2-core machine; used only to size a run to ``--seconds``.
NOMINAL_BATCH_S = {"sweep": 2.3, "fit_qbr": 1.25, "predict_mix": 0.14}
MIN_BATCHES = 4

SWEEP_NOISE = [0.0, 0.05, 0.1]
SWEEP_AVERAGING = [False, True]
SWEEP_SEEDS_PER_BATCH = 1
FOC_NOISE = [0.0, 0.05]
FOC_WINDOW = 10
FOC_MAX_ROUNDS = 300

FIT_GAMES = 20  # shaped like data/qbr_lambda2.jsonl: 20 games and 1000 rows,
FIT_ROWS = 1000  # 25 rows per (game, player) cell on average
FIT_PRECISION = 2.0
# 18 evaluations a fit over the shipped bounds [0, 10].  Fits of 20 random
# games differ threefold in cost, so a run needs many of them for its median
# and p90 to repeat across seeds: a short search fits 16 datasets in a run.
FIT_SEARCH = {"grid_points": 6, "refine_iters": 2}

LOTTERY_EVERY = 20  # request g is a prospect-lottery request when g % 20 == 19
PREDICT_VARIANTS = (
    "best_response",
    "epsilon_nash",
    "logit_qbr",
    "level_k/exact_br",
    "level_k/qbr",
    "cognitive_hierarchy",
    "noisy_introspection",
)
# One request of each variant per batch (a lottery request replaces one now
# and then), so batches carry comparable work.
PREDICT_REQUESTS_PER_BATCH = len(PREDICT_VARIANTS)


def batch_count(workload: str, seconds: float) -> int:
    return max(MIN_BATCHES, round(seconds / NOMINAL_BATCH_S[workload]))


def _write_json(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return str(path)


def _game_record(payoffs: np.ndarray) -> dict:
    return {
        "action_counts": list(payoffs.shape[1:]),
        "payoffs": {str(p): [float(x) for x in payoffs[p].ravel()] for p in range(payoffs.shape[0])},
    }


def command(op: dict, outputs: Path) -> list[str]:
    """The ``foggame`` arguments of an operation writing under ``outputs``."""
    return op["argv"] + (["--out", str(outputs / op["out"])] if op.get("out") else [])


def _sweep_batch(rng, k: int, inputs: Path) -> dict:
    seeds = [int(s) for s in rng.integers(0, 2**31 - 1, size=SWEEP_SEEDS_PER_BATCH)]
    foc_seed = int(rng.integers(0, 2**31 - 1))
    gradient = {
        "scenario": {"preset": "default"},
        "experiment": {
            "mode": "simulate",
            "seeds": seeds,
            "noise_sweep": SWEEP_NOISE,
            "averaging_sweep": SWEEP_AVERAGING,
        },
    }
    foc = {
        "scenario": {"preset": "default", "averaging_window": FOC_WINDOW,
                     "max_rounds": FOC_MAX_ROUNDS},
        "experiment": {
            "mode": "simulate",
            "seeds": [foc_seed],
            "noise_sweep": FOC_NOISE,
            "averaging_sweep": [True],
            "price_rule": "foc_root",
        },
    }
    cells = len(SWEEP_NOISE) * len(SWEEP_AVERAGING) * len(seeds)
    ops = []
    for name, config, count in (("gradient", gradient, cells), ("foc_root", foc, len(FOC_NOISE))):
        path = _write_json(inputs / f"b{k:03d}_{name}.json", config)
        ops.append({"id": f"b{k:03d}/{name}", "cells": count, "argv": ["simulate", path],
                    "out": f"b{k:03d}/{name}"})
    return {"ops": ops, "out": f"b{k:03d}", "cells": cells, "foc_cells": len(FOC_NOISE)}


def _fit_batch(rng, k: int, inputs: Path) -> dict:
    games = [rng.uniform(-5.0, 5.0, size=(2, 2, 2)) for _ in range(FIT_GAMES)]
    equilibria = [oracle.qre_2x2_principal(g, FIT_PRECISION) for g in games]
    rows = []
    cells = Counter()
    for i in range(FIT_ROWS):
        g = i % FIT_GAMES
        player = int(rng.integers(2))
        action = int(rng.choice(2, p=equilibria[g][player]))
        cells[(g, player)] += 1
        rows.append(json.dumps({"game": _game_record(games[g]), "player": player, "action": action}))
    dataset = inputs / f"b{k:03d}_choices.jsonl"
    dataset.write_text("\n".join(rows) + "\n")
    config = {
        "model": {"model": "logit_qbr", "params": {}},
        "experiment": {
            "mode": "fit",
            "dataset": str(dataset),
            "bounds": [[0.0, 10.0]],
            "search": FIT_SEARCH,
        },
    }
    path = _write_json(inputs / f"b{k:03d}_fit.json", config)
    op = {"id": f"b{k:03d}/fit", "dataset": str(dataset), "argv": ["fit", path], "out": f"b{k:03d}"}
    return {"ops": [op], "out": f"b{k:03d}", "rows": FIT_ROWS, "cells": len(cells)}


def _model_block(variant: str, rng) -> dict:
    # Draw every parameter for every request so the stream stays aligned.
    epsilon = float(rng.uniform(0.05, 0.3))
    precision = float(rng.uniform(1.0, 2.0))
    weights = [float(w) for w in rng.dirichlet(np.ones(3))]
    weights[-1] = 1.0 - weights[0] - weights[1]
    mean = float(rng.uniform(1.0, 2.5))
    decay = float(rng.uniform(0.4, 0.8))
    if variant == "best_response":
        return {"model": "best_response", "params": {}}
    if variant == "epsilon_nash":
        return {"model": "epsilon_nash", "params": {"epsilon": epsilon, "no_nash_fallback": "uniform"}}
    if variant == "logit_qbr":
        return {"model": "logit_qbr", "params": {"precision": precision}}
    if variant == "level_k/exact_br":
        return {"model": "level_k", "params": {"level_weights": weights, "level0": "uniform", "response": "exact_br"}}
    if variant == "level_k/qbr":
        return {"model": "level_k", "params": {"level_weights": weights, "level0": "uniform",
                                               "response": "qbr", "precision": precision}}
    if variant == "cognitive_hierarchy":
        return {"model": "cognitive_hierarchy", "params": {"poisson_mean": mean, "max_level": 3,
                                                           "level0": "uniform", "response": "exact_br"}}
    return {"model": "noisy_introspection", "params": {"precision": precision, "decay": decay, "max_depth": 4}}


def _predict_request(rng, g: int, inputs: Path) -> dict:
    players = int(rng.integers(2, 4))
    counts = tuple(int(n) for n in rng.integers(2, 6 if players == 2 else 5, size=players))
    payoffs = rng.uniform(-5.0, 5.0, size=(players,) + counts)
    social = {
        "selfish_weight": 1.0,
        "altruism_weight": float(rng.uniform(0.0, 0.5)),
        "inequity_weight": float(rng.uniform(0.0, 0.5)),
        "envy_weight": float(rng.uniform(0.0, 0.5)),
        "inequity_metric": ("range", "mean_deviation")[int(rng.integers(2))],
    }
    with_social = bool(rng.random() < 0.5)
    variant = PREDICT_VARIANTS[g % len(PREDICT_VARIANTS)]
    model = _model_block(variant, rng)
    outcomes = [float(x) for x in rng.uniform(-10.0, 10.0, size=4)]
    probs = [float(p) for p in rng.dirichlet(np.ones(4))]
    probs[-1] = 1.0 - sum(probs[:-1])
    prospect = {
        "gain_curvature": float(rng.uniform(0.5, 1.0)),
        "loss_curvature": float(rng.uniform(0.5, 1.0)),
        "loss_aversion": float(rng.uniform(1.0, 3.0)),
        "weight_curvature": float(rng.uniform(0.5, 1.0)),
        "reference": float(rng.uniform(-1.0, 1.0)),
    }
    request_id = f"r{g:05d}"
    if g % LOTTERY_EVERY == LOTTERY_EVERY - 1:
        config = {"prospect": prospect, "lottery": {"outcomes": outcomes, "probs": probs},
                  "experiment": {"mode": "predict"}}
        meta = {"kind": "lottery", "variant": "prospect", "shape": "lottery", "social": False}
    else:
        game_path = _write_json(inputs / f"{request_id}_game.json", _game_record(payoffs))
        config = {"model": model, "experiment": {"mode": "predict", "game": game_path}}
        if with_social:
            config["social"] = social
        meta = {"kind": "game", "variant": variant, "shape": "x".join(map(str, counts)),
                "social": with_social}
    path = _write_json(inputs / f"{request_id}.json", config)
    return {"id": request_id, "argv": ["predict", path], **meta}


def _predict_batch(rng, k: int, inputs: Path) -> dict:
    first = k * PREDICT_REQUESTS_PER_BATCH
    ops = [_predict_request(rng, g, inputs) for g in range(first, first + PREDICT_REQUESTS_PER_BATCH)]
    return {"ops": ops, "out": f"b{k:03d}"}


_BATCH_MAKERS = {"sweep": _sweep_batch, "fit_qbr": _fit_batch, "predict_mix": _predict_batch}


def generate(workload: str, seed: int, batches: int, work: Path) -> list[dict]:
    """Write the inputs of batches 0..batches-1 under ``work``; return them.

    ``work`` must be relative to the checkout root so that configs name
    relative paths.  Output directories in the batches are relative; see
    ``command``.
    """
    inputs = work / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    made = []
    for k in range(batches):
        rng = np.random.default_rng([seed, WORKLOAD_IDS[workload], k])
        batch = _BATCH_MAKERS[workload](rng, k, inputs)
        made.append({"index": k, **batch})
    return made


def properties(workload: str, batches: list[dict]) -> dict:
    """Measured input properties, so claims about workloads cite shares."""
    if workload == "sweep":
        cells = sum(b["cells"] for b in batches)
        foc = sum(b["foc_cells"] for b in batches)
        return {"batches": len(batches), "cells": cells + foc, "foc_root_cells": foc,
                "foc_root_cell_share": foc / (cells + foc)}
    if workload == "fit_qbr":
        rows = sum(b["rows"] for b in batches)
        cells = sum(b["cells"] for b in batches)
        return {"batches": len(batches), "rows_per_fit": FIT_ROWS, "games_per_fit": FIT_GAMES,
                "rows_per_cell": rows / cells, "search": FIT_SEARCH}
    ops = [op for b in batches for op in b["ops"]]
    games = [op for op in ops if op["kind"] == "game"]
    return {
        "batches": len(batches),
        "requests": len(ops),
        "lottery_share": 1 - len(games) / len(ops),
        "social_share_of_game_requests": sum(op["social"] for op in games) / len(games),
        "variant_mix": dict(sorted(Counter(op["variant"] for op in ops).items())),
        "shape_mix": dict(sorted(Counter(op["shape"] for op in games).items())),
    }
