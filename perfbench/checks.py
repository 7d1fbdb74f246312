"""Correctness checks on every output a benchmark run produces.

Two kinds of check apply:

* For every seed, outputs are re-derived or cross-checked without foggame:
  trace CSVs against the market's invariants and the summary recomputed
  from the CSVs; a fit's log-likelihood recomputed at its fitted precision;
  each prediction against ``oracle``, and logit-QRE predictions by their own
  fixed-point residual.
* For the seeds in ``references/``, outputs must also match what the commit
  that defined the benchmark produced: sweep files byte for byte, fits and
  predictions within 1e-9.  Logit-QRE predictions have no stored value, so a
  later fix to the solver is judged on its residual alone.

Each check returns ``(attempted, failures, facts)``: the operations it
covered, a list of ``(operation id, reason)`` and measured facts for the
report.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path
from statistics import fmean

import numpy as np

import oracle
import workloads

TOL = 1e-9
# Reason given for an operation the program ended with FixedPointError (exit
# 3): a known solver defect, counted as failed but not as a wrong output.
SOLVER_FAILURE = "QRE solver found no fixed point"
QRE_RESIDUAL_TOL = 1e-8
FIT_LL_TOL = 1e-6
# How far a returned QRE probability may sit from the exact one: ten times
# the fixed-point residual foggame.behavior.qbr_equilibrium guarantees.
QRE_PROB_TOL = 1e-9
PROB_FLOOR = 1e-12  # foggame.estimation floors probabilities here

# The stock scenario (``"preset": "default"``), restated from the docs.
BUDGET = 10.0
FLOORS = np.array([1.0, 0.8, 1.2, 0.9])
CAPS = 10.0 * FLOORS
CONVERGENCE_WINDOW = 20
TRACE_HEADER = ["round", "node_id", "price", "demand", "user_utility", "fog_gain"]


def _close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def exit_reason(op: dict) -> str:
    """Why an operation that exited non-zero failed."""
    message = op["stderr"].strip()[:200]
    if op["exit"] == 3 and "no fixed point" in message:
        return f"{SOLVER_FAILURE}: {message}"
    return f"exit {op['exit']}: {message}"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# --------------------------------------------------------------------- sweep


def _check_trace(path: Path, entry: dict) -> tuple[str | None, dict]:
    # The fog_gain column is written as repr() of a numpy scalar, which
    # numpy 2 spells ``np.float64(x)``; unwrap it to parse the number.
    text = path.read_text().replace("np.float64(", "").replace(")", "")
    rows = list(csv.reader(text.splitlines()))
    if rows[0] != TRACE_HEADER:
        return "bad CSV header", {}
    body = np.array(rows[1:], dtype=float)
    rounds = entry["rounds"]
    nodes = len(FLOORS)
    if body.shape != (rounds * nodes, 6):
        return f"{body.shape[0]} rows for {rounds} rounds", {}
    body = body.reshape(rounds, nodes, 6)
    if not np.array_equal(body[:, :, 0], np.repeat(np.arange(1, rounds + 1)[:, None], nodes, 1)):
        return "round numbers out of order", {}
    prices, demands = body[:, :, 2], body[:, :, 3]
    if np.any(prices < FLOORS - 1e-12) or np.any(prices > CAPS + 1e-12) or np.any(demands <= 0):
        return "price outside [floor, cap] or demand not positive", {}
    if entry["noise_level"] == 0.0 and not entry["averaging"] and entry["price_rule"] == "gradient_ascent":
        spend = (prices * demands).sum(axis=1)
        if np.max(np.abs(spend - BUDGET)) > 1e-9 * BUDGET:
            return "noise-free demand does not spend the budget", {}
    tail = prices[-CONVERGENCE_WINDOW:]
    return None, {
        "user_utility": float(body[-1, 0, 4]),
        "fog_gain_total": sum(float(x) for x in body[-1, :, 5]),
        "instability": float((tail.std(axis=0) / tail.mean(axis=0)).mean()),
    }


def _check_summary(summary: dict, finals: dict) -> str | None:
    groups: dict = {}
    for (rho, averaging, _seed), (entry, final) in sorted(finals.items()):
        groups.setdefault((rho, averaging), []).append((entry, final))
    expected = []
    for (rho, averaging), members in sorted(groups.items()):
        converged = [e["convergence_round"] for e, _ in members if e["converged"]]
        expected.append({
            "noise_level": rho,
            "averaging": averaging,
            "num_traces": len(members),
            "convergence_rate": len(converged) / len(members),
            "mean_convergence_round": fmean(converged) if converged else None,
            "mean_final_user_utility": fmean(f["user_utility"] for _, f in members),
            "mean_final_fog_gain_total": fmean(f["fog_gain_total"] for _, f in members),
            "mean_instability_index": fmean(f["instability"] for _, f in members),
        })
    got = summary.get("configs", [])
    if len(got) != len(expected):
        return f"summary has {len(got)} configurations, expected {len(expected)}"
    for g, e in zip(got, expected):
        for key, value in e.items():
            if isinstance(value, float):
                ok = isinstance(g.get(key), (int, float)) and _close(g[key], value)
            else:
                ok = g.get(key) == value
            if not ok:
                return f"summary {key} is {g.get(key)!r}, recomputed {value!r}"
    return None


def check_sweep(batch_runs, reference: dict | None):
    attempted, failures = 0, []
    rounds_by_batch: dict[int, int] = {}
    facts = {"cells": 0, "rounds": 0, "foc_root_rounds": 0}
    for run in batch_runs:
        out_root = Path(run["out"])
        digests = {}
        batch_rounds = 0
        for op in run["ops"]:
            name = op["id"].split("/")[-1]
            rule = "foc_root" if name == "foc_root" else "gradient_ascent"
            out = out_root / name
            manifest_path = out / "manifest.json"
            if not manifest_path.exists():
                attempted += op["cells"]
                failures.append((op["id"], f"exit {op['exit']}, no manifest: {op['stderr'].strip()[:200]}"))
                continue
            try:
                manifest = json.loads(manifest_path.read_text())
                cells = list(manifest["cells"])
            except (ValueError, KeyError, TypeError) as exc:
                attempted += op["cells"]
                failures.append((op["id"], f"unreadable manifest.json: {exc}"))
                continue
            finals = {}
            config_failed = []
            for entry in cells:
                attempted += 1
                cell_id = f"{op['id']}#{entry['noise_level']}/{entry['averaging']}/{entry['seed']}"
                if entry["status"] != "ok":
                    failures.append((cell_id, f"cell failed: {entry.get('error')}"))
                    continue
                entry = {**entry, "price_rule": rule}
                try:
                    reason, final = _check_trace(out / entry["file"], entry)
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    reason, final = f"unreadable trace: {exc}", {}
                if reason:
                    failures.append((cell_id, reason))
                    continue
                finals[(entry["noise_level"], entry["averaging"], entry["seed"])] = (entry, final)
                batch_rounds += entry["rounds"]
                facts["cells"] += 1
                facts["rounds"] += entry["rounds"]
                if rule == "foc_root":
                    facts["foc_root_rounds"] += entry["rounds"]
                digests[f"{name}/{entry['file']}"] = sha256(out / entry["file"])
            if op["exit"] != 0 or manifest.get("num_failed"):
                config_failed.append(f"exit {op['exit']}, num_failed {manifest.get('num_failed')}")
            summary_path = out / "summary.json"
            if finals and not summary_path.exists():
                config_failed.append("summary.json missing")
            elif finals:
                try:
                    reason = _check_summary(json.loads(summary_path.read_text()), finals)
                except (ValueError, KeyError, TypeError) as exc:
                    reason = f"unreadable summary.json: {exc}"
                if reason:
                    config_failed.append(reason)
                digests[f"{name}/summary.json"] = sha256(summary_path)
            digests[f"{name}/manifest.json"] = sha256(manifest_path)
            for reason in config_failed:
                failures.append((op["id"], reason))
        rounds_by_batch[run["index"]] = batch_rounds
        expected = (reference or {}).get(str(run["index"]))
        if expected is not None:
            for rel, digest in sorted(expected.items()):
                if digests.get(rel) != digest:
                    failures.append((f"b{run['index']:03d}/{rel}", "differs from the recorded reference"))
        run["record"] = digests
    facts["rounds_by_batch"] = rounds_by_batch
    return attempted, failures, facts


# ------------------------------------------------------------------- fit_qbr


def _fit_explained(dataset: Path, precision: float, ll: float) -> bool:
    """Whether ``ll`` is the dataset's log-likelihood under some logit QRE.

    The program returns a profile whose fixed-point residual is below 1e-10,
    so each of its probabilities may sit up to about that far from the exact
    equilibrium's.  That is nothing for a likely action but a lot for one
    chosen with probability near 1e-10, so every (game, equilibrium) gives an
    interval of log-likelihood terms, each probability widened by
    ``QRE_PROB_TOL``.  Games with several equilibria at this precision give
    one interval per equilibrium; ``ll`` must fall in the sum of one choice
    of interval per game.  Partial sums that can no longer reach ``ll`` are
    dropped game by game, so the search stays small.
    """
    rows: dict[str, list] = {}
    for line in dataset.read_text().splitlines():
        record = json.loads(line)
        rows.setdefault(json.dumps(record["game"]), []).append((record["player"], record["action"]))
    games = []
    for key, choices in rows.items():
        equilibria = oracle.qre_2x2_all(oracle.game_tensor(json.loads(key)), precision)
        probs = np.array([[float(eq[p][a]) for p, a in choices] for eq in equilibria])
        lo = np.log(np.maximum(probs - QRE_PROB_TOL, PROB_FLOOR)).sum(axis=1)
        hi = np.log(np.maximum(np.minimum(probs + QRE_PROB_TOL, 1.0), PROB_FLOOR)).sum(axis=1)
        games.append((lo, hi))
    slack = FIT_LL_TOL * max(1.0, abs(ll))
    # Lowest and highest total the games after the i-th can still add.
    rest_lo = np.cumsum([0.0] + [lo.min() for lo, _ in reversed(games)])[::-1]
    rest_hi = np.cumsum([0.0] + [hi.max() for _, hi in reversed(games)])[::-1]
    sums_lo, sums_hi = np.zeros(1), np.zeros(1)
    for i, (lo, hi) in enumerate(games):
        sums_lo = (sums_lo[:, None] + lo[None, :]).ravel()
        sums_hi = (sums_hi[:, None] + hi[None, :]).ravel()
        keep = (sums_lo + rest_lo[i + 1] <= ll + slack) & (sums_hi + rest_hi[i + 1] >= ll - slack)
        sums_lo, sums_hi = sums_lo[keep], sums_hi[keep]
    return sums_lo.size > 0


def check_fit(batch_runs, reference: dict | None):
    attempted, failures = 0, []
    expected_evals = workloads.FIT_SEARCH["grid_points"] + 2 * (workloads.FIT_SEARCH["refine_iters"] + 4)
    facts = {"evaluations_by_batch": {}, "fitted_precision": []}
    for run in batch_runs:
        for op in run["ops"]:
            attempted += 1
            if op["exit"] != 0:
                failures.append((op["id"], exit_reason(op)))
                continue
            stored = Path(run["out"]) / "fit_result.json"
            if not stored.exists() or stored.read_text() != op["stdout"]:
                failures.append((op["id"], "fit_result.json differs from stdout"))
                continue
            try:
                result = json.loads(op["stdout"])
                (precision,) = result["params"]
                ll = float(result["log_likelihood"])
            except (ValueError, KeyError, TypeError) as exc:
                failures.append((op["id"], f"unreadable fit result: {exc}"))
                continue
            reason = None
            if result.get("family") != "logit_qbr" or result.get("param_names") != ["precision"]:
                reason = "wrong family or parameter names"
            elif result["evaluations"] != expected_evals:
                reason = f"{result['evaluations']} evaluations, expected {expected_evals}"
            elif not 0.0 <= precision <= 10.0:
                reason = f"precision {precision} outside bounds"
            elif not (math.isfinite(ll) and ll <= 0.0):
                reason = f"log-likelihood {ll} not finite and nonpositive"
            elif not _fit_explained(Path(op["dataset"]), precision, ll):
                reason = f"log-likelihood {ll!r} matches no logit QRE at precision {precision!r}"
            want = (reference or {}).get(str(run["index"]))
            if reason is None and want is not None:
                if (result["evaluations"] != want["evaluations"]
                        or not _close(precision, want["params"][0])
                        or not _close(ll, want["log_likelihood"])):
                    reason = "differs from the recorded reference"
            if reason:
                failures.append((op["id"], reason))
                continue
            facts["evaluations_by_batch"][run["index"]] = result["evaluations"]
            facts["fitted_precision"].append(precision)
            run["record"] = {"params": result["params"], "log_likelihood": ll,
                             "evaluations": result["evaluations"]}
    return attempted, failures, facts


# --------------------------------------------------------------- predict_mix


def _check_prediction(config: dict, output: dict) -> str | None:
    if "lottery" in config:
        lottery = config["lottery"]
        value = oracle.prospect_value(lottery["outcomes"], lottery["probs"], config["prospect"])
        if not _close(output.get("value", math.nan), value):
            return f"lottery value {output.get('value')!r}, oracle {value!r}"
        return None
    payoffs = oracle.game_tensor(json.loads(Path(config["experiment"]["game"]).read_text()))
    if "social" in config:
        blocks = config["social"] if isinstance(config["social"], list) else [config["social"]]
        payoffs = oracle.social_transform(payoffs, blocks)
    strategies = output.get("strategies")
    counts = payoffs.shape[1:]
    if (not isinstance(strategies, list) or len(strategies) != len(counts)
            or any(len(s) != n for s, n in zip(strategies, counts))):
        return "strategies have the wrong shape"
    for s in strategies:
        if min(s) < 0.0 or abs(sum(s) - 1.0) > TOL:
            return "a strategy is not a probability distribution"
    model = config["model"]
    if model["model"] == "logit_qbr":
        residual = oracle.qre_residual(payoffs, strategies, model["params"]["precision"])
        if residual > QRE_RESIDUAL_TOL:
            return f"QRE residual {residual:.3e}"
        return None
    want = oracle.predict(payoffs, model)
    gap = max(float(np.max(np.abs(np.asarray(s) - w))) for s, w in zip(strategies, want))
    if gap > TOL:
        return f"differs from the oracle by {gap:.3e}"
    return None


def check_predict(batch_runs, reference: dict | None):
    attempted, failures = 0, []
    facts = {"failed_by_variant": {}}
    for run in batch_runs:
        records = {}
        for op in run["ops"]:
            attempted += 1
            if op["exit"] != 0:
                failures.append((op["id"], exit_reason(op)))
                by = facts["failed_by_variant"]
                key = f"{op['variant']} {op['shape']}"
                by[key] = by.get(key, 0) + 1
                continue
            config = json.loads(Path(op["argv"][1]).read_text())
            try:
                output = json.loads(op["stdout"])
                reason = _check_prediction(config, output)
            except (ValueError, TypeError, AttributeError) as exc:
                failures.append((op["id"], f"unreadable prediction: {exc}"))
                continue
            want = (reference or {}).get(op["id"])
            if reason is None and want is not None:
                got = output.get("value", output.get("strategies"))
                if isinstance(want, list):
                    gap = max(float(np.max(np.abs(np.asarray(g) - np.asarray(w))))
                              for g, w in zip(got, want))
                    if len(got) != len(want) or gap > TOL:
                        reason = "differs from the recorded reference"
                elif not _close(got, want):
                    reason = "differs from the recorded reference"
            if reason:
                failures.append((op["id"], reason))
                continue
            if config.get("model", {}).get("model") != "logit_qbr":
                records[op["id"]] = output.get("value", output.get("strategies"))
        run["record"] = records
    return attempted, failures, facts


CHECKS = {"sweep": check_sweep, "fit_qbr": check_fit, "predict_mix": check_predict}
