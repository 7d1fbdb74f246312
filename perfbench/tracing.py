"""Spans around foggame's public functions, recorded from outside the package.

``install`` replaces each traced function where its caller looks it up (the
module attribute), so no file under ``src/`` changes.  Spans are kept in
memory as ``[id, parent, name, start, end, request, attrs]`` lists and
written out when the workload process ends; ``layer_metrics`` turns them
into the per-layer metrics.  Self time is a span's duration minus the time
its child spans cover.
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import defaultdict
from time import perf_counter

# (module, attribute looked up by the caller, span name)
PATCHES = (
    ("foggame.cli", "parse_config", "cli.parse_config"),
    ("foggame.cli", "run_negotiation", "market.run_negotiation"),
    ("foggame.cli", "write_trace_csv", "market.write_trace_csv"),
    ("foggame.cli", "compute_metrics", "market.compute_metrics"),
    ("foggame.cli", "load_observations", "estimation.load_observations"),
    ("foggame.cli", "fit_mle", "estimation.fit_mle"),
    ("foggame.estimation", "log_likelihood", "estimation.log_likelihood"),
    ("foggame.estimation", "predict", "behavior.predict"),
    ("foggame.cli", "predict", "behavior.predict"),
    ("foggame.behavior", "qbr_equilibrium", "behavior.qbr_equilibrium"),
    ("foggame.behavior", "root", "behavior.root"),
    ("foggame.behavior", "logit_qbr", "behavior.logit_qbr"),
    ("foggame.behavior", "expected_utility", "games.expected_utility"),
    ("foggame.games", "expected_utility", "games.expected_utility"),
    ("foggame.behavior", "best_response_set", "games.best_response_set"),
    ("foggame.behavior", "pure_nash", "games.pure_nash"),
    ("foggame.cli", "load_game", "games.load_game"),
    ("foggame.cli", "transform_game_social", "preferences.transform_game_social"),
    ("foggame.cli", "pt_evaluate", "preferences.pt_evaluate"),
)

MODEL_TAGS = {
    "BestResponse": "best_response",
    "EpsilonNash": "epsilon_nash",
    "LogitQBR": "logit_qbr",
    "LevelK": "level_k",
    "CognitiveHierarchy": "cognitive_hierarchy",
    "NoisyIntrospection": "noisy_introspection",
}


class Tracer:
    """In-memory span recorder; ``request`` tags every span opened under it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request: str | None = None

    def wrap(self, name: str, fn, describe=None):
        """``fn`` recording one span per call; ``describe(args, result)`` adds attrs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [len(self.spans), self.stack[-1] if self.stack else -1, name,
                    0.0, 0.0, self.request, None]
            self.spans.append(span)
            self.stack.append(span[0])
            span[3] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = perf_counter()
                span[6] = {"error": True}
                raise
            finally:
                self.stack.pop()
            span[4] = perf_counter()
            if describe is not None:
                span[6] = describe(args, kwargs, result)
            return result

        return traced


def _describe_negotiation(args, kwargs, trace):
    return {"rounds": len(trace.rounds), "converged": bool(trace.converged),
            "averaging": bool(trace.scenario.averaging), "rule": trace.price_rule}


def _describe_csv(args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    return {"bytes": os.path.getsize(path)}


def _describe_observations(args, kwargs, data):
    cells = {(obs.game, obs.player) for obs in data}
    return {"rows": len(data), "cells": len(cells)}


def _describe_fit(args, kwargs, result):
    return {"evaluations": result.evaluations}


def _describe_predict(args, kwargs, result):
    model = args[0] if args else kwargs["model"]
    return {"tag": MODEL_TAGS.get(type(model).__name__, type(model).__name__)}


DESCRIBERS = {
    "market.run_negotiation": _describe_negotiation,
    "market.write_trace_csv": _describe_csv,
    "estimation.load_observations": _describe_observations,
    "estimation.fit_mle": _describe_fit,
    "behavior.predict": _describe_predict,
}


def install(tracer: Tracer) -> list[str]:
    """Patch every traced name that exists; return the ones that do not."""
    import importlib

    missing = []
    for module_name, attr, span_name in PATCHES:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        wrapped = tracer.wrap(span_name, fn, DESCRIBERS.get(span_name))
        if span_name == "market.run_negotiation":
            wrapped = _per_cell_request(tracer, wrapped)
        setattr(module, attr, wrapped)
    return missing


def _per_cell_request(tracer: Tracer, fn):
    """Give each sweep cell its own request id; its CSV write inherits it."""

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        scenario = args[0] if args else kwargs["scenario"]
        seed = args[2] if len(args) > 2 else kwargs.get("seed", 0)
        base = (tracer.request or "").split("#")[0]
        tracer.request = f"{base}#{scenario.noise_level}/{scenario.averaging}/{seed}"
        return fn(*args, **kwargs)

    return traced


def self_times(spans) -> dict[int, float]:
    """Duration of each span minus the durations of its direct children."""
    covered: dict[int, float] = defaultdict(float)
    for span_id, parent, _name, start, end, *_ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return {s[0]: (s[4] - s[3]) - covered[s[0]] for s in spans}


def _quantile(values, q: int) -> float:
    """The q-th percentile (1..99) of values; 0.0 when empty."""
    if not values:
        return 0.0
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(spans, batches: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics; counts and seconds are per batch of the workload."""
    own = self_times(spans)
    by_name: dict[str, list] = defaultdict(list)
    for span in spans:
        by_name[span[2]].append(span)
    per = 1.0 / max(batches, 1)

    def calls(name):
        return len(by_name[name]) * per

    def self_s(name):
        return sum(own[s[0]] for s in by_name[name]) * per

    def durations_ms(name, keep=lambda s: True):
        return [(s[4] - s[3]) * 1e3 for s in by_name[name] if keep(s)]

    def attr(span, key, default=None):
        return (span[6] or {}).get(key, default)

    m: dict[str, tuple[float, str]] = {}

    # market
    cells = by_name["market.run_negotiation"]
    rounds = {"raw": 0, "averaged": 0, "foc_root": 0}
    busy = {"raw": 0.0, "averaged": 0.0, "foc_root": 0.0}
    for s in cells:
        kind = ("foc_root" if attr(s, "rule") == "foc_root"
                else "averaged" if attr(s, "averaging") else "raw")
        rounds[kind] += attr(s, "rounds", 0)
        busy[kind] += own[s[0]]
    m["market.run_negotiation.calls"] = (calls("market.run_negotiation"), "count")
    m["market.run_negotiation.self_s"] = (self_s("market.run_negotiation"), "s")
    m["market.rounds"] = (sum(rounds.values()) * per, "count")
    for kind in rounds:
        value = busy[kind] / rounds[kind] * 1e6 if rounds[kind] else 0.0
        m[f"market.round_us.{kind}"] = (value, "us")
    cell_ms: dict[str, float] = defaultdict(float)
    for name in ("market.run_negotiation", "market.write_trace_csv"):
        for s in by_name[name]:
            cell_ms[s[5]] += (s[4] - s[3]) * 1e3
    m["market.cell_p50_ms"] = (_quantile(list(cell_ms.values()), 50), "ms")
    m["market.cell_p90_ms"] = (_quantile(list(cell_ms.values()), 90), "ms")
    converged = sum(1 for s in cells if attr(s, "converged"))
    m["market.converged_frac"] = (converged / len(cells) if cells else 0.0, "fraction")
    csv_bytes = sum(attr(s, "bytes", 0) for s in by_name["market.write_trace_csv"])
    csv_s = self_s("market.write_trace_csv")
    m["market.write_trace_csv.self_s"] = (csv_s, "s")
    m["market.write_trace_csv.bytes"] = (csv_bytes * per, "B")
    m["market.write_trace_csv.mb_per_s"] = (
        csv_bytes * per / csv_s / 1e6 if csv_s > 0 else 0.0, "MB/s")
    m["market.compute_metrics.self_s"] = (self_s("market.compute_metrics"), "s")

    # estimation
    loads = by_name["estimation.load_observations"]
    rows = sum(attr(s, "rows", 0) for s in loads)
    data_cells = sum(attr(s, "cells", 0) for s in loads)
    m["estimation.load_observations.self_s"] = (self_s("estimation.load_observations"), "s")
    m["estimation.rows_per_cell"] = (rows / data_cells if data_cells else 0.0, "count")
    m["estimation.log_likelihood.calls"] = (calls("estimation.log_likelihood"), "count")
    m["estimation.log_likelihood.self_s"] = (self_s("estimation.log_likelihood"), "s")
    ll_ms = durations_ms("estimation.log_likelihood")
    m["estimation.log_likelihood.p50_ms"] = (_quantile(ll_ms, 50), "ms")
    m["estimation.log_likelihood.p90_ms"] = (_quantile(ll_ms, 90), "ms")
    m["estimation.fit_mle.evaluations"] = (
        sum(attr(s, "evaluations", 0) for s in by_name["estimation.fit_mle"]) * per, "count")

    # behavior
    solves = by_name["behavior.qbr_equilibrium"]
    m["behavior.qbr_equilibrium.calls"] = (calls("behavior.qbr_equilibrium"), "count")
    m["behavior.qbr_equilibrium.self_s"] = (self_s("behavior.qbr_equilibrium"), "s")
    m["behavior.qbr_equilibrium.p50_ms"] = (_quantile(durations_ms("behavior.qbr_equilibrium"), 50), "ms")
    m["behavior.qbr_equilibrium.failures"] = (
        sum(1 for s in solves if attr(s, "error")) * per, "count")
    ll_ids = {s[0] for s in by_name["estimation.log_likelihood"]}

    def under_ll(span_id):
        while span_id >= 0:
            if span_id in ll_ids:
                return True
            span_id = spans[span_id][1]
        return False

    in_fit = sum(1 for s in solves if under_ll(s[1]))
    m["behavior.qbr_solves_per_eval"] = (in_fit / len(ll_ids) if ll_ids else 0.0, "count")
    m["behavior.qre_polish_calls"] = (calls("behavior.root"), "count")
    m["behavior.logit_qbr.calls"] = (calls("behavior.logit_qbr"), "count")
    for tag in MODEL_TAGS.values():
        ms = durations_ms("behavior.predict", lambda s, tag=tag: attr(s, "tag") == tag)
        m[f"behavior.predict_ms.{tag}"] = (_quantile(ms, 50), "ms")

    # games
    for name in ("games.expected_utility", "games.best_response_set", "games.pure_nash"):
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.self_s"] = (self_s(name), "s")
    m["games.load_game.self_s"] = (self_s("games.load_game"), "s")

    # preferences
    m["preferences.transform_game_social.calls"] = (calls("preferences.transform_game_social"), "count")
    m["preferences.transform_game_social.self_s"] = (self_s("preferences.transform_game_social"), "s")
    m["preferences.pt_evaluate.calls"] = (calls("preferences.pt_evaluate"), "count")

    # cli
    m["cli.parse_config.self_s"] = (self_s("cli.parse_config"), "s")
    m["cli.self_s"] = (self_s("cli.main"), "s")
    return m
