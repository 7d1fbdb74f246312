"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import copy
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOAD_IDS))
def test_same_seed_gives_byte_identical_inputs(workload, tmp_path, monkeypatch):
    made = {}
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        workloads.generate(workload, seed, 2, Path("work"))
        made[name] = _files(tmp_path / name)
    assert made["a"] and made["a"] == made["b"]
    assert made["a"] != made["c"]


def test_longer_run_only_appends_batches(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    short = workloads.generate("predict_mix", 3, 2, Path("short"))
    long = workloads.generate("predict_mix", 3, 4, Path("long"))
    assert [op["id"] for b in short for op in b["ops"]] == \
        [op["id"] for b in long[:2] for op in b["ops"]]
    for name, data in _files(tmp_path / "short").items():
        assert (tmp_path / "long" / name).read_bytes().replace(b"long/", b"short/") == data


def test_metric_names_match_the_contract():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = [m["name"] for m in declared["end_to_end"]]
    per_layer = [m["name"] for m in declared["per_layer"]]
    produced = list(tracing.layer_metrics([], 1)) + ["trace.overhead_frac"]
    assert end_to_end == list(run.END_TO_END_UNITS)
    assert sorted(per_layer) == sorted(produced)
    for name in end_to_end + per_layer:
        assert NAME.fullmatch(name), name
        assert len(name) <= 64


def test_end_to_end_keeps_batches_with_a_failed_operation():
    ok = {"latency_s": 0.1, "cpu_s": 0.1, "exit": 0}
    failed = {"latency_s": 3.0, "cpu_s": 3.0, "exit": 3}
    runs = [{"index": 0, "wall_s": 3.1, "speed": 2.0, "ops": [ok, failed]},
            {"index": 1, "wall_s": 0.2, "speed": 2.0, "ops": [ok, ok]}]
    result = {"runs": runs, "children": [{"setup_s": 0.5, "setup_speed": 2.0, "peak_rss_mb": 80.0}]}
    scaled = run.end_to_end("predict_mix", result, {})
    assert scaled["wall_s"] == pytest.approx(3.3)  # mean of 6.2 and 0.4
    assert scaled["throughput"] == pytest.approx((1 / 6.2 + 2 / 0.4) / 2)
    assert scaled["failed_op_s"] == pytest.approx(6.0)
    assert scaled["setup_s"] == pytest.approx(1.0)
    assert run.end_to_end("predict_mix", result, {}, scaled=False)["wall_s"] == pytest.approx(1.65)


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        [0, -1, "root", 0.0, 10.0, "r", None],
        [1, 0, "a", 1.0, 4.0, "r", None],
        [2, 1, "c", 2.0, 3.0, "r", None],
        [3, 0, "b", 5.0, 9.0, "r", None],
    ]
    assert tracing.self_times(spans) == {0: 3.0, 1: 2.0, 2: 1.0, 3: 4.0}


def test_tracer_records_nesting_and_errors():
    tracer = tracing.Tracer()

    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return x

    inner_t = tracer.wrap("inner", inner)
    outer_t = tracer.wrap("outer", lambda x: inner_t(x) + 1)
    tracer.request = "req-1"
    assert outer_t(1) == 2
    with pytest.raises(ValueError):
        outer_t(-1)
    names = [(s[2], s[1], s[5], s[6]) for s in tracer.spans]
    assert names == [("outer", -1, "req-1", None), ("inner", 0, "req-1", None),
                     ("outer", -1, "req-1", {"error": True}),
                     ("inner", 2, "req-1", {"error": True})]


def _game_config(tmp_path, model, payoffs, social=None):
    game = tmp_path / "game.json"
    game.write_text(json.dumps(workloads._game_record(payoffs)))
    config = {"model": model, "experiment": {"mode": "predict", "game": str(game)}}
    if social:
        config["social"] = social
    return config


def test_prediction_check_flags_perturbed_output(tmp_path):
    rng = np.random.default_rng(0)
    payoffs = rng.uniform(-5, 5, size=(3, 2, 3, 2))
    model = {"model": "level_k", "params": {"level_weights": [0.2, 0.5, 0.3],
                                             "response": "qbr", "precision": 1.5}}
    social = {"altruism_weight": 0.3, "inequity_metric": "mean_deviation"}
    config = _game_config(tmp_path, model, payoffs, social)
    truth = oracle.predict(oracle.social_transform(payoffs, [social]), model)
    good = {"strategies": [list(map(float, s)) for s in truth]}
    assert checks._check_prediction(config, good) is None
    bad = copy.deepcopy(good)
    bad["strategies"][1][0] += 1e-6
    bad["strategies"][1][1] -= 1e-6
    assert "oracle" in checks._check_prediction(config, bad)


def test_qre_check_uses_the_residual(tmp_path):
    from foggame import NormalFormGame, qbr_equilibrium

    payoffs = np.random.default_rng(1).uniform(-5, 5, size=(2, 3, 3))
    config = _game_config(tmp_path, {"model": "logit_qbr", "params": {"precision": 1.2}}, payoffs)
    solved = qbr_equilibrium(NormalFormGame((3, 3), payoffs), 1.2)
    good = {"strategies": [list(s.weights) for s in solved]}
    assert checks._check_prediction(config, good) is None
    bad = copy.deepcopy(good)
    bad["strategies"][0] = [1 / 3, 1 / 3, 1 / 3]
    assert "residual" in checks._check_prediction(config, bad)


def test_fit_check_flags_perturbed_log_likelihood(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (batch,) = workloads.generate("fit_qbr", 2, 1, Path("w"))
    from foggame.cli import main

    op = batch["ops"][0]
    outputs = Path("out")
    batch["out"] = str(outputs / batch["out"])
    out = tmp_path / "stdout.json"
    with open(out, "w") as handle:
        monkeypatch.setattr(sys, "stdout", handle)
        assert main(workloads.command(op, outputs)) == 0
    monkeypatch.undo()
    monkeypatch.chdir(tmp_path)
    result = {**op, "exit": 0, "stdout": out.read_text(), "stderr": ""}
    run_ok = {**batch, "ops": [result]}
    assert checks.check_fit([run_ok], None)[1] == []
    payload = json.loads(result["stdout"])
    payload["log_likelihood"] -= 1e-3
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    Path(batch["out"], "fit_result.json").write_text(text)
    run_bad = {**batch, "ops": [{**result, "stdout": text}]}
    (failure,) = checks.check_fit([run_bad], None)[1]
    assert "matches no logit QRE" in failure[1]


def test_fit_check_allows_solver_tolerance_on_unlikely_choices(tmp_path):
    # Player 0's second action has probability about 1e-10 at this precision,
    # which the program may return only to within its 1e-10 residual.
    precision = 2.0
    payoffs = np.array([[[11.5, 11.5], [0.0, 0.0]], [[1.0, -1.0], [-2.0, 0.5]]])
    game = {"action_counts": [2, 2],
            "payoffs": {str(p): [float(x) for x in payoffs[p].ravel()] for p in range(2)}}
    choices = [(0, 1)] * 5 + [(1, 0)] * 12 + [(1, 1)] * 8
    dataset = tmp_path / "choices.jsonl"
    dataset.write_text("".join(json.dumps({"game": game, "player": p, "action": a}) + "\n"
                               for p, a in choices))
    (equilibrium,) = oracle.qre_2x2_all(payoffs, precision)
    ll = sum(np.log(equilibrium[p][a]) for p, a in choices)
    assert 1e-11 < equilibrium[0][1] < 1e-9
    assert checks._fit_explained(dataset, precision, ll)
    assert checks._fit_explained(dataset, precision, ll + 5 * np.log(1.5))
    assert not checks._fit_explained(dataset, precision, ll + 5 * np.log(20.0))


def test_sweep_check_flags_perturbed_trace(tmp_path, monkeypatch):
    from foggame.cli import main

    monkeypatch.chdir(tmp_path)
    (batch,) = workloads.generate("sweep", 4, 1, Path("w"))
    outputs = Path("out")
    batch["out"] = str(outputs / batch["out"])
    ops = []
    for op in batch["ops"]:
        config = json.loads(Path(op["argv"][1]).read_text())
        config["scenario"]["max_rounds"] = 60  # keep the test quick
        Path(op["argv"][1]).write_text(json.dumps(config))
        ops.append({**op, "exit": main(workloads.command(op, outputs)), "stdout": "", "stderr": ""})
    good = {**batch, "ops": ops}
    attempted, failures, _ = checks.check_sweep([good], None)
    assert attempted == 8 and failures == []
    reference = {"0": good["record"]}
    assert checks.check_sweep([good], reference)[1] == []

    trace = sorted(Path(batch["out"], "gradient").glob("trace_0.1_false_*.csv"))[0]
    lines = trace.read_text().splitlines()
    fields = lines[5].split(",")
    fields[2] = repr(float(fields[2]) * (1 + 1e-12))
    lines[5] = ",".join(fields)
    trace.write_text("\n".join(lines) + "\n")
    failures = checks.check_sweep([good], reference)[1]
    assert [why for _, why in failures] == ["differs from the recorded reference"]
