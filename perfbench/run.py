"""foggame benchmark: time the CLI the way users run it, and check its outputs.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

Workloads (see README.md): ``sweep`` (seeded market simulations),
``fit_qbr`` (maximum-likelihood fit of a logit QRE precision) and
``predict_mix`` (a closed loop of one client sending distinct predict
requests).  Inputs are generated from ``--seed`` before anything is timed.
Each workload process is a fresh ``python3 perfbench/child.py`` that imports
foggame from the checkout's ``src/`` and runs its batches one after another;
the processes run one at a time.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
With ``--trace 1`` the first half of the batches runs twice, untraced and
then traced, and the per-layer metrics come from the traced pass.  The last
line of stdout is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the lines above it are a human-readable JSON report with
provenance, input properties, failing operation ids and every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path


import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references"
WORK = Path(".perfbench_work")  # relative to ROOT; ignored by git
CHILDREN = 4  # workload processes per pass: set-up and memory are medians over them
RUN_DEADLINE_S = 170.0
# Times are scaled to what they would read on a machine where the loop of
# child.pace takes this long (see child.py).
PACE_REF_S = 0.008

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput": "1/s",
    "latency_p50_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# In the report but not in the result line, because they do not repeat across
# seeds: a run meets 0 to 6 solver failures of 1 to 6 s each, and the p90 of
# a fit_qbr run's 16 fits spread by up to 0.25 over ten seeds.
REPORT_ONLY_UNITS = {"latency_p90_ms": "ms", "failed_op_s": "s"}
THROUGHPUT_OF = {"sweep": "market rounds/s", "fit_qbr": "likelihood evaluations/s",
                 "predict_mix": "requests/s"}
NOTES = [
    "Each workload process is a fresh interpreter, so setup_s and peak_rss_mb are "
    "per workload process (medians over the processes of a run).",
    "wall_s, throughput and cpu_s are interquartile means (the mean of the middle "
    "half) over all batches of a pass, failed operations included; a batch is the "
    "workload's stated input size, and throughput counts the work its successful "
    "operations completed.  failed_op_s is the time spent in operations that failed.  "
    "For sweep and fit_qbr the latency operation is a batch; for predict_mix it is one "
    "request, failed requests included.",
    "Operations that fail (non-zero exit or a failed output check) count in 'failed'; "
    "failed / attempted is error_rate.",
    "The sandbox this was built in allows no CPU pinning, no dropping of the file "
    "cache and no system-wide tracing; timings are in-process perf_counter and "
    "process_time, memory is the child's ru_maxrss.",
    "The machine is shared and its pace drifts.  End-to-end times are multiplied by "
    "the pace measured around them (PACE_REF_S over the time of a fixed loop the "
    "workload process runs between batches); 'unscaled' holds the raw figures.  "
    "Per-layer times are not scaled.",
]


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def provenance() -> dict:
    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


def _median(values) -> float:
    return float(statistics.median(values))


def _p90(values) -> float:
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def _run_child(job: dict, work: Path, name: str, deadline: float) -> dict:
    """Run one workload process to completion; return its exit and result."""
    job_path, result_path = work / f"{name}.job.json", work / f"{name}.result.json"
    job_path.write_text(json.dumps(job))
    with open(work / f"{name}.stderr", "w") as err:
        try:
            code = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(job_path), str(result_path)],
                cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err,
                timeout=max(1.0, deadline - time.monotonic())).returncode
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            code = -signal.SIGKILL
    result = {"exit": code, "stderr": (work / f"{name}.stderr").read_text()[-2000:]}
    if code == 0 and result_path.exists():
        result.update(json.loads(result_path.read_text()))
        paces = result["paces"]
        result["setup_speed"] = PACE_REF_S / paces[0]
        for batch in result["batches"]:
            batch["speed"] = 2 * PACE_REF_S / (paces[batch["pace"]] + paces[batch["pace"] + 1])
    return result


def run_pass(workload: str, batches: list[dict], work: Path, name: str, trace: bool,
             deadline: float) -> dict:
    """Run ``batches`` over up to CHILDREN processes, one after another.

    Outputs go under ``work/outputs_<name>``.
    """
    outputs = work / f"outputs_{name}"
    batches = [{**b, "out": str(outputs / b["out"]),
                "ops": [{**op, "argv": workloads.command(op, outputs)} for op in b["ops"]]}
               for b in batches]
    groups = [batches[i::CHILDREN] for i in range(CHILDREN)]
    groups = [sorted(g, key=lambda b: b["index"]) for g in groups if g]
    children, runs = [], []
    for i, group in enumerate(groups):
        job = {
            "root": str(ROOT),
            "parse": [op["argv"][1] for op in group[0]["ops"]],
            "trace": trace,
            "batches": [{"index": b["index"], "ops": [{"id": op["id"], "argv": op["argv"]} for op in b["ops"]]}
                        for b in group],
        }
        child = _run_child(job, work, f"{name}{i}", deadline)
        children.append(child)
        done = {b["index"]: b for b in child.get("batches", [])}
        for batch in group:
            got = done.get(batch["index"])
            ops = []
            for k, op in enumerate(batch["ops"]):
                if got is not None:
                    ops.append({**op, **got["ops"][k]})
                else:
                    ops.append({**op, "exit": child["exit"], "latency_s": None, "stdout": "",
                                "stderr": f"workload process exited {child['exit']}: {child['stderr'][-300:]}"})
            wall = sum(op["latency_s"] for op in got["ops"]) if got else None
            runs.append({**batch, "ops": ops, "wall_s": wall, "speed": got and got["speed"]})
    runs.sort(key=lambda r: r["index"])
    return {"children": children, "runs": runs}


def _interquartile_mean(values) -> float:
    """Mean of the middle half: steady where batch times vary smoothly, and
    blind, like a median, to the few batches that hold a solver failure."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(workload: str, result: dict, facts: dict, scaled: bool = True) -> dict[str, float]:
    """The end-to-end metrics of one pass, over all its batches.

    Batches with a failed operation count, with the time spent failing.
    Throughput counts only the work of operations that succeeded.  Times
    are multiplied by the pace measured around them unless ``scaled`` is
    false.
    """
    runs = [r for r in result["runs"] if r["wall_s"] is not None]
    children = [c for c in result["children"] if "setup_s" in c]
    if not runs or not children:
        return {}
    speed = {r["index"]: r["speed"] if scaled else 1.0 for r in runs}
    walls = [r["wall_s"] * speed[r["index"]] for r in runs]
    if workload == "sweep":
        units = [facts.get("rounds_by_batch", {}).get(r["index"], 0) for r in runs]
    elif workload == "fit_qbr":
        units = [facts.get("evaluations_by_batch", {}).get(r["index"], 0) for r in runs]
    else:
        units = [sum(op["exit"] == 0 for op in r["ops"]) for r in runs]
    if workload == "predict_mix":
        latencies = [op["latency_s"] * speed[r["index"]] * 1e3 for r in runs for op in r["ops"]]
    else:
        latencies = [w * 1e3 for w in walls]
    return {
        "setup_s": _median([c["setup_s"] * (c["setup_speed"] if scaled else 1.0) for c in children]),
        "wall_s": _interquartile_mean(walls),
        "throughput": _interquartile_mean([u / w for u, w in zip(units, walls)]),
        "latency_p50_ms": _median(latencies),
        "latency_p90_ms": _p90(latencies),
        "cpu_s": _interquartile_mean([sum(op["cpu_s"] for op in r["ops"]) * speed[r["index"]] for r in runs]),
        "peak_rss_mb": _median([c["peak_rss_mb"] for c in children]),
        "failed_op_s": sum(op["latency_s"] * speed[r["index"]] for r in runs for op in r["ops"]
                           if op["exit"] != 0),
    }


def _merged_spans(children: list[dict]) -> list[list]:
    spans: list[list] = []
    for child in children:
        offset = len(spans)
        for span in child.get("spans") or []:
            spans.append([span[0] + offset, span[1] + offset if span[1] >= 0 else -1, *span[2:]])
    return spans


def _load_reference(workload: str) -> dict:
    path = REFERENCES / f"{workload}.json"
    return json.loads(path.read_text()) if path.exists() else {}


def _record_reference(workload: str, seed: int, runs: list[dict], failures) -> None:
    refs = _load_reference(workload)
    if workload == "predict_mix":
        entry = {}
        for run in runs:
            entry.update(run.get("record", {}))
        entry["_failed_when_recorded"] = sorted({i.split(":", 1)[1] for i, _ in failures})
    else:
        entry = {str(run["index"]): run["record"] for run in runs if "record" in run}
    refs[str(seed)] = entry
    REFERENCES.mkdir(exist_ok=True)
    (REFERENCES / f"{workload}.json").write_text(dump_references(refs))


def dump_references(refs: dict) -> str:
    """JSON with one line per batch or request, so diffs stay readable."""
    seeds = []
    for seed, entry in sorted(refs.items()):
        rows = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                          for key, value in sorted(entry.items()))
        seeds.append(f" {json.dumps(seed)}: {{\n{rows}\n }}")
    return "{\n" + ",\n".join(seeds) + "\n}\n"


def benchmark(args, work: Path) -> tuple[dict, dict]:
    started = time.monotonic()
    deadline = started + RUN_DEADLINE_S
    count = workloads.batch_count(args.workload, args.seconds)
    if args.trace:
        count = max(2, count // 2)
    batches = workloads.generate(args.workload, args.seed, count, work)
    properties = workloads.properties(args.workload, batches)
    generated_s = time.monotonic() - started

    passes = {"untraced": run_pass(args.workload, batches, work, "untraced", False, deadline)}
    if args.trace:
        passes["traced"] = run_pass(args.workload, batches, work, "traced", True, deadline)

    reference = _load_reference(args.workload).get(str(args.seed))
    attempted, failures, facts = 0, [], {}
    for name, result in passes.items():
        try:
            a, f, facts[name] = checks.CHECKS[args.workload](result["runs"], reference)
        except Exception as exc:  # noqa: BLE001 — malformed output still ends in a result line
            a = sum(len(r["ops"]) for r in result["runs"])
            f, facts[name] = [("outputs", f"output check crashed: {exc!r}")], {}
        attempted += a
        failures += [(f"{name}:{op}", why) for op, why in f]
    mismatches = [f for f in failures if not f[1].startswith(checks.SOLVER_FAILURE)]

    untraced = passes["untraced"]
    metrics = end_to_end(args.workload, untraced, facts["untraced"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "notes": NOTES,
        "inputs": properties,
        "input_generation_s": generated_s,
        "batches_per_pass": len(batches),
        "workload_processes_per_pass": len(untraced["children"]),
        "throughput_unit": THROUGHPUT_OF[args.workload],
        "attempted": attempted,
        "failed": len(failures),
        "error_rate": len(failures) / max(attempted, 1),
        "failures": [f"{op}: {why}" for op, why in failures[:50]],
        "output_facts": {k: {n: v for n, v in f.items() if not n.endswith("_by_batch")}
                         for k, f in facts.items()},
        "reference_checked": reference is not None,
        "end_to_end": {k: {"value": v, "unit": {**END_TO_END_UNITS, **REPORT_ONLY_UNITS}[k]}
                       for k, v in metrics.items()},
        "unscaled": end_to_end(args.workload, untraced, facts["untraced"], scaled=False),
        "batch_wall_s": [r["wall_s"] for r in untraced["runs"]],
        "batch_speed": [r["speed"] for r in untraced["runs"]],
        "setup_s": [c.get("setup_s") for c in untraced["children"]],
    }
    if args.trace:
        import tracing

        traced = passes["traced"]
        layer = tracing.layer_metrics(_merged_spans(traced["children"]), len(batches))
        both = [(u, t) for u, t in zip(untraced["runs"], traced["runs"])
                if all(r["wall_s"] is not None and all(op["exit"] == 0 for op in r["ops"]) for r in (u, t))]
        u_total = sum(u["wall_s"] * u["speed"] for u, _ in both)
        t_total = sum(t["wall_s"] * t["speed"] for _, t in both)
        overhead = t_total / u_total - 1.0 if u_total else 0.0
        layer["trace.overhead_frac"] = (overhead, "fraction")
        report["per_layer"] = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        report["unpatched"] = sorted({m for c in traced["children"] for m in c.get("unpatched", [])})
        metrics = {k: v for k, (v, _) in layer.items()}
        units = {k: u for k, (_, u) in layer.items()}
    else:
        metrics = {k: v for k, v in metrics.items() if k in END_TO_END_UNITS}
        units = END_TO_END_UNITS

    if args.record_reference:
        _record_reference(args.workload, args.seed, untraced["runs"], failures)

    complete = len(metrics) == len(units) and all(c["exit"] == 0 for p in passes.values() for c in p["children"])
    summary = {
        "correct": complete and not mismatches,
        "attempted": max(attempted, 1),
        "failed": min(len(failures), max(attempted, 1)),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report["elapsed_s"] = time.monotonic() - started
    return report, summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_IDS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's outputs as the reference for --seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "foggame" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'foggame'} not found; run from a foggame checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        report, summary = benchmark(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()  # only when no other run is using it
        except OSError:
            pass
    print(json.dumps(report, indent=1))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
