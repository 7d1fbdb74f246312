"""One workload process: set up, run batches through ``foggame.cli``, report.

Usage: ``python3 perfbench/child.py JOB.json RESULT.json`` from the checkout
root.  The job names the checkout root, the configs to parse during set-up,
the batches to run and whether to trace.  Set-up time covers importing
foggame from the checkout's ``src/`` and parsing those configs, before the
first timed call.  Each operation is one ``foggame.cli.main(argv)`` call with
stdout and stderr captured, exactly what ``foggame <argv>`` does in-process.

The machine is shared and its pace drifts by tens of percent within
seconds.  So after set-up, and after each batch once ``PACE_EVERY_S`` have
passed, the process times a fixed loop (``pace``) that does not touch
foggame; ``run.py`` scales each timed region by the loops on either side.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

PACE_EVERY_S = 0.5
PACE_REPEATS = 5


def pace() -> float:
    """Median seconds of a fixed loop with foggame's mix of work.

    Python float objects in a list of a few hundred kilobytes, ``repr``
    formatting, a NumPy reduction over half a megabyte and small NumPy
    calls: the interpreter, allocator and cache traffic the workloads make,
    so the loop slows when they would.  Of the loops tried, this one tracked
    the sweep and fit work best.
    """
    import numpy as np  # foggame imported it during set-up, which counts that time

    times = []
    base = np.linspace(0.1, 0.4, 16).reshape(4, 4)
    for _ in range(PACE_REPEATS):
        t0 = time.perf_counter()
        values = [i * 0.5 for i in range(40_000)]
        [repr(v) for v in values[::8]]
        sum(values) + float(np.sqrt(np.arange(60_000.0)).sum())
        x = base
        for _ in range(800):
            x = np.tanh(x @ base)
        times.append(time.perf_counter() - t0)
    return sorted(times)[PACE_REPEATS // 2]


def main(job_path: str, result_path: str) -> int:
    start = time.perf_counter()
    job = json.loads(Path(job_path).read_text())
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import foggame.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"foggame imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    for config in job["parse"]:
        cli.parse_config(config)
    setup_s = time.perf_counter() - start
    paces = [pace()]
    last_pace = time.perf_counter()

    tracer = None
    missing: list[str] = []
    run = cli.main
    if job["trace"]:
        import tracing  # beside this file, so already on sys.path

        tracer = tracing.Tracer()
        missing = tracing.install(tracer)
        run = tracer.wrap("cli.main", cli.main)

    batches = []
    for batch in job["batches"]:
        ops = []
        for op in batch["ops"]:
            out, err = io.StringIO(), io.StringIO()
            if tracer is not None:
                tracer.request = op["id"]
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = run(op["argv"])
            latency = time.perf_counter() - t0
            ops.append({"id": op["id"], "latency_s": latency, "cpu_s": time.process_time() - cpu0,
                        "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
        # The batch ran between the last pace taken and the next one.
        batches.append({"index": batch["index"], "ops": ops, "pace": len(paces) - 1})
        if time.perf_counter() - last_pace >= PACE_EVERY_S or batch is job["batches"][-1]:
            paces.append(pace())
            last_pace = time.perf_counter()

    result = {"setup_s": setup_s, "batches": batches, "paces": paces,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "spans": tracer.spans if tracer else None, "unpatched": missing}
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1], sys.argv[2]))
