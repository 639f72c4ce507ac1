"""One benchmark pass in a fresh interpreter.

Imports cohenram, runs the workload's steps once with empty caches
(cold), repeats them in the same process (warm), and prints one JSON
object on stdout.  Started by run.py with the pass configuration as its
only argument; not meant to be run by hand.
"""

import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import cohenram  # noqa: E402
import cohenram.cli  # noqa: E402

T_READY = time.monotonic()  # setup ends here: interpreter up, package imported

import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402

from tracer import Tracer, layer_metrics, wrapper_cost  # noqa: E402
from workloads import grid_cases, grid_text  # noqa: E402

WARM_MIN_S = 0.5     # warm repetitions cover at least this much time ...
WARM_MAX_REPS = 50   # ... up to this many repetitions
CALIBRATION_N = 1_000_000


def _calibration_s():
    """Time of a fixed pure-Python loop that no cohenram change touches;
    recorded so that host speed drift between runs can be seen."""
    t0 = time.perf_counter()
    sum(i * i % 7 for i in range(CALIBRATION_N))
    return time.perf_counter() - t0


@functools.cache
def _grid():
    return list(grid_cases())


def _run_step(step):
    """(exit code, seconds, stdout, stderr) of one public call."""
    out, err = io.StringIO(), io.StringIO()
    cases = _grid() if step["kind"] == "grid" else None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if step["kind"] == "cli":
                code = cohenram.cli.main(list(step["argv"]))
                results = None
            else:
                check = cohenram.local_factor_exact
                results = [check(s, k, n, ps) for s, k, n, ps in cases]
                code = 0
        except Exception:  # a crash is reported as a failed step, not a dead pass
            traceback.print_exc()
            code, results = "raised", None
        seconds = time.perf_counter() - t0
    text = grid_text(results) if results is not None else out.getvalue()
    return code, seconds, text, err.getvalue()


def _run_steps(steps, phase, tracer, record):
    """Run every step once; returns the summed step time."""
    total = 0.0
    for step in steps:
        if tracer is not None:
            with tracer.span("bench.step", {"step": step["name"]}):
                code, seconds, text, err = _run_step(step)
        else:
            code, seconds, text, err = _run_step(step)
        total += seconds
        rec = {"step": step["name"], "phase": phase, "exit": code, "seconds": seconds,
               "digest": hashlib.sha256(text.encode()).hexdigest()}
        if phase == "cold":
            rec["stdout"] = text
            rec["stderr"] = err[-2000:]
        record.append(rec)
    return total


def _traced_phase(tracer, phase, run, costs):
    """Run ``run()`` as one phase; returns (its result, the phase's layer metrics)."""
    tracer.phase = phase
    before, caches = tracer.snapshot(), tracer.cache_counts()
    result = run()
    delta = {name: [now - then for now, then in zip(rec, before.get(name, (0, 0.0, 0.0)))]
             for name, rec in tracer.aggregates.items()}
    return result, layer_metrics(tracer.spans, delta, caches, tracer.cache_counts(), phase,
                                 costs)


def main(config):
    steps = config["steps"]
    tracer = None
    if config.get("trace"):
        costs = wrapper_cost()
        tracer = Tracer()
        tracer.install()
    record = []

    def cold():
        return _run_steps(steps, "cold", tracer, record)

    def warm():
        reps = []
        while steps and (not reps or (sum(reps) < WARM_MIN_S
                                      and len(reps) < WARM_MAX_REPS)):
            reps.append(_run_steps(steps, "warm", tracer, record))
        return reps

    if tracer is None:
        cold_s, reps = cold(), warm()
    else:
        cold_s, layers = _traced_phase(tracer, "cold", cold, costs)
        reps, warm_layers = _traced_phase(tracer, "warm", warm, costs)
        # the ratio table is cached; its hit ratio is what warm runs see
        key = "asymptotics.ratio_cache_hit_ratio"
        layers[key] = warm_layers[key]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    calibration_s = _calibration_s()

    result = {
        "t_ready": T_READY,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cohenram": cohenram.__version__,
        "cold_s": cold_s,
        "warm_reps_s": reps,
        "calibration_s": calibration_s,
        "peak_rss_mb": peak_kib * 1024 / 1e6,
        "steps": record,
    }
    if tracer is not None:
        result["layers"] = layers
        extra = [{"aggregate": name, "calls": calls, "total_s": total, "self_s": self_s}
                 for name, (calls, total, self_s) in sorted(tracer.aggregates.items())]
        tracer.write_jsonl(config["spans_path"], extra)
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main(json.loads(sys.argv[1]))
