"""cohenram benchmark entry point.

    python3 bench/run.py --workload {shifted,shifted-far,identity} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; needs only the source tree (``src/``), no
install.  Load shape: one single-threaded driver starts one fresh child
interpreter per pass, one at a time (a closed loop with one client), as
a command-line user pays import and empty caches on every invocation.
Each child imports cohenram, runs the workload's steps with cold caches,
repeats them warm in the same process, and reports its peak RSS.  Passes
repeat until ``--seconds`` is spent (at least MIN_PASSES).

End-to-end metrics (``--trace 0``):

* ``setup_s``      interpreter start through ``import cohenram.cli``,
                   median over passes;
* ``cold_s``       the steps' wall time in a fresh process, median over
                   passes;
* ``warm_s``       the same steps repeated in that process until 0.5 s
                   is covered, fastest repetition of any pass;
* ``peak_rss_mb``  ru_maxrss of the child after the warm phase, median.

A warm repetition is a short deterministic snippet re-run in a hot
process, so, as with ``timeit``, a slower repetition is the host's doing
and the fastest one is the steadier estimate: over ten seeds its spread
stayed at or below 0.20 on every workload, where the median's reached
0.34.  The summary and the record also give the median and quartiles of
every metric.

Failures are counted in ``attempted``/``failed``: a step run fails if its
exit code is wrong, its output check misses, or its stdout digest differs
from the step's first run.  ``--trace 1`` alternates untraced and traced
passes and reports the per-layer metrics of tracer.py (cold phase, except
the ratio-cache hit ratio, taken warm), medians over traced passes;
``trace.overhead_s`` is the cold phase's wrapped calls times the cost of
one wrapper, calibrated on a no-op in each traced child.

Every pass also times a fixed pure-Python loop after its steps; the
median goes into the provenance as ``calibration_s``, so a host that ran
slower for one run can be told apart from a slower program.  Metrics are
not normalised by it.

The last stdout line is the JSON result; the lines before it are a human
summary.  A full record (inputs, provenance, every pass) goes to
``bench/results/``.  Exit status: 0 when every check passed, 1 when a
check failed, 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time

from tracer import LAYER_UNITS
from workloads import WORKLOADS, check, draw_inputs, steps as workload_steps

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULTS_DIR = os.path.join(BENCH_DIR, "results")
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2
DEADLINE_S = 165     # every run ends well inside the 180 s limit

# name -> (unit, how one run reduces its samples to the reported value)
END_TO_END = {"setup_s": ("s", statistics.median), "cold_s": ("s", statistics.median),
              "warm_s": ("s", min), "peak_rss_mb": ("MB", statistics.median)}


class BenchError(RuntimeError):
    """The benchmark itself cannot run (missing source, child crashed)."""


def _child(config: dict, timeout: float) -> tuple[float, dict]:
    """Start one pass; returns (spawn time, parsed report)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "child.py"),
                               json.dumps(config)], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"a pass ran past {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"pass exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return t_spawn, json.loads(proc.stdout.splitlines()[-1])


def _provenance(child: dict, seed: int, calibration_s: float) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    src = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "cohenram")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                src.update(name.encode() + b"\0" + fh.read())
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu, "python": child["python"], "numpy": child["numpy"],
            "cohenram": child["cohenram"], "git_commit": _git_commit(),
            "src_sha256": src.hexdigest(), "seed": seed, "calibration_s": calibration_s}


def _git_commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose) as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs")) as fh:
            return next((ln.split()[0] for ln in fh if ln.strip().endswith(" " + name)),
                        None)
    except OSError:
        return None


def _summary(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"min": min(values), "q1": q1, "median": statistics.median(values), "q3": q3,
            "n": len(values)}


def run(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    """All passes of one run; returns (contract result, full record)."""
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "cohenram", "__init__.py")):
        raise BenchError("src/cohenram is missing; run from a cohenram source tree")
    inputs = draw_inputs(workload, seed)
    steps = workload_steps(workload, inputs)
    os.makedirs(RESULTS_DIR, exist_ok=True)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"

    # untimed: byte-compile and page in the package, and check it imports
    _, first = _child({"steps": []}, DEADLINE_S)
    reference = {}
    if workload == "shifted-far":
        argv = next(s["argv"] for s in steps if s["name"] == "asymptotic-far")
        args = [argv[argv.index(flag) + 1] for flag in ("--a", "--b", "--h", "--N")]
        proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "reference.py"),
                               *args], cwd=ROOT,
                              capture_output=True, text=True, timeout=DEADLINE_S)
        if proc.returncode != 0:
            raise BenchError(f"reference sum failed: {proc.stderr.strip()[-2000:]}")
        reference["far_lhs"] = float(proc.stdout)

    base = {"steps": steps}
    plain, traced = [], []
    t_measure = time.monotonic()
    while True:
        t0 = time.monotonic()
        t_spawn, rep = _child(base, DEADLINE_S - (t0 - started))
        rep["setup_s"] = rep["t_ready"] - t_spawn
        plain.append(rep)
        if trace:
            spans = os.path.join(RESULTS_DIR, f"spans-{tag}-pass{len(traced)}.jsonl")
            _, rep = _child(dict(base, trace=True, spans_path=spans),
                            DEADLINE_S - (time.monotonic() - started))
            traced.append(rep)
        now = time.monotonic()
        enough = len(plain) >= (MIN_TRACED_PAIRS if trace else MIN_PASSES)
        if enough and now - t_measure + (now - t0) > seconds:
            break
        if now - started + (now - t0) > DEADLINE_S:
            if not enough:
                raise BenchError(f"only {len(plain)} passes fit in {DEADLINE_S} s")
            break

    # every run of a step must print what its first run printed, and that
    # output must pass the step's check
    by_name = {s["name"]: s for s in steps}
    first_run = {}
    verdicts = {}
    attempted = failed = 0
    failures = []
    for rep in plain + traced:
        for rec in rep["steps"]:
            name = rec["step"]
            if name not in first_run:
                first_run[name] = rec
                verdicts[name] = check(by_name[name], rec["exit"], rec["stdout"], reference)
                if verdicts[name] and rec.get("stderr"):
                    verdicts[name] += f" (stderr: {rec['stderr'].strip()[-300:]})"
            reason = verdicts[name]
            if reason is None and rec["digest"] != first_run[name]["digest"]:
                reason = f"stdout digest differs from the first run ({rec['phase']})"
            if reason is None and rec["exit"] != first_run[name]["exit"]:
                reason = f"exit code {rec['exit']} differs from the first run"
            attempted += 1
            if reason is not None:
                failed += 1
                failures.append(f"{name} [{rec['phase']}]: {reason}")
            rec.pop("stdout", None)

    stats = {name: _summary([t for rep in plain for t in rep["warm_reps_s"]]
                            if name == "warm_s" else [rep[name] for rep in plain])
             for name in END_TO_END}
    if trace:
        stats.update({name: _summary([rep["layers"][name] for rep in traced])
                      for name in traced[0]["layers"]})
        metrics = {name: {"value": stats[name]["median"], "unit": unit}
                   for name, unit in LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": stats[name][reduce.__name__], "unit": unit}
                   for name, (unit, reduce) in END_TO_END.items()}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
              "inputs": inputs, "reference": reference,
              "provenance": _provenance(first, seed, statistics.median(
                  rep["calibration_s"] for rep in plain)),
              "error_rate": failed / attempted, "failures": failures[:50],
              "stats": stats, "passes": plain, "traced_passes": traced,
              "result": result}
    with open(os.path.join(RESULTS_DIR, f"{tag}.json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return result, record


def _print_summary(record: dict) -> None:
    print(f"workload {record['workload']}  seed {record['seed']}  "
          f"inputs {json.dumps(record['inputs'])}")
    print(f"provenance {json.dumps(record['provenance'])}")
    for name, st in record["stats"].items():
        value = record["result"]["metrics"].get(name, {}).get("value", st["median"])
        print(f"{name:38s} {value:>14.6g}  of {st['n']}: min {st['min']:.6g}  "
              f"q1 {st['q1']:.6g}  median {st['median']:.6g}  q3 {st['q3']:.6g}")
    res = record["result"]
    print(f"{'error_rate':38s} {record['error_rate']:>14.6g}  "
          f"{res['failed']} of {res['attempted']} step runs failed")
    for line in record["failures"][:10]:
        print(f"FAILED {line}")
    if res["failed"] > 10:
        print(f"... and {res['failed'] - 10} more failed step runs")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # turn SIGTERM into an exception, so subprocess.run kills and reaps the child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    try:
        result, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    _print_summary(record)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
