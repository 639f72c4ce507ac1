"""Run the benchmark on every workload of BENCHMARK.json with seeds 1-10
and report each end-to-end metric's median and quartile spread against
its bound.

    python3 bench/sweep.py [--baseline PATH]

Each run is ``bench/run.py`` for ``run_seconds`` in a subprocess, one at
a time.  The spread of a metric is (q3 - q1) / median over the runs,
with the quartiles of ``statistics.quantiles(values, n=4)``.
``--baseline PATH`` also makes one traced run per workload and writes
medians, quartiles, per-layer figures and provenance to PATH, so later
changes can be compared with the same harness.  Exit status 1 if any run
failed its checks or any spread exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SEEDS = range(1, 11)


def _run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run([sys.executable, os.path.join(BENCH_DIR, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    path = os.path.join(BENCH_DIR, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path) as fh:
        return result, json.load(fh)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--baseline", metavar="PATH")
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ok = True
    seconds = spec["run_seconds"]
    out = {"run_seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs, calibration = [], []
        for seed in SEEDS:
            result, record = _run(workload, seed, seconds, 0)
            calibration.append(record["provenance"]["calibration_s"])
            ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
                  + f" calibration_s={calibration[-1]:.6g}",
                  flush=True)
        summary = {}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            spread = (q3 - q1) / med
            if spread > bound:
                ok = False
            verdict = "ok" if spread < bound / 3 else ("within bound" if spread <= bound
                                                       else "OVER BOUND")
            print(f"  {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"spread {spread:.4f}  bound {bound}  {verdict}")
            summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                             "values": values}
        out["workloads"][workload] = {"seeds": list(SEEDS), "end_to_end": summary,
                                      "calibration_s": calibration,
                                      "provenance": record["provenance"]}
        if args.baseline:
            result, record = _run(workload, SEEDS[0], seconds, 1)
            ok &= result["correct"]
            out["workloads"][workload]["per_layer"] = {
                name: m["value"] for name, m in result["metrics"].items()}
            out["workloads"][workload]["per_layer_seed"] = record["seed"]
    if args.baseline:
        with open(args.baseline, "w") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
