"""Steadiness report: run the benchmark in two separate sets and compare.

    python3 perfbench/steadiness.py

Each set runs every workload of BENCHMARK.json 10 times with ``--trace 0``
for its ``run_seconds``, each run with its own seed (1000-1009 in the first
set, 1100-1109 in the second), workloads interleaved so that slow spells of
the machine spread over all of them. For each workload and set the report
prints every end-to-end metric's median and quartiles, the spread
(Q3 - Q1) / median next to the metric's bound in BENCHMARK.json, and the same
spread for the raw operation rates of the current and the twin side, which
the paired speedup is meant to beat. Across sets it prints how much the second median is worse
than the first, and each set's failed/attempted share. The last line is the
whole report as JSON.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10
FIRST_SEED = 1000


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3, "spread": (q3 - q1) / median}


def run_once(workload: str, seed: int, seconds: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()}")
    lines = done.stdout.strip().splitlines()
    detail = json.loads(next(line for line in reversed(lines) if line.startswith("detail "))[7:])
    return detail, json.loads(lines[-1])


def worse_by(first: float, second: float, better: str) -> float:
    """Share by which the second median is worse than the first (negative: better)."""
    return (first - second) / first if better == "higher" else (second - first) / first


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    runs = {w: [[], []] for w in workloads}
    for s in range(2):
        for r in range(RUNS):
            for w in workloads:
                seed = FIRST_SEED + 100 * s + r
                detail, result = run_once(w, seed, seconds)
                runs[w][s].append((detail, result))
                print(f"set {s + 1} {w} seed {seed}: correct={result['correct']} "
                      f"failed={result['failed']}/{result['attempted']} "
                      + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)

    environment = next(iter(runs.values()))[0][0][0]["environment"]
    report = {"environment": environment, "runs": RUNS, "seconds": seconds,
              "workers_per_workload": {w: runs[w][0][0][0]["environment"]["PRGD_MC_WORKERS"] for w in workloads},
              "workloads": {}}
    print("\nenvironment: " + json.dumps(environment))
    print("PRGD_MC_WORKERS per workload: " + json.dumps(report["workers_per_workload"])
          + " (mc_oracle runs ops 2k at 1 worker and 2k+1 at 2 workers)")
    for w in workloads:
        entry = report["workloads"][w] = {}
        print(f"\n{w}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sets = [quartiles([res["metrics"][name]["value"] for _, res in runs[w][s]]) for s in range(2)]
            drift = worse_by(sets[0]["median"], sets[1]["median"], metric["better"])
            entry[name] = {"sets": sets, "bound": bound, "second_worse_by": drift}
            for s, q in enumerate(sets):
                print(f"  {name:12s} set {s + 1}: median {q['median']:.5g}  quartiles {q['q1']:.5g} .. {q['q3']:.5g}"
                      f"  spread {q['spread']:.4f} (bound {bound}, a third {bound / 3:.4f})")
            print(f"  {name:12s} second median worse than first by {drift:+.4f} (bound {bound})")
        for side in ("current", "twin"):
            sets = [quartiles([d[f"{side}_ops_per_s"] for d, _ in runs[w][s]]) for s in range(2)]
            entry[f"raw_{side}_ops_per_s"] = sets
            print(f"  raw {side} ops/s spread: set 1 {sets[0]['spread']:.4f}, set 2 {sets[1]['spread']:.4f}")
        failed = [sum(res["failed"] for _, res in runs[w][s]) for s in range(2)]
        attempted = [sum(res["attempted"] for _, res in runs[w][s]) for s in range(2)]
        incorrect = sum(not res["correct"] for s in range(2) for _, res in runs[w][s])
        entry.update({"failed": failed, "attempted": attempted, "incorrect_runs": incorrect})
        print("  failed " + ", ".join(f"set {s + 1} {failed[s]}/{attempted[s]} ({failed[s] / attempted[s]:.6f})"
                                      for s in range(2)) + f"; incorrect runs {incorrect}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
