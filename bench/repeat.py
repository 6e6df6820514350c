"""Run the benchmark at several seeds and report the spread of each metric.

    python3 bench/repeat.py --seeds 1-10 [--workload NAME ...] [--out FILE]

Each run is a fresh ``run.py`` process, untraced, one per seed and workload
(default: every workload in BENCHMARK.json, for its ``run_seconds``).  For
each metric it prints the median, the quartiles and the interquartile range
as a share of the median, as ``statistics.quantiles(values, n=4)`` gives
them.  ``--out`` also makes one traced run per workload at the first seed
and writes every result line, with the environment, to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, ROOT


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    lines = done.stdout.splitlines()
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    return {"workload": workload, "seed": seed, "trace": trace, "env": env,
            "result": json.loads(lines[-1])}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / median}


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-10"))
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    runs, summary = [], {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        results = []
        for seed in args.seeds:
            run = run_once(workload, seed, spec["run_seconds"], 0)
            runs.append(run)
            results.append(run["result"])
            print(workload, seed, json.dumps(run["result"]), flush=True)
        summary[workload] = {}
        for name, bound in bounds.items():
            stats = spread([r["metrics"][name]["value"] for r in results])
            summary[workload][name] = stats
            print(f"  {name:12s} median {stats['median']:.4f} q1 {stats['q1']:.4f} "
                  f"q3 {stats['q3']:.4f} iqr/median {stats['iqr_share']:.4f} "
                  f"(bound {bound})", flush=True)
        print(f"  all correct: {all(r['correct'] for r in results)}", flush=True)
        if args.out:
            runs.append(run_once(workload, args.seeds[0], spec["run_seconds"], 1))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            json.dump({"summary": summary, "runs": runs}, out, indent=1)
            out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
