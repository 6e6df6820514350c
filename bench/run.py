"""Run one ftakit benchmark workload and print its metrics.

    python3 bench/run.py --workload peak-a12 --seed 7 --seconds 25 --trace 0

Run it from anywhere; it imports ftakit from the ``src`` directory next to
``bench``.  With ``--trace 0`` it measures the set-up time of the command
line, then repeats the workload's rounds for ``--seconds`` and prints the
end-to-end metrics.  With ``--trace 1`` it runs a fixed number of rounds,
each once untraced and once traced, and prints the per-layer metrics, a
per-grid-point breakdown and the tracing overhead; the spans are written to
``.bench_out/``.  Every round's output is checked: against the digests in
``golden.json`` at the default seed, by invariants at any seed, and across
the untraced and traced runs.  The last line of stdout is a JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fresh interpreters timed for setup_s, after one untimed run that leaves
# the byte-code caches warm.
SETUP_RUNS = 7
SETUP_CODE = "import sys; from ftakit.cli import main; sys.exit(main())"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Tally:
    """Operations attempted and failed, and the digest of every round output."""

    def __init__(self, name: str, seed: int, golden: dict):
        self.expected = golden["digests"].get(name, []) if seed == golden["seed"] else []
        self.attempted = 0
        self.failed = 0
        self.digests: list[str] = []

    def round(self, workload, seed: int, k: int):
        """Run round ``k``; return its result, or None if it raised."""
        try:
            result = workload.run_round(seed, k)
        except Exception:
            traceback.print_exc()
            self.attempted += 1
            self.failed += 1
            self.digests.append("error")
            return None
        self.attempted += result.ops
        if k < len(self.expected) and result.digest != self.expected[k]:
            print(f"round {k}: digest {result.digest} differs from golden "
                  f"{self.expected[k]}", file=sys.stderr)
            self.failed += result.ops
        else:
            self.failed += result.failed
        self.digests.append(result.digest)
        return result

    def summary(self) -> str:
        combined = hashlib.sha256("\n".join(self.digests).encode()).hexdigest()
        return (f"digest {combined} over rounds 0-{len(self.digests) - 1}; "
                f"round 0 digest {self.digests[0]}")


def environment(seed: int) -> dict:
    import numpy

    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        rev = None
    src = hashlib.sha256()
    for path in sorted((SRC / "ftakit").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "seed": seed,
    }


def setup_seconds(seed: int, runs: int = SETUP_RUNS) -> float:
    """Median time of a fresh ``ftakit pipeline`` on a tiny automaton."""
    command = [sys.executable, "-c", SETUP_CODE, "pipeline", "--n", "4",
               "--d2", "0.3", "--seed", str(seed)]
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for i in range(runs + 1):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=120)
        elapsed = time.perf_counter() - start
        sizes = dict(line.split() for line in done.stdout.splitlines()
                     if done.returncode == 0)
        if not 1 <= int(sizes.get("canonical_size", 0)) <= int(sizes["det_size"]) <= 15:
            raise RuntimeError(f"set-up command failed: {done.stderr.strip()}")
        if i:
            times.append(elapsed)
    return statistics.median(times)


def measure(workload, seed: int, seconds: float, tally: Tally,
            setup_runs: int = SETUP_RUNS) -> dict:
    """End-to-end metrics: rounds repeat until the next would pass ``seconds``."""
    setup_s = setup_seconds(seed, setup_runs)
    wall = cpu = work = 0.0
    base_rss = peak_rss = _max_rss_mb()
    peak_size = 0  # largest size among the rounds that raised the peak memory
    start = time.perf_counter()
    k = 0
    while True:
        w0, c0 = time.perf_counter(), time.process_time()
        result = tally.round(workload, seed, k)
        w1, c1 = time.perf_counter(), time.process_time()
        k += 1
        if result is not None:
            wall += w1 - w0
            cpu += c1 - c0
            work += result.work
            if _max_rss_mb() > peak_rss:
                peak_rss = _max_rss_mb()
                peak_size = max(peak_size, result.largest)
        elapsed = w1 - start
        if elapsed + elapsed / k > seconds:
            break
    if work == 0:
        raise RuntimeError("no round completed any work")
    scale = workload.fixed_work / work
    print(f"{k} rounds in {elapsed:.3f} s; wall_s and cpu_s are per "
          f"{workload.fixed_work_text}")
    if workload.memory_ref and peak_size:
        print(f"peak memory {peak_rss:.3f} MB at determinized size {peak_size}, "
              f"{base_rss:.3f} MB before the first round; peak_rss_mb projects it "
              f"to size {workload.memory_ref}")
        peak_rss = base_rss + (peak_rss - base_rss) * (workload.memory_ref / peak_size) ** 2
    return {
        "wall_s": (wall * scale, "s"),
        "cpu_s": (cpu * scale, "s"),
        "peak_rss_mb": (peak_rss, "MB"),
        "setup_s": (setup_s, "s"),
    }


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def measure_traced(workload, seed: int, tally: Tally, spans_path: Path) -> dict:
    """Per-layer metrics over ``workload.trace_rounds`` rounds, each run twice.

    Each round runs untraced and traced on the same inputs, alternating which
    goes first; the two outputs must have the same digest.
    """
    from spans import POINT_COLUMNS, Tracer, layer_metrics, point_breakdown, traced

    tracer = Tracer()
    base = with_trace = 0.0
    for k in range(workload.trace_rounds):
        digests = {}
        for on in ((False, True) if k % 2 == 0 else (True, False)):
            tracer.run = f"{workload.name}/{seed}/{k}"
            start = time.perf_counter()
            if on:
                with traced(tracer):
                    result = tally.round(workload, seed, k)
            else:
                result = tally.round(workload, seed, k)
            elapsed = time.perf_counter() - start
            if on:
                with_trace += elapsed
            else:
                base += elapsed
            digests[on] = result.digest if result is not None else None
        if digests[True] != digests[False]:
            print(f"round {k}: traced digest {digests[True]} differs from "
                  f"untraced {digests[False]}", file=sys.stderr)
            tally.failed += 1

    metrics = layer_metrics(tracer.spans)
    roots = sum(s.seconds for s in tracer.spans if s.parent is None)
    layers = sum(v for name, (v, _) in metrics.items()
                 if name.endswith("busy_s") or name == "experiment.self_s")
    print(f"traced wall {with_trace:.4f} s over {workload.trace_rounds} rounds; "
          f"layer busy + experiment.self_s = {layers:.4f} s "
          f"({layers / with_trace:.2%} of it; root spans {roots:.4f} s)")
    breakdown = point_breakdown(tracer.spans)
    if breakdown:
        print("per grid point: " + " ".join(POINT_COLUMNS))
        for row in breakdown:
            print("  " + " ".join(f"{v:.4f}" if isinstance(v, float) else str(v)
                                  for v in row))
    spans_path.parent.mkdir(exist_ok=True)
    tracer.write(spans_path)
    print(f"spans written to {spans_path}")
    metrics["trace.overhead"] = (with_trace / base, "ratio")
    metrics["trace.wall_s"] = (with_trace, "s")
    metrics["trace.base_wall_s"] = (base, "s")
    return metrics


def report(tally: Tally, metrics: dict) -> None:
    """Print every metric and the error rate by name with unit, then the result line."""
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"error_rate {tally.failed / tally.attempted} ratio "
          f"({tally.failed} failed of {tally.attempted} operations)")
    print(tally.summary())
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ftakit" / "__init__.py").is_file():
        print(f"error: no ftakit sources under {SRC}; run the benchmark from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    # Whether the kernel backs numpy's large arrays with huge pages depends on
    # the host's free memory, which moved peak RSS by up to 25% between runs
    # of one seed.  Without them the peak follows the program.
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"
    sys.path[:0] = [str(SRC), str(BENCH)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    workload = workloads.WORKLOADS[args.workload]
    golden = json.loads((BENCH / "golden.json").read_text())
    tally = Tally(workload.name, seed, golden)

    print(f"workload {workload.name} seed {seed} seconds {args.seconds} trace {args.trace}")
    print("env " + json.dumps(environment(seed)))
    if args.trace:
        metrics = measure_traced(workload, seed, tally,
                                 OUT / f"spans-{workload.name}-s{seed}.jsonl")
    else:
        metrics = measure(workload, seed, args.seconds, tally)
    report(tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
