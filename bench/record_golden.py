"""Record the round digests of every workload at the default seed.

    python3 bench/record_golden.py

Writes ``golden.json``, which ``run.py`` checks rounds against at the
default seed.  Record only from a commit whose outputs are known to be
right.  Rounds past the recorded ones are checked by invariants only.
"""

from __future__ import annotations

import json
import sys

from run import BENCH, SRC

# About twice the rounds a default-length run makes on two cores.
ROUNDS = {"sweep-a8": 12, "peak-a12": 56, "trim-b": 8, "oracle-h4": 16}


def main() -> int:
    sys.path.insert(0, str(SRC))
    import workloads

    seed = workloads.DEFAULT_SEED
    digests = {}
    for name, rounds in ROUNDS.items():
        results = [workloads.WORKLOADS[name].run_round(seed, k) for k in range(rounds)]
        bad = sum(r.failed for r in results)
        if bad:
            print(f"{name}: {bad} operations fail their invariants", file=sys.stderr)
            return 1
        digests[name] = [r.digest for r in results]
        print(f"{name}: {rounds} rounds recorded", flush=True)
    (BENCH / "golden.json").write_text(
        json.dumps({"seed": seed, "digests": digests}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
