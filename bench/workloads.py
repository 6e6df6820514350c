"""The four benchmark workloads and the checks on their outputs.

Each workload is a sequence of rounds.  Round ``k`` of a run at master seed
``s`` draws its inputs from ``ftakit.Seed(s, (k,))`` and makes the public
calls a researcher makes, at ``workers=1``: one client, and the next call
starts when the previous one returns.  A round returns the text whose sha256
is its digest (a CSV, or the oracle's failure list), how many operations it
attempted and how many failed an invariant, and the work it did.  Work is
what the end-to-end times are normalised by: one per round, except for
``peak-a12``, whose instance sizes vary too much between seeds for a time per
round to be steady.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

import ftakit as fk
from ftakit import experiment
from ftakit.experiment import Setting

DEFAULT_SEED = 7


@dataclass(frozen=True)
class RoundResult:
    output: str
    ops: int
    failed: int
    work: float
    largest: int = 0  # largest determinized size, where tables dominate memory

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.output.encode()).hexdigest()


@dataclass(frozen=True)
class Workload:
    """A named workload: how to run round ``k`` and how much work to time.

    ``wall_s`` and ``cpu_s`` report the time of ``fixed_work`` units of
    round work, described by ``fixed_work_text``.  ``trace_rounds`` is the
    fixed number of rounds the traced run makes, so that its counts repeat
    exactly for a seed.  A nonzero ``memory_ref`` makes ``peak_rss_mb``
    report the peak projected to a determinized size of ``memory_ref``.
    """

    name: str
    run_round: Callable[[int, int], RoundResult]
    trace_rounds: int
    fixed_work: float
    fixed_work_text: str
    memory_ref: int = 0


def _sweep_invariants(records) -> int:
    """Grid points breaking 1 <= canonical <= det <= 2**n - 1 or the trial count."""
    bad = 0
    for r in records:
        ok = len(r.det_sizes) == len(r.canonical_sizes)
        ok &= r.exhausted or len(r.det_sizes) == r.trials_requested
        ok &= all(1 <= c <= d <= 2 ** r.n - 1
                  for d, c in zip(r.det_sizes, r.canonical_sizes))
        bad += not ok
    return bad


def sweep(n: int = 8, steps: int = 40, trials: int = 10) -> Workload:
    """The whole density grid at one n, as ``ftakit sweep`` runs it."""

    def run_round(seed: int, k: int) -> RoundResult:
        result = experiment.run_sweep(Setting.A, n, fk.Seed(seed, (k,)),
                                      steps=steps, trials=trials, workers=1)
        return RoundResult(output=experiment.sweep_csv(result.records),
                           ops=len(result.records),
                           failed=_sweep_invariants(result.records), work=1)

    return Workload(f"sweep-a{n}", run_round, trace_rounds=3, fixed_work=1,
                    fixed_work_text=f"one {steps + 1}-point sweep at {trials} trials")


# Grid points around the predicted peak of the 40-step grid at n = 12.
PEAK_X = range(17, 24)
# peak-a12 reports the time for this many subset pairs, about what one trial
# at each of the seven points costs.
PEAK_PAIRS = 10 ** 7


def peak(n: int = 12, steps: int = 40, xs=PEAK_X) -> Workload:
    """One trim automaton per call, round-robin over the grid points ``xs``.

    Round ``k`` is ``run_point`` at ``xs[k % len(xs)]`` with one trial on the
    seed of cycle ``k // len(xs)``, so seven consecutive rounds make one trial
    at each point.  Determinize and minimize work on |det|**2 tables, so a
    round's work is |det|**2.  A run reaches too few instances for its
    largest to be steady between seeds, so the peak memory, which that
    instance's tables set, is projected to the largest possible size 2**n.
    """
    grid = fk.density_grid(n, steps)
    xs = tuple(xs)

    def run_round(seed: int, k: int) -> RoundResult:
        x = xs[k % len(xs)]
        record = experiment.run_point(Setting.A, n, grid[x].d2, 1,
                                      fk.Seed(seed, (k // len(xs),)), x=x)
        return RoundResult(output=experiment.sweep_csv([record]), ops=1,
                           failed=_sweep_invariants([record]),
                           work=sum(d * d for d in record.det_sizes),
                           largest=max(record.det_sizes, default=0))

    return Workload(f"peak-a{n}", run_round, trace_rounds=2 * len(xs),
                    fixed_work=PEAK_PAIRS,
                    fixed_work_text=f"{PEAK_PAIRS:.0e} subset pairs (sum of |det|**2)",
                    memory_ref=2 ** n)


def trim(trials: int = 1000, densities=experiment.TRIM_TABLE_DENSITIES,
         n_values=experiment.TRIM_TABLE_SIZES) -> Workload:
    """The trim-ratio table of ``ftakit table2`` (setting B, 43 cells)."""

    def run_round(seed: int, k: int) -> RoundResult:
        cells = experiment.table_trim(fk.Seed(seed, (k,)), setting=Setting.B,
                                      densities=densities, n_values=n_values,
                                      trials=trials, workers=1)
        bad = sum(not (c.trials == trials and 0 <= c.hits <= c.trials)
                  for c in cells)
        return RoundResult(output=experiment.trim_csv(cells), ops=len(cells),
                           failed=bad, work=1)

    return Workload("trim-b", run_round, trace_rounds=2, fixed_work=1,
                    fixed_work_text=f"one trim table at {trials} trials per cell")


def oracle(cases: int = 25, height: int = 4) -> Workload:
    """``ftakit check``: the pipeline against the tree oracle, ``cases`` per round."""

    def run_round(seed: int, k: int) -> RoundResult:
        failures = experiment.equivalence_failures(cases, fk.Seed(seed, (k,)),
                                                   height=height)
        return RoundResult(output="\n".join(failures), ops=cases,
                           failed=len(failures), work=1)

    return Workload(f"oracle-h{height}", run_round, trace_rounds=4, fixed_work=1,
                    fixed_work_text=f"{cases} oracle cases")


WORKLOADS = {w.name: w for w in (sweep(), peak(), trim(), oracle())}
