"""Density sweeps: generate trim automata, determinize, minimize, record sizes.

A sweep walks the logarithmic density grid for one state count, produces a
fixed number of trim automata per grid point, and records determinized and
canonical sizes.  Fitting a size-weighted mean and deviation of log-density
locates the empirically hardest density together with a confidence interval.

Grid points whose trim automata are too rare to generate (the regeneration
loop exhausts its attempt budget) are kept in the output with the trials
that did complete; the peak fit uses the points with at least one completed
trial.  Everything is keyed off one master seed, so identical parameters
give identical outputs regardless of the worker count.
"""

from __future__ import annotations

import enum
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Iterable, Sequence

import numpy as np

from .constructions import determinize, minimize
from .core import RankedAlphabet, language_fingerprint
from .density import density_grid, peak_density
from .errors import ExhaustionError, FitError, InputError
from .randgen import GenConfig, Seed, as_seed, float_key, generate_trim, trim_ratio

# Per-trial regeneration budget for sweeps.  The grid's sparse end needs far
# more attempts than direct generation ever does (tens of thousands per trim
# automaton around d2 = peak**2 for n = 8), so the GenConfig default of
# 10_000 would starve it; half a million keeps those points feasible while
# bounding the cost of points where trim automata are essentially
# unreachable.
SWEEP_MAX_ATTEMPTS = 500_000

WORKERS_ENV = "FTAKIT_WORKERS"

_POINT_TAG = 0
_TRIM_TAG = 1
_CHECK_TAG = 2

# Cells left blank in the reference trim-ratio table (density, n).
_TRIM_TABLE_BLANK = {
    (0.01, 2), (0.01, 4), (0.01, 6),
    (0.05, 2), (0.05, 4),
    (0.10, 2),
    (0.25, 2),
}

TRIM_TABLE_DENSITIES = (0.01, 0.05, 0.10, 0.25, 0.50)
TRIM_TABLE_SIZES = (2, 4, 6, 7, 8, 9, 10, 11, 12, 13)


class Setting(enum.Enum):
    """The two experiment alphabets: one or two binary symbols plus a constant."""

    A = "A"
    B = "B"

    @property
    def alphabet(self) -> RankedAlphabet:
        if self is Setting.A:
            return RankedAlphabet.of(alpha=0, sigma=2)
        return RankedAlphabet.of(alpha=0, sigma=2, delta=2)

    @property
    def code(self) -> int:
        return 0 if self is Setting.A else 1


@dataclass(frozen=True)
class PointRecord:
    """Outcome of one (n, d2) grid point."""

    setting: str
    n: int
    x: int | None
    d2: float
    d0: float
    trials_requested: int
    trim_attempts: int
    det_sizes: tuple[int, ...]
    canonical_sizes: tuple[int, ...]
    exhausted: bool
    seed: int

    @property
    def trials_completed(self) -> int:
        return len(self.det_sizes)

    @property
    def mean_det_size(self) -> float | None:
        if not self.det_sizes:
            return None
        return sum(self.det_sizes) / len(self.det_sizes)

    @property
    def mean_canonical_size(self) -> float | None:
        if not self.canonical_sizes:
            return None
        return sum(self.canonical_sizes) / len(self.canonical_sizes)


@dataclass(frozen=True)
class PeakFit:
    """Size-weighted log-normal location fit over (density, weight) points.

    ``peak`` is exp of the weighted mean of log-density.  ``lo``/``hi`` use
    1.96 standard errors of that mean (sigma / sqrt(#points)); the plain
    1.96-sigma band is also reported as ``lo_wide``/``hi_wide`` since either
    reading of "deviation" appears in practice.
    """

    mu: float
    sigma: float
    n_points: int
    peak: float
    lo: float
    hi: float
    lo_wide: float
    hi_wide: float

    def contains(self, d2: float) -> bool:
        return self.lo < d2 < self.hi

    def overlaps(self, other: "PeakFit") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


def fit_peak(points: Iterable[tuple[float, float]], *, z: float = 1.96) -> PeakFit:
    """Weighted mean and deviation of log-density over positive-weight points."""
    data = [(d, w) for d, w in points if w > 0]
    if len(data) < 3:
        raise FitError(f"need at least 3 positive-weight points, got {len(data)}")
    total = sum(w for _, w in data)
    mu = sum(w * math.log(d) for d, w in data) / total
    var = sum(w * (math.log(d) - mu) ** 2 for d, w in data) / total
    sigma = math.sqrt(var)
    se = sigma / math.sqrt(len(data))
    return PeakFit(
        mu=mu,
        sigma=sigma,
        n_points=len(data),
        peak=math.exp(mu),
        lo=math.exp(mu - z * se),
        hi=math.exp(mu + z * se),
        lo_wide=math.exp(mu - z * sigma),
        hi_wide=math.exp(mu + z * sigma),
    )


def fit_records(records: Sequence[PointRecord], metric: str = "det") -> PeakFit:
    """Fit the peak from sweep records, weighting by mean size per point."""
    if metric == "det":
        pairs = [(r.d2, r.mean_det_size or 0.0) for r in records]
    elif metric == "canonical":
        pairs = [(r.d2, r.mean_canonical_size or 0.0) for r in records]
    else:
        raise InputError(f"unknown fit metric {metric!r}")
    return fit_peak(pairs)


def run_point(
    setting: Setting,
    n: int,
    d2: float,
    trials: int,
    seed: Seed | int,
    *,
    d0: float = 0.5,
    final_prob: float = 0.5,
    x: int | None = None,
    max_attempts: int = SWEEP_MAX_ATTEMPTS,
) -> PointRecord:
    """Generate, determinize, and minimize ``trials`` trim automata at one density.

    Trials run in a fixed order on per-trial streams.  If a trial exhausts
    its regeneration budget the point stops there and keeps the completed
    prefix, so results never depend on scheduling.
    """
    if n < 2:
        raise InputError("experiments need n >= 2")
    if trials < 1:
        raise InputError("trials must be at least 1")
    seed = as_seed(seed)
    config = GenConfig(
        n=n,
        alphabet=setting.alphabet,
        d2=d2,
        d0=d0,
        final_prob=final_prob,
        max_attempts=max_attempts,
    )
    base = seed.child(_POINT_TAG, setting.code, n, float_key(d2), float_key(d0))
    det_sizes: list[int] = []
    canonical_sizes: list[int] = []
    attempts_total = 0
    exhausted = False
    for trial in range(trials):
        try:
            fta, attempts = generate_trim(config, base, trial)
        except ExhaustionError as err:
            attempts_total += err.attempts
            exhausted = True
            break
        attempts_total += attempts
        dfta = determinize(fta)
        det_sizes.append(dfta.size)
        canonical = minimize(dfta).size
        assert canonical >= 1, "a trim automaton accepts at least one tree"
        canonical_sizes.append(canonical)
    return PointRecord(
        setting=setting.value,
        n=n,
        x=x,
        d2=d2,
        d0=d0,
        trials_requested=trials,
        trim_attempts=attempts_total,
        det_sizes=tuple(det_sizes),
        canonical_sizes=tuple(canonical_sizes),
        exhausted=exhausted,
        seed=seed.master,
    )


@dataclass(frozen=True)
class SweepResult:
    setting: Setting
    n: int
    records: tuple[PointRecord, ...]
    fit: PeakFit

    def record_at(self, x: int) -> PointRecord:
        for r in self.records:
            if r.x == x:
                return r
        raise KeyError(f"no grid point x={x}")


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        workers = int(os.environ.get(WORKERS_ENV, "1"))
    return max(1, workers)


def _call_in_order(calls: list, workers: int) -> list:
    """Results of zero-argument picklable calls, in order, on up to ``workers`` processes."""
    if workers <= 1 or len(calls) <= 1:
        return [call() for call in calls]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(call) for call in calls]
        return [f.result() for f in futures]


def run_sweep(
    setting: Setting,
    n: int,
    seed: Seed | int,
    *,
    steps: int = 40,
    trials: int = 40,
    d0: float = 0.5,
    max_attempts: int = SWEEP_MAX_ATTEMPTS,
    workers: int | None = None,
) -> SweepResult:
    """One full density sweep for a state count, plus the fitted peak."""
    if not 2 <= n:
        raise InputError("sweeps need n >= 2")
    if trials < 1:
        raise InputError("trials must be at least 1")
    seed = as_seed(seed)
    calls = [
        partial(run_point, setting, n, point.d2, trials, seed,
                d0=d0, x=point.x, max_attempts=max_attempts)
        for point in density_grid(n, steps)
    ]
    records = tuple(_call_in_order(calls, _resolve_workers(workers)))
    return SweepResult(setting=setting, n=n, records=records, fit=fit_records(records))


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


SWEEP_CSV_HEADER = "setting,n,x,d2,trials,trim_attempts,mean_det_size,mean_canonical_size"


def sweep_csv(records: Iterable[PointRecord]) -> str:
    """Locale-independent CSV with one row per grid point."""
    lines = [SWEEP_CSV_HEADER]
    for r in records:
        lines.append(",".join([
            r.setting,
            str(r.n),
            _fmt(r.x),
            _fmt(r.d2),
            str(r.trials_completed),
            str(r.trim_attempts),
            _fmt(r.mean_det_size),
            _fmt(r.mean_canonical_size),
        ]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class DensityRow:
    """One row of the expected-vs-observed peak table."""

    n: int
    expected: float
    observed: float
    lo: float
    hi: float

    @property
    def contains(self) -> bool:
        return self.lo < self.expected < self.hi


def table_densities(
    setting: Setting,
    n_values: Sequence[int],
    seed: Seed | int,
    *,
    steps: int = 40,
    trials: int = 40,
    workers: int | None = None,
    max_attempts: int = SWEEP_MAX_ATTEMPTS,
) -> list[DensityRow]:
    """Expected and observed peak densities (with intervals) per state count."""
    rows = []
    for n in n_values:
        sweep = run_sweep(
            setting, n, seed,
            steps=steps, trials=trials, workers=workers, max_attempts=max_attempts,
        )
        rows.append(DensityRow(
            n=n,
            expected=peak_density(n),
            observed=sweep.fit.peak,
            lo=sweep.fit.lo,
            hi=sweep.fit.hi,
        ))
    return rows


DENSITIES_CSV_HEADER = "n,expected_d2,observed_d2,ci_lo,ci_hi,contains"


def densities_csv(rows: Iterable[DensityRow]) -> str:
    lines = [DENSITIES_CSV_HEADER]
    for r in rows:
        lines.append(",".join([
            str(r.n), _fmt(r.expected), _fmt(r.observed),
            _fmt(r.lo), _fmt(r.hi), str(r.contains).lower(),
        ]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class TrimCell:
    """One cell of the trim-ratio table."""

    d2: float
    n: int
    trials: int
    hits: int
    ratio: float
    half_width: float


def _trim_cell(setting: Setting, n: int, d2: float, trials: int, seed: Seed,
               d0: float) -> TrimCell:
    config = GenConfig(n=n, alphabet=setting.alphabet, d2=d2, d0=d0)
    cell_seed = seed.child(_TRIM_TAG, setting.code, n, float_key(d2))
    est = trim_ratio(config, trials, cell_seed)
    return TrimCell(
        d2=d2, n=n, trials=trials, hits=est.hits,
        ratio=est.ratio, half_width=est.half_width,
    )


def table_trim(
    seed: Seed | int,
    *,
    setting: Setting = Setting.B,
    densities: Sequence[float] = TRIM_TABLE_DENSITIES,
    n_values: Sequence[int] = TRIM_TABLE_SIZES,
    trials: int = 1000,
    d0: float = 0.5,
    include_blank: bool = False,
    workers: int | None = None,
) -> list[TrimCell]:
    """Trim fractions over the (density, n) grid of the reference table.

    Cells blank in the reference table are skipped unless ``include_blank``.
    The default alphabet has two binary symbols: that is the model whose
    trim fractions match the reference percentages (one binary symbol gives
    far lower values across the whole grid).
    """
    seed = as_seed(seed)
    calls = [
        partial(_trim_cell, setting, n, d2, trials, seed, d0)
        for d2 in densities
        for n in n_values
        if include_blank or (d2, n) not in _TRIM_TABLE_BLANK
    ]
    return _call_in_order(calls, _resolve_workers(workers))


TRIM_CSV_HEADER = "d2,n,trials,trim,ratio,ci_half_width"


def trim_csv(cells: Iterable[TrimCell]) -> str:
    lines = [TRIM_CSV_HEADER]
    for c in cells:
        lines.append(",".join([
            _fmt(c.d2), str(c.n), str(c.trials), str(c.hits),
            _fmt(c.ratio), _fmt(c.half_width),
        ]))
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class SettingsReport:
    """Peak location and size comparison between the two alphabets at one n."""

    n: int
    sweep_a: SweepResult
    sweep_b: SweepResult
    fit_a_det: PeakFit
    fit_b_det: PeakFit
    fit_a_canonical: PeakFit
    fit_b_canonical: PeakFit
    peak_mean_det_a: float
    peak_mean_det_b: float

    @property
    def peaks_overlap(self) -> bool:
        return self.fit_a_det.overlaps(self.fit_b_det)

    @property
    def b_larger_at_peak(self) -> bool:
        return self.peak_mean_det_b > self.peak_mean_det_a

    @property
    def minimization_keeps_peak(self) -> bool:
        return (self.fit_a_det.overlaps(self.fit_a_canonical)
                and self.fit_b_det.overlaps(self.fit_b_canonical))


def compare_settings(
    n: int,
    seed: Seed | int,
    *,
    steps: int = 40,
    trials: int = 40,
    workers: int | None = None,
    max_attempts: int = SWEEP_MAX_ATTEMPTS,
    sweeps: tuple[SweepResult, SweepResult] | None = None,
) -> SettingsReport:
    """Run (or reuse) both settings' sweeps at one n and compare the peaks."""
    if sweeps is not None:
        sweep_a, sweep_b = sweeps
    else:
        sweep_a = run_sweep(Setting.A, n, seed, steps=steps, trials=trials,
                            workers=workers, max_attempts=max_attempts)
        sweep_b = run_sweep(Setting.B, n, seed, steps=steps, trials=trials,
                            workers=workers, max_attempts=max_attempts)
    mid = steps // 2
    mean_a = sweep_a.record_at(mid).mean_det_size
    mean_b = sweep_b.record_at(mid).mean_det_size
    return SettingsReport(
        n=n,
        sweep_a=sweep_a,
        sweep_b=sweep_b,
        fit_a_det=sweep_a.fit,
        fit_b_det=sweep_b.fit,
        fit_a_canonical=fit_records(sweep_a.records, "canonical"),
        fit_b_canonical=fit_records(sweep_b.records, "canonical"),
        peak_mean_det_a=mean_a if mean_a is not None else float("nan"),
        peak_mean_det_b=mean_b if mean_b is not None else float("nan"),
    )


def equivalence_failures(
    cases: int,
    seed: Seed | int,
    *,
    height: int = 4,
    setting: Setting = Setting.A,
    n_range: tuple[int, int] = (2, 4),
    max_attempts: int = 50_000,
) -> list[str]:
    """Cross-check the whole pipeline against the finite-language oracle.

    For each case, a random trim automaton (with n and densities drawn from
    the case's stream) is determinized and minimized, and the accepted-tree
    sets up to ``height`` are compared across all three stages.  Returns a
    description per failing case; an empty list means every language agreed.
    """
    seed = as_seed(seed)
    failures: list[str] = []
    for i in range(cases):
        rng = seed.stream(_CHECK_TAG, i)
        n = int(rng.integers(n_range[0], n_range[1] + 1))
        d2 = float(np.exp(rng.uniform(np.log(0.08), 0.0)))
        d0 = float(rng.uniform(0.3, 0.9))
        config = GenConfig(
            n=n, alphabet=setting.alphabet, d2=d2, d0=d0, max_attempts=max_attempts
        )
        fta, _ = generate_trim(config, seed.child(_CHECK_TAG, i), 0)
        dfta = determinize(fta)
        canonical = minimize(dfta)
        fp = language_fingerprint(fta, height)
        fp_det = language_fingerprint(dfta.to_fta(), height)
        fp_min = language_fingerprint(canonical.to_fta(), height)
        if not (fp == fp_det == fp_min):
            failures.append(
                f"case {i}: n={n} d2={d2:.4f} d0={d0:.4f}: "
                f"|M|={len(fp)} |det|={len(fp_det)} |min|={len(fp_min)}"
            )
    return failures
