"""Sweep harness, peak fitting, tables, and CSV output."""

from __future__ import annotations

import math
import weakref
from types import SimpleNamespace

import pytest

from ftakit import (
    FitError,
    GenConfig,
    InputError,
    Setting,
    canonical_size,
    densities_csv,
    determinize,
    fit_peak,
    fit_records,
    generate_trim,
    peak_density,
    run_point,
    run_sweep,
    sweep_csv,
    table_densities,
    table_trim,
    trim_csv,
)
from ftakit import experiment
from ftakit.experiment import TRIM_TABLE_SIZES, equivalence_failures


def test_fit_peak_single_density():
    fit = fit_peak([(0.25, 1.0), (0.25, 2.0), (0.25, 5.0)])
    assert fit.peak == pytest.approx(0.25)
    assert fit.sigma == 0.0
    assert fit.lo == fit.hi == fit.peak


def test_fit_peak_symmetric_weights():
    center = 0.1
    points = [(center * 4 ** k, w) for k, w in [(-1, 2.0), (0, 6.0), (1, 2.0)]]
    fit = fit_peak(points)
    assert fit.peak == pytest.approx(center)
    assert fit.lo < center < fit.hi


def test_fit_peak_needs_three_points():
    with pytest.raises(FitError):
        fit_peak([(0.5, 1.0), (0.2, 0.0), (0.1, 1.0)])


def test_fit_peak_weighted_mean_formula():
    points = [(0.5, 1.0), (0.1, 3.0), (0.02, 1.0)]
    fit = fit_peak(points)
    total = sum(w for _, w in points)
    mu = sum(w * math.log(d) for d, w in points) / total
    assert fit.mu == pytest.approx(mu)
    assert fit.peak == pytest.approx(math.exp(mu))
    var = sum(w * (math.log(d) - mu) ** 2 for d, w in points) / total
    assert fit.sigma == pytest.approx(math.sqrt(var))
    se = fit.sigma / math.sqrt(3)
    assert fit.hi / fit.peak == pytest.approx(math.exp(1.96 * se))


def test_complete_config_has_one_canonical_state():
    # d2 = d0 = 1 forces the complete automaton; its language is all trees,
    # whose canonical automaton has a single state.
    config = GenConfig(n=2, alphabet=Setting.A.alphabet, d2=1.0, d0=1.0)
    fta, _ = generate_trim(config, 99)
    assert canonical_size(fta) == 1


def test_run_point_means_and_ordering():
    rec = run_point(Setting.A, 4, peak_density(4), 12, 7)
    assert rec.trials_completed == 12
    assert len(rec.det_sizes) == len(rec.canonical_sizes) == 12
    for det, canon in zip(rec.det_sizes, rec.canonical_sizes):
        assert 1 <= canon <= det
    assert rec.mean_det_size == pytest.approx(sum(rec.det_sizes) / 12)
    assert rec.mean_canonical_size == pytest.approx(sum(rec.canonical_sizes) / 12)


def test_run_point_deterministic():
    a = run_point(Setting.A, 4, 0.17, 8, 2024)
    b = run_point(Setting.A, 4, 0.17, 8, 2024)
    assert a == b


def test_run_point_frees_each_trial_before_the_next(monkeypatch):
    made = []

    def tracked(fta):
        # Every earlier trial's determinized tables are gone by now.
        assert all(ref() is None for ref in made)
        dfta = determinize(fta)
        made.append(weakref.ref(dfta))
        return dfta

    monkeypatch.setattr(experiment, "determinize", tracked)
    run_point(Setting.A, 6, peak_density(6), 3, 7)
    assert len(made) == 3


def test_run_point_validation():
    with pytest.raises(InputError):
        run_point(Setting.A, 1, 0.5, 4, 1)
    with pytest.raises(InputError):
        run_point(Setting.A, 4, 0.5, 0, 1)


def test_run_point_rejects_empty_canonical_language(monkeypatch):
    # A trim automaton accepts some tree; a canonical size of 0 is a bug and
    # must surface even under python -O.
    monkeypatch.setattr(experiment, "minimize", lambda dfta: SimpleNamespace(size=0))
    with pytest.raises(RuntimeError, match="accepts at least one tree"):
        run_point(Setting.A, 4, 0.5, 1, 3)


def test_workers_env_is_ignored(monkeypatch):
    plain = run_sweep(Setting.A, 3, 1, steps=2, trials=1)
    for value in ("two", "0"):
        monkeypatch.setenv("FTAKIT_WORKERS", value)
        assert run_sweep(Setting.A, 3, 1, steps=2, trials=1) == plain


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_must_be_positive(workers):
    with pytest.raises(InputError, match=f"workers must be at least 1, got {workers}"):
        run_sweep(Setting.A, 3, 1, steps=2, trials=1, workers=workers)
    with pytest.raises(InputError, match="workers must be at least 1"):
        table_trim(1, trials=1, workers=workers)


def test_run_point_exhaustion_is_recorded():
    rec = run_point(Setting.A, 4, 0.0005, 4, 11, max_attempts=50)
    assert rec.exhausted
    assert rec.trials_completed < 4
    assert rec.trim_attempts >= 50


def test_run_sweep_small():
    sweep = run_sweep(Setting.A, 4, 123, steps=8, trials=6)
    assert len(sweep.records) == 9
    assert [r.x for r in sweep.records] == list(range(9))
    assert sweep.records[0].d2 == 1.0
    assert sweep.records[4].d2 == pytest.approx(peak_density(4))
    fit = sweep.fit
    assert fit.lo <= fit.peak <= fit.hi
    again = run_sweep(Setting.A, 4, 123, steps=8, trials=6)
    assert sweep.records == again.records


def test_run_sweep_validation():
    with pytest.raises(InputError):
        run_sweep(Setting.A, 4, 1, trials=0)
    with pytest.raises(InputError):
        run_sweep(Setting.A, 1, 1)


def test_run_sweep_workers_equivalence():
    solo = run_sweep(Setting.A, 3, 55, steps=6, trials=5, workers=1)
    duo = run_sweep(Setting.A, 3, 55, steps=6, trials=5, workers=2)
    assert solo.records == duo.records
    assert sweep_csv(solo.records) == sweep_csv(duo.records)


def test_run_sweep_handles_exhausted_points():
    # A tiny attempt budget exhausts the sparse end of the grid; the sweep
    # still completes and fits over the points that produced data.
    sweep = run_sweep(Setting.A, 4, 9, steps=8, trials=5, max_attempts=30)
    assert len(sweep.records) == 9
    assert any(r.exhausted for r in sweep.records)
    used = [r for r in sweep.records if r.trials_completed]
    assert len(used) >= 3
    assert sweep.fit.n_points == len([r for r in used if r.mean_det_size])


def test_sweep_csv_format():
    sweep = run_sweep(Setting.A, 3, 42, steps=4, trials=3)
    text = sweep_csv(sweep.records)
    lines = text.strip().split("\n")
    assert lines[0] == (
        "setting,n,x,d2,trials,trim_attempts,mean_det_size,mean_canonical_size"
    )
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "A" and first[1] == "3" and first[2] == "0"
    assert first[3] == "1.0"
    assert "," not in text.replace(",", "", text.count(","))  # sanity
    assert text.endswith("\n")


def test_fit_records_metrics():
    sweep = run_sweep(Setting.A, 4, 77, steps=8, trials=8)
    det_fit = fit_records(sweep.records, "det")
    canon_fit = fit_records(sweep.records, "canonical")
    assert det_fit.peak > 0 and canon_fit.peak > 0
    with pytest.raises(InputError):
        fit_records(sweep.records, "bogus")


def test_table_trim_skips_blank_cells():
    cells = table_trim(5, trials=30, n_values=(2, 4, 7), densities=(0.01, 0.5))
    seen = {(c.d2, c.n) for c in cells}
    assert (0.01, 2) not in seen and (0.01, 4) not in seen
    assert (0.01, 7) in seen and (0.5, 2) in seen
    full = table_trim(5, trials=30, n_values=(2, 4, 7), densities=(0.01, 0.5),
                      include_blank=True)
    assert {(c.d2, c.n) for c in full} == {(0.01, 2), (0.01, 4), (0.01, 7),
                                           (0.5, 2), (0.5, 4), (0.5, 7)}


def test_table_trim_csv_stable_across_workers():
    cells_1 = table_trim(5, trials=40, n_values=(4, 6), densities=(0.1, 0.5),
                         workers=1)
    cells_2 = table_trim(5, trials=40, n_values=(4, 6), densities=(0.1, 0.5),
                         workers=2)
    assert trim_csv(cells_1) == trim_csv(cells_2)
    header = trim_csv(cells_1).split("\n", 1)[0]
    assert header == "d2,n,trials,trim,ratio,ci_half_width"


def test_table_densities_structure():
    rows = table_densities(Setting.A, (4,), 31, steps=10, trials=8)
    assert len(rows) == 1
    row = rows[0]
    assert row.n == 4
    assert row.expected == pytest.approx(peak_density(4))
    assert row.lo < row.observed < row.hi
    text = densities_csv(rows)
    assert text.startswith("n,expected_d2,observed_d2,ci_lo,ci_hi,contains\n")
    assert text.strip().split("\n")[1].split(",")[0] == "4"


def test_equivalence_failures_clean():
    assert equivalence_failures(10, 2025, height=3) == []


def test_equivalence_failures_needs_a_case():
    with pytest.raises(InputError, match="cases"):
        equivalence_failures(0, 2025, height=3)


def test_trim_table_grid_constants():
    assert TRIM_TABLE_SIZES == (2, 4, 6, 7, 8, 9, 10, 11, 12, 13)
