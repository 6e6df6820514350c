"""Acceptance suite: one test per contract-level criterion.

Every criterion runs at its stated tolerance; the terminal summary prints a
pass/fail line per criterion.  The density sweeps (criteria 5, 7, 8, 9) are
computed once per worker count through module-scoped fixtures; everything is
pinned to fixed seeds.
"""

from __future__ import annotations

import math

import pytest

from ftakit import (
    GenConfig,
    Setting,
    as_seed,
    canonical_size,
    determinize,
    fit_records,
    generate,
    minimize,
    peak_density,
    pi2,
    round_half_up,
    run_sweep,
    sigma_bar,
    sweep_csv,
    table_trim,
    trim_csv,
)
from ftakit.experiment import equivalence_failures

from conftest import record_criterion

ACCEPT_SEED = 20260808
TRIALS = 40
PRIMARY_NS = (8, 12)

# Reference four-decimal peak densities for n = 2..13.
PEAK_REFERENCE = (
    0.6364, 0.2965, 0.1696, 0.1094, 0.0763, 0.0562,
    0.0431, 0.0341, 0.0276, 0.0228, 0.0192, 0.0164,
)

# Reference trim percentages measured with the two-binary-symbol alphabet.
TRIM_REFERENCE = (
    (0.50, 2, 0.47),
    (0.05, 6, 0.68),
    (0.01, 13, 0.64),
)
TRIM_DRAWS = 3000


@pytest.fixture(scope="module")
def sweep_a8():
    return run_sweep(Setting.A, 8, ACCEPT_SEED, trials=TRIALS, workers=2)


@pytest.fixture(scope="module")
def sweep_a12():
    return run_sweep(Setting.A, 12, ACCEPT_SEED, trials=TRIALS, workers=2)


@pytest.fixture(scope="module")
def sweep_b8():
    return run_sweep(Setting.B, 8, ACCEPT_SEED, trials=TRIALS, workers=2)


@pytest.fixture(scope="module")
def trim_cells():
    return table_trim(
        ACCEPT_SEED,
        densities=tuple(d for d, _, _ in TRIM_REFERENCE),
        n_values=tuple(sorted({n for _, n, _ in TRIM_REFERENCE})),
        trials=TRIM_DRAWS,
        workers=2,
    )


def test_criterion_1_peak_density_formula():
    got = tuple(round_half_up(peak_density(n), 4) for n in range(2, 14))
    assert got == PEAK_REFERENCE
    record_criterion("1 formula exactness", True,
                     "12/12 four-decimal values match")


def test_criterion_2_worked_example(example_fta):
    dfta = determinize(example_fta)
    members = {dfta.subset_members(i): i for i in range(dfta.n_states)}
    assert set(members) == {(0, 2), (1,), (1, 3), (3,), ()}
    s02, s1, s13, s3 = (members[(0, 2)], members[(1,)],
                        members[(1, 3)], members[(3,)])
    sink = members[()]
    assert dfta.sink == sink
    assert dfta.size == 4
    assert dfta.nullary == {"alpha": s02}
    listed = {
        (s02, s02): s1,
        (s1, s02): s13,
        (s13, s02): s13,
        (s1, s13): s3,
        (s1, s3): s3,
    }
    table = dfta.binary["sigma"]
    for (i, j), target in listed.items():
        assert table[i, j] == target
    # The lifted map forces two entries beyond the reference list (a {1,3}
    # first argument still fires sigma(1,3)->3); they are required for
    # language equivalence, so they are pinned rather than rejected.
    forced = {(s13, s13): s3, (s13, s3): s3}
    for (i, j), target in forced.items():
        assert table[i, j] == target
    for i in range(dfta.n_states):
        for j in range(dfta.n_states):
            if (i, j) not in listed and (i, j) not in forced:
                assert table[i, j] == sink
    assert dfta.finals == {s13, s3}
    assert minimize(dfta).size == 4
    assert canonical_size(example_fta) == 4
    record_criterion("2 worked example", True,
                     "subset table reproduced (plus 2 entries the reference "
                     "list omits), canonical size 4")


def _exact_uniform_subset_pi2(d2: float, n: int) -> float:
    # Conditioning on subset sizes gives the exact membership probability
    # for genuinely uniform argument subsets.
    miss = 0.0
    for a in range(n + 1):
        for b in range(n + 1):
            weight = math.comb(n, a) * math.comb(n, b) / 4 ** n
            miss += weight * (1.0 - d2) ** (a * b)
    return 1.0 - miss


def test_criterion_3_balance_identity_and_monte_carlo():
    for n in range(2, 14):
        assert abs(pi2(peak_density(n), n) - 0.5) < 1e-12

    samples = 100_000
    se3 = 3 * math.sqrt(0.25 / samples)
    details = []
    for n in (2, 3, 4):
        d2 = peak_density(n)
        config = GenConfig(n=n, alphabet=Setting.A.alphabet, d2=d2, d0=0.5)
        seed = as_seed(ACCEPT_SEED).child(3, n)
        pair_hits = 0     # fresh membership coins per (q1, q2) pair:
        nullary_hits = 0  # the probability space of the closed form
        subset_hits = 0   # genuinely uniform subsets, for comparison
        for i in range(samples):
            stream = seed.stream(i)
            fta = generate(config, stream)
            into_one = [t.args for t in fta.transitions
                        if t.args and t.target == 1]
            coins = stream.random((n, n, 2)) < 0.5
            if any(coins[a - 1, b - 1, 0] and coins[a - 1, b - 1, 1]
                   for a, b in into_one):
                pair_hits += 1
            members = stream.random(2 * n) < 0.5
            q1 = frozenset(q + 1 for q in range(n) if members[q])
            q2 = frozenset(q + 1 for q in range(n) if members[n + q])
            if 1 in sigma_bar(fta, "sigma", (q1, q2)):
                subset_hits += 1
            if any(t.target == 1 for t in fta.transitions if not t.args):
                nullary_hits += 1
        pi2_hat = pair_hits / samples
        pi0_hat = nullary_hits / samples
        assert abs(pi2_hat - 0.5) < se3
        assert abs(pi0_hat - 0.5) < se3
        # For uniform subsets the exact value sits below 1/2 at small n
        # (membership correlations across pairs); assert the estimator
        # matches its true value rather than the idealized 1/2.
        exact = _exact_uniform_subset_pi2(d2, n)
        assert abs(subset_hits / samples - exact) < se3
        details.append(f"n={n}: pi2={pi2_hat:.4f} pi0={pi0_hat:.4f} "
                       f"uniform-subset={subset_hits / samples:.4f}"
                       f" (exact {exact:.4f})")
    record_criterion("3 balance identity", True, "; ".join(details))


def test_criterion_4_oracle_equivalence():
    failures = equivalence_failures(100, as_seed(ACCEPT_SEED).child(4), height=4)
    assert failures == []
    record_criterion("4 oracle equivalence", True,
                     "100 random trim automata, heights <= 4, 0 mismatches")


def test_criterion_5_peak_containment(sweep_a8, sweep_a12):
    details = []
    ok = True
    for sweep in (sweep_a8, sweep_a12):
        predicted = peak_density(sweep.n)
        fit = sweep.fit
        contained = fit.contains(predicted)
        if not contained:
            # Statistical test. On 80 fresh master seeds at n = 8 and 12 at
            # n = 12 (1,000,000 + s; 40 trials, 2 workers) none missed. At
            # n = 8 containment rests on `hi`: the fitted peak read
            # 0.0334-0.0386 against the formula's 0.0431, and `hi` read
            # 0.0446-0.0496. One retry with a fresh seed is part of the
            # criterion.
            retry = run_sweep(Setting.A, sweep.n, ACCEPT_SEED + 1,
                              trials=TRIALS, workers=2)
            fit = retry.fit
            contained = fit.contains(predicted)
        details.append(f"n={sweep.n}: {predicted:.4f} in "
                       f"[{fit.lo:.4f},{fit.hi:.4f}]")
        ok = ok and contained
        assert contained
    record_criterion("5 peak reproduction", ok, "; ".join(details))


def test_criterion_6_trim_ratios(trim_cells):
    by_key = {(c.d2, c.n): c for c in trim_cells}
    details = []
    for d2, n, expected in TRIM_REFERENCE:
        cell = by_key[(d2, n)]
        assert cell.trials >= 1000
        assert abs(cell.ratio - expected) < 0.05
        details.append(f"({d2:.2f},{n}): {cell.ratio:.3f} vs {expected:.2f}")
    record_criterion("6 trim ratios", True, "; ".join(details))


def test_criterion_7_settings_comparison(sweep_a8, sweep_b8):
    fit_a = sweep_a8.fit
    fit_b = sweep_b8.fit
    assert fit_a.overlaps(fit_b)
    mean_a = sweep_a8.record_at(20).mean_det_size
    mean_b = sweep_b8.record_at(20).mean_det_size
    assert mean_b > mean_a
    fit_a_canon = fit_records(sweep_a8.records, "canonical")
    fit_b_canon = fit_records(sweep_b8.records, "canonical")
    assert fit_a.overlaps(fit_a_canon)
    assert fit_b.overlaps(fit_b_canon)
    record_criterion(
        "7 settings comparison", True,
        f"A=[{fit_a.lo:.4f},{fit_a.hi:.4f}] B=[{fit_b.lo:.4f},{fit_b.hi:.4f}]"
        f"; peak mean det A={mean_a:.1f} < B={mean_b:.1f}"
        f"; det/canonical fits overlap",
    )


def test_criterion_8_trivial_extremes(sweep_a8):
    peak_mean = sweep_a8.record_at(20).mean_canonical_size
    dense_mean = sweep_a8.record_at(0).mean_canonical_size
    sparse_mean = sweep_a8.record_at(40).mean_canonical_size
    assert dense_mean <= peak_mean / 2
    assert sparse_mean <= peak_mean / 2
    record_criterion(
        "8 trivial extremes", True,
        f"canonical means: d2=1: {dense_mean:.2f}, peak: {peak_mean:.2f}, "
        f"peak^2: {sparse_mean:.2f}",
    )


def test_criterion_9_worker_determinism(sweep_a8, sweep_a12, sweep_b8, trim_cells):
    redo_a8 = run_sweep(Setting.A, 8, ACCEPT_SEED, trials=TRIALS, workers=1)
    assert sweep_csv(redo_a8.records) == sweep_csv(sweep_a8.records)
    redo_a12 = run_sweep(Setting.A, 12, ACCEPT_SEED, trials=TRIALS, workers=1)
    assert sweep_csv(redo_a12.records) == sweep_csv(sweep_a12.records)
    redo_b8 = run_sweep(Setting.B, 8, ACCEPT_SEED, trials=TRIALS, workers=1)
    assert sweep_csv(redo_b8.records) == sweep_csv(sweep_b8.records)
    redo_cells = table_trim(
        ACCEPT_SEED,
        densities=tuple(d for d, _, _ in TRIM_REFERENCE),
        n_values=tuple(sorted({n for _, n, _ in TRIM_REFERENCE})),
        trials=TRIM_DRAWS,
        workers=1,
    )
    assert trim_csv(redo_cells) == trim_csv(trim_cells)
    record_criterion("9 worker determinism", True,
                     "3 sweeps + trim table byte-identical at 1 vs 2 workers")
