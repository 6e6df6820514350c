"""Peak-density formula, balance probability, and the log grid."""

from __future__ import annotations

import math

import pytest

from ftakit import (
    GenConfig,
    InputError,
    Setting,
    as_seed,
    density_grid,
    generate,
    peak_density,
    pi2,
    round_half_up,
    sigma_bar,
)

# Four-decimal reference values for n = 2..13.
PEAK_TABLE = {
    2: 0.6364, 3: 0.2965, 4: 0.1696, 5: 0.1094, 6: 0.0763, 7: 0.0562,
    8: 0.0431, 9: 0.0341, 10: 0.0276, 11: 0.0228, 12: 0.0192, 13: 0.0164,
}


def test_peak_density_reference_table():
    for n, expected in PEAK_TABLE.items():
        assert round_half_up(peak_density(n), 4) == expected


def test_peak_density_domain():
    with pytest.raises(ValueError):
        peak_density(1)
    with pytest.raises(ValueError):
        peak_density(0)


def test_peak_density_strictly_decreasing():
    values = [peak_density(n) for n in range(2, 65)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_peak_density_asymptote():
    # n**2 * peak approaches 4*ln(2) from below at rate 1/n**2.
    for n in range(10, 40):
        assert abs(n * n * peak_density(n) - 4 * math.log(2)) < 0.05


def test_pi2_balance_identity():
    for n in range(2, 14):
        assert abs(pi2(peak_density(n), n) - 0.5) < 1e-12


def test_pi2_edges():
    assert pi2(0.0, 5) == 0.0
    assert pi2(1.0, 1) == 0.25
    assert pi2(0.1, 4) == pytest.approx(1 - 0.975 ** 16)
    assert pi2(0.1, 4) == pytest.approx(0.3330798, abs=1e-7)
    with pytest.raises(ValueError):
        pi2(1.2, 3)
    with pytest.raises(ValueError):
        pi2(0.5, 0)


def exact_uniform_subset_pi2(d2: float, n: int) -> float:
    """Independent oracle: P(fixed state in the lifted target) for uniform
    argument subsets, by conditioning on the subset sizes.

    This is NOT the closed form pi2 computes: pi2's product expression
    treats the membership events of different (q1, q2) pairs as independent,
    while uniform subsets share memberships across pairs.  The two agree
    as n grows but differ visibly for small n.
    """
    miss = 0.0
    for a in range(n + 1):
        for b in range(n + 1):
            weight = math.comb(n, a) * math.comb(n, b) / 4 ** n
            miss += weight * (1.0 - d2) ** (a * b)
    return 1.0 - miss


def test_pi2_monte_carlo_formula_space():
    # Estimate the probability pi2 actually computes: every (q1, q2) pair
    # gets fresh membership coins, matching the product expression's
    # independence structure; at the peak density this is 1/2.
    n = 3
    d2 = peak_density(n)
    config = GenConfig(n=n, alphabet=Setting.A.alphabet, d2=d2, d0=0.5)
    seed = as_seed(271828)
    samples = 4000
    hits = 0
    for i in range(samples):
        stream = seed.stream(i)
        fta = generate(config, stream)
        into_one = {t.args for t in fta.transitions if t.args and t.target == 1}
        coins = stream.random((n, n, 2)) < 0.5
        if any(
            coins[q1 - 1, q2 - 1, 0] and coins[q1 - 1, q2 - 1, 1]
            for q1, q2 in into_one
        ):
            hits += 1
    se = math.sqrt(0.25 / samples)
    assert abs(hits / samples - pi2(d2, n)) < 3 * se
    assert abs(pi2(d2, n) - 0.5) < 1e-12


def test_pi2_monte_carlo_uniform_subsets():
    # With genuinely uniform subsets the membership correlations across
    # pairs lower the probability below 1/2 for small n; the estimate must
    # match the exact conditional-expectation value.
    n = 3
    d2 = peak_density(n)
    config = GenConfig(n=n, alphabet=Setting.A.alphabet, d2=d2, d0=0.5)
    seed = as_seed(314159)
    samples = 4000
    hits = 0
    for i in range(samples):
        stream = seed.stream(i)
        fta = generate(config, stream)
        members = stream.random(2 * n) < 0.5
        q1 = frozenset(q + 1 for q in range(n) if members[q])
        q2 = frozenset(q + 1 for q in range(n) if members[n + q])
        if 1 in sigma_bar(fta, "sigma", (q1, q2)):
            hits += 1
    exact = exact_uniform_subset_pi2(d2, n)
    assert exact == pytest.approx(0.4484, abs=5e-4)
    se = math.sqrt(exact * (1 - exact) / samples)
    assert abs(hits / samples - exact) < 3 * se


def test_density_grid_shape():
    grid = density_grid(8, 40)
    assert len(grid) == 41
    assert grid[0].d2 == 1.0
    assert grid[20].d2 == pytest.approx(peak_density(8), rel=1e-12)
    assert round_half_up(grid[20].d2, 4) == 0.0431
    assert grid[40].d2 == pytest.approx(peak_density(8) ** 2, rel=1e-12)
    assert [p.x for p in grid] == list(range(41))


def test_density_grid_log_spacing():
    grid = density_grid(5, 20)
    ratios = [grid[i + 1].d2 / grid[i].d2 for i in range(len(grid) - 1)]
    for r in ratios:
        assert r == pytest.approx(ratios[0], rel=1e-9)


def test_density_grid_domain():
    with pytest.raises(ValueError):
        density_grid(1)
    with pytest.raises(ValueError):
        density_grid(4, 0)


def test_domain_errors_are_input_errors():
    # InputError is also a ValueError, so both spellings of the check hold.
    for call in (lambda: peak_density(1), lambda: pi2(1.2, 3), lambda: pi2(0.5, 0),
                 lambda: density_grid(1), lambda: density_grid(4, 0)):
        with pytest.raises(InputError):
            call()


def test_round_half_up_ties():
    assert round_half_up(0.10935, 4) == 0.1094
    assert round_half_up(0.10934999, 4) == 0.1093
    assert round_half_up(2.5, 0) == 3.0
