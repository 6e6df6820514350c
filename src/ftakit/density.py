"""Hardest-instance densities for the random model.

For an n-state automaton with uniformly random subset arguments, the chance
that a fixed state lands in a binary rule's lifted target is
1 - (1 - d2/4)**(n*n).  Setting that to one half (together with d0 = 1/2 for
the nullary rules) balances the subset construction so that every source
state is equally likely to appear in a successor subset, which is where the
determinized automata blow up the most.  Solving for d2 gives the peak
density 4 * (1 - 0.5**(1/n**2)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal

from .errors import InputError


def peak_density(n: int) -> float:
    """The binary density predicted to produce the hardest n-state instances.

    Only defined for n > 1: with a single state the balancing condition
    cannot be met.
    """
    if n <= 1:
        raise InputError("peak density requires n > 1")
    return 4.0 * (1.0 - 0.5 ** (1.0 / (n * n)))


def pi2(d2: float, n: int) -> float:
    """Probability that a fixed state lies in a lifted binary target.

    Argument subsets are drawn uniformly at random; equals 1/2 exactly when
    d2 is the peak density.
    """
    if not 0.0 <= d2 <= 1.0:
        raise InputError("d2 must lie in [0, 1]")
    if n < 1:
        raise InputError("n must be at least 1")
    return 1.0 - (1.0 - d2 / 4.0) ** (n * n)


@dataclass(frozen=True)
class DensityPoint:
    """One grid point of a density sweep (sweeps fix d0 at 1/2)."""

    n: int
    x: int
    d2: float


def density_grid(n: int, steps: int = 40) -> list[DensityPoint]:
    """Log-spaced densities from 1.0 down to the squared peak density.

    Point x has d2 = exp(x * ln(peak) / (steps / 2)), so with the default 40
    steps the midpoint x = 20 hits the peak exactly and both flanks carry the
    same number of points.
    """
    if n <= 1:
        raise InputError("density grid requires n > 1")
    if steps < 1:
        raise InputError("steps must be positive")
    log_peak = math.log(peak_density(n))
    return [
        DensityPoint(n=n, x=x, d2=math.exp(x * log_peak / (steps / 2.0)))
        for x in range(steps + 1)
    ]


def round_half_up(x: float, places: int = 4) -> float:
    """Round with ties away from zero (table-display convention)."""
    q = Decimal(1).scaleb(-places)
    return float(Decimal(repr(x)).quantize(q, rounding=ROUND_HALF_UP))
