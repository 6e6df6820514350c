"""Bottom-up finite tree automata toolkit.

Data model and semantics live in :mod:`ftakit.core`; the subset construction,
trimness, and minimization in :mod:`ftakit.constructions`; the random model in
:mod:`ftakit.randgen`; hardest-instance densities in :mod:`ftakit.density`;
the sweep harness in :mod:`ftakit.experiment`; documents in :mod:`ftakit.io`.
"""

from .constructions import (
    CanonicalFta,
    Dfta,
    canonical_size,
    coreachable,
    determinize,
    is_trim,
    minimize,
    reachable,
    trim,
)
from .core import (
    Fta,
    RankedAlphabet,
    Transition,
    Tree,
    accepts,
    enumerate_trees,
    evaluate,
    language_fingerprint,
    sigma_bar,
)
from .density import DensityPoint, density_grid, peak_density, pi2, round_half_up
from .errors import (
    BudgetError,
    ConfigError,
    Error,
    ExhaustionError,
    FitError,
    InputError,
    ParseError,
)
from .experiment import (
    PeakFit,
    PointRecord,
    Setting,
    SweepResult,
    densities_csv,
    equivalence_failures,
    fit_peak,
    fit_records,
    run_point,
    run_sweep,
    sweep_csv,
    table_densities,
    table_trim,
    trim_csv,
)
from .io import format_fta, parse_fta
from .randgen import (
    GenConfig,
    Seed,
    as_seed,
    generate,
    generate_trim,
    trim_ratio,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError", "CanonicalFta", "ConfigError", "DensityPoint", "Dfta",
    "Error", "ExhaustionError", "FitError", "Fta", "GenConfig", "InputError",
    "ParseError", "PeakFit", "PointRecord", "RankedAlphabet", "Seed",
    "Setting", "SweepResult", "Transition", "Tree", "accepts",
    "as_seed", "canonical_size", "coreachable", "densities_csv",
    "density_grid", "determinize", "enumerate_trees", "equivalence_failures",
    "evaluate", "fit_peak", "fit_records", "format_fta", "generate",
    "generate_trim", "is_trim", "language_fingerprint",
    "minimize", "parse_fta", "peak_density", "pi2", "reachable",
    "round_half_up", "run_point", "run_sweep", "sigma_bar", "sweep_csv",
    "table_densities", "table_trim", "trim", "trim_csv", "trim_ratio",
]
