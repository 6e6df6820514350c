"""The public surface of ``ftakit``, pinned: changing it is a deliberate edit."""

from __future__ import annotations

import ftakit

PUBLIC_NAMES = {
    # core
    "Fta", "RankedAlphabet", "Transition", "Tree", "accepts",
    "enumerate_trees", "evaluate", "language_fingerprint", "sigma_bar",
    # constructions
    "CanonicalFta", "Dfta", "canonical_size", "coreachable", "determinize",
    "is_trim", "minimize", "reachable", "trim",
    # random model
    "GenConfig", "Seed", "as_seed", "generate", "generate_trim", "trim_ratio",
    # densities
    "DensityPoint", "density_grid", "peak_density", "pi2", "round_half_up",
    # experiments
    "PeakFit", "PointRecord", "Setting", "SweepResult", "densities_csv",
    "equivalence_failures", "fit_peak", "fit_records", "run_point", "run_sweep",
    "sweep_csv", "table_densities", "table_trim", "trim_csv",
    # documents
    "format_fta", "parse_fta",
    # errors
    "BudgetError", "ConfigError", "Error", "ExhaustionError", "FitError",
    "InputError", "ParseError",
}


def test_all_is_the_pinned_set():
    assert len(ftakit.__all__) == len(set(ftakit.__all__)) == 52
    assert set(ftakit.__all__) == PUBLIC_NAMES


def test_every_public_name_resolves():
    for name in ftakit.__all__:
        assert getattr(ftakit, name) is not None


def test_retired_names_are_gone():
    for name in ("compare_settings", "SettingsReport", "TrimEstimate", "isomorphic",
                 "is_deterministic", "StateSet"):
        assert not hasattr(ftakit, name), name
    assert not hasattr(ftakit.core, "StateSet")
    assert not hasattr(ftakit.Fta, "final_set")


def test_tree_is_a_ground_term():
    assert ftakit.Tree._fields == ("label", "children")
    for name in ("state_leaf", "is_state_leaf", "has_state_leaves"):
        assert not hasattr(ftakit.Tree, name), name
