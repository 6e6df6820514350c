"""Command-line front end.

Data (documents, CSV, sizes) goes to stdout or the --out file; diagnostics
such as the effective seed go to stderr so piped output stays clean.  When
``determinize`` or ``minimize`` write their document to stdout (``--out -``),
the size goes to stderr, so the document can be piped on.  Exit
codes: 0 success, 1 failed self-check, 2 usage error, 3 bad input (any
other ftakit error, such as too few grid points to fit a peak), 4 file I/O
error, 5 generation exhausted.
"""

from __future__ import annotations

import functools
import sys
from pathlib import Path

import click
import numpy as np

from .constructions import determinize, minimize
from .density import peak_density, round_half_up
from .errors import Error, ExhaustionError, ParseError
from .experiment import (
    Setting,
    densities_csv,
    equivalence_failures,
    run_sweep,
    sweep_csv,
    table_densities,
    table_trim,
    trim_csv,
    SWEEP_MAX_ATTEMPTS,
)
from .io import format_fta, parse_fta
from .randgen import GenConfig, as_seed, generate, generate_trim

EXIT_SELFCHECK = 1
EXIT_INPUT = 3
EXIT_IO = 4
EXIT_EXHAUSTED = 5


def _guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except ExhaustionError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_EXHAUSTED)
        except Error as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_INPUT)
        except OSError as err:
            click.echo(f"error: {err}", err=True)
            sys.exit(EXIT_IO)

    return wrapper


def _effective_seed(seed: int | None) -> int:
    if seed is None:
        seed = int(np.random.SeedSequence().entropy % (1 << 63))
    click.echo(f"seed {seed}", err=True)
    return seed


def _read_document(path: str) -> str:
    with click.open_file(path, "rb") as stream:  # "-" is stdin's binary stream
        data = stream.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise ParseError(
            f"document is not UTF-8: {err.reason} at byte {err.start}") from None


def _emit(text: str, out: str | None) -> None:
    if out is None or out == "-":
        click.echo(text, nl=False)
    else:
        Path(out).write_text(text, encoding="utf-8")


_setting_option = click.option(
    "--setting", type=click.Choice(["A", "B"]), default="A", show_default=True,
    help="Alphabet: A = one binary symbol, B = two.")
_seed_option = click.option("--seed", type=int, default=None,
                            help="Master seed (random if omitted; always echoed).")
_workers_option = click.option("--workers", type=int, default=1, show_default=True,
                               help="Parallel workers.")
_max_attempts_option = click.option("--max-attempts", type=int, default=10_000,
                                    show_default=True)


def _model_options(fn):
    """Add the --n, --d2, --d0 and --final-prob options, listed in that order."""
    fn = click.option("--final-prob", type=float, default=0.5, show_default=True,
                      help="Probability that a state is final.")(fn)
    fn = click.option("--d0", type=float, default=0.5, show_default=True,
                      help="Nullary transition density.")(fn)
    fn = click.option("--d2", type=float, required=True, help="Binary transition density.")(fn)
    return click.option("--n", type=int, required=True, help="Number of states.")(fn)


def _gen_config(setting: str, **fields) -> GenConfig:
    """The ``GenConfig`` of the options of a generating command."""
    return GenConfig(alphabet=Setting(setting).alphabet, **fields)


@click.group()
@click.version_option(package_name="ftakit")
def main():
    """Bottom-up tree automata: generation, determinization, minimization, sweeps."""


@main.command(name="generate")
@_model_options
@_setting_option
@_seed_option
@click.option("--trim/--no-trim", "want_trim", default=True, show_default=True,
              help="Regenerate until the automaton is trim.")
@_max_attempts_option
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Output document (stdout if omitted).")
@_guard
def generate_cmd(seed, want_trim, out, **gen):
    """Draw a random automaton and write it as a document."""
    seed = _effective_seed(seed)
    config = _gen_config(**gen)
    if want_trim:
        fta, attempts = generate_trim(config, seed, 0)
        click.echo(f"attempts {attempts}", err=True)
    else:
        fta = generate(config, as_seed(seed).stream(0))
    _emit(format_fta(fta), out)


@main.command(name="determinize")
@click.option("--in", "in_path", type=click.Path(dir_okay=False), required=True,
              help="Input document ('-' for stdin).")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--max-subsets", type=int, default=None,
              help="Abort if more subset states appear.")
@_guard
def determinize_cmd(in_path, out, max_subsets):
    """Determinize a document; prints the size (sink excluded)."""
    fta = parse_fta(_read_document(in_path))
    dfta = determinize(fta, max_subsets=max_subsets)
    comments = [f"subset states of a {len(dfta.source_states)}-state source"]
    if dfta.n_states <= 200:
        for i in range(dfta.n_states):
            members = " ".join(str(q) for q in dfta.subset_members(i))
            tag = " (sink)" if i == dfta.sink else ""
            comments.append(f"{i} = {{{members}}}{tag}")
    if out is not None:
        _emit(format_fta(dfta.to_fta(), comments=comments), out)
    click.echo(str(dfta.size), err=out == "-")


@main.command(name="minimize")
@click.option("--in", "in_path", type=click.Path(dir_okay=False), required=True,
              help="Input document ('-' for stdin).")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@click.option("--max-subsets", type=int, default=None)
@_guard
def minimize_cmd(in_path, out, max_subsets):
    """Canonicalize a document (determinize + minimize); prints the size."""
    fta = parse_fta(_read_document(in_path))
    canonical = minimize(determinize(fta, max_subsets=max_subsets))
    if out is not None:
        comments = []
        if canonical.sink is not None:
            comments.append(f"state {canonical.sink} is the sink")
        _emit(format_fta(canonical.to_fta(), comments=comments), out)
    click.echo(str(canonical.size), err=out == "-")


@main.command(name="pipeline")
@_model_options
@_setting_option
@_seed_option
@_max_attempts_option
@_guard
def pipeline_cmd(seed, **gen):
    """Generate a trim automaton, determinize, minimize; print both sizes."""
    seed = _effective_seed(seed)
    fta, attempts = generate_trim(_gen_config(**gen), seed, 0)
    click.echo(f"attempts {attempts}", err=True)
    dfta = determinize(fta)
    click.echo(f"det_size {dfta.size}")
    click.echo(f"canonical_size {minimize(dfta).size}")


@main.command(name="peak-density")
@click.option("--n", type=int, required=True)
@_guard
def peak_density_cmd(n):
    """Print the predicted hardest binary density for n states."""
    click.echo(f"{round_half_up(peak_density(n), 4):.4f}")


@main.command(name="sweep")
@click.option("--n", type=int, required=True)
@_setting_option
@click.option("--steps", type=int, default=40, show_default=True)
@click.option("--trials", type=int, default=40, show_default=True)
@_seed_option
@_workers_option
@click.option("--max-attempts", type=int, default=SWEEP_MAX_ATTEMPTS, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="CSV output (stdout if omitted).")
@_guard
def sweep_cmd(n, setting, steps, trials, seed, workers, max_attempts, out):
    """Sweep the density grid at one n and emit per-point CSV."""
    seed = _effective_seed(seed)
    result = run_sweep(Setting(setting), n, seed, steps=steps, trials=trials,
                       workers=workers, max_attempts=max_attempts)
    _emit(sweep_csv(result.records), out)
    fit = result.fit
    click.echo(
        f"peak {fit.peak:.6g} interval [{fit.lo:.6g}, {fit.hi:.6g}] "
        f"predicted {peak_density(n):.6g}",
        err=True,
    )


@main.command(name="table1")
@click.option("--n", "n_values", type=int, multiple=True,
              help="State counts (repeatable; default 2..13 — takes a long time).")
@_setting_option
@click.option("--steps", type=int, default=40, show_default=True)
@click.option("--trials", type=int, default=40, show_default=True)
@_seed_option
@_workers_option
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@_guard
def table1_cmd(n_values, setting, steps, trials, seed, workers, out):
    """Expected and observed peak densities, one row per n, as CSV."""
    seed = _effective_seed(seed)
    ns = list(n_values) if n_values else list(range(2, 14))
    rows = table_densities(Setting(setting), ns, seed, steps=steps,
                           trials=trials, workers=workers)
    _emit(densities_csv(rows), out)


@main.command(name="table2")
@click.option("--setting", type=click.Choice(["A", "B"]), default="B",
              show_default=True,
              help="Alphabet; B (two binary symbols) matches the reference table.")
@click.option("--trials", type=int, default=1000, show_default=True)
@click.option("--include-blank", is_flag=True,
              help="Also measure cells blank in the reference table.")
@_seed_option
@_workers_option
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
@_guard
def table2_cmd(setting, trials, include_blank, seed, workers, out):
    """Trim ratios over the (density, n) grid, as CSV."""
    seed = _effective_seed(seed)
    cells = table_trim(seed, setting=Setting(setting), trials=trials,
                       include_blank=include_blank, workers=workers)
    _emit(trim_csv(cells), out)


@main.command(name="check")
@click.option("--cases", type=int, default=25, show_default=True)
@click.option("--height", type=int, default=4, show_default=True)
@_seed_option
@_guard
def check_cmd(cases, height, seed):
    """Self-test: determinize+minimize preserve small-tree languages."""
    seed = _effective_seed(seed)
    failures = equivalence_failures(cases, seed, height=height)
    if failures:
        for line in failures:
            click.echo(f"FAIL {line}")
        sys.exit(EXIT_SELFCHECK)
    click.echo(f"ok: {cases} cases agree up to height {height}")


if __name__ == "__main__":
    main()
