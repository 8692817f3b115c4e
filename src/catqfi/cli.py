"""Command-line surface: state dumps, QFI points, sweeps, crossover, verification.

Exit codes: 0 success, 1 verification failure, 2 bad arguments (click's
usage-error code), 3 numeric failure.
"""

from __future__ import annotations

import functools
import json
import sys
from math import inf, isfinite

import click
import numpy as np

from . import bench
from .channels import synthesize_heralded
from .fock import (
    N_MAX_LIMIT,
    CatSpec,
    CutoffError,
    cat_state,
    coherent,
    default_cutoff,
    extended_entangled_state,
    fidelity,
    mandel_q,
    number_moment,
)
from .qfi import GENERATORS

SINGLE_MODE_FAMILIES = ("coherent", "cat")
TWO_MODE_FAMILIES = ("ecs", "modified", "extended", "noon")


def numeric_guard(fn):
    """Exit 2 for arguments the family table rejects, 3 for numeric failures."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except bench.ParameterError as exc:
            raise click.UsageError(str(exc)) from exc
        except (CutoffError, ArithmeticError, ValueError, MemoryError) as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(3)

    return wrapper


@click.group()
def main():
    """QFI phase-sensitivity bounds for multi-headed cat-state resources."""


@main.command()
@click.option("--family", type=click.Choice(SINGLE_MODE_FAMILIES + TWO_MODE_FAMILIES), required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--n-components", type=click.IntRange(min=1), default=None, help="cat heads N (cat, default 2; extended)")
@click.option("--n-max", type=click.IntRange(min=0, max=N_MAX_LIMIT), default=None)
@numeric_guard
def state(family, alpha, n_components, n_max):
    """Dump a constructed state's amplitudes and photon-number moments."""
    out = {"family": family, "alpha": alpha}
    if family in SINGLE_MODE_FAMILIES:
        bench.check_amplitude("alpha", alpha)
        out["n_max"] = n_max = default_cutoff(alpha) if n_max is None else n_max
        if family == "coherent":
            if n_components is not None:
                raise click.UsageError("the coherent state takes no --n-components")
            vec = coherent(alpha, n_max)
        else:
            out["n_components"] = n_components = n_components or 2
            vec = cat_state(CatSpec(n_components, alpha), n_max)
        out["norm_sq"] = vec.norm_sq()
        p = np.abs(vec.amps) ** 2
        n = np.arange(len(p), dtype=float)
        out["mean_n"], out["mean_n2"] = (float(np.sum(n**k * p) / np.sum(p)) for k in (1, 2))
        if out["mean_n"] > 1e-14:
            out["mandel_q"] = mandel_q(vec)
        out["amplitudes"] = [[a.real, a.imag] for a in vec.amps]
    else:
        curve = bench.point_curve(family, "pure", alpha, n_components=n_components)
        grid = curve.state(alpha, n_max)
        if grid is None:
            raise click.UsageError(f"no {family} state on the Fock grid at alpha={alpha}: alpha^2 must be an integer")
        out["n_max"] = grid.n_max
        if family == "noon":
            out["n"] = round(alpha * alpha)
        if curve.n_components is not None:
            out["n_components"] = curve.n_components
        out["norm_sq"] = grid.norm_sq()
        for mode in ("a", "b"):
            out[f"mean_n_{mode}"] = number_moment(grid, mode, 1)
            out[f"mean_n2_{mode}"] = number_moment(grid, mode, 2)
        na, nb = np.nonzero(np.abs(grid.amps) > 1e-14)
        out["amplitudes"] = [
            [int(i), int(j), grid.amps[i, j].real, grid.amps[i, j].imag] for i, j in zip(na, nb)
        ]
    click.echo(json.dumps(out, indent=2, allow_nan=False))


@main.command()
@click.option("--family", type=click.Choice(tuple(bench.FAMILIES)), required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, default=None, help="coherent input amplitude (cat4 only; default alpha)")
@click.option("--n-components", type=click.IntRange(min=1), default=None, help="cat heads N (extended only)")
@click.option("--transmission", type=click.FloatRange(0.0, 1.0), default=1.0)
@click.option("--generator", type=click.Choice(GENERATORS), default="n_b")
@click.option("--phase-averaged", is_flag=True, default=False)
@numeric_guard
def qfi(family, alpha, beta, n_components, transmission, generator, phase_averaged):
    """Single-point QFI by both the closed-form and the numeric route."""
    if transmission < 1.0:
        phase_averaged = True
    variant = "phase_averaged" if phase_averaged else "pure"
    curve = bench.point_curve(family, variant, alpha, beta, n_components, transmission)
    # the grid route first: past the grid limit it fails at once, where a
    # closed-form series would run to its term cap
    point = bench.numeric_point(curve, alpha, generator)
    result = {
        "family": family,
        "alpha": alpha,
        "beta": None if curve.beta_ratio is None else curve.beta_ratio * alpha,
        "n_components": curve.n_components,
        "transmission": transmission,
        "phase_averaged": phase_averaged,
        "generator": generator,
        "n_av": bench.closed_nav(curve, alpha),
    }
    # a phase-averaged state commutes with n_a + n_b, so its QFI is the same under both generators
    closed = (generator == "n_b" or phase_averaged) and bench.FAMILIES[family].qfi[variant] is not None
    result["qfi_closed_form"] = bench.closed_qfi(curve, alpha) if closed else None
    result["qfi_numeric"] = num = None if point is None else point[1]
    result["qfi_numeric_resolved"] = None if num is None else num >= bench.QFI_RESOLUTION
    ref = result["qfi_closed_form"] if result["qfi_closed_form"] is not None else num
    # F = 0 has delta_phi = inf, which JSON cannot hold: null, as in sweep records
    dphi = inf if ref is None else bench.delta_phi(ref)
    result["delta_phi"] = dphi if isfinite(dphi) else None
    click.echo(json.dumps(result, indent=2, allow_nan=False))


@main.command()
@click.option("--figure", type=click.Choice(tuple(bench.FIGURES)), required=True)
@click.option("--out", type=click.Path(writable=True, dir_okay=False), default="-")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--alpha-min", type=float, default=None)
@click.option("--alpha-max", type=float, default=None)
@click.option("--alpha-step", type=float, default=None)
@numeric_guard
def sweep(figure, out, fmt, alpha_min, alpha_max, alpha_step):
    """Run a figure-reproduction sweep and write CSV or JSON rows."""
    grid = bench.FIGURES[figure].alpha_grid
    if alpha_min is not None or alpha_max is not None or alpha_step is not None:
        lo = alpha_min if alpha_min is not None else grid[0]
        hi = alpha_max if alpha_max is not None else grid[-1]
        step = alpha_step if alpha_step is not None else 0.05
        bench.check_amplitude("--alpha-min", lo)
        bench.check_amplitude("--alpha-max", hi)
        bench.check_amplitude("--alpha-step", step, positive=True)
        if lo > hi:
            raise click.UsageError(f"--alpha-min {lo} exceeds --alpha-max {hi}")
        grid = bench.alpha_range(lo, hi, step)
    rows = bench.run_sweep(figure, grid)
    payload = (
        bench.rows_to_csv(rows)
        if fmt == "csv"
        else json.dumps(bench.rows_to_records(rows), indent=2, allow_nan=False) + "\n"
    )
    if out == "-":
        click.echo(payload, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        click.echo(f"wrote {len(rows)} rows to {out}", err=True)


@main.command()
@click.option("--figure", type=click.Choice(tuple(bench.FIGURES)), required=True)
@click.option("--family-a", required=True)
@click.option("--family-b", required=True)
@click.option("--nav-lo", type=float, required=True)
@click.option("--nav-hi", type=float, required=True)
@click.option("--transmission", type=click.FloatRange(0.0, 1.0), default=None)
@numeric_guard
def crossover(figure, family_a, family_b, nav_lo, nav_hi, transmission):
    """Locate the N_av where two families' delta_phi curves cross (null if their gap has one sign at both ends)."""
    curves = bench.FIGURES[figure].curves
    at_t = [c for c in curves if transmission is None or abs(c.transmission - transmission) < 1e-12]
    picked = []
    for label in (family_a, family_b):
        named = [c for c in at_t if c.label == label]
        if len(named) != 1:
            known = ", ".join(f"{c.label} (T={c.transmission})" for c in curves)
            raise click.UsageError(f"{label!r} names no single {figure} curve at this --transmission; curves: {known}")
        picked += named
    nav = bench.find_crossover(*picked, bench.FIGURES[figure].alpha_grid, (nav_lo, nav_hi))
    out = {"figure": figure, "family_a": family_a, "family_b": family_b, "crossover_n_av": nav}
    click.echo(json.dumps(out, allow_nan=False))


@main.command()
@click.option("--alpha", type=float, required=True)
@click.option("--iterations", "-k", type=click.IntRange(min=0, max=10_000), required=True, help="CPS rounds, at most 10000")
@numeric_guard
def synthesize(alpha, iterations):
    """Generate the N = 2^(k+1) extended state by CPS heralding; report fidelity."""
    bench.check_amplitude("alpha", alpha, positive=True)
    state, herald_probs = synthesize_heralded(alpha, iterations)
    n_components = 2 ** (iterations + 1)
    target = extended_entangled_state(n_components, alpha, state.n_max)
    out = {"alpha": alpha, "iterations": iterations, "n_components": n_components,
           "fidelity": fidelity(state, target), "herald_probs": herald_probs}
    click.echo(json.dumps(out, indent=2, allow_nan=False))


@main.command()
@numeric_guard
def verify():
    """Run the closed-form vs numeric cross-validation suite."""
    report = bench.verify_consistency()
    click.echo(report.summary())
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
