"""Command-line surface: state dumps, QFI points, sweeps, crossover, verification.

Exit codes: 0 success, 1 verification failure, 2 bad arguments (click's
usage-error code), 3 numeric failure.
"""

from __future__ import annotations

import functools
import json
import sys
from math import pi, sqrt

import click
import numpy as np

from . import bench
from .channels import cps_round_outcome
from .fock import (
    CatSpec,
    CutoffError,
    beam_splitter_5050,
    cat_state,
    coherent,
    default_cutoff,
    extended_entangled_state,
    fidelity,
    mandel_q,
    noon_state,
    number_moment,
)

SINGLE_MODE_FAMILIES = ("coherent", "cat")
TWO_MODE_FAMILIES = ("ecs", "modified", "extended", "noon")
QFI_FAMILIES = ("coherent", "cat4", "ecs", "modified", "extended", "noon")


def numeric_guard(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except (CutoffError, ArithmeticError, ValueError) as exc:
            click.echo(f"numeric failure: {exc}", err=True)
            sys.exit(3)

    return wrapper


@click.group()
def main():
    """QFI phase-sensitivity bounds for multi-headed cat-state resources."""


@main.command()
@click.option("--family", type=click.Choice(SINGLE_MODE_FAMILIES + TWO_MODE_FAMILIES), required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--n-components", type=int, default=None, help="cat heads N (cat/extended)")
@click.option("--n-max", type=int, default=None)
@numeric_guard
def state(family, alpha, n_components, n_max):
    """Dump a constructed state's amplitudes and photon-number moments."""
    if n_max is None:
        n_max = default_cutoff(alpha)
    out = {"family": family, "alpha": alpha, "n_max": n_max}
    if family in SINGLE_MODE_FAMILIES:
        if family == "coherent":
            vec = coherent(alpha, n_max)
        else:
            vec = cat_state(CatSpec(n_components or 2, alpha), n_max)
            out["n_components"] = n_components or 2
        out["norm_sq"] = vec.norm_sq()
        out["mean_n"] = vec.moment(1)
        out["mean_n2"] = vec.moment(2)
        if vec.moment(1) > 1e-14:
            out["mandel_q"] = mandel_q(vec)
        out["amplitudes"] = [[a.real, a.imag] for a in vec.amps]
    else:
        if family == "noon":
            n = round(alpha * alpha)
            if abs(alpha * alpha - n) > 1e-9:
                raise ValueError("noon state needs integer n = alpha^2")
            grid = noon_state(n, max(32, n))
            out["n"] = n
        else:
            n_comp = {"ecs": 1, "modified": 2}.get(family, n_components)
            if n_comp is None:
                raise ValueError("extended family needs --n-components")
            grid = extended_entangled_state(n_comp, alpha, n_max)
            out["n_components"] = n_comp
        out["n_max"] = grid.n_max
        out["norm_sq"] = grid.norm_sq()
        for mode in ("a", "b"):
            out[f"mean_n_{mode}"] = number_moment(grid, mode, 1)
            out[f"mean_n2_{mode}"] = number_moment(grid, mode, 2)
        na, nb = np.nonzero(np.abs(grid.amps) > 1e-14)
        out["amplitudes"] = [
            [int(i), int(j), grid.amps[i, j].real, grid.amps[i, j].imag] for i, j in zip(na, nb)
        ]
    click.echo(json.dumps(out, indent=2))


@main.command()
@click.option("--family", type=click.Choice(QFI_FAMILIES), required=True)
@click.option("--alpha", type=float, required=True)
@click.option("--beta", type=float, default=None, help="coherent input amplitude (cat4 only)")
@click.option("--n-components", type=int, default=None)
@click.option("--transmission", type=click.FloatRange(0.0, 1.0), default=1.0)
@click.option(
    "--generator",
    type=click.Choice(["one_mode_b", "two_mode_half", "n_b", "half_difference"]),
    default=None,
    help="defaults to one_mode_b (pure) / n_b (phase averaged)",
)
@click.option("--phase-averaged", is_flag=True, default=False)
@numeric_guard
def qfi(family, alpha, beta, n_components, transmission, generator, phase_averaged):
    """Single-point QFI by both the closed-form and the numeric route."""
    if transmission < 1.0:
        phase_averaged = True
    variant = "phase_averaged" if phase_averaged else "pure"
    if generator is None:
        generator = "n_b" if phase_averaged else "one_mode_b"
    if phase_averaged and generator in ("one_mode_b", "two_mode_half"):
        raise click.UsageError("phase-averaged states take --generator n_b or half_difference")
    if not phase_averaged and generator in ("n_b", "half_difference"):
        raise click.UsageError("pure states take --generator one_mode_b or two_mode_half")
    beta_ratio = None
    if family == "cat4":
        beta_ratio = (beta if beta is not None else alpha) / alpha
        n_components = 4
    elif family in ("ecs", "modified"):
        n_components = {"ecs": 1, "modified": 2}[family]
    elif family == "extended" and n_components is None:
        raise click.UsageError("extended family needs --n-components")
    curve = bench.FamilyCurve(
        label=family,
        kind=family,
        variant=variant,
        beta_ratio=beta_ratio,
        n_components=n_components,
        transmission=transmission,
    )
    standard = generator in ("one_mode_b", "n_b")
    result = {
        "family": family,
        "alpha": alpha,
        "beta": None if beta_ratio is None else beta_ratio * alpha,
        "n_components": n_components,
        "transmission": transmission,
        "phase_averaged": phase_averaged,
        "generator": generator,
        "n_av": bench.closed_nav(curve, alpha),
    }
    # phase-averaged cat4 leaves the noon span, where there is no closed form
    closed = standard and not (phase_averaged and family == "cat4")
    result["qfi_closed_form"] = bench.closed_qfi(curve, alpha) if closed else None
    num = _numeric_qfi(curve, alpha, generator)
    result["qfi_numeric"] = num
    ref = result["qfi_closed_form"] if result["qfi_closed_form"] is not None else num
    result["delta_phi"] = bench.delta_phi(ref) if ref is not None else None
    click.echo(json.dumps(result, indent=2))


def _numeric_qfi(curve, alpha, generator):
    point = bench.numeric_point(curve, alpha)
    if point is None:
        return None
    if generator in ("one_mode_b", "n_b"):
        return point[1]
    # non-default generator: rebuild the state and evaluate directly
    import warnings

    from .channels import loss_channel, phase_average
    from .qfi import DegenerateSpectrumWarning, qfi_mixed, qfi_pure

    state = _build_state(curve, alpha)
    if curve.variant == "pure":
        return qfi_pure(state, generator)
    mixed = phase_average(state)
    if curve.transmission < 1.0:
        mixed = loss_channel(mixed, curve.loss)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrumWarning)
        return qfi_mixed(mixed, generator)


def _build_state(curve, alpha):
    if curve.kind == "coherent":
        from .fock import product_state

        n_max = default_cutoff(alpha)
        return product_state(coherent(alpha / sqrt(2), n_max), coherent(alpha / sqrt(2), n_max))
    if curve.kind == "cat4":
        beta = curve.beta_ratio * alpha
        n_max = default_cutoff(sqrt((alpha * alpha + beta * beta) / 2))
        return beam_splitter_5050(
            cat_state(CatSpec(4, alpha / sqrt(2)), n_max), coherent(beta / sqrt(2), n_max)
        ).normalize()
    if curve.kind == "noon":
        n = round(alpha * alpha)
        return noon_state(n, max(32, n))
    n_comp = {"ecs": 1, "modified": 2}.get(curve.kind, curve.n_components)
    return extended_entangled_state(n_comp, alpha)


@main.command()
@click.option("--figure", type=click.Choice(bench.FIGURES), required=True)
@click.option("--out", type=click.Path(writable=True, dir_okay=False), default="-")
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv")
@click.option("--alpha-min", type=float, default=None)
@click.option("--alpha-max", type=float, default=None)
@click.option("--alpha-step", type=float, default=None)
@numeric_guard
def sweep(figure, out, fmt, alpha_min, alpha_max, alpha_step):
    """Run a figure-reproduction sweep and write CSV or JSON rows."""
    cfg = bench.default_config(figure)
    if alpha_min is not None or alpha_max is not None or alpha_step is not None:
        lo = alpha_min if alpha_min is not None else cfg.alpha_grid[0]
        hi = alpha_max if alpha_max is not None else cfg.alpha_grid[-1]
        step = alpha_step if alpha_step is not None else 0.05
        grid = tuple(np.round(np.arange(lo, hi + 1e-9, step), 10))
        cfg = bench.SweepConfig(
            figure=figure,
            alpha_grid=grid,
            beta_ratios=cfg.beta_ratios,
            n_components_list=cfg.n_components_list,
            transmissions=cfg.transmissions,
        )
    rows = bench.run_sweep(cfg)
    payload = (
        bench.rows_to_csv(rows)
        if fmt == "csv"
        else json.dumps(bench.rows_to_records(rows), indent=2) + "\n"
    )
    if out == "-":
        click.echo(payload, nl=False)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(payload)
        click.echo(f"wrote {len(rows)} rows to {out}", err=True)


@main.command()
@click.option("--figure", type=click.Choice(bench.FIGURES), required=True)
@click.option("--family-a", required=True)
@click.option("--family-b", required=True)
@click.option("--nav-lo", type=float, required=True)
@click.option("--nav-hi", type=float, required=True)
@click.option("--transmission", type=float, default=None)
@numeric_guard
def crossover(figure, family_a, family_b, nav_lo, nav_hi, transmission):
    """Locate the N_av where two families' delta_phi curves cross."""
    rows = bench.run_sweep(bench.default_config(figure))
    nav = bench.find_crossover(rows, family_a, family_b, (nav_lo, nav_hi), transmission)
    click.echo(
        json.dumps(
            {"figure": figure, "family_a": family_a, "family_b": family_b, "crossover_n_av": nav}
        )
    )


@main.command()
@click.option("--alpha", type=float, required=True)
@click.option("--iterations", "-k", type=click.IntRange(min=0), required=True)
@numeric_guard
def synthesize(alpha, iterations):
    """Generate the N = 2^(k+1) extended state by CPS heralding; report fidelity."""
    n_max = default_cutoff(alpha)
    half = cat_state(CatSpec(2, alpha / sqrt(2.0)), n_max)
    state = beam_splitter_5050(half, half).normalize()
    herald_probs = []
    for j in range(1, iterations + 1):
        outcome = cps_round_outcome(state, 2.0 * pi / 2 ** (j + 1))
        herald_probs.append([outcome.herald_prob_a, outcome.herald_prob_b])
        state = outcome.state
    n_components = 2 ** (iterations + 1)
    target = extended_entangled_state(n_components, alpha, n_max)
    click.echo(
        json.dumps(
            {
                "alpha": alpha,
                "iterations": iterations,
                "n_components": n_components,
                "fidelity": fidelity(state, target),
                "herald_probs": herald_probs,
            },
            indent=2,
        )
    )


@main.command()
@click.option("--quick", is_flag=True, default=False, help="reduced grid for fast checks")
@numeric_guard
def verify(quick):
    """Run the closed-form vs numeric cross-validation suite."""
    if quick:
        report = bench.verify_consistency(
            alphas=(0.5, 1.0),
            beta_ratios=(0.0, 0.5),
            n_components_list=(1, 2, 4),
            transmissions=(0.9,),
        )
    else:
        report = bench.verify_consistency()
    click.echo(report.summary())
    if not report.passed:
        sys.exit(1)


if __name__ == "__main__":
    main()
