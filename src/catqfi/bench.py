"""Figure-reproduction sweeps, equal-energy comparison, and the consistency verifier.

Two tables declare everything a sweep plots.  `FAMILIES` is the one table
of state families; `FIGURES` names each of the paper's figures once, with
its default alpha grid and its curves (a family at fixed shape parameters
and transmission).  A figure sweep evaluates every point of every curve
twice, once from the closed-form module and once through the truncated-Fock
pipeline (state construction -> channels -> QFI engine).  Equal-energy
comparisons take a curve and an alpha grid, invert the closed-form
N_av(alpha) by Brent's method inside the grid cell whose samples bracket the
requested N_av, and then evaluate exactly, never by interpolating delta_phi.
Sweep rows are output only.
"""

from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass, field, fields, replace
from math import inf, isfinite, sqrt
from typing import Callable

import numpy as np

from . import closed_form as cf
from .channels import LossSpec, class_layers, head_layers, layer_blocks, loss_channel, noon_layers, phase_average
from .fock import (
    CatSpec,
    CutoffError,
    TwoModeState,
    cat_state,
    check_grid_size,
    coherent_amps,
    default_cutoff,
    extended_grids,
    mandel_q,
    noon_grids,
    normalized,
    number_moments,
    product_grids,
)
from .qfi import qfi_mixed, qfi_pure_grids

# below this QFI a trace-1 state is the vacuum to double precision, and the
# grid route cannot resolve the QFI at the 1e-8 relative agreement verify asks
QFI_RESOLUTION = 1e-9


def delta_phi(qfi: float) -> float:
    """Single-shot phase uncertainty bound 1/sqrt(F)."""
    return 1.0 / sqrt(qfi) if qfi > 0 else inf


@dataclass(frozen=True)
class SweepRow:
    figure: str
    family: str
    alpha: float
    beta: float | None
    n_components: int | None
    transmission: float
    n_av: float
    qfi: float
    delta_phi: float
    path: str  # closed_form | numeric


ROW_FIELDS = tuple(f.name for f in fields(SweepRow))  # the CSV columns and JSON keys, in order
CSV_HEADER = ",".join(ROW_FIELDS)


# ---------------------------------------------------------------------------
# the family table
# ---------------------------------------------------------------------------


class ParameterError(ValueError):
    """An argument outside the domain the family table declares (not a numeric failure)."""


def check_amplitude(name: str, value: float, positive: bool = False) -> None:
    """Amplitudes are finite and >= 0, and > 0 where a ratio to them is formed."""
    if not (isfinite(value) and value >= 0 and (value > 0 or not positive)):
        raise ParameterError(f"{name} must be finite and {'> 0' if positive else '>= 0'}, got {value}")


@dataclass(frozen=True)
class Family:
    """What one state family is, for both routes.

    params: the shape parameters a curve sets, beta_ratio (finite, >= 0, with
    alpha > 0) and n_components (integer >= 1); heads: the cat heads N the
    family fixes; build: (curve, alphas, n_max) -> (grids, live), the numeric
    route's pure states at the alphas where the family has one, stacked
    (n_a, point, n_b) as the `fock` builders stack them, and the mask of those
    alphas (n_max None: each point's own cutoff); layers: (curve, alphas) ->
    `channels.Layers`, the numeric route's state after loss at the curve's
    T < 1 at those live alphas, as layer grids at sqrt(T) times the family's
    amplitudes with exact weights (coherent heads for `coherent` and `cat4`,
    residue classes of one coherent row for the extended states, the Kraus
    ladder for `noon`); nav: closed-form N_av = <n_a>; qfi: variant ->
    closed-form QFI under n_b, None where there is none.
    """

    params: tuple
    build: Callable
    layers: Callable
    nav: Callable
    qfi: dict
    heads: int | None = None


def _cutoffs(amplitudes, n_max) -> list:
    """n_max at every point where it is given, else `default_cutoff` of each point's largest coherent
    amplitude; a Python float each, so that an overflowed square reads inf and the grid limit refuses it."""
    return [default_cutoff(a) if n_max is None else n_max for a in amplitudes]


def _everywhere(alphas: np.ndarray) -> np.ndarray:
    return np.ones(len(alphas), dtype=bool)


def _coherent_pair(curve, alphas, n_max):
    half = coherent_amps(alphas / sqrt(2), _cutoffs(alphas.tolist(), n_max))
    return product_grids(half, half), _everywhere(alphas)


def _coherent_layers(curve, alphas):
    half = alphas[:, None] / sqrt(2)
    return head_layers(half, half, curve.transmission)


def _cat4_heads(curve, alphas):
    """Head k of each point, (alpha i^k + beta)/2, (points, 4); mode b of head k is
    (beta - alpha i^k)/2 = (alpha i^(k+2) + beta)/2, the same number as mode a of head k + 2."""
    return (alphas[:, None] * np.array([1, 1j, -1, -1j]) + curve.beta_ratio * alphas[:, None]) / 2


def _cat4_state(curve, alphas, n_max):
    """|C_4(alpha/sqrt2)>|beta/sqrt2> after the 50:50 beam splitter, sum_k |(alpha i^k + beta)/2>|(beta - alpha i^k)/2>:
    no amplitude passes sqrt((alpha^2 + beta^2)/2), so each coherent factor's tail check covers the truncation.

    A real grid: for real alpha and beta the heads come in conjugate pairs, whose imaginary parts
    cancel to exactly 0, so the phase average and the QFI run in real arithmetic."""
    betas = curve.beta_ratio * alphas
    cut = _cutoffs([sqrt((a * a + b * b) / 2) for a, b in zip(alphas.tolist(), betas.tolist())], n_max)
    heads = coherent_amps(_cat4_heads(curve, alphas).ravel(), np.repeat(cut, 4)).reshape(len(alphas), 4, -1)
    grids = product_grids(heads[:, 0], heads[:, 2])
    for k in (1, 2, 3):
        grids += product_grids(heads[:, k], heads[:, (k + 2) % 4])
    # the imaginary parts are 0, so the real grid is normalized as the complex one
    return normalized(grids.real), _everywhere(alphas)


def _extended_state(curve, alphas, n_max):
    return extended_grids(curve.n_components, alphas, _cutoffs(np.abs(alphas).tolist(), n_max)), _everywhere(alphas)


def _cat4_layers(curve, alphas):
    heads = _cat4_heads(curve, alphas)
    return head_layers(heads, heads[:, [2, 3, 0, 1]], curve.transmission)


def _class_layers(curve, alphas):
    return class_layers(curve.n_components, alphas, curve.transmission)


def _noon_grid(curve, alphas, n_max):
    squares = [a * a for a in alphas.tolist()]
    check_grid_size(max(squares))  # before rounding, which cannot take the inf of an overflowed square
    ns = np.round(squares).astype(int)
    live = np.abs(np.array(squares) - ns) < 1e-9  # the noon state exists at integer alpha^2 only
    ns = ns[live]
    return noon_grids(ns, np.maximum(32, ns) if n_max is None else n_max), live


def _noon_layers(curve, alphas):
    ns = np.round(alphas * alphas).astype(int)
    return noon_layers(ns, np.maximum(32, ns), curve.transmission)


def _half_alpha_sq(curve, alpha):
    return alpha * alpha / 2


def _noon_qfi(curve, alpha):
    # F = T^n n^2 with n = alpha^2, analytically continued in n
    return curve.transmission ** (alpha * alpha) * alpha**4


def _extended_nav(curve, alpha):
    return cf.extended_moments(curve.n_components, alpha).n_av


def _extended_qfi(curve, alpha):
    return cf.moment_qfi(cf.extended_moments(curve.n_components, alpha))


def _pa_qfi(curve, alpha):
    return cf.pa_qfi(curve.n_components, alpha, curve.transmission)


VARIANTS = ("pure", "phase_averaged")

# callables take (curve, alpha); the phase-averaged cat4 state leaves the noon
# span {|n,0>, |0,n>} on which `cf.pa_qfi` is summed.  The lossy coherent pair
# is the coherent pair at amplitude sqrt(T) alpha, and each photon-number
# sector n of its phase average is a binomial state with 4 Var(n_b) = n.
FAMILIES = {
    "coherent": Family(
        (), _coherent_pair, _coherent_layers, _half_alpha_sq,
        {"pure": lambda c, a: 2 * a * a, "phase_averaged": lambda c, a: c.transmission * a * a},
    ),
    "cat4": Family(
        ("beta_ratio",), _cat4_state, _cat4_layers, lambda c, a: cf.fig1_moments(a, c.beta_ratio * a).n_av,
        {"pure": lambda c, a: cf.moment_qfi(cf.fig1_moments(a, c.beta_ratio * a)), "phase_averaged": None}, heads=4,
    ),
    "ecs": Family(
        (), _extended_state, _class_layers, lambda c, a: cf.ecs_qfi(a)[1],
        {"pure": lambda c, a: cf.ecs_qfi(a)[0], "phase_averaged": _pa_qfi}, heads=1,
    ),
    "modified": Family(
        (), _extended_state, _class_layers, _extended_nav, {"pure": _extended_qfi, "phase_averaged": _pa_qfi},
        heads=2,
    ),
    "extended": Family(
        ("n_components",), _extended_state, _class_layers, _extended_nav,
        {"pure": _extended_qfi, "phase_averaged": _pa_qfi},
    ),
    "noon": Family((), _noon_grid, _noon_layers, _half_alpha_sq, {"pure": _noon_qfi, "phase_averaged": _noon_qfi}),
}


def _family(kind: str) -> Family:
    if kind not in FAMILIES:
        raise ParameterError(f"unknown family kind {kind!r}, expected one of {tuple(FAMILIES)}")
    return FAMILIES[kind]


@dataclass(frozen=True)
class FamilyCurve:
    """One figure curve: a state family at shape parameters the table admits, swept in alpha."""

    label: str
    kind: str  # a key of FAMILIES
    variant: str  # pure | phase_averaged
    beta_ratio: float | None = None
    n_components: int | None = None  # the cat heads N: the family's own where it fixes them
    transmission: float = 1.0

    def __post_init__(self):
        family = _family(self.kind)
        if self.variant not in VARIANTS:
            raise ParameterError(f"variant must be pure or phase_averaged, got {self.variant!r}")
        if not 0.0 <= self.transmission <= 1.0 or (self.variant == "pure" and self.transmission != 1.0):
            raise ParameterError("transmission must lie in [0, 1], and be 1 for a pure state")
        if "n_components" in family.params:
            if not (isinstance(self.n_components, int) and self.n_components >= 1):
                raise ParameterError(f"{self.kind} needs an integer n_components >= 1, got {self.n_components}")
        elif self.n_components not in (None, family.heads):
            raise ParameterError(f"{self.kind} takes n_components {family.heads or 'none'}, not {self.n_components}")
        else:  # the cat heads N the family fixes, None where it fixes none
            object.__setattr__(self, "n_components", family.heads)
        if ("beta_ratio" in family.params) != (self.beta_ratio is not None):
            raise ParameterError(f"{self.kind} {'needs' if self.beta_ratio is None else 'takes no'} beta")

    @property
    def loss(self) -> LossSpec:
        return LossSpec(self.transmission)

    def state(self, alpha: float, n_max: int | None = None) -> TwoModeState | None:
        """The numeric route's pure state, None where the family has none at alpha (non-integer noon):
        the family's build at one point."""
        grids, live = FAMILIES[self.kind].build(self, np.array([alpha], dtype=float), n_max)
        return TwoModeState(grids[:, 0]) if live[0] else None


@dataclass(frozen=True)
class Figure:
    """One of the paper's figures: its curves, swept by default over its alpha grid."""

    alpha_grid: tuple
    curves: tuple


MAX_GRID_POINTS = 10_000  # the default grids have 44 and 59


def alpha_range(lo: float, hi: float, step: float = 0.05) -> tuple:
    """The alpha grid lo, lo + step, ... up to hi (inclusive to 1e-9), rounded to 10 digits.

    A grid of MAX_GRID_POINTS or more is refused before it is allocated
    (ParameterError): np.arange takes ceil(q) points for q = (hi + 1e-9 - lo) / step,
    and q is compared unrounded, so inf is refused too.
    """
    if (hi + 1e-9 - lo) / step > MAX_GRID_POINTS - 1:
        raise ParameterError(f"an alpha grid from {lo} to {hi} in steps of {step} has {MAX_GRID_POINTS} points or more")
    return tuple(np.round(np.arange(lo, hi + 1e-9, step), 10))


def _fig2_curves(variant: str, n_components: tuple, transmission: float = 1.0) -> tuple:
    """noon, ecs, modified, then extended[N] for each N."""
    curves = [FamilyCurve(k, k, variant, transmission=transmission) for k in ("noon", "ecs", "modified")]
    curves += [FamilyCurve(f"extended[N={n}]", "extended", variant, n_components=n, transmission=transmission)
               for n in n_components]
    return tuple(curves)


# fig1 covers N_av up to ~1.4, fig2 and fig4 up to ~4; the cat4 labels give beta/alpha
FIGURES = {
    "fig1": Figure(alpha_range(0.05, 2.2), (
        FamilyCurve("coherent", "coherent", "pure"),
        FamilyCurve("ecs", "ecs", "pure"),
        *(FamilyCurve(f"cat4[b={b}]", "cat4", "pure", beta_ratio=ratio)
          for b, ratio in (("a", 1.0), ("a/2", 0.5), ("a/4", 0.25), ("0", 0.0))),
    )),
    "fig2a": Figure(alpha_range(0.1, 3.0), _fig2_curves("pure", (4, 8, 16))),
    "fig2b": Figure(alpha_range(0.1, 3.0), _fig2_curves("phase_averaged", (4, 8, 16))),
    "fig4": Figure(alpha_range(0.1, 3.0), tuple(
        c for t in (0.9, 0.85) for c in _fig2_curves("phase_averaged", (4, 8), t)
    )),
}


def point_curve(kind, variant, alpha, beta=None, n_components=None, transmission=1.0) -> FamilyCurve:
    """The curve of `kind` through one point, every argument checked against the table;
    cat4's coherent amplitude beta defaults to alpha and is carried as beta/alpha."""
    takes_beta = "beta_ratio" in _family(kind).params
    check_amplitude("alpha", alpha, positive=takes_beta)
    if beta is not None:
        check_amplitude("beta", beta)
    beta_ratio = (alpha if beta is None else beta) / alpha if takes_beta else beta
    return FamilyCurve(kind, kind, variant, beta_ratio, n_components, transmission)


def closed_nav(curve: FamilyCurve, alpha: float) -> float:
    return FAMILIES[curve.kind].nav(curve, alpha)


def closed_qfi(curve: FamilyCurve, alpha: float) -> float:
    form = FAMILIES[curve.kind].qfi[curve.variant]
    if form is None:
        raise ValueError(f"{curve.label!r} has no closed-form QFI ({curve.variant}, T={curve.transmission})")
    return form(curve, alpha)


def numeric_points(curve: FamilyCurve, alphas, generator: str = "n_b") -> list[tuple[float, float] | None]:
    """(N_av, QFI) at each alpha through the truncated-Fock pipeline; None
    where the family has no numeric realization (non-integer noon).

    The states are built as one stack, and the moments, the phase average
    and the QFI each take it whole, so a failure at any alpha raises for the
    whole call.  N_av is always the pure state's.  Below T = 1 the mixed
    state is the family's `layers` at the live alphas, never the pure grids.
    """
    alphas = np.asarray(alphas, dtype=float)
    if not alphas.size:
        return []
    grids, live = FAMILIES[curve.kind].build(curve, alphas, None)
    out = [None] * len(live)
    if not live.any():
        return out
    navs = number_moments(grids, "a").tolist()
    if curve.variant == "pure":
        qfis = qfi_pure_grids(grids, generator).tolist()
    else:
        if curve.transmission < 1.0:
            mixed = layer_blocks(FAMILIES[curve.kind].layers(curve, alphas[live]), curve.transmission)
        else:
            mixed = phase_average(grids)
        qfis = np.atleast_1d(qfi_mixed(mixed, generator)).tolist()
    for i, nav, f in zip(np.flatnonzero(live).tolist(), navs, qfis):
        out[i] = (nav, f)
    return out


def numeric_point(curve: FamilyCurve, alpha: float, generator: str = "n_b") -> tuple[float, float] | None:
    """`numeric_points` at one alpha."""
    return numeric_points(curve, (alpha,), generator)[0]


def _make_row(figure: str, curve: FamilyCurve, alpha: float, nav: float, f: float, path: str) -> SweepRow:
    return SweepRow(
        figure=figure,
        family=curve.label,
        alpha=float(alpha),
        beta=None if curve.beta_ratio is None else curve.beta_ratio * alpha,
        n_components=curve.n_components,
        transmission=curve.transmission,
        n_av=nav,
        qfi=f,
        delta_phi=delta_phi(f),
        path=path,
    )


# alphas of a curve per numeric_points call in a sweep, sized by time and
# memory: the four sweeps plus verify in one process (medians of five passes,
# one BLAS thread) took 264-281 ms in chunks of 4 (tracemalloc peak
# 0.93 MiB), 197-199 ms in chunks of 8 (1.09 MiB), 176-179 ms in chunks of 16
# (1.59 MiB, and peak RSS 1 MB above 8's) and 202-229 ms as whole curves
# (6.75 MiB, peak RSS +8 MB), whose states are all padded to the curve's
# largest cutoff
_SWEEP_CHUNK = 8

_ROW_ERRORS = (CutoffError, ArithmeticError)


def _abort_row(curve: FamilyCurve, alpha: float, exc: Exception) -> None:
    print(f"sweep row aborted: {curve.label} alpha={alpha} T={curve.transmission}: {exc}", file=sys.stderr)


def _numeric_rows(curve: FamilyCurve, alphas) -> list[tuple[float, tuple[float, float] | None]]:
    """(alpha, numeric_point) pairs of a curve, chunk by chunk; a chunk that
    fails is re-run point by point, and only its failing rows abort."""
    out = []
    for start in range(0, len(alphas), _SWEEP_CHUNK):
        chunk = alphas[start : start + _SWEEP_CHUNK]
        try:
            out += zip(chunk, numeric_points(curve, chunk))
        except _ROW_ERRORS:
            for alpha in chunk:
                try:
                    out.append((alpha, numeric_point(curve, alpha)))
                except _ROW_ERRORS as exc:
                    _abort_row(curve, alpha, exc)
    return out


def run_sweep(figure: str, alpha_grid) -> list[SweepRow]:
    """Evaluate each curve of `figure` over the alpha grid in closed form and on the grid.

    A numeric failure (e.g. cutoff exhaustion) aborts that row with a
    diagnostic on stderr, not the sweep; a closed-form row that aborts takes
    its numeric row with it.
    """
    if figure not in FIGURES:
        raise ParameterError(f"figure must be one of {tuple(FIGURES)}, got {figure!r}")
    if len(alpha_grid) == 0:
        raise ParameterError("alpha_grid must be nonempty")
    if any(b - a <= 0 for a, b in zip(alpha_grid, alpha_grid[1:])):
        raise ParameterError("alpha_grid must be strictly increasing")
    rows: list[SweepRow] = []
    for curve in FIGURES[figure].curves:
        closed = []
        for alpha in alpha_grid:
            try:
                rows.append(
                    _make_row(figure, curve, alpha, closed_nav(curve, alpha), closed_qfi(curve, alpha), "closed_form")
                )
                closed.append(alpha)
            except _ROW_ERRORS as exc:
                _abort_row(curve, alpha, exc)
        for alpha, num in _numeric_rows(curve, closed):
            if num is not None:
                rows.append(_make_row(figure, curve, alpha, num[0], num[1], "numeric"))
    rows.sort(key=lambda r: (r.figure, r.family, r.transmission, r.alpha, r.path))
    return rows


# ---------------------------------------------------------------------------
# equal-energy comparison
# ---------------------------------------------------------------------------


def _brent(f: Callable[[float], float], a: float, fa: float, b: float, fb: float) -> float:
    """A root of f between a and b, given fa = f(a) and fb = f(b) of opposite
    signs, to a bracket narrower than 1e-14 * max(1, x).  It inverts N_av(alpha)
    in `alpha_solver` and finds the delta_phi crossing in `find_crossover`.

    Brent's method: inverse-quadratic or secant steps while they stay inside
    the bracket and shrink fast enough, bisection otherwise.  b is the best
    estimate, [b, c] the bracket and a the previous b.
    """
    c, fc, d, e = a, fa, b - a, b - a
    for _ in range(200):
        if (fb > 0) == (fc > 0):
            c, fc, d, e = a, fa, b - a, b - a
        if abs(fc) < abs(fb):
            a, b, c, fa, fb, fc = b, c, b, fb, fc, fb
        tol = 0.5e-14 * max(1.0, b)
        m = 0.5 * (c - b)
        if fb == 0 or abs(m) < tol:
            break
        if abs(e) >= tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:  # secant
                p, q = 2 * m * s, 1 - s
            else:  # inverse quadratic through a, b, c
                q, r = fa / fc, fb / fc
                p = s * (2 * m * q * (q - r) - (b - a) * (r - 1))
                q = (q - 1) * (r - 1) * (s - 1)
            p, q = abs(p), -q if p > 0 else q
            if 2 * p < min(3 * m * q - abs(tol * q), abs(e * q)):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else (tol if m > 0 else -tol)
        fb = f(b)
    return b


def alpha_solver(curve: FamilyCurve, alpha_grid) -> Callable[[float], float]:
    """alpha(N_av) on `curve`: the closed N_av is sampled over the grid once and
    must rise; each call takes the grid cell whose samples bracket n_av and
    solves closed_nav(alpha) = n_av there by Brent's method (a sampled alpha
    exactly where n_av is its sample)."""
    navs = [closed_nav(curve, alpha) for alpha in alpha_grid]
    if any(b - a <= 0 for a, b in zip(navs, navs[1:])):
        raise ValueError(f"N_av is not monotone in alpha for family {curve.label!r}")
    grid = [float(alpha) for alpha in alpha_grid]

    def solve(n_av: float) -> float:
        if not navs[0] <= n_av <= navs[-1]:
            raise ParameterError(
                f"N_av={n_av} outside the sampled range [{navs[0]:.6g}, {navs[-1]:.6g}] of {curve.label!r}"
            )
        i = bisect_left(navs, n_av)
        if navs[i] == n_av:
            return grid[i]
        return _brent(
            lambda alpha: closed_nav(curve, alpha) - n_av, grid[i - 1], navs[i - 1] - n_av, grid[i], navs[i] - n_av
        )

    return solve


def interpolate_at_nav(curve: FamilyCurve, alpha_grid, n_av: float) -> float:
    """delta_phi of a curve at a requested N_av: alpha from `alpha_solver`, then the exact closed-form QFI."""
    return delta_phi(closed_qfi(curve, alpha_solver(curve, alpha_grid)(n_av)))


def find_crossover(
    curve_a: FamilyCurve, curve_b: FamilyCurve, alpha_grid, bracket: tuple[float, float]
) -> float | None:
    """N_av where the delta_phi curves of two curves cross, found by `_brent`
    to about 1e-14 * max(1, N_av).

    None where the delta_phi gap has the same sign at both ends of the
    bracket: the curves cross there an even number of times, possibly none.
    A bracket that is not lo < hi and two equal curves are bad arguments (ParameterError).
    """
    lo, hi = bracket
    if not lo < hi:
        raise ParameterError(f"the N_av bracket must satisfy lo < hi, got {bracket}")
    if curve_a == curve_b:
        raise ParameterError(f"the two families must differ, got {curve_a.label!r} twice")
    solve_a, solve_b = alpha_solver(curve_a, alpha_grid), alpha_solver(curve_b, alpha_grid)

    def gap(n_av: float) -> float:
        return delta_phi(closed_qfi(curve_a, solve_a(n_av))) - delta_phi(closed_qfi(curve_b, solve_b(n_av)))

    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo * g_hi > 0:
        return None
    if not g_lo * g_hi < 0:
        raise ValueError(
            f"delta_phi({curve_a.label}) - delta_phi({curve_b.label}) is {g_lo} and {g_hi} at the ends of {bracket}"
        )
    return _brent(gap, lo, g_lo, hi, g_hi)


# ---------------------------------------------------------------------------
# consistency verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    name: str
    params: dict
    expected: float
    actual: float
    error: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.error <= self.tol


@dataclass
class ConsistencyReport:
    checks: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> list:
        return [c for c in self.checks if not c.passed]

    def summary(self) -> str:
        lines = [
            f"{'PASS' if c.passed else 'FAIL'}  {c.name}  {c.params}  "
            f"expected={c.expected:.12g} actual={c.actual:.12g} err={c.error:.3e} tol={c.tol:g}"
            for c in self.checks
        ]
        lines += [f"note  {n}" for n in self.notes]
        lines.append(
            f"{len(self.checks) - len(self.failures)}/{len(self.checks)} checks passed"
        )
        return "\n".join(lines)


def _rel_err(expected: float, actual: float) -> float:
    return abs(expected - actual) / max(abs(expected), 1e-6)


def mandel_q_ratio_gap(n_components: int, alpha: float) -> tuple[float, float]:
    """(F_Q1/N_av of the extended state, 4(1+Q) of its cat): reported, not asserted.

    The two sides coincide only approximately; the vacuum-overlap
    normalization of the entangled state breaks exact equality.
    """
    m = cf.extended_moments(n_components, alpha)
    ratio = cf.moment_qfi(m) / m.n_av
    q = mandel_q(cat_state(CatSpec(n_components, alpha), default_cutoff(alpha)))
    return ratio, 4.0 * (1.0 + q)


def verify_consistency() -> ConsistencyReport:
    """Closed-form vs truncated-Fock cross-validation, curve by curve.

    Every check compares one quantity produced by the analytic route with
    the same quantity from the independent numeric pipeline.  Each curve's
    n_b points are one `numeric_points` batch, the path every sweep row
    takes, so a fault in how a batch is built or split fails checks here;
    the half_difference points, which no sweep evaluates, go one by one
    through `numeric_point`, the route of `catqfi qfi --generator`.  Mixed
    points whose closed QFI sits below QFI_RESOLUTION are skipped with a note.
    """
    alphas = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
    transmissions = (1.0, 0.9, 0.85)
    report = ConsistencyReport()

    def add(name: str, params: dict, expected: float, actual: float, this_tol: float = 1e-8):
        report.checks.append(
            CheckResult(name, params, expected, actual, _rel_err(expected, actual), this_tol)
        )

    # fig1 entangled states: grid moments vs analytic expressions
    for ratio in (0.0, 0.25, 0.5, 1.0):
        curve = FamilyCurve("cat4", "cat4", "pure", beta_ratio=ratio)
        for alpha, (nav_n, f_n) in zip(alphas, numeric_points(curve, alphas)):
            add("pure-qfi[cat4]", {"alpha": alpha, "beta_ratio": ratio}, closed_qfi(curve, alpha), f_n)
            add("nav[cat4]", {"alpha": alpha, "beta_ratio": ratio}, closed_nav(curve, alpha), nav_n)

    # ecs, modified and extended[N]: pure, phase averaged and lossy
    pures = _fig2_curves("pure", (4, 8, 16))[1:]
    averaged = {}  # (label, alpha) -> numeric QFI of the phase-averaged state at T = 1
    for pure in pures:
        label = pure.label
        for alpha, (nav_n, f_n) in zip(alphas, numeric_points(pure, alphas)):
            add(f"pure-qfi[{label}]", {"alpha": alpha}, closed_qfi(pure, alpha), f_n)
            add(f"nav[{label}]", {"alpha": alpha}, closed_nav(pure, alpha), nav_n)
        for t in transmissions:
            curve = replace(pure, variant="phase_averaged", transmission=t)
            name = "pa-qfi" if t == 1.0 else "lossy-qfi"
            lossy = {} if t == 1.0 else {"T": t}
            closed = {}  # alpha -> closed QFI, of the points kept
            for alpha in alphas:
                params = {"alpha": alpha, **lossy}
                f_cf = closed_qfi(curve, alpha)
                if f_cf < QFI_RESOLUTION:
                    report.notes.append(
                        f"skipped {name}[{label}] {params}: QFI {f_cf:.3e} below the "
                        "double-precision resolution of a trace-1 state"
                    )
                else:
                    closed[alpha] = f_cf
            for alpha, (_, f_n) in zip(closed, numeric_points(curve, tuple(closed))):
                add(f"{name}[{label}]", {"alpha": alpha, **lossy}, closed[alpha], f_n)
                if t == 1.0:
                    averaged[label, alpha] = f_n

    # noon exactness (lossless and lossy) at integer n
    ns = (1, 2, 3, 4)
    for t in transmissions:
        curve = FamilyCurve("noon", "noon", "phase_averaged", transmission=t)
        for n, (_, f_n) in zip(ns, numeric_points(curve, [sqrt(float(n)) for n in ns])):
            add("noon-qfi", {"n": n, "T": t}, t**n * n * n, f_n, this_tol=1e-12)

    # phase-reference identity: F_q(phase averaged, n_b) = F_Q2(pure, two-mode +-phi/2), for N = 1, 2, 4
    for pure in pures[:3]:
        for alpha in (0.5, 1.5):
            _, f_q2 = numeric_point(pure, alpha, "half_difference")
            add(f"fq-equals-fq2[{pure.label}]", {"alpha": alpha}, f_q2, averaged[pure.label, alpha])

    # the loss kernel at T = 1 is the identity (numeric_points skips the channel there)
    t1_alphas = (0.5, 1.0)
    through = loss_channel(phase_average([pures[0].state(alpha) for alpha in t1_alphas]), LossSpec(1.0))
    for alpha, f in zip(t1_alphas, qfi_mixed(through, "n_b").tolist()):
        add("t1-identity[ecs]", {"alpha": alpha}, averaged["ecs", alpha], f, this_tol=1e-10)

    for n_comp in (2, 4):
        ratio, four_q = mandel_q_ratio_gap(n_comp, 1.0)
        report.notes.append(
            f"F_Q1/N_av vs 4(1+Q) for N={n_comp}, alpha=1: {ratio:.6f} vs {four_q:.6f} "
            f"(gap {abs(ratio - four_q):.3e}; reported, not asserted)"
        )
    return report


# ---------------------------------------------------------------------------
# output encodings
# ---------------------------------------------------------------------------


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def rows_to_csv(rows: list[SweepRow]) -> str:
    lines = [CSV_HEADER] + [",".join(_fmt(getattr(r, k)) for k in ROW_FIELDS) for r in rows]
    return "\n".join(lines) + "\n"


def rows_to_records(rows: list[SweepRow]) -> list[dict]:
    """JSON-ready records mirroring the CSV schema (floats to 12 digits, non-finite -> null)."""
    return [{k: _json_value(getattr(r, k)) for k in ROW_FIELDS} for r in rows]


def _json_value(value):
    if not isinstance(value, float):
        return value
    return float(format(value, ".12g")) if isfinite(value) else None
