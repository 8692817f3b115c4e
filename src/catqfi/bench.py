"""Figure-reproduction sweeps, equal-energy comparison, and the consistency verifier.

`FAMILIES` is the one table of state families.  A figure sweep evaluates
every point twice, once from the closed-form module and once through the
truncated-Fock pipeline (state construction -> channels -> QFI engine).
Curves are parameterized by alpha; equal-energy comparisons read the
closed-form rows only, invert N_av(alpha) by bisection on alpha and then
evaluate exactly, never by interpolating delta_phi.
"""

from __future__ import annotations

import sys
import warnings
from dataclasses import dataclass, field, replace
from math import inf, isfinite, sqrt
from typing import Callable

import numpy as np

from . import closed_form as cf
from .channels import LossSpec, loss_channel, phase_average
from .fock import (
    CatSpec,
    CutoffError,
    beam_splitter_5050,
    cat_state,
    coherent,
    default_cutoff,
    extended_entangled_state,
    mandel_q,
    noon_state,
    number_moment,
    product_state,
)
from .qfi import DegenerateSpectrumWarning, qfi_mixed, qfi_noon_mixture, qfi_pure

FIGURES = ("fig1", "fig2a", "fig2b", "fig4")

CSV_HEADER = "figure,family,alpha,beta,n_components,transmission,n_av,qfi,delta_phi,path"


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


@dataclass(frozen=True)
class SweepConfig:
    figure: str
    alpha_grid: tuple
    beta_ratios: tuple = (1.0, 0.5, 0.25, 0.0)
    n_components_list: tuple = (4, 8, 16)
    transmissions: tuple = (0.9, 0.85)

    def __post_init__(self):
        if self.figure not in FIGURES:
            raise ValueError(f"figure must be one of {FIGURES}")
        for name in ("alpha_grid", "beta_ratios", "n_components_list", "transmissions"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ValueError(f"{name} must be nonempty")
        if any(b - a <= 0 for a, b in zip(self.alpha_grid, self.alpha_grid[1:])):
            raise ValueError("alpha_grid must be strictly increasing")


def default_config(figure: str) -> SweepConfig:
    """Default grids: fig1 covers N_av up to ~1.4, fig2/fig4 up to ~4."""
    if figure == "fig1":
        grid = np.round(np.arange(0.05, 2.2 + 1e-9, 0.05), 10)
    else:
        grid = np.round(np.arange(0.1, 3.0 + 1e-9, 0.05), 10)
    n_list = (4, 8) if figure == "fig4" else (4, 8, 16)
    return SweepConfig(figure=figure, alpha_grid=tuple(grid), n_components_list=n_list)


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
    family fixes; build: (curve, alpha, n_max) -> the numeric route's pure
    state, None where the family has none at alpha (n_max None: the family's
    cutoff); nav: closed-form N_av = <n_a>; qfi: variant -> closed-form QFI
    under the variant's standard generator, None where there is none.
    """

    params: tuple
    build: Callable
    nav: Callable
    qfi: dict
    heads: int | None = None


def _coherent_pair(curve, alpha, n_max):
    half = coherent(alpha / sqrt(2), default_cutoff(alpha) if n_max is None else n_max)
    return product_state(half, half)


def _cat4_state(curve, alpha, n_max):
    beta = curve.beta_ratio * alpha
    if n_max is None:
        n_max = default_cutoff(sqrt((alpha * alpha + beta * beta) / 2))
    cat = cat_state(CatSpec(4, alpha / sqrt(2)), n_max)
    return beam_splitter_5050(cat, coherent(beta / sqrt(2), n_max)).normalize()


def _extended_state(curve, alpha, n_max):
    return extended_entangled_state(curve.heads, alpha, n_max)


def _noon_grid(curve, alpha, n_max):
    n = round(alpha * alpha)
    integer = abs(alpha * alpha - n) < 1e-9
    return noon_state(n, max(32, n) if n_max is None else n_max) if integer else None


def _half_alpha_sq(curve, alpha):
    return alpha * alpha / 2


def _noon_qfi(curve, alpha):
    # F = T^n n^2 with n = alpha^2, analytically continued in n
    return curve.transmission ** (alpha * alpha) * alpha**4


def _mixed_qfi(curve, alpha):
    if curve.transmission == 1.0:
        return cf.pa_qfi(curve.kind, alpha, n_components=curve.heads)
    mix = cf.lossy_noon_mixture(curve.kind, alpha, curve.loss, n_cut=default_cutoff(alpha), n_components=curve.heads)
    return qfi_noon_mixture(mix)


# the generators each variant admits, the standard one (that of the closed forms) first
GENERATORS = {"pure": ("one_mode_b", "two_mode_half"), "phase_averaged": ("n_b", "half_difference")}

# callables take (curve, alpha); phase-averaged coherent and cat4 states leave
# the noon span {|n,0>, |0,n>} that the closed-form spectra cover
FAMILIES = {
    "coherent": Family((), _coherent_pair, _half_alpha_sq, {"pure": lambda c, a: 2 * a * a, "phase_averaged": None}),
    "cat4": Family(
        ("beta_ratio",), _cat4_state, lambda c, a: cf.fig1_moments(a, c.beta_ratio * a).n_av,
        {"pure": lambda c, a: cf.moment_qfi(cf.fig1_moments(a, c.beta_ratio * a)), "phase_averaged": None}, heads=4,
    ),
    "ecs": Family(
        (), _extended_state, lambda c, a: cf.ecs_qfi(a)[1],
        {"pure": lambda c, a: cf.ecs_qfi(a)[0], "phase_averaged": _mixed_qfi}, heads=1,
    ),
    "modified": Family(
        (), _extended_state, lambda c, a: cf.modified_moments(a).n_av,
        {"pure": lambda c, a: cf.moment_qfi(cf.modified_moments(a)), "phase_averaged": _mixed_qfi}, heads=2,
    ),
    "extended": Family(
        ("n_components",), _extended_state, lambda c, a: cf.extended_moments(c.n_components, a).n_av,
        {"pure": lambda c, a: cf.moment_qfi(cf.extended_moments(c.n_components, a)), "phase_averaged": _mixed_qfi},
    ),
    "noon": Family((), _noon_grid, _half_alpha_sq, {"pure": _noon_qfi, "phase_averaged": _noon_qfi}),
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
    n_components: int | None = None
    transmission: float = 1.0

    def __post_init__(self):
        family = _family(self.kind)
        if self.variant not in GENERATORS:
            raise ParameterError(f"variant must be pure or phase_averaged, got {self.variant!r}")
        if not 0.0 <= self.transmission <= 1.0 or (self.variant == "pure" and self.transmission != 1.0):
            raise ParameterError("transmission must lie in [0, 1], and be 1 for a pure state")
        if "n_components" in family.params:
            if not (isinstance(self.n_components, int) and self.n_components >= 1):
                raise ParameterError(f"{self.kind} needs an integer n_components >= 1, got {self.n_components}")
        elif self.n_components not in (None, family.heads):
            raise ParameterError(f"{self.kind} takes n_components {family.heads or 'none'}, not {self.n_components}")
        if ("beta_ratio" in family.params) != (self.beta_ratio is not None):
            raise ParameterError(f"{self.kind} {'needs' if self.beta_ratio is None else 'takes no'} beta")

    @property
    def loss(self) -> LossSpec:
        return LossSpec(self.transmission)

    @property
    def heads(self) -> int | None:
        """The cat heads N of the state: fixed by the family, else n_components."""
        return FAMILIES[self.kind].heads or self.n_components

    def state(self, alpha: float, n_max: int | None = None):
        """The numeric route's pure state, None where the family has none at alpha (non-integer noon)."""
        return FAMILIES[self.kind].build(self, alpha, n_max)


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


def numeric_point(curve: FamilyCurve, alpha: float, generator: str | None = None) -> tuple[float, float] | None:
    """(N_av, QFI) through the truncated-Fock pipeline, by default under the
    variant's standard generator; None when the family has no numeric
    realization at this alpha (non-integer noon)."""
    state = curve.state(alpha)
    if state is None:
        return None
    generator = generator or GENERATORS[curve.variant][0]
    nav = number_moment(state, "a", 1)
    if curve.variant == "pure":
        return nav, qfi_pure(state, generator)
    mixed = phase_average(state)
    if curve.transmission < 1.0:
        mixed = loss_channel(mixed, curve.loss)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrumWarning)
        return nav, qfi_mixed(mixed, generator)


def figure_curves(cfg: SweepConfig) -> list[FamilyCurve]:
    if cfg.figure == "fig1":
        curves = [
            FamilyCurve("coherent", "coherent", "pure"),
            FamilyCurve("ecs", "ecs", "pure"),
        ]
        for ratio in cfg.beta_ratios:
            label = {1.0: "cat4[b=a]", 0.5: "cat4[b=a/2]", 0.25: "cat4[b=a/4]", 0.0: "cat4[b=0]"}.get(
                ratio, f"cat4[b={ratio}a]"
            )
            curves.append(FamilyCurve(label, "cat4", "pure", beta_ratio=ratio, n_components=4))
        return curves
    variant = "pure" if cfg.figure == "fig2a" else "phase_averaged"
    base = [FamilyCurve(k, k, variant, n_components=FAMILIES[k].heads) for k in ("noon", "ecs", "modified")]
    base += [FamilyCurve(f"extended[N={n}]", "extended", variant, n_components=n) for n in cfg.n_components_list]
    if cfg.figure != "fig4":
        return base
    return [replace(c, transmission=t) for t in cfg.transmissions for c in base]


def _make_row(cfg: SweepConfig, curve: FamilyCurve, alpha: float, nav: float, f: float, path: str) -> SweepRow:
    return SweepRow(
        figure=cfg.figure,
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


def run_sweep(cfg: SweepConfig, numeric: bool = True) -> list[SweepRow]:
    """Evaluate each figure curve over the alpha grid in closed form and, with `numeric`, on the grid.

    A numeric failure (e.g. cutoff exhaustion) aborts that row with a
    diagnostic on stderr, not the sweep.
    """
    rows: list[SweepRow] = []
    for curve in figure_curves(cfg):
        for alpha in cfg.alpha_grid:
            try:
                rows.append(
                    _make_row(cfg, curve, alpha, closed_nav(curve, alpha), closed_qfi(curve, alpha), "closed_form")
                )
                num = numeric_point(curve, alpha) if numeric else None
                if num is not None:
                    rows.append(_make_row(cfg, curve, alpha, num[0], num[1], "numeric"))
            except (CutoffError, ArithmeticError) as exc:
                print(
                    f"sweep row aborted: {curve.label} alpha={alpha} T={curve.transmission}: {exc}",
                    file=sys.stderr,
                )
    rows.sort(key=lambda r: (r.figure, r.family, r.transmission, r.alpha, r.path))
    return rows


# ---------------------------------------------------------------------------
# equal-energy comparison
# ---------------------------------------------------------------------------


def _curve_from_rows(rows: list[SweepRow], family: str, transmission: float | None) -> tuple[FamilyCurve, list[SweepRow]]:
    sel = [r for r in rows if r.family == family]
    if transmission is not None:
        sel = [r for r in sel if abs(r.transmission - transmission) < 1e-12]
    if not sel:
        raise ValueError(f"no rows for family {family!r}")
    t_values = sorted({r.transmission for r in sel})
    figures = sorted({r.figure for r in sel})
    if len(t_values) > 1 or len(figures) > 1:
        raise ValueError(
            f"family {family!r} is ambiguous in these rows (figures {figures}, T {t_values}); filter first"
        )
    ref = sel[0]
    variant = "pure" if ref.figure in ("fig1", "fig2a") else "phase_averaged"
    kind = family.split("[")[0]
    beta_ratio = None
    if "beta_ratio" in _family(kind).params:
        with_alpha = next(r for r in sel if r.alpha > 0)
        beta_ratio = with_alpha.beta / with_alpha.alpha
    curve = FamilyCurve(family, kind, variant, beta_ratio, ref.n_components, ref.transmission)
    closed = sorted((r for r in sel if r.path == "closed_form"), key=lambda r: r.alpha)
    return curve, closed


def _invert_nav(curve: FamilyCurve, closed_rows: list[SweepRow], n_av: float) -> float:
    """Bisection solve of closed_nav(alpha) = n_av over the sampled alpha range."""
    navs = [r.n_av for r in closed_rows]
    if any(b - a <= 0 for a, b in zip(navs, navs[1:])):
        raise ValueError(f"N_av is not monotone in alpha for family {curve.label!r}")
    if not navs[0] <= n_av <= navs[-1]:
        raise ValueError(
            f"N_av={n_av} outside the sampled range [{navs[0]:.6g}, {navs[-1]:.6g}] of {curve.label!r}"
        )
    lo, hi = closed_rows[0].alpha, closed_rows[-1].alpha
    for _ in range(200):
        if hi - lo < 1e-14 * max(1.0, hi):
            break
        mid = 0.5 * (lo + hi)
        if closed_nav(curve, mid) < n_av:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def interpolate_at_nav(rows: list[SweepRow], family: str, n_av: float, transmission: float | None = None) -> float:
    """delta_phi of a family at a requested N_av, by alpha bisection + exact evaluation."""
    curve, closed = _curve_from_rows(rows, family, transmission)
    alpha = _invert_nav(curve, closed, n_av)
    return delta_phi(closed_qfi(curve, alpha))


def find_crossover(
    rows: list[SweepRow],
    family_a: str,
    family_b: str,
    bracket: tuple[float, float],
    transmission: float | None = None,
    tol: float = 1e-4,
) -> float:
    """N_av where the delta_phi curves of two families cross, to `tol` in N_av.

    A bracket that is not lo < hi and two equal families are bad arguments
    (ParameterError).
    """
    lo, hi = bracket
    if not lo < hi:
        raise ParameterError(f"the N_av bracket must satisfy lo < hi, got {bracket}")
    if family_a == family_b:
        raise ParameterError(f"the two families must differ, got {family_a!r} twice")

    def gap(n_av: float) -> float:
        return interpolate_at_nav(rows, family_a, n_av, transmission) - interpolate_at_nav(
            rows, family_b, n_av, transmission
        )

    g_lo, g_hi = gap(lo), gap(hi)
    if not g_lo * g_hi < 0:
        raise ValueError(
            f"no sign change of delta_phi({family_a}) - delta_phi({family_b}) over {bracket}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if g_mid == 0.0:
            return mid
        if g_lo * g_mid < 0:
            hi = mid
        else:
            lo, g_lo = mid, g_mid
    return 0.5 * (lo + hi)


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


def _extended_curve(n_components: int) -> FamilyCurve:
    """The pure extended state with N heads, named as in the table where a family fixes N."""
    for kind, family in FAMILIES.items():
        if family.build is _extended_state and family.heads == n_components:
            return FamilyCurve(kind, kind, "pure")
    return FamilyCurve(f"extended[N={n_components}]", "extended", "pure", n_components=n_components)


def verify_consistency(
    alphas: tuple = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0),
    beta_ratios: tuple = (0.0, 0.25, 0.5, 1.0),
    n_components_list: tuple = (1, 2, 4, 8, 16),
    transmissions: tuple = (0.9, 0.85),
    tol: float = 1e-8,
) -> ConsistencyReport:
    """Closed-form vs truncated-Fock cross-validation over the whole grid.

    Every check compares one quantity produced by the analytic route with
    the same quantity from the independent numeric pipeline.
    """
    report = ConsistencyReport()

    def add(name: str, params: dict, expected: float, actual: float, this_tol: float = tol):
        report.checks.append(
            CheckResult(name, params, expected, actual, _rel_err(expected, actual), this_tol)
        )

    # fig1 entangled states: grid moments vs analytic expressions
    for alpha in alphas:
        for ratio in beta_ratios:
            curve = FamilyCurve("cat4", "cat4", "pure", beta_ratio=ratio)
            nav_n, f_n = numeric_point(curve, alpha)
            add("pure-qfi[cat4]", {"alpha": alpha, "beta_ratio": ratio}, closed_qfi(curve, alpha), f_n)
            add("nav[cat4]", {"alpha": alpha, "beta_ratio": ratio}, closed_nav(curve, alpha), nav_n)

    # pure + phase-averaged + lossy families; points where the QFI itself sits
    # below ~1e-9 are skipped (the state is vacuum to double precision and no
    # trace-1 numeric route can resolve the comparison at the stated metric)
    for alpha in alphas:
        for n_comp in n_components_list:
            pure = _extended_curve(n_comp)
            label = pure.label
            nav_n, f_n = numeric_point(pure, alpha)
            add(f"pure-qfi[{label}]", {"alpha": alpha}, closed_qfi(pure, alpha), f_n)
            add(f"nav[{label}]", {"alpha": alpha}, closed_nav(pure, alpha), nav_n)
            for t in (1.0, *transmissions):
                curve = replace(pure, variant="phase_averaged", transmission=t)
                f_cf = closed_qfi(curve, alpha)
                name = "pa-qfi" if t == 1.0 else "lossy-qfi"
                params = {"alpha": alpha} if t == 1.0 else {"alpha": alpha, "T": t}
                if f_cf < 1e-9:
                    report.notes.append(
                        f"skipped {name}[{label}] {params}: QFI {f_cf:.3e} below the "
                        "double-precision resolution of a trace-1 state"
                    )
                    continue
                add(f"{name}[{label}]", params, f_cf, numeric_point(curve, alpha)[1])

    # noon exactness (lossless and lossy) at integer n
    for n in (1, 2, 3, 4):
        for t in (1.0,) + tuple(transmissions):
            curve = FamilyCurve("noon", "noon", "phase_averaged", transmission=t)
            alpha = sqrt(float(n))
            add("noon-qfi", {"n": n, "T": t}, t**n * n * n, numeric_point(curve, alpha)[1], this_tol=1e-12)

    # phase-reference identity: F_q(phase averaged, n_b) = F_Q2(pure, two-mode +-phi/2)
    for alpha in (0.5, 1.5):
        for n_comp in (1, 2, 4):
            curve = _extended_curve(n_comp)
            f_q2 = numeric_point(curve, alpha, "two_mode_half")[1]
            f_pa = numeric_point(replace(curve, variant="phase_averaged"), alpha)[1]
            add(f"fq-equals-fq2[{curve.label}]", {"alpha": alpha}, f_q2, f_pa)

    # the loss kernel at T = 1 is the identity (numeric_point skips the channel there)
    for alpha in (0.5, 1.0):
        pa_curve = FamilyCurve("ecs", "ecs", "phase_averaged")
        lossless = numeric_point(pa_curve, alpha)[1]
        through = loss_channel(phase_average(pa_curve.state(alpha)), LossSpec(1.0))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DegenerateSpectrumWarning)
            add("t1-identity[ecs]", {"alpha": alpha}, lossless, qfi_mixed(through, "n_b"), this_tol=1e-10)

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
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.figure,
                    r.family,
                    r.alpha,
                    r.beta,
                    r.n_components,
                    r.transmission,
                    r.n_av,
                    r.qfi,
                    r.delta_phi,
                    r.path,
                )
            )
        )
    return "\n".join(lines) + "\n"


def rows_to_records(rows: list[SweepRow]) -> list[dict]:
    """JSON-ready records mirroring the CSV schema (non-finite values -> null)."""
    records = []
    for r in rows:
        rec = {
            "figure": r.figure,
            "family": r.family,
            "alpha": _round12(r.alpha),
            "beta": _round12(r.beta),
            "n_components": r.n_components,
            "transmission": _round12(r.transmission),
            "n_av": _round12(r.n_av),
            "qfi": _round12(r.qfi),
            "delta_phi": _round12(r.delta_phi),
            "path": r.path,
        }
        records.append(rec)
    return records


def _round12(value):
    if value is None:
        return None
    if not np.isfinite(value):
        return None
    return float(format(value, ".12g"))
