"""Analytic expressions for every state family, as plain scalar functions.

These are the closed-form leg of the closed-form vs truncated-Fock
cross-validation.  Everything here is evaluated from explicit formulas or
direct series summation, never from grid numerics, so agreement with the
fock/channels/qfi pipeline is a genuine two-route check.

Series over the support of an N-component cat (photon numbers N*m) stop
when a term falls below 1e-16 of the running sum, with a hard cap of 5000
terms.

The symbol K is overloaded in this problem: the cat-tail sum
sum_m x^{N m}/(N m)!  (here `k_sum`) and the loss factor
e^{R x} +- e^{-R x} appearing in the lossy spectra (kept inline).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import cos, cosh, exp, sin, sqrt

from .channels import LossSpec, NoonMixture
from .fock import CutoffError

_SERIES_RTOL = 1e-16
_SERIES_CAP = 5000

FAMILIES = ("noon", "ecs", "modified", "extended")


@dataclass(frozen=True)
class MomentPair:
    """First and second photon-number moments of mode b, plus N_av = <n_a>."""

    mean_nb: float
    mean_nb2: float
    n_av: float

    def __post_init__(self):
        if self.mean_nb2 < self.mean_nb**2 - 1e-12:
            raise ValueError("second moment below squared mean")
        if self.n_av < 0:
            raise ValueError("n_av must be >= 0")


def moment_qfi(m: MomentPair) -> float:
    """One-mode-shift QFI from number moments: 4 * Var(n_b)."""
    return 4.0 * (m.mean_nb2 - m.mean_nb**2)


def _cat_series(n_components: int, x: float, order: int = 0) -> float:
    """sum_m (N m)^order * x^{N m} / (N m)!  evaluated by term recurrence."""
    if x < 0:
        raise ValueError("series argument must be >= 0")
    if x == 0.0:
        return 1.0 if order == 0 else 0.0
    N = n_components
    term = 1.0  # x^0/0!
    total = 0.0 if order else 1.0
    m_idx = 0
    for _ in range(_SERIES_CAP):
        m_idx += N
        for j in range(m_idx - N + 1, m_idx + 1):
            term *= x / j
        total += term * (m_idx**order if order else 1.0)
        if term * max(m_idx**order, 1) < _SERIES_RTOL * abs(total):
            return total
        if term == 0.0 and m_idx > x:  # underflowed past the peak: every later term is 0 too
            return total
    raise ArithmeticError("cat series failed to converge within 5000 terms")


def k_sum(n_components: int, alpha: float) -> float:
    """Cat-tail sum K = sum_m |alpha|^{2 N m}/(N m)!."""
    return _cat_series(n_components, alpha * alpha, order=0)


def normalization(n_components: int, alpha: float) -> float:
    """Normalization M_N of the N-headed cat: M_N = N^2 e^{-|alpha|^2} K."""
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    N = n_components
    return N * N * exp(-alpha * alpha) * k_sum(N, alpha)


def fig1_moments(alpha: float, beta: float) -> MomentPair:
    """Moments of mode b for the 4-headed-cat + coherent beam-splitter state.

    The cat enters as C_4(alpha/sqrt2) and the coherent state as
    |beta/sqrt2>, so the exponentials below carry |alpha|^2/2.
    """
    a2, b2 = alpha * alpha, beta * beta
    m_e = normalization(4, alpha / sqrt(2.0))
    nb2 = (
        ((a2 * a2 + b2 * b2) / 4 + b2) * (1 + exp(-a2))
        + a2 * (1 + b2) * (1 - exp(-a2))
        + 2
        * exp(-a2 / 2)
        * ((b2 + (b2 * b2 - a2 * a2) / 4) * cos(a2 / 2) - a2 * (1 + b2) * sin(a2 / 2))
    ) / m_e
    nb = (
        a2 * (1 - exp(-a2) - 2 * exp(-a2 / 2) * sin(a2 / 2))
        + b2 * (1 + exp(-a2) + 2 * exp(-a2 / 2) * cos(a2 / 2))
    ) / m_e
    return MomentPair(mean_nb=nb, mean_nb2=nb2, n_av=nb)


def ecs_qfi(alpha: float) -> tuple[float, float]:
    """(QFI, N_av) of the entangled coherent state under a one-mode shift."""
    a2 = alpha * alpha
    d = 1 + exp(-a2)
    f = 2 * (a2 + a2 * a2) / d - a2 * a2 / (d * d)
    n_av = a2 / (2 * d)
    return f, n_av


def modified_moments(alpha: float) -> MomentPair:
    """Moments of mode b for the modified entangled state (N = 2 cat in one arm)."""
    a2 = alpha * alpha
    d2 = (1 + exp(-a2)) ** 2
    nb2 = a2 * (1 + a2 + (a2 - 1) * exp(-2 * a2)) / (2 * d2)
    nb = a2 * (1 - exp(-2 * a2)) / (2 * d2)
    return MomentPair(mean_nb=nb, mean_nb2=nb2, n_av=nb)


def extended_moments(n_components: int, alpha: float) -> MomentPair:
    """Moments of mode b for (|C_N>|0> + |0>|C_N>)/sqrt(M), by series.

    Reduces to the entangled coherent state at N = 1 and to the modified
    entangled state at N = 2.
    """
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    x = alpha * alpha
    k = _cat_series(n_components, x, order=0)
    pref = 1.0 / (2.0 * (1.0 + k))
    nb = pref * _cat_series(n_components, x, order=1)
    nb2 = pref * _cat_series(n_components, x, order=2)
    return MomentPair(mean_nb=nb, mean_nb2=nb2, n_av=nb)


def _check_family(family: str) -> None:
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")


def pa_weight(family: str, alpha: float, n: int, n_components: int | None = None) -> float:
    """Weight of the photon-number-n noon sector of the phase-averaged state.

    The n = 0 sector is reported as the full vacuum weight (the noon 'ket'
    at n = 0 is unnormalized, collapsing both branches onto |00>).
    """
    _check_family(family)
    if n < 0:
        raise ValueError("n must be >= 0")
    x = alpha * alpha
    if family == "noon":
        raise ValueError("the noon state has a single sector; no weight profile")
    if family == "ecs":
        base = exp(-x) / (1 + exp(-x))
        if n == 0:
            return 2 * base
        w = base
        for j in range(1, n + 1):
            w *= x / j
        return w
    if family == "modified":
        n_components = 2
    if n_components is None:
        raise ValueError("extended family needs n_components")
    N = n_components
    k = _cat_series(N, x, order=0)
    if n == 0:
        return 2.0 / (1.0 + k)
    if n % N != 0:
        return 0.0
    w = 1.0 / (1.0 + k)
    for j in range(1, n + 1):
        w *= x / j
    return w


def pa_qfi(family: str, alpha: float, n_components: int | None = None) -> float:
    """QFI of the phase-averaged family under a one-mode shift.

    noon uses the equal-energy identification n = |alpha|^2 (analytic in n).
    """
    _check_family(family)
    x = alpha * alpha
    if family == "noon":
        return x * x
    if family == "ecs":
        return x * (1 + x) / (1 + exp(-x))
    if family == "modified":
        return x * (1 + x + (x - 1) * exp(-2 * x)) / (1 + exp(-x)) ** 2
    if n_components is None:
        raise ValueError("extended family needs n_components")
    k = _cat_series(n_components, x, order=0)
    return _cat_series(n_components, x, order=2) / (1.0 + k)


def _loss_series(n_components: int, x_r: float, m: int) -> float:
    """sum over j >= 1, N | (m+j) of (x*R)^j / j!  (inner sum of the lossy spectra)."""
    N = n_components
    j0 = (-m) % N
    if j0 == 0:
        j0 = N
    # (x_r)^{j0}/j0! start, then step by N
    term = 1.0
    for j in range(1, j0 + 1):
        term *= x_r / j
    total = 0.0
    j_idx = j0
    for _ in range(_SERIES_CAP):
        total += term
        if term <= _SERIES_RTOL * abs(total):
            return total
        for j in range(j_idx + 1, j_idx + N + 1):
            term *= x_r / j
        j_idx += N
    raise ArithmeticError("loss series failed to converge within 5000 terms")


def lossy_noon_mixture(
    family: str,
    alpha: float,
    loss: LossSpec,
    n_cut: int,
    n_components: int | None = None,
) -> NoonMixture:
    """Spectral rows (n, lambda+_n, lambda-_n) of the phase-averaged family after loss.

    Evaluates the per-family analytic eigenvalue expressions; the vacuum row
    carries the doubled weight of the unnormalized n = 0 noon projector and
    lambda-_0 (a zero eigenvector) is dropped.
    """
    _check_family(family)
    t, r = loss.transmission, loss.reflectance
    x = alpha * alpha
    rows: list[tuple[int, float, float]] = []

    if family == "noon":
        n = round(x)
        if abs(x - n) > 1e-9:
            raise ValueError("lossy noon rows need integer n = alpha^2")
        if n > n_cut:
            raise CutoffError("n_cut below the noon photon number")
        # binomial loss ladder: the top sector keeps its coherence, all
        # lower sectors split evenly between the +- branches
        rows.append((0, r**n if n > 0 else 1.0, 0.0))
        w = 1.0
        for m in range(1, n):
            w *= (n - m + 1) / m
            half = 0.5 * w * t**m * r ** (n - m)
            rows.append((m, half, half))
        if n >= 1:
            rows.append((n, t**n, 0.0))
        mix = NoonMixture(rows=rows)
        _check_trace(mix)
        return mix

    if family == "ecs":
        c = 1.0 / (2.0 * (1.0 + exp(x)))
        rows.append((0, (exp(r * x) + 1) / (1 + exp(x)), 0.0))
        term = 1.0  # (x T)^m / m!
        for m in range(1, n_cut + 1):
            term *= x * t / m
            rows.append((m, c * term * (exp(r * x) + 1), c * term * (exp(r * x) - 1)))
        mix = NoonMixture(rows=rows)
        _check_trace(mix)
        return mix

    if family == "modified":
        c = exp(-x) / (2.0 * (1 + exp(-x)) ** 2)
        rows.append((0, 2 * c * (2 * cosh(r * x) + 2), 0.0))
        term = 1.0
        for m in range(1, n_cut + 1):
            term *= x * t / m
            sign = -1.0 if m % 2 else 1.0
            k_loss = exp(r * x) + sign * exp(-r * x)
            rows.append((m, c * term * (k_loss + 1 + sign), c * term * (k_loss - 1 - sign)))
        mix = NoonMixture(rows=rows)
        _check_trace(mix)
        return mix

    if n_components is None:
        raise ValueError("extended family needs n_components")
    N = n_components
    k = _cat_series(N, x, order=0)
    k_r = _cat_series(N, x * r, order=0) if r > 0 else 1.0
    rows.append((0, (1.0 + k_r) / (1.0 + k), 0.0))
    term = 1.0
    for m in range(1, n_cut + 1):
        term *= x * t / m
        lam_minus = term / (2.0 * (1.0 + k)) * (_loss_series(N, x * r, m) if r > 0 else 0.0)
        lam_plus = lam_minus + (term / (1.0 + k) if m % N == 0 else 0.0)
        rows.append((m, lam_plus, lam_minus))
    mix = NoonMixture(rows=rows)
    _check_trace(mix)
    return mix


def _check_trace(mix: NoonMixture) -> None:
    if abs(mix.trace() - 1.0) > 1e-10:
        raise CutoffError(
            f"tail too heavy: mixture trace {mix.trace():.15f} deviates beyond 1e-10"
        )
