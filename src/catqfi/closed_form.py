"""Analytic expressions for every state family, as plain scalar functions.

These are the closed-form leg of the closed-form vs truncated-Fock
cross-validation.  Everything here is evaluated from explicit formulas or
direct series summation, never from grid numerics, so agreement with the
fock/channels/qfi pipeline is a genuine two-route check.

The phase-averaged forms (`pa_qfi`, `lossy_noon_mixture`) take the head
count N of the extended state (|C_N>|0> + |0>|C_N>)/sqrt(M): the entangled
coherent state is N = 1 and the modified entangled state N = 2.  Both take
the transmission T of equal per-mode loss; `pa_qfi` is the one
phase-averaged QFI at every T.  The spectral rows of the lossy states,
`lossy_noon_mixture` and, for the noon state of photon number n,
`lossy_noon_ladder`, are `NoonMixture`s; the tests check the grid route and
`pa_qfi` against them.  The T = 1 rows of `lossy_noon_mixture` are the
sector weights of the lossless phase-averaged state.

The cat-state forms read the sums K_j = sum_m (N m)^j x^{N m}/(N m)!,
j = 0, 1, 2, over the support of an N-component cat (photon numbers N*m),
which `_cat_series` takes in one pass and returns with a power of 2 that
keeps them in double range.  The pass stops when a term falls below 1e-16
of its sum or underflows to 0, with a hard cap of 5000 terms.
`ecs_qfi` keeps its explicit form: it costs about 0.5 microseconds against
8-32 as a series, and one crossover query against the ECS calls it about
135 times (the N_av samples over the alpha grid, then a few per solve).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, frexp, ldexp, sin, sinh

from .channels import LossSpec
from .fock import CutoffError

_SERIES_RTOL = 1e-16
_SERIES_CAP = 5000
_SHIFT_STEP = 900  # the cat series divides its terms by 2^900 whenever they pass 2^900
_BIG = ldexp(1.0, _SHIFT_STEP)


@dataclass(frozen=True)
class NoonMixture:
    """Mixture diagonal in the basis (|n,0> +- |0,n>)/sqrt(2).

    rows holds (n, lambda+_n, lambda-_n); the n = 0 row carries the whole
    vacuum weight in lambda+ (lambda- pairs with a zero vector there).
    """

    rows: tuple | list

    def trace(self) -> float:
        return float(sum(lp + lm for _, lp, lm in self.rows))


@dataclass(frozen=True)
class MomentPair:
    """First and second photon-number moments of mode b, plus N_av = <n_a>; var_nb, where given, is
    Var(n_b) formed without the difference <n_b^2> - <n_b>^2."""

    mean_nb: float
    mean_nb2: float
    n_av: float
    var_nb: float | None = None

    def __post_init__(self):
        if self.mean_nb2 < self.mean_nb * self.mean_nb - 1e-12:
            raise ValueError("second moment below squared mean")
        if self.n_av < 0:
            raise ValueError("n_av must be >= 0")


def moment_qfi(m: MomentPair) -> float:
    """One-mode-shift QFI from number moments: 4 * Var(n_b)."""
    return 4.0 * (m.mean_nb2 - m.mean_nb**2 if m.var_nb is None else m.var_nb)


def _cat_series(n_components: int, x: float) -> tuple[float, float, float, int]:
    """(K0, K1, K2, e) with 2^e K_j = sum_m (N m)^j x^{N m} / (N m)!, from one term recurrence.

    Whenever a term passes 2^900, the term and the three running sums are
    divided by 2^900 and e grows by 900, so the sums stay in double range
    where e^x itself would overflow; a ratio of sums from one call needs no
    e.  The sum stops when the K2 term falls below 1e-16 of K2 or a term
    underflows to 0; K2 <= n^2 K0 and K2 <= n K1 at photon number n, so K0
    and K1 have then converged at least as tightly.
    """
    if not (n_components >= 1 and x > 0.0):  # one test on the common path; NaN goes on to the cap
        if n_components < 1:
            raise ValueError("n_components must be >= 1")
        if x < 0:
            raise ValueError("series argument must be >= 0")
        if x == 0.0:
            return 1.0, 0.0, 0.0, 0
    # the m = 0 term x^0/0!
    k0, k1, k2, e, N, term, n, big, rtol = 1.0, 0.0, 0.0, 0, n_components, 1.0, 0, _BIG, _SERIES_RTOL
    # every partial product x^j/j! is at most e^x, below 2^900 up to x = 623, and one that underflowed
    # stays 0: at x <= 600 and N <= 1024 the N steps of a term run untested, the same bits in fewer steps
    tested = x > 600.0 or N > 1024
    for _ in range(_SERIES_CAP):
        if not tested:
            for j in range(n + 1, n + N + 1):
                term *= x / j
        else:
            for j in range(n + 1, n + N + 1):
                term *= x / j
                if term > big:
                    term, k0, k1, k2 = (ldexp(v, -_SHIFT_STEP) for v in (term, k0, k1, k2))
                    e += _SHIFT_STEP
                elif term == 0.0:
                    break
        if term == 0.0:  # underflowed: this and every later term is 0
            return k0, k1, k2, e
        n += N
        t2 = term * (n * n)
        k0, k1, k2 = k0 + term, k1 + term * n, k2 + t2
        if t2 < rtol * k2:
            return k0, k1, k2, e
    raise ArithmeticError("cat series failed to converge within 5000 terms")


def fig1_moments(alpha: float, beta: float) -> MomentPair:
    """Moments of mode b for the 4-headed-cat + coherent beam-splitter state.

    The cat C_4(alpha/sqrt2) and the coherent state |beta/sqrt2> leave the
    beam splitter as sum_k |(alpha i^k + beta)/2>|(beta - alpha i^k)/2>, and
    the alpha*beta cross terms cancel over the four heads.  With K_j the
    N = 4 sums at y = |alpha|^2/2, <n_b> = (beta^2 K0 + 2 K1) / (4 K0), and
    Var(n_b) is formed on its own: <n_b^2> - <n_b>^2 would cancel about
    <n_b> ulps.  With S_r the sum of y^n/n! over n = r (mod 4), K1 = y S_3
    and K2 - K1 = y^2 S_2, so K0 K2 - K1^2 = K0 K1 + y^2 (S_0 S_2 - S_3^2),
    and S_0 S_2 - S_3^2 = sin(y) sinh(y)/2 exactly.  Then
    Var(n_b) = <n_b> + beta^2 K1/(4 K0) + y^2 sin(y) sinh(y)/(8 K0^2),
    whose last term, the only one that can be negative, falls as y^2 e^{-y},
    and <n_b^2> = Var(n_b) + <n_b>^2.  Mode a has the same moments.
    """
    y, b2 = alpha * alpha / 2, beta * beta
    k0, k1, _, _ = _cat_series(4, y)
    k4 = 4 * k0
    nb = (b2 * k0 + 2 * k1) / k4
    # past y = 45 the last term is below 1e-16 of the rest
    var = nb + b2 * k1 / k4 + (y * y * sin(y) * sinh(y) / (8 * k0 * k0) if y < 45 else 0.0)
    return MomentPair(nb, var + nb * nb, nb, var)  # positional: a quarter faster


def ecs_qfi(alpha: float) -> tuple[float, float]:
    """(QFI, N_av) of the entangled coherent state under a one-mode shift."""
    a2 = alpha * alpha
    d = 1 + exp(-a2)
    f = 2 * (a2 + a2 * a2) / d - a2 * a2 / (d * d)
    n_av = a2 / (2 * d)
    return f, n_av


def extended_moments(n_components: int, alpha: float) -> MomentPair:
    """Moments of mode b for (|C_N>|0> + |0>|C_N>)/sqrt(M), by series.

    Reduces to the entangled coherent state at N = 1 and to the modified
    entangled state at N = 2.
    """
    k0, k1, k2, e = _cat_series(n_components, alpha * alpha)
    pref = 1.0 / (2.0 * (ldexp(1.0, -e) + k0))
    nb, nb2 = pref * k1, pref * k2
    return MomentPair(mean_nb=nb, mean_nb2=nb2, n_av=nb)


def pa_qfi(n_components: int, alpha: float, transmission: float = 1.0) -> float:
    """QFI under n_b of the phase-averaged N-headed state after loss of transmission T.

    F = K2(x T) / ((1 + K0(x)) K0(x R)) with x = |alpha|^2 and R = 1 - T:
    the sum over the rows of `lossy_noon_mixture` with N | m, the only ones
    where lambda+ != lambda-.  Each series returns its own power of 2; the
    scaled sums are divided one at a time and the net power applied last,
    so no intermediate leaves double range.  At T = 1, K0(0) = 1 and
    F = K2(x)/(1 + K0(x)).
    """
    x = alpha * alpha
    k0, _, k2, e = _cat_series(n_components, x)
    if transmission == 1.0:  # K2(x T) is the same series, and K0(x R) = 1
        return k2 / (ldexp(1.0, -e) + k0)
    _, _, k2_t, e_t = _cat_series(n_components, x * transmission)
    k0_r, _, _, e_r = _cat_series(n_components, x * (1.0 - transmission))
    # f in [0.5, 1), so f / K0(x R) stays normal and only the last ldexp rounds
    f, p = frexp(k2_t / (ldexp(1.0, -e) + k0))
    return ldexp(f / k0_r, p + e_t - e - e_r)


def lossy_noon_mixture(n_components: int, alpha: float, loss: LossSpec, n_cut: int) -> NoonMixture:
    """Spectral rows (n, lambda+_n, lambda-_n) of the phase-averaged N-headed state after loss.

    Evaluates the analytic eigenvalue expressions up to n_cut; the vacuum row
    carries the doubled weight of the unnormalized n = 0 noon projector and
    lambda-_0 (a zero eigenvector) is dropped.
    """
    t, r = loss.transmission, loss.reflectance
    x = alpha * alpha
    N = n_components
    # ldexp raises OverflowError where K0 itself leaves double range
    k, k_r = (ldexp(k0, e) for k0, _, _, e in (_cat_series(N, x), _cat_series(N, x * r)))
    # row m takes the loss series sum over j >= 1, N | (m + j), of (xR)^j/j!, a function of
    # m mod N: one pass over j adds each term to the index (m - 1) % N = (-j - 1) % N of its
    # class until that class converges; only the classes of rows 1..n_cut are kept
    tails = [0.0] * min(N, n_cut)
    open_classes, term, j = set(range(len(tails))), 1.0, 0
    while open_classes and term > 0.0:  # a term that underflowed ends the sum: every later term is 0
        if j == _SERIES_CAP * N:
            raise ArithmeticError("loss series failed to converge within 5000 terms")
        j += 1
        term *= x * r / j
        c = (-j - 1) % N
        if c in open_classes:
            tails[c] += term
            if term <= _SERIES_RTOL * tails[c]:
                open_classes.remove(c)
    rows = [(0, (1.0 + k_r) / (1.0 + k), 0.0)]
    term = 1.0
    for m in range(1, n_cut + 1):
        term *= x * t / m
        lam_minus = term / (2.0 * (1.0 + k)) * tails[(m - 1) % N]
        lam_plus = lam_minus + (term / (1.0 + k) if m % N == 0 else 0.0)
        rows.append((m, lam_plus, lam_minus))
    mix = NoonMixture(rows=rows)
    _check_trace(mix)
    return mix


def lossy_noon_ladder(n: int, loss: LossSpec) -> NoonMixture:
    """Spectral rows of the noon state (|n,0> + |0,n>)/sqrt2 after loss: the binomial ladder.

    The top sector keeps its coherence; every lower sector splits evenly
    between the +- branches.
    """
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"the noon photon number must be an integer >= 0, got {n!r}")
    t, r = loss.transmission, loss.reflectance
    rows = [(0, r**n, 0.0)]
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


def _check_trace(mix: NoonMixture) -> None:
    if abs(mix.trace() - 1.0) > 1e-10:
        raise CutoffError(
            f"tail too heavy: mixture trace {mix.trace():.15f} deviates beyond 1e-10"
        )
