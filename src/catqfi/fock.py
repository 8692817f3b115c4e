"""Truncated Fock-space states for one and two bosonic modes.

Single-mode states are complex amplitude vectors indexed by photon number
0..n_max; two-mode states are amplitude grids over (n_a, n_b).  All
operations are pure functions returning new objects, so values can be
shared freely across threads / parallel maps.

Conventions fixed here and relied on everywhere else:
  * coherent amplitudes  c_n = e^{-|alpha|^2/2} alpha^n / sqrt(n!)
  * the 50:50 beam splitter maps coherent amplitudes
        (g_a, g_b)  ->  ((g_a+g_b)/sqrt(2), (g_b-g_a)/sqrt(2))
  * the phase shifter on a mode multiplies amplitudes by e^{i*phi*n}

The beam splitter conserves total photon number, so it acts on each
sector n = n_a + n_b as an (n+1) x (n+1) real orthogonal block.  The block
is exp(pi/4 * G) for the real antisymmetric tridiagonal generator
G = a^dag b - a b^dag; the similarity diag(i^k) turns i*G into a real
symmetric tridiagonal matrix, whose eigendecomposition (numpy.linalg.eigh)
gives the block exactly; the blocks are built on every call.  No command
reaches the beam splitter: the cat4 family sums the coherent heads of its
output, and the CPS synthesis starts from the modified entangled state it
makes of two 2-headed cats.  It serves the tests and the benchmark's
loss-before-averaging reference.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, lgamma, log, pi, sqrt

import numpy as np

TAIL_TOL = 1e-12
N_MAX_LIMIT = 2000  # largest cutoff per mode: a complex (n_max+1)^2 grid of 64 MB
LOSS_LINE_BYTES = 2**27  # largest offset-plane buffer, or input densities, of the sector loss (channels): 128 MiB


class CutoffError(RuntimeError):
    """A Fock cutoff is too small for the requested state or channel."""


@dataclass(frozen=True, eq=False)
class FockVector:
    """Single-mode pure state: amps[n] is the amplitude of |n>."""

    amps: np.ndarray

    @property
    def n_max(self) -> int:
        return len(self.amps) - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def normalize(self) -> "FockVector":
        n2 = self.norm_sq()
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        return FockVector(self.amps / sqrt(n2))


@dataclass(frozen=True, eq=False)
class TwoModeState:
    """Two-mode pure state: amps[n_a, n_b] on a square grid 0..n_max per axis."""

    amps: np.ndarray

    def __post_init__(self):
        if self.amps.ndim != 2 or self.amps.shape[0] != self.amps.shape[1]:
            raise ValueError("two-mode amplitude grid must be square")

    @property
    def n_max(self) -> int:
        return self.amps.shape[0] - 1

    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.amps) ** 2))

    def normalize(self) -> "TwoModeState":
        n2 = self.norm_sq()
        if n2 <= 0.0:
            raise ValueError("cannot normalize a zero vector")
        return TwoModeState(self.amps / sqrt(n2))


@dataclass(frozen=True)
class CatSpec:
    """N evenly phased coherent components of common amplitude alpha."""

    n_components: int
    alpha: complex

    def __post_init__(self):
        if self.n_components < 1:
            raise ValueError("n_components must be >= 1")


def check_grid_size(n_max: float) -> None:
    if n_max > N_MAX_LIMIT:
        raise CutoffError(f"cutoff {n_max:g} exceeds the grid limit n_max <= {N_MAX_LIMIT}")


def default_cutoff(alpha_abs: float) -> int:
    """Grid size heuristic: max(32, |a|^2 + 10|a| + 20), at most N_MAX_LIMIT.

    The heuristic leaves less than TAIL_TOL of Poisson(|a|^2) mass past the
    grid: Bernstein's inequality bounds the mass beyond |a|^2 + t by
    exp(-t^2 / (2 |a|^2 + 2t/3)), which for t = 10|a| + 20 is below e^{-30}
    (about 9.4e-14) at every |a|.
    """
    a = abs(alpha_abs)
    heuristic = a * a + 10 * a + 20
    check_grid_size(heuristic)  # unrounded: ceil cannot take the inf of an overflowed square
    return max(32, ceil(heuristic))


def _check_tail(log_kept: np.ndarray, log_tail: float, index: int) -> None:
    """CutoffError unless |amp_index|^2 is within TAIL_TOL of the kept norm^2,
    both given by their amplitudes' log moduli, so that the test holds where the
    squares underflow; index is the last grid point (coherent) or the first
    support point past the grid (cat)."""
    top = float(np.max(log_kept))
    log_norm_sq = 2 * top + log(float(np.sum(np.exp(2 * (log_kept - top)))))
    if 2 * log_tail - log_norm_sq > log(TAIL_TOL):
        raise CutoffError(
            f"cutoff too small: |amps[{index}]|^2 is 10^{(2 * log_tail - log_norm_sq) / log(10):.4g}"
            f" of the kept norm^2, above {TAIL_TOL:g}"
        )


def coherent(alpha: complex, n_max: int) -> FockVector:
    """Coherent state |alpha> truncated at n_max.

    Moduli are evaluated in log space, so the cutoff is not limited by
    factorial overflow (n ~ 170); the phase (alpha/|alpha|)^n is a running
    product, exact on the axes, so that cat heads at phases i^k cancel exactly.
    """
    alpha = complex(alpha)
    if alpha == 0:
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[0] = 1.0
        return FockVector(amps)
    a2 = abs(alpha) ** 2
    ns = np.arange(n_max + 1)
    log_mod = -a2 / 2 + ns * log(abs(alpha)) - 0.5 * np.array([lgamma(n + 1) for n in ns])
    phase = np.full(n_max + 1, alpha / abs(alpha))
    phase[0] = 1
    amps = np.exp(log_mod) * np.cumprod(phase)
    _check_tail(log_mod, log_mod[n_max], n_max)
    return FockVector(amps)


def cat_state(spec: CatSpec, n_max: int) -> FockVector:
    """Normalized superposition of N coherent states at phases 2*pi*k/N.

    Built directly on its photon-number support (multiples of N) and
    normalized numerically, so no closed-form normalization constant enters.
    """
    N = spec.n_components
    alpha = complex(spec.alpha)
    if alpha == 0:
        amps = np.zeros(n_max + 1, dtype=complex)
        amps[0] = 1.0
        return FockVector(amps)
    a2 = abs(alpha) ** 2
    # the support on the grid, then the first point past it, where the dropped mass starts,
    # counted in Python ints (exact past 2^53 heads) and made float only for the moduli;
    # a point past 2^1000 (lgamma overflows near 2^1020) is checked at 2^1000, whose mass
    # is at least its own: the Poisson mass falls past its mean |alpha|^2
    past = (n_max // N + 1) * N
    ks = np.array([*range(0, n_max + 1, N), min(past, 2**1000)], dtype=float)
    log_mod = -a2 / 2 + ks * log(abs(alpha)) - 0.5 * np.array([lgamma(k + 1) for k in ks])
    amps = np.zeros(n_max + 1, dtype=complex)
    amps[::N] = np.exp(log_mod[:-1]) * np.exp(1j * ks[:-1] * np.angle(alpha))
    _check_tail(log_mod[:-1], log_mod[-1], past)
    return FockVector(amps / np.linalg.norm(amps))


def product_state(a: FockVector, b: FockVector) -> TwoModeState:
    if a.n_max != b.n_max:
        raise ValueError(f"mode cutoffs differ: {a.n_max} vs {b.n_max}")
    return TwoModeState(np.outer(a.amps, b.amps))


def _bs_block(n: int) -> np.ndarray:
    """The 50:50 beam-splitter block exp(pi/4 * G) on span{|k, n-k>}, G = a^dag b - a b^dag (read only)."""
    if n == 0:
        u = np.ones((1, 1))
    else:
        k = np.arange(n)
        off = np.sqrt((k + 1.0) * (n - k))  # <k+1|G|k> with G = a^dag b - a b^dag
        w, v = np.linalg.eigh(np.diag(off, -1))
        d = 1j ** np.arange(n + 1)
        # U = D V exp(-i*theta*w) V^T D^dag; result is real orthogonal
        u = (d[:, None] * v) @ (np.exp(-1j * (pi / 4) * w)[:, None] * (v.T * d.conj()[None, :]))
        u = np.ascontiguousarray(u.real)
    u.setflags(write=False)
    return u


def beam_splitter_5050(a: FockVector, b: FockVector) -> TwoModeState:
    """Mix two modes on a 50:50 beam splitter.

    Sign convention: coherent inputs |g_a>|g_b> map to the product
    |(g_a+g_b)/sqrt2> |(g_b-g_a)/sqrt2>, which reproduces the
    (beta +- alpha)/2 branch structure of a cat + coherent input.  The cat4
    family and the CPS synthesis build their states from those coherent
    branches instead; it serves the tests and the benchmark's reference.
    Total photon number is conserved, so the unitary acts sector by sector;
    both input and output lie in the grid corner, so only the corner's
    rows and columns of each block are used.  The content the block sends
    outside the corner is dropped, and a CutoffError is raised when that
    exceeds TAIL_TOL of the input norm^2.
    """
    if a.n_max != b.n_max:
        raise ValueError(f"mode cutoffs differ: {a.n_max} vs {b.n_max}")
    n_max = a.n_max
    grid = np.outer(a.amps, b.amps)
    out = np.zeros_like(grid)
    flat, out_flat = grid.reshape(-1), out.reshape(-1)
    step = max(n_max, 1)  # at n_max = 0 the one sector is one cell, and a slice step cannot be 0
    for n in range(2 * n_max + 1):
        k_lo, k_hi = max(0, n - n_max), min(n, n_max) + 1
        # cell (k, n - k) of the C-contiguous (n_max + 1)^2 grid sits at flat offset n + k * n_max
        cells = slice(n + k_lo * n_max, n + (k_hi - 1) * n_max + 1, step)
        vec = flat[cells]
        if not vec.any():
            continue
        out_flat[cells] = _bs_block(n)[k_lo:k_hi, k_lo:k_hi] @ vec
    out_state = TwoModeState(out)
    in_sq = float(np.sum(np.abs(grid) ** 2))
    lost = in_sq - out_state.norm_sq()
    if lost > TAIL_TOL * in_sq:
        raise CutoffError(f"beam splitter drops {lost:.3e} of norm^2 {in_sq:.3e} beyond the grid corner")
    return out_state


def phase_shift(s: TwoModeState, mode: str, phi: float) -> TwoModeState:
    """Apply e^{i*phi*n} on one mode ('a' or 'b'); exactly norm preserving."""
    ns = np.arange(s.n_max + 1)
    phases = np.exp(1j * phi * ns)
    if mode == "a":
        return TwoModeState(s.amps * phases[:, None])
    if mode == "b":
        return TwoModeState(s.amps * phases[None, :])
    raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")


def number_moment(s: TwoModeState, mode: str, order: int = 1) -> float:
    """<n_mode^order> from the marginal photon-number distribution."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    p = np.abs(s.amps) ** 2
    marginal = p.sum(axis=1) if mode == "a" else p.sum(axis=0) if mode == "b" else None
    if marginal is None:
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    n = np.arange(len(marginal), dtype=float)
    return float(np.sum(n**order * marginal))


def mandel_q(s: FockVector) -> float:
    """Mandel Q = (<n^2> - <n>^2)/<n> - 1; zero for Poissonian statistics."""
    p = np.abs(s.amps) ** 2
    n = np.arange(len(p), dtype=float)
    m1 = float(np.sum(n * p))
    if m1 < 1e-14:
        raise ValueError("Mandel Q undefined for (near-)vacuum: <n> < 1e-14")
    m2 = float(np.sum(n * n * p))
    return (m2 - m1 * m1) / m1 - 1.0


def noon_state(n: int, n_max: int) -> TwoModeState:
    """(|n,0> + |0,n>)/sqrt(2); the vacuum for n = 0."""
    if n < 0 or n > n_max:
        raise ValueError("need 0 <= n <= n_max")
    check_grid_size(n_max)
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    if n == 0:
        amps[0, 0] = 1.0
    else:
        amps[n, 0] = amps[0, n] = 1.0 / sqrt(2)
    return TwoModeState(amps)


def extended_entangled_state(n_components: int, alpha: float, n_max: int | None = None) -> TwoModeState:
    """Normalized (|C_N(alpha)>|0> + |0>|C_N(alpha)>), built from cat amplitudes.

    N = 1 gives the entangled coherent state, N = 2 the modified entangled
    state.
    """
    if n_max is None:
        n_max = default_cutoff(abs(alpha))
    c = cat_state(CatSpec(n_components, alpha), n_max).amps
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    amps[:, 0] += c
    amps[0, :] += c
    return TwoModeState(amps).normalize()


def fidelity(s: TwoModeState, t: TwoModeState) -> float:
    """|<s|t>|^2 for normalized pure states."""
    if s.n_max != t.n_max:
        raise ValueError("fidelity requires equal cutoffs")
    return abs(complex(np.vdot(s.amps, t.amps))) ** 2
