"""Truncated Fock-space states for one and two bosonic modes.

Single-mode states are amplitude vectors indexed by photon number 0..n_max;
two-mode states are amplitude grids over (n_a, n_b).  All operations are
pure functions returning new objects, so values can be shared freely across
threads / parallel maps.

The builders are batch-native: `coherent_amps` and `cat_amps` take a vector
of amplitudes and a cutoff per point and return one row per point, and
`product_grids`, `extended_grids` and `noon_grids` stack the two-mode grids
laid out (n_a, point, n_b), the layout the sector loss reads (channels).
Each point's row or grid is zero past its own cutoff, and a tail check that
fails at any point raises for the batch.  `coherent`, `cat_state`,
`extended_entangled_state` and `noon_state` are one-point calls of them.
The dtype follows the amplitudes: real amplitudes give real float64 rows and
grids, complex ones complex128.

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

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import ceil, lgamma, log, pi, sqrt

import numpy as np

TAIL_TOL = 1e-12
N_MAX_LIMIT = 2000  # largest cutoff per mode: a complex (n_max+1)^2 grid of 64 MB
LOSS_LINE_BYTES = 2**27  # largest offset-plane buffer, or eigenvector grids, of the sector loss (channels): 128 MiB


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
        return TwoModeState(normalized(self.amps[:, None])[:, 0])


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


@lru_cache(maxsize=16)
def _log_factorial_table(size: int) -> np.ndarray:
    table = np.array([lgamma(n + 1) for n in range(size)])
    table.setflags(write=False)
    return table


def _log_factorials(count: int) -> np.ndarray:
    """log n! = lgamma(n + 1) for n = 0 .. count - 1 at least (read only): a cached table of the power of 2
    at or above count, so that a small grid's first build does not pay for the largest."""
    return _log_factorial_table(1 << (count - 1).bit_length())


def _points(alphas, n_maxes):
    """The amplitudes as an array of their own dtype (float64 or complex128), their moduli, their
    math.log (which np.log does not match in every last bit; 0 at alpha = 0), the cutoffs and the grid
    size, after the grid limit is checked."""
    alphas = np.asarray(alphas)
    alphas = np.ascontiguousarray(alphas, dtype=np.result_type(float, alphas))
    cut = np.broadcast_to(np.asarray(n_maxes, dtype=int), alphas.shape)
    check_grid_size(int(cut.max()))
    mod = np.abs(alphas)
    return alphas, mod, np.array([log(m) if m else 0.0 for m in mod.tolist()]), cut, int(cut.max()) + 1


def _check_tail(log_kept: np.ndarray, log_tail: np.ndarray, index) -> np.ndarray:
    """The log of each point's kept norm^2, after a CutoffError unless every |amp_index|^2 is within
    TAIL_TOL of it, both given by their amplitudes' log moduli (log_kept (points, k), -inf where nothing
    is kept; log_tail (points,)), so that the test holds where the squares underflow; index[p] is the
    last grid point (coherent) or the first support point past the grid (cat) of point p."""
    top = np.max(log_kept, axis=1)
    log_norm_sq = 2 * top + np.log(np.sum(np.exp(2 * (log_kept - top[:, None])), axis=1))
    excess = 2 * log_tail - log_norm_sq
    if (bad := np.flatnonzero(excess > log(TAIL_TOL))).size:
        p = bad[0]
        where = f" at point {p}" if len(excess) > 1 else ""
        raise CutoffError(
            f"cutoff too small: |amps[{index[p]}]|^2 is 10^{excess[p] / log(10):.4g}"
            f" of the kept norm^2, above {TAIL_TOL:g}{where}"
        )
    return log_norm_sq


def coherent_amps(alphas, n_maxes) -> np.ndarray:
    """Coherent states |alpha_p>, amps[p, n] for n up to the cutoff n_maxes[p] and 0 past it.

    Moduli are evaluated in log space, so the cutoff is not limited by
    factorial overflow (n ~ 170); the phase (alpha/|alpha|)^n is a running
    product, exact on the axes, so that cat heads at phases i^k cancel exactly.
    """
    alphas, mod, log_mod_alpha, cut, size = _points(alphas, n_maxes)
    ns = np.arange(size)
    vacuum = mod == 0
    with np.errstate(over="raise"):
        log_mod = -(mod * mod)[:, None] / 2 + ns * log_mod_alpha[:, None] - 0.5 * _log_factorials(size)[:size]
    log_mod[(ns > cut[:, None]) | (vacuum[:, None] & (ns > 0))] = -np.inf
    # the vacuum keeps everything, at any cutoff
    _check_tail(log_mod, np.where(vacuum, -np.inf, log_mod[np.arange(len(cut)), cut]), cut)
    phase = np.ones((len(alphas), size), dtype=alphas.dtype)
    # alpha/|alpha| component by component, as Python divides a complex by a float
    parts = alphas.view(mod.dtype).reshape(len(alphas), -1)
    phase[:, 1:] = (parts / np.where(vacuum, 1.0, mod)[:, None]).view(alphas.dtype)
    return np.exp(log_mod) * np.cumprod(phase, axis=1)


def cat_amps(n_components: int, alphas, n_maxes) -> np.ndarray:
    """Normalized superpositions of N coherent states at phases 2*pi*k/N, amps[p, n] for n up to the
    cutoff n_maxes[p] and 0 past it.

    Built directly on their photon-number support (multiples of N) and
    normalized numerically, so no closed-form normalization constant enters.
    """
    if n_components < 1:
        raise ValueError("n_components must be >= 1")
    alphas, mod, log_mod_alpha, cut, size = _points(alphas, n_maxes)
    step = min(n_components, size)  # N may pass any array index; the grid then keeps |0> alone
    ks = np.arange(0, size, step)
    vacuum = mod == 0
    # the first support point past each grid, where the dropped mass starts: exact in int64 where N is
    # at most the grid size; past it every grid keeps |0> alone and drops N onwards, counted as a Python
    # int (exact past 2^53 heads) and made float only for the moduli.  A point past 2^1000 (lgamma
    # overflows near 2^1020) is checked at 2^1000, whose mass is at least its own: the Poisson mass
    # falls past its mean |alpha|^2
    log_fact = _log_factorials(2 * size)  # every point of the grid, and past it where N is at most its size
    if n_components <= size:
        past = (cut // n_components + 1) * n_components
        past_at, log_fact_past = past.astype(float), log_fact[past]
    else:
        past = [n_components] * len(cut)
        past_at = float(min(n_components, 2**1000))
        log_fact_past = lgamma(past_at + 1)
    with np.errstate(over="raise"):
        a2 = mod * mod
        log_mod = -a2[:, None] / 2 + ks * log_mod_alpha[:, None] - 0.5 * log_fact[ks]
        log_past = np.where(vacuum, -np.inf, -a2 / 2 + past_at * log_mod_alpha - 0.5 * log_fact_past)
    log_mod[(ks > cut[:, None]) | (vacuum[:, None] & (ks > 0))] = -np.inf
    log_norm_sq = _check_tail(log_mod, log_past, past)
    # where the squares leave double range np.linalg.norm loses them, so the log moduli carry the norm
    shift = np.where(log_norm_sq < log(np.finfo(float).tiny), log_norm_sq / 2, 0.0)
    # complex rows, made real at real alphas (phases +-1 + 0j) only once normalized: the norm sums the
    # real parts as np.linalg.norm sums a complex row's, and each row is divided as numpy divides a
    # complex row by a float, times the reciprocal
    amps = np.zeros((len(alphas), size), dtype=complex)
    amps[:, ::step] = np.exp(log_mod - shift[:, None]) * np.exp(1j * ks * np.angle(alphas)[:, None])
    amps *= (1.0 / np.sqrt(np.vecdot(amps.real, amps.real) + np.vecdot(amps.imag, amps.imag)))[:, None]
    return amps if alphas.dtype.kind == "c" else amps.real.copy()


def coherent(alpha: complex, n_max: int) -> FockVector:
    """Coherent state |alpha> truncated at n_max: `coherent_amps` at one point."""
    return FockVector(coherent_amps([alpha], [n_max])[0])


def cat_state(spec: CatSpec, n_max: int) -> FockVector:
    """Normalized N-headed cat: `cat_amps` at one point."""
    return FockVector(cat_amps(spec.n_components, [spec.alpha], [n_max])[0])


def product_grids(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product states of the rows of a and b (points, n_max + 1), stacked (n_a, point, n_b)."""
    return a.T[:, :, None] * b[None, :, :]


def product_state(a: FockVector, b: FockVector) -> TwoModeState:
    """|a>|b>: `product_grids` at one point."""
    if a.n_max != b.n_max:
        raise ValueError(f"mode cutoffs differ: {a.n_max} vs {b.n_max}")
    return TwoModeState(product_grids(a.amps[None], b.amps[None])[:, 0])


def stack_grids(states: Sequence[TwoModeState]) -> np.ndarray:
    """The grids of two-mode states, which may differ in cutoff, stacked (n_a, point, n_b) on the grid
    of the largest, each zero past its own cutoff."""
    size = max(s.n_max for s in states) + 1
    grids = np.zeros((size, len(states), size), dtype=np.result_type(float, *(s.amps for s in states)))
    for p, s in enumerate(states):
        grids[: s.n_max + 1, p, : s.n_max + 1] = s.amps
    return grids


def normalized(grids: np.ndarray) -> np.ndarray:
    """Each grid of a stack (n_a, point, n_b) over its norm: times the reciprocal, as numpy divides a
    complex grid by a float, so a real grid rounds as its complex twin does."""
    flat = np.ascontiguousarray(np.abs(grids.transpose(1, 0, 2)) ** 2).reshape(grids.shape[1], -1)
    norm_sq = flat.sum(axis=1)  # each point's grid summed as np.sum sums it alone
    if not np.all(norm_sq > 0):
        raise ValueError("cannot normalize a zero vector")
    return grids * (1.0 / np.sqrt(norm_sq))[:, None]


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


def number_moments(grids: np.ndarray, mode: str, order: int = 1) -> np.ndarray:
    """<n_mode^order> of each grid of a stack (n_a, point, n_b), from its marginal photon-number
    distribution: (points,)."""
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    p = np.abs(grids) ** 2
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    marginal = np.ascontiguousarray(p.sum(axis=2).T) if mode == "a" else p.sum(axis=0)
    n = np.arange(grids.shape[0], dtype=float)
    return (n**order * marginal).sum(axis=1)


def number_moment(s: TwoModeState, mode: str, order: int = 1) -> float:
    """<n_mode^order> from the marginal photon-number distribution: `number_moments` at one point."""
    return float(number_moments(s.amps[:, None, :], mode, order)[0])


def mandel_q(s: FockVector) -> float:
    """Mandel Q = (<n^2> - <n>^2)/<n> - 1; zero for Poissonian statistics."""
    p = np.abs(s.amps) ** 2
    n = np.arange(len(p), dtype=float)
    m1 = float(np.sum(n * p))
    if m1 < 1e-14:
        raise ValueError("Mandel Q undefined for (near-)vacuum: <n> < 1e-14")
    m2 = float(np.sum(n * n * p))
    return (m2 - m1 * m1) / m1 - 1.0


def noon_grids(ns, n_maxes) -> np.ndarray:
    """(|n,0> + |0,n>)/sqrt(2), the vacuum for n = 0, for each n of ns on its own cutoff: a real stack
    (n_a, point, n_b)."""
    ns = np.asarray(ns, dtype=int)
    cut = np.broadcast_to(np.asarray(n_maxes, dtype=int), ns.shape)
    if np.any(ns < 0) or np.any(ns > cut):
        raise ValueError("need 0 <= n <= n_max")
    size = int(cut.max(initial=0)) + 1
    check_grid_size(size - 1)
    grids = np.zeros((size, ns.size, size))
    points = np.arange(ns.size)
    grids[ns, points, 0] = grids[0, points, ns] = np.where(ns == 0, 1.0, 1.0 / sqrt(2))
    return grids


def noon_state(n: int, n_max: int) -> TwoModeState:
    """(|n,0> + |0,n>)/sqrt(2); the vacuum for n = 0: `noon_grids` at one point."""
    return TwoModeState(noon_grids([n], [n_max])[:, 0])


def extended_grids(n_components: int, alphas, n_maxes) -> np.ndarray:
    """Normalized (|C_N(alpha)>|0> + |0>|C_N(alpha)>) at each alpha on its own cutoff, built from cat
    amplitudes: a stack (n_a, point, n_b), real where the alphas are.

    N = 1 gives the entangled coherent state, N = 2 the modified entangled
    state.
    """
    c = cat_amps(n_components, alphas, n_maxes)
    grids = np.zeros((c.shape[1], c.shape[0], c.shape[1]), dtype=c.dtype)
    grids[:, :, 0] = c.T
    grids[0, :, :] += c
    return normalized(grids)


def extended_entangled_state(n_components: int, alpha: float, n_max: int | None = None) -> TwoModeState:
    """`extended_grids` at one point, by default on `default_cutoff(|alpha|)`."""
    if n_max is None:
        n_max = default_cutoff(abs(alpha))
    return TwoModeState(extended_grids(n_components, [alpha], [n_max])[:, 0])


def fidelity(s: TwoModeState, t: TwoModeState) -> float:
    """|<s|t>|^2 for normalized pure states."""
    if s.n_max != t.n_max:
        raise ValueError("fidelity requires equal cutoffs")
    return abs(complex(np.vdot(s.amps, t.amps))) ** 2
