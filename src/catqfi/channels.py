"""Non-unitary maps and state engineering: photon loss, phase averaging, CPS heralding.

Mixed states are kept in block spectral form: a block holds the grid
cells it spans (its support), its weights and its orthonormal eigenvectors
restricted to that support, and the blocks of a `SpectralState` have
pairwise disjoint supports.  A sector block lies in one total-photon sector
n = n_a + n_b.  Both QFI generators are diagonal on the Fock grid, so they
keep every block and the QFI is a sum over blocks (`qfi.qfi_mixed`).

Photon loss on a mode is the operator sum with Kraus operators
K_k = sqrt(R^k/k!) T^{n/2} a^k, which acts on number states as
K_k|n> = sqrt(C(n,k) R^k T^{n-k}) |n-k>; the two-mode channel applies it
independently per mode.  Completeness of the binomial sum makes the
channel exactly trace preserving on the truncated grid.

A `SpectralState` may hold a batch of states, its points: every block
carries the index of the point it belongs to, and the grid is that of the
largest cutoff in the batch.  `phase_average` of a sequence of pure states
builds such a batch, and `loss_channel` and `qfi.qfi_mixed` act on each
point as if it were alone, so one pass of numpy kernels serves a whole
chunk of a curve's alpha grid.  Sectors are then keyed (point, n).

`loss_channel` has two routes with the same operator-sum semantics; the
test suite cross-checks them:

* sector blocks: every block lies in one sector (any `phase_average`
  output, a noon state).  The kernel works on the nonzero density elements
  <x, y|rho|x', y'> with x + y = x' + y', one mode at a time.  Losing j
  photons from the mode of x maps (x, x') to (x-j, x'-j) and keeps the line
  (point, y, y'), so each line, indexed by u = min(x, x'), is multiplied by
  one real upper-triangular matrix that depends only on its offset |x - x'|
  (`_lose_lines`); mode b is the same call with the modes swapped.  Lines
  whose elements all have u = 0, most of a noon-span state, only take a
  scale factor.  Memory follows the line array, O(n_max^3) per point; the
  kernel refuses it, or the input blocks' densities, above
  `fock.LOSS_LINE_BYTES` before allocating.  Each output sector is then
  diagonalized on its support, in batches of equal support size.  Every
  sweep row, `verify` and the CLI take this route.
* dense: the full operator sum over the cells the Kraus branches touch and
  one eigendecomposition, returned as one block.  It serves one state that
  was not phase averaged (random or pure states, loss applied before
  averaging), which only the tests and the benchmark's
  loss-before-averaging reference pass in.

`synthesize_heralded` is the one CPS synthesis loop (`catqfi synthesize`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import pi, sqrt

import numpy as np

from .fock import (
    LOSS_LINE_BYTES,
    CatSpec,
    CutoffError,
    TwoModeState,
    beam_splitter_5050,
    cat_state,
    default_cutoff,
    phase_shift,
)

# eigenvalues at or below this fraction of their block's trace are dropped, so
# that tiny sectors keep full relative precision
BLOCK_FLOOR = 1e-14


@dataclass(frozen=True)
class LossSpec:
    """Intensity transmission T of the loss-modeling beam splitter; R = 1 - T."""

    transmission: float

    def __post_init__(self):
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError("transmission must lie in [0, 1]")

    @property
    def reflectance(self) -> float:
        return 1.0 - self.transmission


@dataclass(frozen=True, eq=False)
class BlockStack:
    """Diagonal blocks of a mixed state with equal support size m and rank r, stacked.

    Block b spans the grid cells |na[b, i], nb[b, i]> (na, nb: (B, m));
    weights[b] (r,) are its eigenvalues and the columns of vecs[b] (m, r) its
    orthonormal eigenvectors restricted to those cells.  point[b] is the
    batch state the block belongs to (all 0 when omitted).
    """

    na: np.ndarray
    nb: np.ndarray
    weights: np.ndarray
    vecs: np.ndarray
    point: np.ndarray | None = None

    def __post_init__(self):
        if self.point is None:
            object.__setattr__(self, "point", np.zeros(len(self.na), dtype=int))

    @property
    def sectors(self) -> np.ndarray | None:
        """Total photon number n_a + n_b of each block, or None if a block spans sectors."""
        n = self.na + self.nb
        return n[:, 0] if n.shape[1] and np.all(n == n[:, :1]) else None


class _Terms(Sequence):
    """The (weight, TwoModeState) pairs of a state, each expanded to the full grid on access."""

    def __init__(self, state: SpectralState):
        self._n_max = state.n_max
        self._pairs = [(st, b, i) for st in state.stacks for b in range(len(st.na)) for i in range(st.weights.shape[1])]

    def __len__(self) -> int:
        return len(self._pairs)

    def __getitem__(self, i: int):
        st, b, j = self._pairs[i]
        amps = np.zeros((self._n_max + 1, self._n_max + 1), dtype=complex)
        amps[st.na[b], st.nb[b]] = st.vecs[b, :, j]
        return float(st.weights[b, j]), TwoModeState(amps)


@dataclass(frozen=True, eq=False)
class SpectralState:
    """Mixed two-mode state as eigenpairs per block, the blocks stacked by shape.

    A batch of `points` states when points > 1; n_max is the largest cutoff
    in the batch.  The supports of one point's blocks are pairwise disjoint.
    """

    n_max: int
    stacks: tuple
    points: int = 1

    @property
    def terms(self) -> Sequence:
        """Every (weight, eigenvector) pair, the vector on the full grid: a view for inspection."""
        return _Terms(self)

    def trace(self) -> float:
        return float(sum(st.weights.sum() for st in self.stacks))

    def point_traces(self) -> np.ndarray:
        """The trace of each point of the batch: (points,)."""
        traces = np.zeros(self.points)
        for st in self.stacks:
            traces += np.bincount(st.point, st.weights.sum(axis=1), self.points)
        return traces


def _block_densities(st: BlockStack) -> np.ndarray:
    """rho of every block of a stack on its support: (B, m, m)."""
    return (st.vecs * st.weights[:, None, :]) @ np.conj(st.vecs).transpose(0, 2, 1)


def _positive_values(a: np.ndarray) -> np.ndarray:
    """The distinct positive entries of a non-negative int array, ascending.

    Not np.unique: its first call imports numpy.ma, about 13 ms.
    """
    return np.flatnonzero(np.bincount(a)[1:]) + 1


def from_pure(s: TwoModeState) -> SpectralState:
    na, nb = np.nonzero(s.amps)
    stack = BlockStack(na[None], nb[None], np.ones((1, 1)), s.amps[na, nb][None, :, None])
    return SpectralState(s.n_max, (stack,) if na.size else ())


def phase_average(s: TwoModeState | SpectralState | Sequence[TwoModeState]) -> SpectralState:
    """Erase coherences between total-photon-number sectors (Eq.-(3) dephasing).

    Uniform averaging of a common phase on both modes keeps exactly the
    block-diagonal part with respect to n_a + n_b, so the output is one
    block per sector; pure inputs need no diagonalization (each sector
    projection is already an eigenvector).  A sequence of pure states, which
    may differ in cutoff, is averaged as one batch with a point per state.
    """
    if isinstance(s, SpectralState):
        return _sector_state(*_sector_elements(s.stacks, s.n_max), s.n_max, s.points)
    batch = [s] if isinstance(s, TwoModeState) else list(s)
    n_max = max(st.n_max for st in batch)
    n_sec = 2 * n_max + 1
    # sector weights of a pure state are exact slice norms: keep them all,
    # however small, so that feeble high-n sectors stay verifiable
    cells = [np.nonzero(np.abs(st.amps) ** 2) for st in batch]
    point = np.repeat(np.arange(len(batch)), [na.size for na, _ in cells])
    na = np.concatenate([na for na, _ in cells])
    nb = np.concatenate([nb for _, nb in cells])
    amps = np.concatenate([st.amps[c] for st, c in zip(batch, cells)])
    sec = point * n_sec + na + nb  # sector (point, n)
    order = np.lexsort((na, sec))
    na, nb, sec, amps = na[order], nb[order], sec[order], amps[order]
    weights = np.bincount(sec, np.abs(amps) ** 2)
    m_of = np.bincount(sec)
    stacks = []
    for m in _positive_values(m_of):
        in_m = m_of[sec] == m
        ka, kb = na[in_m].reshape(-1, m), nb[in_m].reshape(-1, m)
        block_sec = sec[in_m][::m]
        w = weights[block_sec]
        vecs = amps[in_m].reshape(-1, m) / np.sqrt(w)[:, None]
        stacks.append(BlockStack(ka, kb, w[:, None], vecs[:, :, None], block_sec // n_sec))
    return SpectralState(n_max, tuple(stacks), len(batch))


def _sector_elements(stacks, n_max: int) -> list:
    """Elements (sector, k, k', value) = <k, n-k|rho|k', n-k'> of rho's sector-diagonal part (k = n_a).

    The sector (point, n) is keyed point * (2 n_max + 1) + n.  Only nonzero
    elements are listed.  Densities past `fock.LOSS_LINE_BYTES` in all are refused before any is formed.
    """
    elements = sum(st.na.size * st.na.shape[1] for st in stacks)
    if 16 * elements > LOSS_LINE_BYTES:
        rows, width = sum(st.na.size for st in stacks), max(st.na.shape[1] for st in stacks)
        raise CutoffError(f"expanding the sector blocks needs {16 * elements:,} bytes for {rows} lines of up"
                          f" to {width} elements, above the line budget of {LOSS_LINE_BYTES:,} bytes")
    parts = []
    for st in stacks:
        rho = _block_densities(st)
        n = st.na + st.nb
        b, i, j = np.nonzero((n[:, :, None] == n[:, None, :]) & (rho != 0))
        parts.append((st.point[b] * (2 * n_max + 1) + n[b, i], st.na[b, i], st.na[b, j], rho[b, i, j]))
    if not parts:
        return [np.zeros(0, int)] * 3 + [np.zeros(0, complex)]
    return [np.concatenate(p) for p in zip(*parts)]


def _cell_positions(sec, k, kp, val, n_max: int):
    """The occupied cells, and each element's ket and bra cells as positions among them.

    A cell (point, n, k) is occupied where its summed diagonal is positive;
    `occupied` holds the keys (point * (2 n_max + 1) + n) * (n_max + 1) + k
    ascending, so grouped by sector.  inside marks the elements whose two
    cells are both occupied.  The index holds one int per key up to the last
    sector's: at most 50,054 (400 kB) over the four figure sweeps and `verify`.
    """
    size = n_max + 1
    cell, cell_p = sec * size + k, sec * size + kp
    diag = k == kp
    box = (sec.max(initial=0) + 1) * size
    occupied = np.flatnonzero(np.bincount(cell[diag], val[diag].real, box) > 0)
    index = np.full(box, -1)
    index[occupied] = np.arange(occupied.size)
    i, j = index[cell], index[cell_p]
    return occupied, i, j, (i >= 0) & (j >= 0)


def _sector_state(sec, k, kp, val, n_max: int, points: int) -> SpectralState:
    """Block form of a sector-diagonal density given by its elements (repeated ones add).

    Each sector's support is the cells with a nonzero diagonal; its block is
    diagonalized there, in batches of sectors with equal support size.
    """
    size = n_max + 1
    occupied, i, j, inside = _cell_positions(sec, k, kp, val, n_max)
    i, j, val = i[inside], j[inside], val[inside]
    occ_sec, occ_k = np.divmod(occupied, size)
    first = np.flatnonzero(np.diff(occ_sec, prepend=-1))  # each sector's first occupied cell
    m_of = np.diff(first, append=occupied.size)
    block = np.repeat(np.arange(first.size), m_of)  # sector ordinal of each occupied cell
    local = np.arange(occupied.size) - first[block]  # position of the cell in its sector's support
    # the sectors' (m, m) blocks laid end to end, grouped by m and ascending within a group
    order = np.argsort(m_of, kind="stable")
    start = np.empty_like(m_of)
    start[order] = np.cumsum(m_of[order] ** 2) - m_of[order] ** 2
    row = start[block] + local * m_of[block]  # where each occupied cell's row of its block starts
    flat = row[i] + local[j]
    length = int(np.sum(m_of**2))
    blocks = np.bincount(flat, val.real, length) + 1j * np.bincount(flat, val.imag, length)
    stacks = []
    for m in _positive_values(m_of):
        in_m = np.flatnonzero(m_of == m)
        batch = blocks[start[in_m[0]] : start[in_m[0]] + in_m.size * m * m].reshape(-1, m, m)
        vals, vecs = np.linalg.eigh(batch)
        # eigh sorts ascending, so the kept eigenvalues are each block's largest
        rank = np.sum(vals > BLOCK_FLOOR * np.trace(batch, axis1=1, axis2=2).real[:, None], axis=1)
        ks = occ_k[first[in_m][:, None] + np.arange(m)]
        p_of, n_of = np.divmod(occ_sec[first[in_m]], 2 * n_max + 1)
        for r in _positive_values(rank):
            sel = rank == r
            stacks.append(
                BlockStack(ks[sel], n_of[sel, None] - ks[sel], vals[sel, m - r :], vecs[sel, :, m - r :], p_of[sel])
            )
    return SpectralState(n_max, tuple(stacks), points)


# ---------------------------------------------------------------------------
# photon loss
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _loss_coeff_table(n_max: int, t: float) -> np.ndarray:
    """coef[k, m] = sqrt(C(m+k, k) R^k T^m): amplitude for |m+k> -> |m> under K_k (read only).

    No entry depends on n_max, so the table of a batch's largest cutoff
    serves every point of it.
    """
    r = 1.0 - t
    coef = np.zeros((n_max + 1, n_max + 1))
    m = np.arange(n_max + 1, dtype=float)
    coef[0] = t ** (m / 2)
    for k in range(1, n_max + 1):
        valid = m + k <= n_max
        # C(m+k, k) = C(m+k-1, k-1) * (m+k)/k
        coef[k, valid] = coef[k - 1, valid] * np.sqrt((m[valid] + k) / k * r)
    coef.setflags(write=False)
    return coef


def _loss_matrix(coef: np.ndarray, d: int, width: int) -> np.ndarray:
    """M[m, u] = coef[u-m, m] coef[u-m, m+d] (zero below the diagonal): one line of offset d under loss."""
    # M[m, m+j] sits at flat position m (width+1) + j; the product is 0 where
    # j + m >= width, so the wrapped entries land below the diagonal as zeros
    flat = np.zeros(width * (width + 1))
    flat.reshape(width, width + 1)[:, :width] = (coef[:width, :width] * coef[:width, d : d + width]).T
    return flat[: width * width].reshape(width, width)


def _lose_lines(line, u, val, coef: np.ndarray, n_max: int):
    """Loss on one mode of distinct sector-diagonal elements, given and returned as (line, u, value).

    The element <x, y|rho|x', y'> of point p lies on the line
    (p (n_max+1) + y) (n_max+1) + y' at u = min(x, x'), x being the photons
    in the lossy mode.  Losing j photons maps (x, x') to (x-j, x'-j) and keeps
    the line, along which x - x' = y' - y is fixed; so a line of offset
    d = |y - y'| is multiplied by the triangular `_loss_matrix` of d, one line
    at a time, and no point's output depends on the rest of the batch.  A
    line whose elements all have u = 0 only takes the j = 0 factor coef[0, d].
    """
    size = n_max + 1
    index = np.zeros(line.max(initial=0) + 1, dtype=np.intp)
    index[line[u > 0]] = 1
    moving = index[line] == 1
    fixed = ~moving
    still = line[fixed]
    parts = [(still, u[fixed], val[fixed] * coef[0, np.abs(still % size - still // size % size)])]
    lines = np.flatnonzero(index)
    if lines.size:
        # the moving lines as rows, grouped by offset, each size - d long and laid end to end
        d = np.abs(lines % size - lines // size % size)
        order = np.argsort(d, kind="stable")
        lines, d = lines[order], d[order]
        width = size - d
        start = np.cumsum(width) - width
        total = int(start[-1] + width[-1])
        if 16 * total > LOSS_LINE_BYTES:
            raise CutoffError(
                f"photon loss needs {16 * total:,} bytes for {lines.size} lines of up to {size} elements,"
                f" above the line budget of {LOSS_LINE_BYTES:,} bytes"
            )
        index[lines] = np.arange(lines.size)
        rows = np.zeros(total, dtype=complex)
        rows[start[index[line[moving]]] + u[moving]] = val[moving]
        count = np.bincount(d)
        first = np.cumsum(count) - count
        for off in np.flatnonzero(count):
            w = size - off
            lo = start[first[off]]
            # real products on the real and imaginary parts: (w, w) @ (w, 2) for each line
            group = rows[lo : lo + count[off] * w].view(float).reshape(-1, w, 2)
            out = (_loss_matrix(coef, off, w) @ group).reshape(-1).view(complex)
            at = np.flatnonzero(out)
            row, m = np.divmod(at, w)
            parts.append((lines[first[off] + row], m, out[at]))
    return tuple(np.concatenate(p) for p in zip(*parts))


def _line_cells(line, u, size: int):
    """(point, x, x', y, y') of the elements at u on their lines (see `_lose_lines`)."""
    rest, yp = np.divmod(line, size)
    point, y = np.divmod(rest, size)
    shift = yp - y  # x - x'
    return point, u + np.maximum(shift, 0), u - np.minimum(shift, 0), y, yp


def _loss_sectors(s: SpectralState, coef: np.ndarray) -> SpectralState:
    """Loss on a state of sector blocks: on mode a along the lines (point, n_b, n_b'), then on mode b."""
    n_max = s.n_max
    size = n_max + 1
    sec, a, ap, val = _sector_elements(s.stacks, n_max)
    point, n = np.divmod(sec, 2 * n_max + 1)
    line, u, val = _lose_lines((point * size + n - a) * size + n - ap, np.minimum(a, ap), val, coef, n_max)
    point, a, ap, b, bp = _line_cells(line, u, size)
    line, u, val = _lose_lines((point * size + a) * size + ap, np.minimum(b, bp), val, coef, n_max)
    point, b, _, a, ap = _line_cells(line, u, size)
    return _sector_state(point * (2 * n_max + 1) + a + b, a, ap, val, n_max, s.points)


def _loss_dense(s: SpectralState, coef: np.ndarray) -> SpectralState:
    """Loss on any one state: every Kraus branch of every eigenvector, one eigendecomposition."""
    if s.points != 1:
        raise ValueError(f"dense loss takes one point, got a batch of {s.points}")
    n_max = s.n_max
    cols = []
    for w, v in s.terms:
        sw = sqrt(w)
        # K_k on mode a, then K_l on mode b; drop branches with no weight
        for k in range(n_max + 1):
            ak = coef[k, : n_max + 1 - k, None] * v.amps[k:, :]
            if not np.any(ak):
                continue
            for l in range(n_max + 1):
                branch = np.zeros((n_max + 1, n_max + 1), dtype=complex)
                branch[: n_max + 1 - k, : n_max + 1 - l] = coef[l, None, : n_max + 1 - l] * ak[:, l:]
                nrm = np.linalg.norm(branch)
                if nrm < 1e-16:
                    continue
                cols.append(sw * branch.ravel())
    if not cols:
        return SpectralState(n_max, ())
    w_mat = np.stack(cols, axis=1)
    cells = np.flatnonzero(np.any(w_mat != 0, axis=1))
    w_mat = w_mat[cells]
    rho = w_mat @ w_mat.conj().T
    vals, vecs = np.linalg.eigh(rho)
    keep = vals > BLOCK_FLOOR * np.trace(rho).real
    na, nb = np.divmod(cells, n_max + 1)
    return SpectralState(n_max, (BlockStack(na[None], nb[None], vals[None, keep], vecs[None][:, :, keep]),))


def loss_channel(s: TwoModeState | SpectralState, loss: LossSpec) -> SpectralState:
    """Equal photon loss on both modes, returned in block form.

    Raises CutoffError when the output trace of any point deviates from its
    input trace beyond 1e-8 (a truncation failure, not a rounding issue).
    """
    spec = from_pure(s) if isinstance(s, TwoModeState) else s
    t = loss.transmission
    coef = _loss_coeff_table(spec.n_max, t)
    if all(st.sectors is not None for st in spec.stacks):
        out = _loss_sectors(spec, coef)
    else:
        out = _loss_dense(spec, coef)
    before, after = spec.point_traces(), out.point_traces()
    bad = np.flatnonzero(np.abs(after - before) > 1e-8)
    if bad.size:
        p = bad[0]
        where = f" at point {p}" if spec.points > 1 else ""
        raise CutoffError(f"trace loss{where}: {before[p]:.12f} -> {after[p]:.12f} under T={t}")
    return out


# ---------------------------------------------------------------------------
# heralded conditional-phase-shift synthesis
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class CpsOutcome:
    state: TwoModeState
    herald_prob_a: float
    herald_prob_b: float

    @property
    def herald_prob(self) -> float:
        return self.herald_prob_a * self.herald_prob_b


def cps_round_outcome(s: TwoModeState, varphi: float) -> CpsOutcome:
    """One heralded conditional-phase-shift round on mode a, then mode b.

    Detecting the ancilla in |+> implements |psi> -> (1 + e^{i varphi n})|psi>/2
    per mode before renormalization; the squared norm of that map is the
    herald success probability, tracked as a diagnostic.
    """
    out = s
    probs = []
    for mode in ("a", "b"):
        mapped = TwoModeState(0.5 * (out.amps + phase_shift(out, mode, varphi).amps))
        p = mapped.norm_sq()
        # rounding of e^{i phi} leaves ~1e-32 in branches that vanish exactly
        if p <= 1e-24:
            raise ValueError(f"heralded branch on mode {mode} has zero norm")
        probs.append(p)
        out = mapped.normalize()
    return CpsOutcome(state=out, herald_prob_a=probs[0], herald_prob_b=probs[1])


def synthesize_heralded(alpha: float, k: int, n_max: int | None = None) -> tuple[TwoModeState, list]:
    """Generate the N = 2^{k+1} extended entangled state, with each round's
    (mode a, mode b) herald success probabilities.

    Beam-splits two 2-headed cats |C_2(alpha/sqrt2)>, then applies k CPS
    rounds with varphi_j = 2*pi/2^{j+1}.  Heralding is applied mode a
    first, then mode b (the fidelity targets are order independent).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    if n_max is None:
        n_max = default_cutoff(alpha)
    half = cat_state(CatSpec(2, alpha / sqrt(2.0)), n_max)
    state = beam_splitter_5050(half, half).normalize()
    herald_probs = []
    for j in range(1, k + 1):
        outcome = cps_round_outcome(state, 2.0 * pi / 2 ** (j + 1))
        herald_probs.append((outcome.herald_prob_a, outcome.herald_prob_b))
        state = outcome.state
    return state, herald_probs
