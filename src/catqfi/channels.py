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
largest cutoff in the batch.  `phase_average` of a stack of pure grids
(n_a, point, n_b), as the `fock` builders return it, or of a sequence of
pure states builds such a batch, and every map here and `qfi.qfi_mixed` act
on each point as if it were alone, so one pass of numpy kernels serves a
chunk of a curve's alpha grid.  Sectors are keyed (point, n).

The commands (the sweeps, `verify` and `catqfi qfi`) reach a lossy
phase-averaged state through `layer_blocks`, and `loss_channel` is the
second route that the tests check it against:

* layers, the commands' route.  Loss maps a coherent head |g> to the head
  |sqrt(T) g>, so every state family's lossy state is a short sum
  rho = sum_ll' B_ll' |L_l><L_l'| over product layers L_l = |a_l>|b_l> at
  sqrt(T) times its amplitudes, with a small Hermitian weight matrix B
  whose entries are known exactly (`Layers`).  `head_layers` builds it for
  a sum of coherent heads, `class_layers` for the extended states as
  residue classes of one coherent row, and `noon_layers` for the noon
  state's Kraus ladder.  `layer_blocks` gathers each sector's layer rows
  H_n and returns the sector blocks: narrow ones from rho_n = H_n B H_n^H,
  formed elementwise and kept with the block for the QFI, wide ones from
  the thin SVD of H_n W, W W^H = B.
* sector blocks, for states whose every block lies in one sector (any
  `phase_average` output, a noon state).  The element
  <x, y|rho|x', y'> (x + y = x' + y') of a phase-averaged state sits at
  (u_a, u_b) = (min(x, x'), min(y, y')) of the plane of its offset
  d = x - x' >= 0, each plane kept as the box its elements occupy.  A box,
  sized by the pairs of runs of occupied n_a in each sector (`_extents`), is
  the product of two shifted slices of the weighted amplitude grids
  (`_planes`), so no density is formed.  Loss keeps d: it is one
  product M_d X_d M_d^T per plane (`_lose`).  The d = 0 plane is then the
  joint photon-number distribution, whose positive entries are the output
  supports, one block per sector (`_sector_blocks`).  `phase_average` of a
  mixed state is the same build without the loss.
* dense: the full operator sum over the cells the Kraus branches touch and
  one eigendecomposition, returned as one block.  It serves one state that
  was not phase averaged (random or pure states, loss applied before
  averaging), which only the tests and the benchmark's
  loss-before-averaging reference pass in.

`synthesize_heralded` is the one CPS synthesis loop (`catqfi synthesize`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import sqrt

import numpy as np

from .fock import (
    LOSS_LINE_BYTES,
    CutoffError,
    TwoModeState,
    cat_amps,
    coherent_amps,
    default_cutoff,
    extended_entangled_state,
    stack_grids,
)

# eigenvalues at or below this fraction of their block's trace are dropped, so
# that tiny sectors keep full relative precision
BLOCK_FLOOR = 1e-14

# sector blocks holding at most this fraction of their point's trace are
# dropped: after the loss on the layers, before it on the offset planes.  A
# point has at most 2 n_max + 1 sectors, so it loses at most (2 n_max + 1) 1e-35
# of its trace, 4.0e-32 at fock.N_MAX_LIMIT.  Loss is trace preserving and
# commutes with the phase shift, so either way the QFI moves as if that part E
# were dropped after the channel.  By convexity it
# rises by at most E's own QFI, at most tr(E) (2 n_max)^2.  Continuity bounds
# on the fall go as sqrt(tr(E)) only, but a 60-digit check on random 4-level
# states (tr(E) from 1e-6 down to 1e-22, near-singular ones included)
# measured it linear: at most 1.5 s^2 tr(E), s the generator's spread.
# Either way |dF| < 1e-24, below 1e-12 bench.QFI_RESOLUTION, so only points
# whose whole QFI is dust can change (they may read 0).
SECTOR_FLOOR = 1e-35

# sector blocks at least this wide are factored by rank, whatever their rank:
# from their layers (`layer_blocks`) or by a pivoted Cholesky on the planes
# (`_factor_by_rank`).  Narrower blocks, every block of a noon-span state among
# them, are formed whole and diagonalized by a batched eigh.  Each route is the
# faster one where it is used: sending every block through the rank route
# slowed the four sweeps and verify by a quarter, the time going to svd calls
# on 2 x 2 blocks, while the wide cat4 blocks of a lossy point factor at rank <= 4
RANK_WIDTH = 4


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
    batch state the block belongs to (all 0 when omitted).  density[b] (m, m),
    where given, is the block's density on those cells, formed elementwise
    before its eigenvalues were floored: `qfi.qfi_mixed` reads its coherences
    from it, not from differences of eigenvalues.
    """

    na: np.ndarray
    nb: np.ndarray
    weights: np.ndarray
    vecs: np.ndarray
    point: np.ndarray | None = None
    density: np.ndarray | None = None

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

    def __post_init__(self):
        """A ValueError names the first cell of a block that lies off the grid."""
        # one pass over every stack's cells: most states hold many small stacks
        cells = np.concatenate([np.zeros(1, dtype=int), *(c.ravel() for st in self.stacks for c in (st.na, st.nb))])
        if cells.min() >= 0 and cells.max() <= self.n_max:
            return
        for i, st in enumerate(self.stacks):
            if (off := (np.minimum(st.na, st.nb) < 0) | (np.maximum(st.na, st.nb) > self.n_max)).any():
                b, c = np.argwhere(off)[0]
                raise ValueError(f"cell (n_a, n_b) = ({st.na[b, c]}, {st.nb[b, c]}) of block {b} of stack {i} lies off"
                                 f" the {self.n_max + 1} x {self.n_max + 1} grid")

    @property
    def terms(self) -> Sequence:
        """Every (weight, eigenvector) pair, the vector on the full grid: a view for inspection."""
        return _Terms(self)

    def trace(self) -> float:
        return float(sum(st.weights.sum() for st in self.stacks))

    def point_traces(self) -> np.ndarray:
        """The trace of each point of the batch: (points,)."""
        if not self.stacks:
            return np.zeros(self.points)
        return np.bincount(np.concatenate([st.point for st in self.stacks]),
                           np.concatenate([st.weights.sum(axis=1) for st in self.stacks]), self.points)


def from_pure(s: TwoModeState) -> SpectralState:
    na, nb = np.nonzero(s.amps)
    stack = BlockStack(na[None], nb[None], np.ones((1, 1)), s.amps[na, nb][None, :, None])
    return SpectralState(s.n_max, (stack,) if na.size else ())


def phase_average(s: TwoModeState | SpectralState | np.ndarray | Sequence[TwoModeState]) -> SpectralState:
    """Erase coherences between total-photon-number sectors (Eq.-(3) dephasing).

    Uniform averaging of a common phase on both modes keeps exactly the block-
    diagonal part in n_a + n_b: one block per sector, for a pure input its sector
    projection, already an eigenvector.  A mixed input is rebuilt through the
    offset planes, without its sectors under `SECTOR_FLOOR`.  A stack of pure
    grids (n_a, point, n_b), as the `fock` builders return it, or a sequence of
    pure states, which may differ in cutoff, is one batch with a point per state.
    """
    if isinstance(s, SpectralState):
        return _sector_blocks(_planes(_grids(s))[0])
    grids = _stacked(s)
    size, points = grids.shape[:2]
    n_sec = 2 * size - 1
    # sector weights of a pure state are exact slice norms: keep them all,
    # however small, so that feeble high-n sectors stay verifiable
    na, point, nb = np.nonzero(np.abs(grids) ** 2)
    amps = grids[na, point, nb]
    sec = point * n_sec + na + nb  # sector (point, n)
    m_of = np.bincount(sec)
    order = np.lexsort((na, sec, m_of[sec]))  # each support size's cells in one run
    na, nb, sec, amps = na[order], nb[order], sec[order], amps[order]
    weights = np.bincount(sec, np.abs(amps) ** 2)
    sizes = np.bincount(m_of)
    stacks, lo = [], 0
    for m in (np.flatnonzero(sizes[1:]) + 1).tolist():  # the support sizes (np.unique imports numpy.ma)
        hi = lo + m * int(sizes[m])
        ka, kb = na[lo:hi].reshape(-1, m), nb[lo:hi].reshape(-1, m)
        block_sec = sec[lo:hi:m]
        w = weights[block_sec]
        vecs = amps[lo:hi].reshape(-1, m) / np.sqrt(w)[:, None]
        stacks.append(BlockStack(ka, kb, w[:, None], vecs[:, :, None], block_sec // n_sec))
        lo = hi
    return SpectralState(size - 1, tuple(stacks), points)


def _stacked(s: TwoModeState | np.ndarray | Iterable[TwoModeState]) -> np.ndarray:
    """Pure states as a stack of grids (n_a, point, n_b): a stack as it is, else laid out anew."""
    if isinstance(s, np.ndarray):
        return s
    return stack_grids([s] if isinstance(s, TwoModeState) else list(s))


# ---------------------------------------------------------------------------
# offset planes
# ---------------------------------------------------------------------------

# entries per pass of the run pairs and of the narrow blocks' gather: one pass
# for a cat4 point at n_max 32, index arrays of a few MB each at large cutoffs
_PASS_ELEMENTS = 2**18


def _passes(elements: np.ndarray) -> list:
    """(lo, hi) runs of consecutive items, cut where the running element count passes a multiple of `_PASS_ELEMENTS`."""
    cuts = (np.flatnonzero(np.diff(np.cumsum(elements) // _PASS_ELEMENTS)) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(elements)])) if len(elements) else []


def _end_to_end(sizes: np.ndarray):
    """(item, offset) of every element of items of the given sizes laid end to end."""
    item = np.repeat(np.arange(sizes.size), sizes)
    return item, np.arange(item.size) - (np.cumsum(sizes) - sizes)[item]


@dataclass(frozen=True, eq=False)
class _Planes:
    """Offset planes: the box u_a < rows[d], u_b < cols[d] of plane d is laid out (rows, points, cols) in buf
    from start[d]; the last entry of buf is a zero, read for cell pairs outside every box."""

    n_max: int
    points: int
    rows: np.ndarray
    cols: np.ndarray
    start: np.ndarray
    buf: np.ndarray

    def box(self, d: int) -> np.ndarray:
        a, b = self.rows[d], self.cols[d]
        return self.buf[self.start[d] : self.start[d] + a * self.points * b].reshape(a, self.points, b)


def _grids(s: SpectralState) -> np.ndarray:
    """The eigenvectors of s, each scaled by the square root of its weight, on grids laid out (n_a, point,
    layer, n_b), refused above `fock.LOSS_LINE_BYTES` before they are allocated.  The planes pair cells
    of one sector only, so in each sector of a point its blocks take the layers from 0 up, one per
    eigenvector: a phase-averaged pure state takes one layer."""
    stacks, size, n_sec = s.stacks, s.n_max + 1, 2 * s.n_max + 1
    counts = [len(st.na) for st in stacks]
    rank = np.repeat([st.weights.shape[1] for st in stacks], counts).astype(int)
    block = np.repeat(np.arange(rank.size), np.repeat([st.na.shape[1] for st in stacks], counts).astype(int))
    point = np.concatenate([np.zeros(0, dtype=int), *(st.point for st in stacks)])[block]
    n = np.concatenate([np.zeros(0, dtype=int), *((st.na + st.nb).ravel() for st in stacks)])
    key = (point * n_sec + n) * rank.size + block  # a piece: the cells of one block in one sector
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))  # each piece's first cell
    sec, r = key[order][first] // max(rank.size, 1), rank[block[order][first]]
    below = np.cumsum(r) - r
    base = below - below[np.searchsorted(sec, sec)]  # the ranks of the sector's earlier pieces
    layers = int(np.max(base + r, initial=0))
    dtype = np.result_type(float, *(st.vecs for st in stacks))
    if (nbytes := s.points * layers * size * size * dtype.itemsize) > LOSS_LINE_BYTES:
        raise CutoffError(f"the eigenvector grids need {nbytes:,} bytes for {s.points * layers} x {size} x {size}"
                          f" elements, above the line budget of {LOSS_LINE_BYTES:,} bytes")
    layer = np.empty(n.size, dtype=int)
    layer[order] = np.repeat(base, np.diff(np.append(first, n.size)))
    g = np.zeros((size, s.points, layers, size), dtype=dtype)
    lo = 0
    for st in stacks:
        at = layer[lo : lo + st.na.size].reshape(st.na.shape)[:, :, None] + np.arange(st.weights.shape[1])
        g[st.na[:, :, None], st.point[:, None, None], at, st.nb[:, :, None]] = st.vecs * np.sqrt(st.weights)[:, None]
        lo += st.na.size
    return g


def _extents(x: np.ndarray, sec: np.ndarray, size: int, itemsize: int):
    """(rows, cols) of the plane boxes spanning the cells (x, sec - x) of each sector key sec: in sector n, a run
    [a1, b1] of their n_a at or after a run [a2, b2] reaches each offset d in [max(0, a1 - b2), b1 - a2] at
    u_a = min(b2, b1 - d) and u_b = n - max(a1, a2 + d).  Each (run pair, d) owns a plane element, so their
    count is refused above `fock.LOSS_LINE_BYTES` before any pair is formed, in `_passes` of the runs."""
    key = np.sort(sec * (size + 1) + x)
    head = np.flatnonzero(np.diff(key, prepend=-2) != 1)  # each run's first cell
    run_sec, a = np.divmod(key[head], size + 1)
    b = a + np.diff(np.append(head, key.size)) - 1
    first = np.searchsorted(run_sec, run_sec)  # the first run of each run's sector
    k = np.arange(run_sec.size) - first  # the runs before each in its sector
    # a run reaches b - a + 1 offsets with itself, and with each earlier run both lengths less one
    reach = (k + 1) * (b - a + 1) + head - head[first] - k
    if (nbytes := int(reach.sum()) * itemsize) > LOSS_LINE_BYTES:
        raise CutoffError(f"the offset planes need at least {nbytes:,} bytes, above the line budget"
                          f" of {LOSS_LINE_BYTES:,} bytes")
    rows, cols = np.zeros(size, dtype=int), np.zeros(size, dtype=int)
    for lo, hi in _passes(reach):
        r1, j = _end_to_end(k[lo:hi] + 1)
        r1, r2 = r1 + lo, first[r1 + lo] + j
        a1, b1, a2, b2 = a[r1], b[r1], a[r2], b[r2]
        low = np.maximum(0, a1 - b2)
        pair, step = _end_to_end(b1 - a2 - low + 1)
        d = low[pair] + step
        np.maximum.at(rows, d, np.minimum(b2[pair], b1[pair] - d) + 1)
        np.maximum.at(cols, d, run_sec[r1][pair] % (2 * size - 1) - np.maximum(a1[pair], a2[pair] + d) + 1)
    return rows, cols


def _planes(g: np.ndarray):
    """The offset planes of the phase average of the weighted amplitude grids g (n_a, point, layer, n_b),
    and each point's trace.  The sectors holding at most `SECTOR_FLOOR` of their point's trace are zeroed
    in g first.  Plane d pairs the cells (u_a + d, u_b) and (u_a, u_b + d) of a sector, so its box is
    g[d:d+a, :, :, :b] * conj(g[:a, :, :, d:d+b]) summed over the layers, sized to the cells of positive
    square (`_extents`) and refused above `fock.LOSS_LINE_BYTES` before it is allocated."""
    size, points, n_sec = g.shape[0], g.shape[1], 2 * g.shape[0] - 1
    dens = (g.real**2 + g.imag**2).sum(axis=2)  # the joint photon-number distribution
    x, p, y = np.nonzero(dens > 0)
    sec = p * n_sec + x + y
    weight = np.bincount(sec, dens[x, p, y], points * n_sec)
    trace = weight.reshape(points, n_sec).sum(axis=1)
    keep = weight[sec] > SECTOR_FLOOR * trace[p]
    g[x[~keep], p[~keep], :, y[~keep]] = dens[x[~keep], p[~keep], y[~keep]] = 0.0
    rows, cols = _extents(x[keep], sec[keep], size, g.dtype.itemsize)
    cells = rows * points * cols
    if (nbytes := int(cells.sum()) * g.dtype.itemsize) > LOSS_LINE_BYTES:
        raise CutoffError(f"the offset planes need {nbytes:,} bytes for {np.count_nonzero(cells)} offsets of up to"
                          f" {rows.max()} x {cols.max()} elements a point, above the line budget"
                          f" of {LOSS_LINE_BYTES:,} bytes")
    start = np.cumsum(cells) - cells
    planes = _Planes(size - 1, points, rows, cols, start, np.zeros(int(cells.sum()) + 1, dtype=g.dtype))
    planes.box(0)[:] = dens[: rows[0], :, : cols[0]]
    corner = np.flatnonzero(rows[1:] * cols[1:] == 1) + 1  # the (0, 0) corner alone, most of a noon-span state
    planes.buf[start[corner, None] + np.arange(points)] = (g[corner, :, :, 0] * g[0, :, :, corner].conj()).sum(axis=2)
    for d in (np.flatnonzero(rows[1:] * cols[1:] > 1) + 1).tolist():
        a, b = rows[d], cols[d]  # conj() of a real array is itself
        np.einsum("xply,xply->xpy", g[d : d + a, :, :, :b], g[:a, :, :, d : d + b].conj(), out=planes.box(d))
    return planes, trace


def _stored(planes: _Planes, ki: np.ndarray, kj: np.ndarray, n: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The planes' element of each cell pair (|ki, n - ki>, |kj, n - kj>) of point p as stored:
    <ki, n - ki|rho|kj, n - kj> where ki >= kj, its conjugate where ki < kj, and 0 outside every box."""
    u_a, top = np.minimum(ki, kj), np.maximum(ki, kj)
    d, u_b = top - u_a, n - top
    width = planes.cols[d]
    at = planes.start[d] + (u_a * planes.points + p) * width + u_b
    at[(u_a >= planes.rows[d]) | (u_b >= width)] = planes.buf.size - 1
    return planes.buf[at]


def _factor_by_rank(planes: _Planes, k: np.ndarray, diag: np.ndarray, first: np.ndarray, m: np.ndarray,
                    n: np.ndarray, p: np.ndarray, floor: np.ndarray) -> list:
    """Eigenpairs of sector blocks from a pivoted Cholesky rho = L L^H that never forms a block whole.

    Block b of the arrays first, m, n, p and floor (sorted by width m) lies on the cells (k, n[b] - k)
    of point p[b] for k in k[first[b] : first[b] + m[b]], their diagonal diag[first[b] : first[b] + m[b]].
    Each step adds one column to every block's L: rho's column at the cell of largest residual
    diagonal, gathered from the planes, less the earlier columns' share.  A block stops once its
    residual diagonal sums to at most its floor, within m steps: each step zeroes its pivot's
    residual, which later steps only lower, so the next pivot is a new cell until every residual
    is at most 0.  The thin SVD L = U S W^H then gives rho's eigenvalues S^2 and eigenvectors U.
    The blocks lie end to end and every step is elementwise or per block, and each factor is padded
    only to a shape set by its own m and r, so no block's result depends on the rest of the batch.

    Returns the blocks' stacks, their eigenvalues at or below the floor dropped.
    """
    head = np.cumsum(m) - m  # each block's first cell, laid end to end
    seg, cell = _end_to_end(m)  # the block of each cell and its place in it
    kc, nc, pc, resid = k[first[seg] + cell], n[seg], p[seg], diag[first[seg] + cell]
    steps = np.zeros(m.size, dtype=int)
    dtype = planes.buf.dtype
    cols = np.zeros((0, seg.size), dtype=dtype)  # L^T, a row per step, grown 8 rows at first and then doubled
    t = 0  # every block still going has taken t steps
    while (going := np.add.reduceat(resid, head) > floor).any():
        hit = np.flatnonzero(resid == np.maximum.reduceat(resid, head)[seg])
        pivot = hit[np.searchsorted(hit, head)]  # each block's first cell of largest residual
        kj = kc[pivot][seg]
        rho_j = _stored(planes, kc, kj, nc, pc)
        if cols.dtype.kind == "c":
            rho_j = np.where(kc < kj, rho_j.conj(), rho_j)
        # less each earlier column's share, a step at a time: each cell's pivot entry is gathered for one
        # step only, never as a t x cells array
        for row, pivot_row in zip(cols[:t], cols[:t, pivot].conj()):
            rho_j -= row * pivot_row[seg]
        if t == len(cols):
            if (nbytes := max(8, 2 * t) * seg.size * dtype.itemsize) > LOSS_LINE_BYTES:
                raise CutoffError(f"the rank factors need {nbytes:,} bytes for {max(8, 2 * t)} x {seg.size} elements,"
                                  f" above the line budget of {LOSS_LINE_BYTES:,} bytes")
            cols = np.concatenate((cols, np.zeros((max(8, t), seg.size), dtype=dtype)))
        # a block that stopped takes a zero column
        l_j = np.multiply(rho_j, (going / np.sqrt(np.where(going, resid[pivot], 1.0)))[seg], out=cols[t])
        resid -= (l_j * l_j.conj()).real
        resid[pivot[going]] = 0.0
        steps += going
        t += 1
    # the blocks by the shape of their factor, padded with zeros to the power of 2 at or above m and the
    # multiple of 8 at or above r, which no other block sets; each block's rows lie end to end in `factor`
    # and `cells`
    height, width = 2 ** np.frexp(m - 1)[1], -(-steps // 8) * 8
    order = np.lexsort((width, height))
    height, width, w = height[order], width[order], m[order]
    top = np.cumsum(height) - height
    block, offset = _end_to_end(w)
    row, at = top[block] + offset, head[order][block] + offset
    if (nbytes := int(height.sum()) * int(width.max()) * dtype.itemsize) > LOSS_LINE_BYTES:
        raise CutoffError(f"the padded rank factors need {nbytes:,} bytes for {height.sum()} x {width.max()} elements,"
                          f" above the line budget of {LOSS_LINE_BYTES:,} bytes")
    factor, cells = np.zeros((height.sum(), width.max()), dtype=dtype), np.zeros(height.sum(), dtype=kc.dtype)
    factor[row], cells[row] = cols[: width.max(), at].T, kc[at]
    starts = np.flatnonzero(np.diff(height, prepend=0) | np.diff(width, prepend=0)).tolist()  # of each shape
    ends = [*starts[1:], m.size]
    group = np.repeat(np.arange(len(starts)), np.subtract(ends, starts))
    vals, vecs = np.zeros((m.size, width.max())), []
    for g0, g1 in zip(starts, ends):
        h, r = int(height[g0]), int(width[g0])
        u, sv, _ = np.linalg.svd(factor[top[g0] : top[g0] + (g1 - g0) * h].reshape(g1 - g0, h, -1)[:, :, :r],
                                 full_matrices=False)
        vals[g0:g1, : sv.shape[1]] = sv * sv  # h of them where h < r
        vecs.append(u)
    # svd sorts descending, so the kept eigenvalues lead; a stack takes each run of equal shape, m and rank
    rank = (vals > floor[order, None]).sum(axis=1)
    cut = np.flatnonzero((group[1:] != group[:-1]) | (w[1:] != w[:-1]) | (rank[1:] != rank[:-1])) + 1
    ns, ps, stacks = n[order, None], p[order], []
    for a, b in zip([0, *cut.tolist()], [*cut.tolist(), m.size]):
        g, h, wa, q = int(group[a]), int(height[a]), int(w[a]), int(rank[a])
        ks = cells[top[a] : top[a] + (b - a) * h].reshape(b - a, h)[:, :wa]
        u = vecs[g][a - starts[g] : b - starts[g], :wa, :q]
        stacks.append(BlockStack(ks, ns[a:b] - ks, vals[a:b, :q], u, ps[a:b]))
    return stacks


def _sector_blocks(planes: _Planes) -> SpectralState:
    """The block form of the planes' density: one block per sector, on its cells of positive diagonal.

    A block's width picks its route: blocks at least `RANK_WIDTH` wide are factored by rank
    (`_factor_by_rank`), and the narrower ones are gathered whole, laid end to end by support size and
    diagonalized in batches of equal size.
    """
    size, n_sec = planes.n_max + 1, 2 * planes.n_max + 1
    diag = planes.box(0).real  # the joint photon-number distribution
    x, p, y = np.nonzero(diag > 0)
    key = (p * n_sec + x + y) * size + x
    order = np.argsort(key)
    sec, k, weight = key[order] // size, x[order], diag[x, p, y][order]
    first = np.flatnonzero(np.diff(sec, prepend=-1))  # each sector's first cell
    m_of = np.diff(np.append(first, sec.size))
    trace = np.add.reduceat(weight, first)
    p_of, n_of = np.divmod(sec[first], n_sec)
    by_m = np.argsort(m_of, kind="stable")  # equal widths side by side, to share a stack
    narrow, wide = np.split(by_m, [np.searchsorted(m_of[by_m], RANK_WIDTH)])
    stacks = []
    if wide.size:
        stacks = _factor_by_rank(planes, k, weight, first[wide], m_of[wide], n_of[wide], p_of[wide],
                                 BLOCK_FLOOR * trace[wide])
    for lo, hi in _passes(m_of[narrow] ** 2):
        sel = narrow[lo:hi]
        m, n, p, floor = m_of[sel], n_of[sel], p_of[sel], BLOCK_FLOOR * trace[sel]
        block, at = _end_to_end(m * m)  # every element of the (m, m) blocks laid end to end
        i, j = np.divmod(at, m[block])
        ki, kj = k[first[sel][block] + i], k[first[sel][block] + j]
        values = _stored(planes, ki, kj, n[block], p[block])
        groups = [0, *(np.flatnonzero(m[1:] != m[:-1]) + 1).tolist(), sel.size]  # runs of equal support size
        ends = [0, *np.cumsum(m * m).tolist()]
        for g0, g1 in zip(groups[:-1], groups[1:]):
            w = int(m[g0])
            # eigh reads the lower triangle, the d >= 0 elements; the upper holds their conjugates
            vals, vecs = np.linalg.eigh(values[ends[g0] : ends[g1]].reshape(-1, w, w), UPLO="L")
            ks = ki[ends[g0] : ends[g1]].reshape(-1, w, w)[:, :, 0]
            # eigh sorts ascending, so the kept eigenvalues are each block's largest
            rank = (vals > floor[g0:g1, None]).sum(axis=1)
            for r in sorted(set(rank.tolist())):
                keep = rank == r
                stacks.append(BlockStack(ks[keep], n[g0:g1][keep, None] - ks[keep], vals[keep, w - r :],
                                         vecs[keep, :, w - r :], p[g0:g1][keep]))
    return SpectralState(planes.n_max, tuple(stacks), planes.points)


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


def _loss_matrix(coef: np.ndarray, d: int) -> np.ndarray:
    """M[m, u] = coef[u-m, m] coef[u-m, m+d] for m, u <= n_max - d (zero below the diagonal): loss on
    either mode of the offset-d plane, where losing u - m photons takes u_a (or u_b) from u to m."""
    width = len(coef) - d
    # M[m, m+j] sits at flat position m (width+1) + j; the table is 0 where
    # j + m + d > n_max, so the wrapped entries land below the diagonal as zeros
    flat = np.zeros(width * (width + 1))
    flat.reshape(width, width + 1)[:, :width] = (coef[:width, :width] * coef[:width, d:]).T
    return flat[: width * width].reshape(width, width)


def _lose(planes: _Planes, coef: np.ndarray) -> None:
    """Loss on the planes in place: X_d -> M_d X_d M_d^T.  M_d is upper triangular, so each box holds its
    output and no point's output depends on the rest of the batch; a (0, 0) corner box takes coef[0, d]^2."""
    rows, cols = planes.rows, planes.cols
    corner = np.flatnonzero((rows == 1) & (cols == 1))
    planes.buf[planes.start[corner, None] + np.arange(planes.points)] *= coef[0, corner, None] ** 2
    for d in np.flatnonzero(rows * cols > 1).tolist():
        a, b = rows[d], cols[d]
        box = planes.box(d).reshape(a, -1)
        mat = _loss_matrix(coef, d)
        # mode a on the real and imaginary parts as columns of their own, mode b on the rows
        half = (mat[:a, :a] @ box.view(box.real.dtype)).view(box.dtype)
        np.matmul(half.reshape(-1, b), mat[:b, :b].T, out=box.reshape(-1, b))


def _check_trace(before: np.ndarray, after: np.ndarray, t: float) -> None:
    """A CutoffError where a point's trace after (points,) deviates from before beyond 1e-8."""
    if (bad := np.flatnonzero(np.abs(after - before) > 1e-8)).size:
        p = bad[0]
        where = f" at point {p}" if len(after) > 1 else ""
        raise CutoffError(f"trace loss{where}: {before[p]:.12f} -> {after[p]:.12f} under T={t}")


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
                if np.linalg.norm(branch) < 1e-16:
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
    if all(st.sectors is not None for st in spec.stacks):
        planes, before = _planes(_grids(spec))
        _lose(planes, _loss_coeff_table(planes.n_max, t))
        out = _sector_blocks(planes)
    else:
        before, out = spec.point_traces(), _loss_dense(spec, _loss_coeff_table(spec.n_max, t))
    _check_trace(before, out.point_traces(), t)
    return out


# ---------------------------------------------------------------------------
# layers: loss on the coherent heads
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Layers:
    """A batch of mixed states rho_p = sum_ll' weights[p, l, l'] |L_pl><L_pl'| over product layers.

    Layer l of point p is the grid |a[p, l]>|b[p, l]> of two single-mode rows
    (points, layers, n_max + 1), zero past the point's cutoff; a point that
    needs fewer layers than the batch holds zero rows and zero weights in the
    rest.  weights (points, layers, layers) is Hermitian, and it carries the
    input state's norm, so each point's trace is 1 up to what the cutoff drops.
    pairs holds the (j, k) with L_k the complex conjugate of L_j at every
    point, the weights symmetric to match: the state is then real, and
    `layer_blocks` runs in real arithmetic on Re L_j and Im L_j instead.
    """

    a: np.ndarray
    b: np.ndarray
    weights: np.ndarray
    pairs: tuple = ()


def head_layers(gammas, deltas, t: float) -> Layers:
    """The normalized head sums sum_j |gamma_pj>|delta_pj> (points, heads) after loss at transmission t.

    Loss maps |g_j><g_k| to A_jk |sqrt(T) g_j><sqrt(T) g_k|, with
    A_jk = <sqrt(R) g_k|sqrt(R) g_j> = exp(R e_jk) and
    e_jk = -(|gamma_j - gamma_k|^2 + |delta_j - delta_k|^2)/2 + i Im(gamma_k* gamma_j + delta_k* delta_j),
    whose real part is formed without cancellation.  The weights are A over
    the input's norm^2 sum_jk exp(e_jk).  The layers are coherent rows at
    sqrt(T) times the amplitudes, on `default_cutoff` of each point's
    largest, whose tail checks catch truncation.  Heads that are each
    other's conjugates at every point, as a real state's are, are paired.
    """
    gammas, deltas = np.asarray(gammas), np.asarray(deltas)
    points, heads = gammas.shape
    d_gamma, d_delta = gammas[:, :, None] - gammas[:, None, :], deltas[:, :, None] - deltas[:, None, :]
    exponent = -((d_gamma * d_gamma.conj()).real + (d_delta * d_delta.conj()).real) / 2
    if np.iscomplexobj(gammas) or np.iscomplexobj(deltas):
        phase = gammas[:, :, None] * gammas[:, None, :].conj() + deltas[:, :, None] * deltas[:, None, :].conj()
        exponent = exponent + 1j * phase.imag
    weights = np.exp((1.0 - t) * exponent) / np.exp(exponent).sum(axis=(1, 2)).real[:, None, None]
    scaled = sqrt(t) * np.concatenate((gammas, deltas), axis=1)
    cut = [default_cutoff(m) for m in np.abs(scaled).max(axis=1).tolist()]
    rows = coherent_amps(scaled.ravel(), np.repeat(cut, 2 * heads)).reshape(points, 2 * heads, -1)
    # twin[j, k]: head k is head j conjugated at every point
    twin = (gammas[:, :, None].conj() == gammas[:, None, :]) & (deltas[:, :, None].conj() == deltas[:, None, :])
    twin = twin.all(axis=0)
    partner = twin.argmax(axis=1)
    pairs = ()
    if rows.dtype.kind == "c" and twin.any(axis=1).all() and np.array_equal(partner[partner], np.arange(heads)):
        pairs = tuple((j, k) for j, k in enumerate(partner.tolist()) if j < k)
    return Layers(rows[:, :heads], rows[:, heads:], weights, pairs)


def class_layers(n_components: int, alphas, t: float) -> Layers:
    """(|C_N(alpha)>|0> + |0>|C_N(alpha)>)/sqrt(M) at each alpha after loss at transmission t.

    The cat is the coherent state's projection on n = 0 (mod N), the mean of
    its N heads at phases 2 pi j/N.  Loss leaves the environment of a head
    in |sqrt(R) alpha e^{2 pi i j/N}>, whose s photons carry the phase
    2 pi j s/N, so the mean over j keeps the cells n + s = 0 (mod N).  With
    c = `coherent_amps(sqrt(T) alpha)` and the environment's own grid
    p = `coherent_amps(sqrt(R) alpha)`^2, arm a holds the residue-class
    layers a_m = c on n = m (mod N), times |0> on mode b, and arm b their
    mirrors, for the classes the grid reaches.  Layer m of either arm weighs
    P_{-m mod N}, P_r = sum_{s = r (mod N)} p_s, summed by `np.bincount`:
    every entry is a sum of positive terms.  The arms meet only where both
    environments hold nothing, B[a_0, b_0] = p_0.  The weights carry the
    input's norm^2 2 (sum_{n = 0 (mod N)} q_n + q_0), q = `coherent_amps(alpha)`^2
    on the input's own `default_cutoff`.
    """
    alphas = np.asarray(alphas, dtype=float)
    r = 1.0 - t
    lay = coherent_amps(sqrt(t) * alphas, [default_cutoff(sqrt(t) * x) for x in alphas.tolist()])
    env = coherent_amps(sqrt(r) * alphas, [default_cutoff(sqrt(r) * x) for x in alphas.tolist()]) ** 2
    full = coherent_amps(alphas, [default_cutoff(x) for x in alphas.tolist()]) ** 2
    points, size = lay.shape
    classes = min(n_components, size)  # N may pass the grid, and each cell is then its own class
    n = np.arange(size)
    a, b = np.zeros((points, 2 * classes, size)), np.zeros((points, 2 * classes, size))
    a[:, n % classes, n] = b[:, classes + n % classes, n] = lay
    b[:, :classes, 0] = a[:, classes:, 0] = 1.0
    # P_r of each point; past the environment's grid every class is empty
    step = min(n_components, env.shape[1])
    at = (np.arange(points)[:, None] * step + np.arange(env.shape[1]) % step).ravel()
    p_class = np.bincount(at, env.ravel(), points * step).reshape(points, step)
    weights = np.zeros((points, 2 * classes, 2 * classes))
    for m in range(classes):
        if (q := -m % n_components) < step:
            weights[:, m, m] = weights[:, classes + m, classes + m] = p_class[:, q]
    weights[:, 0, classes] = weights[:, classes, 0] = env[:, 0]
    norm_sq = 2 * (full[:, :: min(n_components, full.shape[1])].sum(axis=1) + full[:, 0])
    return Layers(a, b, weights / norm_sq[:, None, None])


def noon_layers(ns, n_maxes, t: float) -> Layers:
    """(|n,0> + |0,n>)/sqrt(2), the vacuum for n = 0, at each n of ns after loss at transmission t.

    The Kraus ladder, one cell a layer: losing k photons takes |n> to
    coef[k, n - k] |n - k> (`_loss_coeff_table`).  Layer m <= n is the cell
    (m, 0) of arm a and layer n + m (m >= 1) the cell (0, m) of arm b, each
    of weight 1/2.  The arms meet where neither lost a photon,
    B[n, 2n] = 1/2, and both reach the vacuum by losing all n, with
    environments that differ, so layer 0 weighs 1/2 + 1/2.  The grid is the
    largest of the cutoffs n_maxes.
    """
    ns = np.asarray(ns, dtype=int)
    size = int(np.max(n_maxes)) + 1
    coef = _loss_coeff_table(size - 1, t)
    count = 2 * int(ns.max(initial=0)) + 1
    a, b = np.zeros((ns.size, count, size)), np.zeros((ns.size, count, size))
    weights = np.zeros((ns.size, count, count))
    for p, n in enumerate(ns.tolist()):
        m = np.arange(n + 1)
        amp = coef[n - m, m]
        a[p, m, m], b[p, n + m[1:], m[1:]] = amp, amp[1:]
        b[p, m, 0] = a[p, n + m[1:], 0] = 1.0
        weights[p, np.arange(2 * n + 1), np.arange(2 * n + 1)] = 0.5
        weights[p, 0, 0] = 1.0
        if n:
            weights[p, n, 2 * n] = weights[p, 2 * n, n] = 0.5
    return Layers(a, b, weights)


def _rank_stacks(ks: np.ndarray, nb: np.ndarray, p: np.ndarray, vals: np.ndarray, vecs: np.ndarray,
                 rank: np.ndarray, density: np.ndarray | None = None) -> list:
    """Blocks of one width on the cells (ks, nb) of points p as stacks of equal rank, each block keeping
    its first rank eigenpairs, vals (blocks, k) in descending order and vecs (blocks, width, k)."""
    ranks = rank.tolist()
    if min(ranks) == max(ranks):  # most often: one stack, of slices
        r = ranks[0]
        return [BlockStack(ks, nb, vals[:, :r], vecs[:, :, :r], p, density)] if r else []
    stacks = []
    for r in sorted(set(ranks) - {0}):
        keep = rank == r
        stacks.append(BlockStack(ks[keep], nb[keep], vals[keep, :r], vecs[keep, :, :r], p[keep],
                                 None if density is None else density[keep]))
    return stacks


def layer_blocks(layers: Layers, t: float) -> SpectralState:
    """The phase average of the layers' state in block form: a block per sector n of each point.

    The sector's layer rows H_n[x, l] = a_l(x) b_l(n - x), over its occupied
    cells, give its block.  A block narrower than `RANK_WIDTH` is formed
    elementwise, rho_n = H_n B H_n^H, diagonalized by a batched eigh and
    kept with its eigenpairs.  A wider one is the thin SVD of H_n W, where
    W = V sqrt(lambda) from eigh(B), lambda above 1e-15 of its largest, so
    W W^H = B; the factors are zero-padded to the power of 2 at or above
    their width and decomposed in batches of one padded shape.  Sectors at
    or below `SECTOR_FLOOR` of their point's trace and eigenvalues at or
    below `BLOCK_FLOOR` of their block's are dropped.  A point whose kept
    sectors' trace is not its input's 1 to 1e-8 raises a CutoffError before
    any block is decomposed (t names the loss).
    """
    # the rows laid out (point, n, layer), so that a cell's layer row is one gather
    a, b = (np.ascontiguousarray(rows.transpose(0, 2, 1)) for rows in (layers.a, layers.b))
    w = layers.weights
    points, size, count = a.shape
    n_sec = 2 * size - 1
    # the occupied cells: some layer nonzero on both modes
    p, x, y = np.nonzero(np.matmul((a != 0).astype(np.float32), (b != 0).astype(np.float32).transpose(0, 2, 1)))
    order = np.argsort((p * n_sec + x + y) * size + x)
    p, x, y = p[order], x[order], y[order]
    sec = p * n_sec + x + y
    if (nbytes := 3 * p.size * count * np.result_type(a, b, w).itemsize) > LOSS_LINE_BYTES:
        raise CutoffError(f"the layer rows need {nbytes:,} bytes for 3 x {p.size} x {count} elements,"
                          f" above the line budget of {LOSS_LINE_BYTES:,} bytes")
    h = a[p, x] * b[p, y]
    if layers.pairs:
        # H = H_r Q, with columns j and k of H_r the real and imaginary parts of H_j = conj(H_k): real
        # rows, and real weights Q B Q^H
        j, k = np.array(layers.pairs).T
        q = np.eye(count, dtype=complex)
        q[k, j], q[j, k], q[k, k] = 1j, 1.0, -1j
        h_r = h.real.copy()
        h_r[:, k] = h[:, j].imag
        h, w = h_r, (q @ w @ q.conj().T).real
    bounds = np.searchsorted(p, np.arange(points + 1)).tolist()

    def times(mat: np.ndarray) -> np.ndarray:
        """H mat[p] for each cell of point p, a point at a time."""
        out = np.empty((h.shape[0], mat.shape[2]), dtype=np.result_type(h, mat))
        for q in range(points):
            np.matmul(h[bounds[q] : bounds[q + 1]], mat[q], out=out[bounds[q] : bounds[q + 1]])
        return out

    hb = times(w)
    first = np.flatnonzero(np.concatenate(([True], sec[1:] != sec[:-1])))  # each sector's first cell
    m_of = np.append(first[1:], sec.size) - first
    trace = np.add.reduceat(np.einsum("kl,kl->k", hb, h.conj()).real, first)
    p_of, n_of = np.divmod(sec[first], n_sec)
    kept = np.flatnonzero(trace > SECTOR_FLOOR * np.bincount(p_of, trace, points)[p_of])
    _check_trace(np.ones(points), np.bincount(p_of[kept], trace[kept], points), t)
    kept = kept[np.argsort(m_of[kept], kind="stable")]  # equal widths side by side, to share a stack
    narrow, wide = np.split(kept, [np.searchsorted(m_of[kept], RANK_WIDTH)])
    stacks = []
    for m in sorted(set(m_of[narrow].tolist())):
        sel = narrow[m_of[narrow] == m]
        cells = first[sel, None] + np.arange(m)
        rho = hb[cells] @ h[cells].conj().transpose(0, 2, 1)
        vals, vecs = np.linalg.eigh(rho)  # ascending, so reversed
        vals, vecs, ks = vals[:, ::-1], vecs[:, :, ::-1], x[cells]
        rank = (vals > BLOCK_FLOOR * trace[sel, None]).sum(axis=1)
        stacks += _rank_stacks(ks, n_of[sel, None] - ks, p_of[sel], vals, vecs, rank, rho)
    if wide.size:
        lam, v = np.linalg.eigh(w)
        lam = np.where(lam > 1e-15 * lam[:, -1:], lam, 0.0)
        r = int(np.count_nonzero(lam, axis=1).max())
        hw = times(v[:, :, count - r :] * np.sqrt(lam[:, None, count - r :]))  # H W, W's columns of lambda = 0 zero
        m = m_of[wide]
        top = 1 << (int(m[-1]) - 1).bit_length()
        if (nbytes := wide.size * top * r * hw.itemsize) > LOSS_LINE_BYTES:
            raise CutoffError(f"the padded layer factors need {nbytes:,} bytes for {wide.size} x {top} x {r}"
                              f" elements, above the line budget of {LOSS_LINE_BYTES:,} bytes")
        # every block's rows: its cells, then zeros up to the widest padded height
        at = first[wide, None] + np.arange(top)
        cells = np.where(at < (first[wide] + m)[:, None], at, sec.size)
        factors = np.concatenate((hw, np.zeros((1, r), dtype=hw.dtype)))[cells]
        ks = np.append(x, 0)[cells]
        nb = n_of[wide, None] - ks
        # runs of one width, decomposed together by padded height
        ends = [*(np.flatnonzero(np.diff(m)) + 1).tolist(), wide.size]
        groups = {}
        for s0, s1 in zip([0, *ends], ends):
            k = int(m[s0])
            groups.setdefault(1 << (k - 1).bit_length(), []).append((s0, s1, k))
        vals, vecs = np.zeros((wide.size, r)), {}
        for height, runs in groups.items():
            g0, g1 = runs[0][0], runs[-1][1]
            vecs[g0], sv, _ = np.linalg.svd(factors[g0:g1, :height], full_matrices=False)  # descending
            vals[g0:g1, : sv.shape[1]] = sv * sv
        rank = (vals > BLOCK_FLOOR * trace[wide, None]).sum(axis=1)
        for runs in groups.values():
            u, g0 = vecs[runs[0][0]], runs[0][0]
            for s0, s1, k in runs:
                stacks += _rank_stacks(ks[s0:s1, :k], nb[s0:s1, :k], p_of[wide[s0:s1]], vals[s0:s1],
                                       u[s0 - g0 : s1 - g0, :k], rank[s0:s1])
    return SpectralState(size - 1, tuple(stacks), points)


# ---------------------------------------------------------------------------
# heralded conditional-phase-shift synthesis
# ---------------------------------------------------------------------------


def synthesize_heralded(alpha: float, k: int) -> tuple[TwoModeState, list]:
    """Generate the N = 2^{k+1} extended entangled state, with each round's
    (mode a, mode b) herald success probabilities.

    Starts from the modified entangled state, |C_2(alpha)>|0> + |0>|C_2(alpha)>
    normalized, which is exactly the 50:50 beam-splitter output of two
    2-headed cats |C_2(alpha/sqrt2)>: their four heads land on (+-alpha, 0)
    and (0, +-alpha).  It is built from cat amplitudes at the default
    cutoff, so the cat's own tail check catches truncation.  Round j of k
    heralds the conditional phase shift varphi_j = 2*pi/2^{j+1} on mode a,
    then mode b: |psi> -> (1 + e^{i varphi_j n})|psi>/2, whose squared norm
    is the herald probability.  Before round j the support is exactly the
    multiples of 2^j on each mode, where that factor is exactly 1 on the
    multiples of 2^{j+1} and 0 on the rest: the herald is a 0/1 mask that
    zeroes the odd multiples of 2^j, and no phase is formed.  Before round j
    the heralded cat C_N, N = 2^{j+1}, runs its tail test at the grid's
    cutoff (`fock.cat_amps`), so a state past the grid is refused, not
    renormalized.  Once N passes the cutoff the first support point past the
    grid is N itself, whose share only falls as N grows: the checks stop there.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    amps = extended_entangled_state(2, alpha).amps
    n_max = amps.shape[0] - 1
    bits = n_max.bit_length()  # 2^bits is the first power of 2 past the grid
    herald_probs = []
    for j in range(1, k + 1):
        if j < bits:  # 2^j <= n_max
            cat_amps(2 ** (j + 1), [alpha], [n_max])
        half = 1 << min(j, bits)
        odd = slice(half, None, 2 * half)  # the odd multiples of 2^j: none once 2^j passes the grid
        probs = []
        for mode, cells in (("a", np.s_[odd, :]), ("b", np.s_[:, odd])):
            amps[cells] = 0.0
            p = float(np.sum(amps * amps))
            if not p > 0:
                raise ValueError(f"heralded branch on mode {mode} has zero norm")
            probs.append(p)
            amps *= 1.0 / sqrt(p)
        herald_probs.append(tuple(probs))
    return TwoModeState(amps), herald_probs
