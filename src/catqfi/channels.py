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
  output, a noon state).  Blocks holding at most `SECTOR_FLOOR` of their
  point's trace are left out of the scatter, so a cat4 point at n_max 32
  (alpha 0.6-1.3) keeps 21-32 of its 65 sectors; no resolved QFI moves.  An
  element <x, y|rho|x', y'> (x + y = x' + y') goes to (u_a, u_b) =
  (min(x, x'), min(y, y')) of the plane of its offset d = x - x' = y' - y.
  The d < 0 planes are the conjugates of the d > 0 ones, so only d >= 0 is
  kept, each plane as the box its elements occupy (`_Planes`).  Loss moves
  u_a and u_b and keeps d, so the channel is one product M_d X_d M_d^T
  with the real upper-triangular `_loss_matrix` of d, and a box of the
  (0, 0) corner alone, most of a noon-span state, takes a scale factor.
  The d = 0 plane is then the joint photon-number distribution: its
  positive entries are the output supports, one block per output sector.
  A block's width alone picks how it is diagonalized.  A block at least
  `RANK_WIDTH` wide is factored by rank: a pivoted Cholesky gathers one
  column of it a step from the planes until the residual falls to
  `BLOCK_FLOOR`, and a thin SVD of the m x r factor gives its eigenpairs, so
  a block of rank r costs O(m r) memory instead of O(m^2), and O(m r^2)
  time instead of O(m^3) (a cat4 block has rank <= 4, one per head).  The
  narrower blocks are gathered whole and diagonalized in batches of equal
  support size.  The planes, O(n_max^3) per point, and the input blocks'
  densities are each refused above `fock.LOSS_LINE_BYTES` before any
  density is formed.  The sweeps, `verify` and the CLI take this route;
  `phase_average` of a mixed state is the same scatter and gather.
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
from math import ldexp, pi, sqrt

import numpy as np

from .fock import LOSS_LINE_BYTES, CutoffError, TwoModeState, extended_entangled_state, phase_shift

# eigenvalues at or below this fraction of their block's trace are dropped, so
# that tiny sectors keep full relative precision
BLOCK_FLOOR = 1e-14

# sector blocks holding at most this fraction of their point's trace are
# dropped before photon loss.  A point has at most 2 n_max + 1 sectors, so it
# loses at most (2 n_max + 1) 1e-35 of its trace, 4.0e-32 at fock.N_MAX_LIMIT.
# Loss is trace preserving and commutes with the phase shift, so the QFI
# moves as if that part E were dropped after the channel.  By convexity it
# rises by at most E's own QFI, at most tr(E) (2 n_max)^2.  Continuity bounds
# on the fall go as sqrt(tr(E)) only, but a 60-digit check on random 4-level
# states (tr(E) from 1e-6 down to 1e-22, near-singular ones included)
# measured it linear: at most 1.5 s^2 tr(E), s the generator's spread.
# Either way |dF| < 1e-24, below 1e-12 bench.QFI_RESOLUTION, so only points
# whose whole QFI is dust can change (they may read 0).
SECTOR_FLOOR = 1e-35

# sector blocks at least this wide are factored by rank (`_factor_by_rank`),
# whatever their rank; narrower blocks, every block of a noon-span state among
# them, are diagonalized whole by a batched eigh.  Each route is the faster one
# where the commands use it: sending every block through the rank route slowed
# the four sweeps and verify by a quarter, the time going to svd calls on
# 2 x 2 blocks, while the wide cat4 blocks of a lossy point factor at rank <= 4
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
        if not self.stacks:
            return np.zeros(self.points)
        return np.bincount(np.concatenate([st.point for st in self.stacks]),
                           np.concatenate([st.weights.sum(axis=1) for st in self.stacks]), self.points)


def _block_densities(st: BlockStack, keep: np.ndarray | None = None) -> np.ndarray:
    """rho of the blocks of a stack that keep (B,) marks (all when None), on their support: (kept, m, m)."""
    vecs, weights = (st.vecs, st.weights) if keep is None or keep.all() else (st.vecs[keep], st.weights[keep])
    return (vecs * weights[:, None, :]) @ vecs.conj().transpose(0, 2, 1)  # conj() of a real array is itself


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
        return _sector_blocks(_planes(s))
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
    return SpectralState(n_max, tuple(stacks), len(batch))


# ---------------------------------------------------------------------------
# offset planes
# ---------------------------------------------------------------------------

# density elements per pass of the plane scatter and gather: one pass for a
# cat4 point at n_max 32, index arrays of a few MB each at large cutoffs
_PASS_ELEMENTS = 2**18


def _passes(elements: np.ndarray) -> list:
    """(lo, hi) runs of consecutive items, cut where the running element count passes a multiple of `_PASS_ELEMENTS`."""
    cuts = (np.flatnonzero(np.diff(np.cumsum(elements) // _PASS_ELEMENTS)) + 1).tolist()
    return list(zip([0, *cuts], [*cuts, len(elements)])) if len(elements) else []


def _end_to_end(sizes: np.ndarray):
    """(item, offset) of every element of items of the given sizes laid end to end."""
    item = np.repeat(np.arange(sizes.size), sizes)
    return item, np.arange(item.size) - (np.cumsum(sizes) - sizes)[item]


def _block_pairs(m: np.ndarray):
    """(block, i, j) of every element of (m, m) blocks laid end to end."""
    block, at = _end_to_end(m * m)
    return (block, *np.divmod(at, m[block]))


def _lower_pairs(stacks, keep: np.ndarray):
    """(at, d, u_a, u_b, point) of the elements <x, y|rho|x', y'> of the densities of the blocks that keep
    marks (a mask over the stacks' blocks laid end to end), x + y = x' + y' and d = x - x' >= 0; at indexes
    the kept blocks' (B, m, m) densities raveled and laid end to end."""
    m = np.repeat([st.na.shape[1] for st in stacks], [len(st.na) for st in stacks])
    cells = np.repeat(keep, m)
    na = np.concatenate([st.na.ravel() for st in stacks])[cells]
    nb = np.concatenate([st.nb.ravel() for st in stacks])[cells]
    m, point = m[keep], np.concatenate([st.point for st in stacks])[keep]
    block = np.repeat(np.arange(m.size), m)  # of each cell
    # the cells grouped by block and sector, so that only pairs in one sector are formed
    key = block * (na.max(initial=0) + nb.max(initial=0) + 1) + na + nb
    order = np.argsort(key, kind="stable")
    first = np.flatnonzero(np.diff(key[order], prepend=-1))
    group, i, j = _block_pairs(np.diff(np.append(first, order.size)))
    ket, bra = order[first[group] + i], order[first[group] + j]
    lower = np.flatnonzero(na[ket] >= na[bra])
    ket, bra = ket[lower], bra[lower]
    b, cell0 = block[ket], (np.cumsum(m) - m)[block[ket]]
    at = (np.cumsum(m * m) - m * m)[b] + (ket - cell0) * m[b] + bra - cell0
    return at, na[ket] - na[bra], na[bra], nb[ket], point[b]


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


def _planes(s: SpectralState, keep: np.ndarray | None = None) -> _Planes:
    """The offset planes of the sector-diagonal elements of the blocks of s that keep marks (a mask over
    its blocks laid end to end; all when None), in the blocks' dtype.

    Densities and planes past `fock.LOSS_LINE_BYTES` are refused before any
    density is formed; the boxes are counted from the kept blocks' supports.
    """
    stacks, n_max, points = s.stacks, s.n_max, s.points
    bounds = np.cumsum([0, *(len(st.na) for st in stacks)])  # each stack's blocks are keep[bounds[i]:bounds[i + 1]]
    if keep is None:
        keep = np.ones(bounds[-1], dtype=bool)
    kept = np.diff(np.cumsum(np.append(0, keep))[bounds])  # kept blocks per stack
    width = np.array([st.na.shape[1] for st in stacks], dtype=int)
    elements = kept * width * width
    if 16 * elements.sum() > LOSS_LINE_BYTES:
        raise CutoffError(f"expanding the sector blocks needs {16 * elements.sum():,} bytes for {kept @ width} lines"
                          f" of up to {width[kept > 0].max()} elements, above the line budget"
                          f" of {LOSS_LINE_BYTES:,} bytes")
    runs = [(lo, hi) for lo, hi in _passes(elements) if elements[lo:hi].any()]
    rows, cols = np.zeros(n_max + 1, dtype=int), np.zeros(n_max + 1, dtype=int)
    for lo, hi in runs:
        pairs = _lower_pairs(stacks[lo:hi], keep[bounds[lo] : bounds[hi]])
        np.maximum.at(rows, pairs[1], pairs[2] + 1)
        np.maximum.at(cols, pairs[1], pairs[3] + 1)
    dtype = np.result_type(float, *(st.vecs for st in stacks))
    cells = rows * points * cols
    nbytes = int(cells.sum()) * dtype.itemsize
    if nbytes > LOSS_LINE_BYTES:
        raise CutoffError(f"the offset planes need {nbytes:,} bytes for {np.count_nonzero(cells)} offsets of up to"
                          f" {rows.max()} x {cols.max()} elements a point, above the line budget"
                          f" of {LOSS_LINE_BYTES:,} bytes")
    start = np.cumsum(cells) - cells
    buf = np.zeros(int(cells.sum()) + 1, dtype=dtype)
    for lo, hi in runs:  # a single pass keeps its pairs from the count
        if len(runs) > 1:
            pairs = _lower_pairs(stacks[lo:hi], keep[bounds[lo] : bounds[hi]])
        at, d, u_a, u_b, point = pairs
        rho = [_block_densities(stacks[i], keep[bounds[i] : bounds[i + 1]]).ravel() for i in range(lo, hi) if kept[i]]
        rho = rho[0] if len(rho) == 1 else np.concatenate(rho)  # a dense block is not copied
        buf[start[d] + (u_a * points + point) * cols[d] + u_b] = rho[at]
    return _Planes(n_max, points, rows, cols, start, buf)


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
    cols = np.zeros((8, seg.size), dtype=planes.buf.dtype)  # L^T, a row per step
    t = 0  # every block still going has taken t steps
    while (going := np.add.reduceat(resid, head) > floor).any():
        hit = np.flatnonzero(resid == np.maximum.reduceat(resid, head)[seg])
        pivot = hit[np.searchsorted(hit, head)]  # each block's first cell of largest residual
        kj = kc[pivot][seg]
        rho_j = _stored(planes, kc, kj, nc, pc)
        if cols.dtype.kind == "c":
            rho_j = np.where(kc < kj, rho_j.conj(), rho_j)
        if t:
            rho_j -= (cols[:t] * cols[:t, pivot].conj()[:, seg]).sum(axis=0)
        if t == len(cols):
            cols = np.concatenate((cols, np.zeros_like(cols)))
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
    factor, cells = np.zeros((height.sum(), width.max()), dtype=cols.dtype), np.zeros(height.sum(), dtype=kc.dtype)
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
        block, i, j = _block_pairs(m)
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


def _weighty(s: SpectralState) -> np.ndarray:
    """A mask over the blocks of s laid end to end: those whose trace passes `SECTOR_FLOOR` of their point's."""
    if not s.stacks:
        return np.zeros(0, dtype=bool)
    point = np.concatenate([st.point for st in s.stacks])
    trace = np.concatenate([st.weights.sum(axis=1) for st in s.stacks])
    return trace > SECTOR_FLOOR * np.bincount(point, trace, s.points)[point]  # as point_traces() sums them


def _loss_sectors(s: SpectralState, coef: np.ndarray) -> SpectralState:
    """Loss on a state of sector blocks, the blocks under `SECTOR_FLOOR` dropped: X_d -> M_d X_d M_d^T.

    M_d is upper triangular, so each offset's box holds its output and no
    point's output depends on the rest of the batch.  A box of the (0, 0)
    corner alone takes the j = 0 factor coef[0, d]^2.
    """
    planes = _planes(s, _weighty(s))
    rows, cols = planes.rows, planes.cols
    corner = np.flatnonzero((rows == 1) & (cols == 1))
    planes.buf[planes.start[corner, None] + np.arange(s.points)] *= coef[0, corner, None] ** 2
    for d in np.flatnonzero(rows * cols > 1).tolist():
        a, b = rows[d], cols[d]
        box = planes.box(d).reshape(a, -1)
        mat = _loss_matrix(coef, d)
        # mode a on the real and imaginary parts as columns of their own, mode b on the rows
        half = (mat[:a, :a] @ box.view(box.real.dtype)).view(box.dtype)
        np.matmul(half.reshape(-1, b), mat[:b, :b].T, out=box.reshape(-1, b))
    return _sector_blocks(planes)


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


def _sector_diagonal(s: SpectralState) -> bool:
    """Whether every block of s has cells and lies in one sector (`BlockStack.sectors` of each stack is not
    None), tested over the stacks laid end to end rather than stack by stack."""
    widths = [st.na.shape[1] for st in s.stacks]
    if 0 in widths:
        return False
    if not widths:
        return True
    n = np.concatenate([st.na.ravel() for st in s.stacks]) + np.concatenate([st.nb.ravel() for st in s.stacks])
    m = np.repeat(widths, [len(st.na) for st in s.stacks])
    return bool((n == np.repeat(n[np.cumsum(m) - m], m)).all())


def loss_channel(s: TwoModeState | SpectralState, loss: LossSpec) -> SpectralState:
    """Equal photon loss on both modes, returned in block form.

    Raises CutoffError when the output trace of any point deviates from its
    input trace beyond 1e-8 (a truncation failure, not a rounding issue).
    """
    spec = from_pure(s) if isinstance(s, TwoModeState) else s
    t = loss.transmission
    coef = _loss_coeff_table(spec.n_max, t)
    if _sector_diagonal(spec):
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


def synthesize_heralded(alpha: float, k: int) -> tuple[TwoModeState, list]:
    """Generate the N = 2^{k+1} extended entangled state, with each round's
    (mode a, mode b) herald success probabilities.

    Starts from the modified entangled state, |C_2(alpha)>|0> + |0>|C_2(alpha)>
    normalized, which is exactly the 50:50 beam-splitter output of two
    2-headed cats |C_2(alpha/sqrt2)>: their four heads land on (+-alpha, 0)
    and (0, +-alpha).  It is built from cat amplitudes at the default
    cutoff, so the cat's own tail check catches truncation.  Then k CPS
    rounds run with varphi_j = 2*pi/2^{j+1} = pi 2^-j (which underflows to 0
    at large j rather than overflowing), heralding mode a first, then
    mode b (the fidelity targets are order independent).
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    state = extended_entangled_state(2, alpha)
    herald_probs = []
    for j in range(1, k + 1):
        outcome = cps_round_outcome(state, ldexp(pi, -j))
        herald_probs.append((outcome.herald_prob_a, outcome.herald_prob_b))
        state = outcome.state
    return state, herald_probs
