"""Quantum Fisher information for pure and mixed two-mode states.

Both states take one of two generators G, the phase shift e^{iG phi}:
n_b, the one-arm shift, and half_difference = (n_b - n_a)/2, the symmetric
two-arm shift e^{+- i phi/2 n}.  A pure state has F = 4 Var(G).

Mixed states rho(phi) = e^{iG phi} rho e^{-iG phi} at phi = 0: the engine
evaluates, per block of the state's block form, both the gap-safe double sum

    F = sum_{i,j: l_i + l_j > eps} 2 |<i| d_phi rho |j>|^2 / (l_i + l_j)

(over the block's support; null-space pairs are folded in exactly via
||P_null G v_i||^2) and the textbook eigenvector-derivative form
4 sum l_i f_i - sum_{i != j} 8 l_i l_j/(l_i+l_j) |<i'|j>|^2 with
|i'> = iG|i>.  <i| d_phi rho |j> is (l_j - l_i) <i|G|j>, or, for a block that
keeps its density (`channels.BlockStack`), the element of V^H D V with
D = (g_x - g_y) rho_xy, which keeps the digits of a small coherence that the
difference of two nearly equal eigenvalues loses.  The two forms must agree
to 1e-8 (absolute below F = 1) on every block; the double-sum value is the
one returned.  Both generators are diagonal in the Fock grid,
so they never couple two blocks and F is the sum of the blocks' values
(Liu et al., J. Phys. A 53, 023001 (2020)); all blocks of a state, a
batch's too, are evaluated in one pass and their values summed per point.
"""

from __future__ import annotations

import numpy as np

from .channels import SpectralState
from .fock import LOSS_LINE_BYTES, CutoffError, TwoModeState

GENERATORS = ("n_b", "half_difference")


class DegenerateSpectrumWarning(RuntimeWarning):
    """Nothing raises this: both QFI forms in `qfi_mixed` are sums over
    eigenpairs that a rotation inside a degenerate eigenspace leaves
    unchanged.  It stays only because `perfbench/workloads.py` imports it.
    """


def qfi_pure_grids(grids: np.ndarray, generator: str = "n_b") -> np.ndarray:
    """QFI 4 Var(G) of each normalized pure state of a stack (n_a, point, n_b) under e^{iG phi}: (points,)."""
    g = _generator_grid(grids.shape[0] - 1, generator).ravel()
    # each point's grid laid out whole, so that its sums run as np.sum runs them on the grid alone
    p = np.ascontiguousarray(np.abs(grids.transpose(1, 0, 2)) ** 2).reshape(grids.shape[1], -1)
    m1 = (g * p).sum(axis=1)
    m2 = (g * g * p).sum(axis=1)
    return 4.0 * (m2 - m1 * m1)


def qfi_pure(s: TwoModeState, generator: str = "n_b") -> float:
    """QFI 4 Var(G) of a normalized pure state under e^{iG phi}: `qfi_pure_grids` at one point."""
    return float(qfi_pure_grids(s.amps[:, None], generator)[0])


def _generator_grid(n_max: int, generator: str) -> np.ndarray:
    n = np.arange(n_max + 1, dtype=float)
    if generator == "n_b":
        return np.broadcast_to(n[None, :], (n_max + 1, n_max + 1))
    if generator == "half_difference":
        return 0.5 * (n[None, :] - n[:, None])
    raise ValueError(f"generator must be one of {GENERATORS}, got {generator!r}")


def qfi_mixed(s: SpectralState, generator: str = "n_b") -> float | np.ndarray:
    """QFI of a block-form mixed state under rho -> e^{iG phi} rho e^{-iG phi}.

    G is diagonal on the grid, so it maps each block's support into itself:
    F is the sum of the blocks' QFIs.  Every block is evaluated in one pass,
    the stacks padded to the largest support and rank with zero weights and
    zero vectors, which add nothing to either form; the padded eigenvectors
    are refused above `fock.LOSS_LINE_BYTES` before they are allocated.  A
    float for a one-point state, else the QFI of each point of the batch,
    (points,).
    """
    if generator not in GENERATORS:
        raise ValueError(f"generator must be one of {GENERATORS}, got {generator!r}")
    blocks = sum(len(st.na) for st in s.stacks)
    width = max((st.na.shape[1] for st in s.stacks), default=0)
    rank = max((st.weights.shape[1] for st in s.stacks), default=0)
    dtype = np.result_type(float, *(st.vecs for st in s.stacks))
    if (nbytes := blocks * width * rank * dtype.itemsize) > LOSS_LINE_BYTES:
        raise CutoffError(f"the padded QFI blocks need {nbytes:,} bytes for {blocks} x {width} x {rank} elements,"
                          f" above the line budget of {LOSS_LINE_BYTES:,} bytes")
    lam, g, point = np.zeros((blocks, rank)), np.zeros((blocks, width)), np.zeros(blocks, dtype=int)
    v = np.zeros((blocks, width, rank), dtype=dtype)
    lo, kept = 0, []  # kept: (first block, stack) of the stacks that keep their density
    for st in s.stacks:
        hi, (_, cells, r) = lo + len(st.na), st.vecs.shape
        lam[lo:hi, :r], v[lo:hi, :cells, :r] = st.weights, st.vecs
        g[lo:hi, :cells], point[lo:hi] = st.nb if generator == "n_b" else 0.5 * (st.nb - st.na), st.point
        if st.density is not None:
            kept.append((lo, st))
        lo = hi

    gv = g[:, :, None] * v
    m = np.conj(v).transpose(0, 2, 1) @ gv  # m[b, i, j] = <v_i|G|v_j> in block b
    g_norm2 = np.sum((np.abs(v) ** 2) * (g * g)[:, :, None], axis=1)
    abs_m2 = np.abs(m) ** 2

    lam_i, lam_j = lam[:, :, None], lam[:, None, :]
    pair_sum = lam_i + lam_j
    # pairs with l_i + l_j <= 0 contribute zero.  The double-sum form is stable for
    # arbitrarily small positive pair sums (each term is bounded by max(l) * |G_ij|^2),
    # so only exact zeros need guarding; a positive cutoff would silently drop the
    # real contribution of feeble sectors
    ok = (pair_sum > 0) & ~np.eye(rank, dtype=bool)
    with np.errstate(invalid="ignore", divide="ignore"):
        f_pairs = np.sum(np.where(ok, 2.0 * (lam_i - lam_j) ** 2 * abs_m2 / pair_sum, 0.0), axis=(1, 2))
    # null space of the block: what of G v_i its eigenvectors do not span
    null_res = g_norm2 - np.sum(abs_m2, axis=1)
    f_null = np.sum(4.0 * lam * np.clip(null_res, 0.0, None), axis=1)
    f_sum = f_pairs + f_null
    if kept:
        # a block that keeps its density takes <i|[G, rho]|j> = (V^H D V)_ij, D = (g_x - g_y) rho_xy, for
        # (l_j - l_i) <i|G|j>, whose eigenvalue difference keeps only about |rho_xy|/l of its digits in a
        # nearly decohered block, and its null term from the residual vectors (1 - P) G v_i
        at = np.concatenate([lo + np.arange(len(st.na)) for lo, st in kept])
        cells = max(st.density.shape[1] for _, st in kept)
        rho = np.zeros((at.size, cells, cells), dtype=np.result_type(*(st.density for _, st in kept)))
        lo = 0
        for _, st in kept:
            hi, k = lo + len(st.na), st.density.shape[1]
            rho[lo:hi, :k, :k] = st.density
            lo = hi
        g_d, v_d = g[at, :cells], v[at, :cells]
        c = np.conj(v_d).transpose(0, 2, 1) @ ((g_d[:, :, None] - g_d[:, None, :]) * rho) @ v_d
        residual = gv[at] - v[at] @ m[at]
        with np.errstate(invalid="ignore", divide="ignore"):
            pairs = np.where(ok[at], 2.0 * np.abs(c) ** 2 / pair_sum[at], 0.0)
        f_sum[at] = pairs.sum(axis=(1, 2)) + 4.0 * np.sum(lam[at] * np.sum(np.abs(residual) ** 2, axis=1), axis=1)

    # literal eigen-decomposition form, as a built-in consistency check;
    # ||G v_i||^2 already counts the null-space components of G v_i
    f_i = g_norm2 - np.abs(np.diagonal(m, axis1=1, axis2=2)) ** 2
    with np.errstate(invalid="ignore", divide="ignore"):
        cross = np.where(ok, 8.0 * lam_i * lam_j * abs_m2 / pair_sum, 0.0)
    f_lit = 4.0 * np.sum(lam * f_i, axis=1) - np.sum(cross, axis=(1, 2))
    bad = np.flatnonzero(np.abs(f_sum - f_lit) > 1e-8 * np.maximum(1.0, np.abs(f_sum)))
    if bad.size:
        raise ArithmeticError(f"mixed-QFI forms disagree: {f_sum[bad[0]]!r} vs {f_lit[bad[0]]!r}")
    # each point's blocks are added in order, whatever else the batch holds
    totals = np.maximum(np.bincount(point, f_sum, s.points), 0.0)
    return float(totals[0]) if s.points == 1 else totals
