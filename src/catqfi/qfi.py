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
|i'> = iG|i>.  The two must agree to 1e-8 on every block; the double-sum
value is the one returned.  Both generators are diagonal in the Fock grid,
so they never couple two blocks and F is the sum of the blocks' values
(Liu et al., J. Phys. A 53, 023001 (2020)); all blocks of a state, a
batch's too, are evaluated in one pass and their values summed per point.
"""

from __future__ import annotations

import numpy as np

from .channels import SpectralState
from .fock import TwoModeState

GENERATORS = ("n_b", "half_difference")


class DegenerateSpectrumWarning(RuntimeWarning):
    """Nothing raises this: both QFI forms in `qfi_mixed` are sums over
    eigenpairs that a rotation inside a degenerate eigenspace leaves
    unchanged.  It stays only because `perfbench/workloads.py` imports it.
    """


def qfi_pure(s: TwoModeState, generator: str = "n_b") -> float:
    """QFI 4 Var(G) of a normalized pure state under e^{iG phi}."""
    p = np.abs(s.amps) ** 2
    g = _generator_grid(s.n_max, generator)
    m1 = float(np.sum(g * p))
    m2 = float(np.sum(g * g * p))
    return 4.0 * (m2 - m1 * m1)


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
    zero vectors, which add nothing to either form.  A float for a one-point
    state, else the QFI of each point of the batch, (points,).
    """
    g_grid = _generator_grid(s.n_max, generator)
    blocks = sum(len(st.na) for st in s.stacks)
    width = max((st.na.shape[1] for st in s.stacks), default=0)
    rank = max((st.weights.shape[1] for st in s.stacks), default=0)
    lam, g, point = np.zeros((blocks, rank)), np.zeros((blocks, width)), np.zeros(blocks, dtype=int)
    v = np.zeros((blocks, width, rank), dtype=np.result_type(float, *(st.vecs for st in s.stacks)))
    lo = 0
    for st in s.stacks:
        hi, (_, cells, r) = lo + len(st.na), st.vecs.shape
        lam[lo:hi, :r], v[lo:hi, :cells, :r] = st.weights, st.vecs
        g[lo:hi, :cells], point[lo:hi] = g_grid[st.na, st.nb], st.point
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
