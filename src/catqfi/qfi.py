"""Quantum Fisher information for pure and mixed two-mode states.

Pure states: F = 4 Var(n_b) for a one-arm shift e^{i phi n_b}, and
F = Var(n_b - n_a) for the symmetric two-arm shift e^{+- i phi/2 n}.

Mixed states rho(phi) = e^{iG phi} rho e^{-iG phi} at phi = 0: the engine
evaluates, per block of the state's block form, both the gap-safe double sum

    F = sum_{i,j: l_i + l_j > eps} 2 |<i| d_phi rho |j>|^2 / (l_i + l_j)

(over the block's support; null-space pairs are folded in exactly via
||P_null G v_i||^2) and the textbook eigenvector-derivative form
4 sum l_i f_i - sum_{i != j} 8 l_i l_j/(l_i+l_j) |<i'|j>|^2 with
|i'> = iG|i>.  The two must agree to 1e-8 on every block; the double-sum
value is the one returned.  Both generators are diagonal in the Fock grid,
so they never couple two blocks and F is the sum of the blocks' values
(Liu et al., J. Phys. A 53, 023001 (2020)).
"""

from __future__ import annotations

import warnings

import numpy as np

from .channels import NoonMixture, SpectralState
from .fock import TwoModeState

# Pairs with l_i + l_j at or below this contribute zero.  The double-sum
# form is stable for arbitrarily small positive pair sums (each term is
# bounded by max(l) * |G_ij|^2), so only exact zeros need guarding; a larger
# cutoff would silently drop the real contribution of feeble sectors.
EPS_PAIR = 0.0

GENERATORS = ("n_b", "half_difference")


class DegenerateSpectrumWarning(RuntimeWarning):
    """Eigenvalue gaps below 1e-10 within a block: eigenvector derivatives are ambiguous.

    The returned double-sum value is gap-safe and unaffected.
    """


def qfi_pure(s: TwoModeState, config: str = "one_mode_b") -> float:
    """QFI of a normalized pure state for the chosen phase-shift layout."""
    p = np.abs(s.amps) ** 2
    n = np.arange(s.n_max + 1, dtype=float)
    if config == "one_mode_b":
        g = np.broadcast_to(n[None, :], p.shape)
        factor = 4.0
    elif config == "two_mode_half":
        g = n[None, :] - n[:, None]
        factor = 1.0
    else:
        raise ValueError(f"config must be 'one_mode_b' or 'two_mode_half', got {config!r}")
    m1 = float(np.sum(g * p))
    m2 = float(np.sum(g * g * p))
    return factor * (m2 - m1 * m1)


def _generator_grid(n_max: int, generator: str) -> np.ndarray:
    n = np.arange(n_max + 1, dtype=float)
    if generator == "n_b":
        return np.broadcast_to(n[None, :], (n_max + 1, n_max + 1))
    if generator == "half_difference":
        return 0.5 * (n[None, :] - n[:, None])
    raise ValueError(f"generator must be one of {GENERATORS}, got {generator!r}")


def qfi_mixed(s: SpectralState, generator: str = "n_b") -> float:
    """QFI of a block-form mixed state under rho -> e^{iG phi} rho e^{-iG phi}.

    G is diagonal on the grid, so it maps each block's support into itself:
    F is the sum of the blocks' QFIs, and blocks of equal shape are
    evaluated together.
    """
    g_grid = _generator_grid(s.n_max, generator)
    total = 0.0
    for st in s.stacks:
        lam, v = st.weights, st.vecs
        ordered = np.sort(lam, axis=1)
        gaps = np.diff(ordered, axis=1)[ordered[:, :-1] > 1e-8]
        if gaps.size and float(np.min(gaps)) < 1e-10:
            warnings.warn(
                "degenerate spectrum: eigenvalue gap below 1e-10",
                DegenerateSpectrumWarning,
                stacklevel=2,
            )
        g = g_grid[st.na, st.nb]
        gv = g[:, :, None] * v
        m = np.conj(v).transpose(0, 2, 1) @ gv  # m[b, i, j] = <v_i|G|v_j> in block b
        g_norm2 = np.sum((np.abs(v) ** 2) * (g * g)[:, :, None], axis=1)
        abs_m2 = np.abs(m) ** 2

        lam_i, lam_j = lam[:, :, None], lam[:, None, :]
        pair_sum = lam_i + lam_j
        ok = (pair_sum > EPS_PAIR) & ~np.eye(lam.shape[1], dtype=bool)
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
            raise ArithmeticError(
                f"mixed-QFI forms disagree: {f_sum[bad[0]]!r} vs {f_lit[bad[0]]!r}"
            )
        total += float(np.sum(f_sum))
    return max(total, 0.0)


def qfi_noon_mixture(mix: NoonMixture) -> float:
    """Fast path for noon-diagonal mixtures: F = sum n^2 (l+ - l-)^2/(l+ + l-).

    This reduction is validated against qfi_mixed on reconstructed states in
    the test suite before being trusted anywhere.
    """
    total = 0.0
    for n, lam_p, lam_m in mix.rows:
        pair = lam_p + lam_m
        if pair <= 0.0:
            continue
        total += n * n * (lam_p - lam_m) ** 2 / pair
    return total
