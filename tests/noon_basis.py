"""Test oracles in the noon basis, and the dense form of a block-form state.

A phase-averaged cat-based state, before and after loss, is diagonal in the
basis (|n,0> +- e^{i n phi}|0,n>)/sqrt(2); `closed_form.NoonMixture` holds
its spectral rows (n, lambda+_n, lambda-_n).  The functions here move a
`SpectralState` into and out of that form, so the tests can compare the grid
route with the analytic spectra, and sum the rows' QFI directly.  At full
transmission the rows are the sector weights of the lossless phase-averaged
state (`lossless_weights`).
"""

from math import sqrt

import numpy as np

from catqfi.channels import BlockStack, LossSpec, SpectralState
from catqfi.closed_form import NoonMixture, lossy_noon_mixture
from catqfi.fock import CutoffError

WEIGHT_FLOOR = 1e-14


class NoonSupportError(ValueError):
    """State has weight outside span{|n,0>, |0,n>} beyond tolerance."""


def _block_densities(st: BlockStack) -> np.ndarray:
    """rho of every block of a stack, on its support: (B, m, m)."""
    return (st.vecs * st.weights[:, None, :]) @ st.vecs.conj().transpose(0, 2, 1)


def to_dense(s: SpectralState) -> np.ndarray:
    """Density matrix on the flattened grid basis of a one-point state, for comparisons."""
    if s.points != 1:
        raise ValueError(f"to_dense takes one point, got a batch of {s.points}")
    dim = (s.n_max + 1) ** 2
    rho = np.zeros((dim, dim), dtype=complex)
    for st in s.stacks:
        idx = st.na * (s.n_max + 1) + st.nb
        rho[idx[:, :, None], idx[:, None, :]] += _block_densities(st)
    return rho


def lossless_weights(n_comp: int, alpha: float, n_cut: int) -> list[float]:
    """Weight of each sector n <= n_cut of the phase-averaged N-headed state: the T = 1 rows' lambda+.

    Only multiples of N are occupied, and the n = 0 entry is the whole vacuum
    weight.
    """
    return [lam_p for _, lam_p, _ in lossy_noon_mixture(n_comp, alpha, LossSpec(1.0), n_cut).rows]


def qfi_noon_mixture(mix: NoonMixture) -> float:
    """QFI under n_b of a noon-diagonal mixture: F = sum n^2 (l+ - l-)^2/(l+ + l-).

    Checked against qfi_mixed on reconstructed states in the test suite.
    """
    total = 0.0
    for n, lam_p, lam_m in mix.rows:
        pair = lam_p + lam_m
        if pair <= 0.0:
            continue
        total += n * n * (lam_p - lam_m) ** 2 / pair
    return total


def noon_mixture_to_spectral(mix: NoonMixture, n_max: int, phi: float = 0.0) -> SpectralState:
    """Rebuild the block form of a noon mixture in the phi basis: one block per row n, on {|0,n>, |n,0>}."""
    stacks = []
    for n, lam_p, lam_m in mix.rows:
        if n > n_max:
            raise CutoffError(f"mixture row n={n} exceeds n_max={n_max}")
        if n == 0:
            if lam_p > WEIGHT_FLOOR:
                stacks.append(BlockStack(np.zeros((1, 1), int), np.zeros((1, 1), int), np.array([[lam_p]]), np.ones((1, 1, 1))))
            continue
        lam = np.array([lam_p, lam_m], dtype=float)
        keep = lam > WEIGHT_FLOOR
        if not keep.any():
            continue
        ph = np.exp(1j * n * phi)
        # columns (|n,0> +- e^{i n phi}|0,n>)/sqrt2 over the cells |0,n>, |n,0>
        vecs = np.array([[ph, -ph], [1.0, 1.0]]) / sqrt(2)
        stacks.append(BlockStack(np.array([[0, n]]), np.array([[n, 0]]), lam[None, keep], vecs[None][:, :, keep]))
    return SpectralState(n_max, tuple(stacks))


def to_noon_mixture(s: SpectralState, phi: float = 0.0) -> NoonMixture:
    """Re-express a noon-span mixed state in the (|n,0> +- e^{i n phi}|0,n>) basis."""
    n_max = s.n_max
    # reduced density matrix over the noon span: index 0 is |00>, then
    # 2n-1 is |n,0> and 2n is |0,n>
    m_dim = 2 * n_max + 1
    rho = np.zeros((m_dim, m_dim), dtype=complex)
    for st in s.stacks:
        for na, nb, w, v in zip(st.na, st.nb, st.weights, st.vecs):
            on_span = (na == 0) | (nb == 0)
            p = np.abs(v) ** 2
            if np.any(p[~on_span].sum(axis=0) > 1e-8 * np.maximum(p.sum(axis=0), 1e-300)):
                raise NoonSupportError(
                    "eigenvector has more than 1e-8 weight outside the noon span"
                )
            idx = np.where(na[on_span] > 0, 2 * na[on_span] - 1, 2 * nb[on_span])
            v = v[on_span]
            rho[np.ix_(idx, idx)] += (v * w) @ v.conj().T
    rows = [(0, float(rho[0, 0].real), 0.0)]
    residual = rho.copy()
    residual[0, 0] = 0.0
    for n in range(1, n_max + 1):
        ia, ib = 2 * n - 1, 2 * n
        ph = np.exp(1j * n * phi)
        # v+- = (|n,0> +- e^{i n phi} |0,n>)/sqrt2, so
        # <v+-|rho|v+-> = (rho_aa + rho_bb)/2 +- Re(e^{i n phi} rho_ab)
        avg = 0.5 * (rho[ia, ia] + rho[ib, ib]).real
        coh = float((ph * rho[ia, ib]).real)
        rows.append((n, avg + coh, avg - coh))
        # off-diagonality in the +- basis within this sector
        residual[ia, ia] = residual[ib, ib] = 0.0
        intra = 0.5 * abs(rho[ia, ia] - rho[ib, ib]) + abs((ph * rho[ia, ib]).imag)
        residual[ia, ib] = residual[ib, ia] = intra
    off_diag = float(np.max(np.abs(residual)))
    if off_diag > 1e-8:
        raise NoonSupportError(
            f"state is not diagonal in the noon(+-, phi={phi}) basis: "
            f"residual {off_diag:.3e}"
        )
    return NoonMixture(rows=tuple(rows))
