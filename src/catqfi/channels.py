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

`loss_channel` has two routes with the same operator-sum semantics; the
test suite cross-checks them:

* sector blocks: every block lies in one sector (any `phase_average`
  output, a noon state).  The kernel works on the nonzero density elements
  (n, k, k') with k = n_a: losing j photons from mode a maps one to
  (n-j, k-j, k'-j), losing l from mode b maps it to (n-l, k, k').  Each
  output sector is diagonalized on its support, in batches of equal support
  size.  Every sweep row, `verify` and the CLI take this route.
* dense: the full operator sum over the cells the Kraus branches touch and
  one eigendecomposition, returned as one block.  It serves states that were
  not phase averaged (random or pure states, loss applied before averaging),
  which only the tests and the benchmark's loss-before-averaging reference
  pass in.

`synthesize_heralded` is the one CPS synthesis loop (`synthesize_extended`, `catqfi synthesize`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from math import pi, sqrt

import numpy as np

from .fock import CatSpec, CutoffError, TwoModeState, beam_splitter_5050, cat_state, default_cutoff, phase_shift

WEIGHT_FLOOR = 1e-14
# eigenvalues at or below this fraction of their block's trace are dropped, so
# that tiny sectors keep full relative precision
BLOCK_FLOOR = 1e-14


class NoonSupportError(ValueError):
    """State has weight outside span{|n,0>, |0,n>} beyond tolerance."""


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
    orthonormal eigenvectors restricted to those cells.
    """

    na: np.ndarray
    nb: np.ndarray
    weights: np.ndarray
    vecs: np.ndarray

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

    The blocks' supports are pairwise disjoint.
    """

    n_max: int
    stacks: tuple

    @property
    def terms(self) -> Sequence:
        """Every (weight, eigenvector) pair, the vector on the full grid: a view for inspection."""
        return _Terms(self)

    def trace(self) -> float:
        return float(sum(st.weights.sum() for st in self.stacks))

    def to_dense(self) -> np.ndarray:
        """Density matrix on the flattened grid basis, for comparisons."""
        dim = (self.n_max + 1) ** 2
        rho = np.zeros((dim, dim), dtype=complex)
        for st in self.stacks:
            idx = st.na * (self.n_max + 1) + st.nb
            rho[idx[:, :, None], idx[:, None, :]] += _block_densities(st)
        return rho


def _block_densities(st: BlockStack) -> np.ndarray:
    """rho of every block of a stack on its support: (B, m, m)."""
    return (st.vecs * st.weights[:, None, :]) @ np.conj(st.vecs).transpose(0, 2, 1)


def from_pure(s: TwoModeState) -> SpectralState:
    na, nb = np.nonzero(s.amps)
    stack = BlockStack(na[None], nb[None], np.ones((1, 1)), s.amps[na, nb][None, :, None])
    return SpectralState(s.n_max, (stack,) if na.size else ())


@dataclass(frozen=True)
class NoonMixture:
    """Mixture diagonal in the basis (|n,0> +- e^{i n phi}|0,n>)/sqrt(2).

    rows holds (n, lambda+_n, lambda-_n); the n = 0 row carries the whole
    vacuum weight in lambda+ (lambda- pairs with a zero vector there).
    """

    rows: tuple | list
    phi: float = 0.0

    def trace(self) -> float:
        return float(sum(lp + lm for _, lp, lm in self.rows))


def noon_mixture_to_spectral(mix: NoonMixture, n_max: int) -> SpectralState:
    """Rebuild the block form of a noon mixture: one block per row n, on {|0,n>, |n,0>}."""
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
        ph = np.exp(1j * n * mix.phi)
        # columns (|n,0> +- e^{i n phi}|0,n>)/sqrt2 over the cells |0,n>, |n,0>
        vecs = np.array([[ph, -ph], [1.0, 1.0]]) / sqrt(2)
        stacks.append(BlockStack(np.array([[0, n]]), np.array([[n, 0]]), lam[None, keep], vecs[None][:, :, keep]))
    return SpectralState(n_max, tuple(stacks))


def phase_average(s: TwoModeState | SpectralState) -> SpectralState:
    """Erase coherences between total-photon-number sectors (Eq.-(3) dephasing).

    Uniform averaging of a common phase on both modes keeps exactly the
    block-diagonal part with respect to n_a + n_b, so the output is one
    block per sector; pure inputs need no diagonalization (each sector
    projection is already an eigenvector).
    """
    if isinstance(s, SpectralState):
        return _sector_state(*_sector_elements(s.stacks), s.n_max)
    # sector weights of a pure state are exact slice norms: keep them all,
    # however small, so that feeble high-n sectors stay verifiable
    p = np.abs(s.amps) ** 2
    na, nb = np.nonzero(p)
    n = na + nb
    order = np.lexsort((na, n))
    na, nb, n = na[order], nb[order], n[order]
    weights = np.bincount(n, p[na, nb])
    m_of = np.bincount(n)
    stacks = []
    for m in np.unique(m_of[m_of > 0]):
        cells = m_of[n] == m
        ka, kb = na[cells].reshape(-1, m), nb[cells].reshape(-1, m)
        w = weights[ka[:, 0] + kb[:, 0]]
        vecs = s.amps[ka, kb] / np.sqrt(w)[:, None]
        stacks.append(BlockStack(ka, kb, w[:, None], vecs[:, :, None]))
    return SpectralState(s.n_max, tuple(stacks))


def _sector_elements(stacks) -> list:
    """Elements (n, k, k', value) = <k, n-k|rho|k', n-k'> of rho's sector-diagonal part (k = n_a).

    Only nonzero elements are listed.
    """
    parts = []
    for st in stacks:
        rho = _block_densities(st)
        n = st.na + st.nb
        b, i, j = np.nonzero((n[:, :, None] == n[:, None, :]) & (rho != 0))
        parts.append((n[b, i], st.na[b, i], st.na[b, j], rho[b, i, j]))
    if not parts:
        return [np.zeros(0, int)] * 3 + [np.zeros(0, complex)]
    return [np.concatenate(p) for p in zip(*parts)]


def _sector_state(n, k, kp, val, n_max: int) -> SpectralState:
    """Block form of a sector-diagonal density given by its elements (repeated ones add).

    Each sector's support is the cells with a nonzero diagonal; its block is
    diagonalized there, in batches of sectors with equal support size.
    """
    size, n_sec = n_max + 1, 2 * n_max + 1
    diag = k == kp
    occupied = np.bincount(n[diag] * size + k[diag], val[diag].real, n_sec * size).reshape(n_sec, size) > 0
    inside = occupied[n, k] & occupied[n, kp]
    n, k, kp, val = n[inside], k[inside], kp[inside], val[inside]
    m_of = occupied.sum(axis=1)
    m_max = int(m_of.max(initial=0))
    local = np.cumsum(occupied, axis=1) - 1  # position of cell k in its sector's support
    flat = (n * m_max + local[n, k]) * m_max + local[n, kp]
    length = n_sec * m_max * m_max
    padded = (np.bincount(flat, val.real, length) + 1j * np.bincount(flat, val.imag, length)).reshape(
        n_sec, m_max, m_max
    )
    stacks = []
    for m in np.unique(m_of[m_of > 0]):
        sectors = np.flatnonzero(m_of == m)
        batch = padded[sectors, :m, :m]
        vals, vecs = np.linalg.eigh(batch)
        # eigh sorts ascending, so the kept eigenvalues are each block's largest
        rank = np.sum(vals > BLOCK_FLOOR * np.trace(batch, axis1=1, axis2=2).real[:, None], axis=1)
        ks = np.nonzero(occupied[sectors])[1].reshape(-1, m)
        for r in np.unique(rank[rank > 0]):
            sel = rank == r
            stacks.append(BlockStack(ks[sel], sectors[sel, None] - ks[sel], vals[sel, m - r :], vecs[sel, :, m - r :]))
    return SpectralState(n_max, tuple(stacks))


# ---------------------------------------------------------------------------
# photon loss
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _loss_coeff_table(n_max: int, t: float) -> np.ndarray:
    """coef[k, m] = sqrt(C(m+k, k) R^k T^m): amplitude for |m+k> -> |m> under K_k (read only)."""
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


def _lose(n, k, kp, val, coef: np.ndarray, mode: str):
    """Loss on one mode of sector-diagonal elements: every Kraus index j at once, outputs unsummed."""
    # photons in the lossy mode on the ket and the bra side
    top, top_p = (k, kp) if mode == "a" else (n - k, n - kp)
    reps = np.minimum(top, top_p) + 1
    src = np.repeat(np.arange(val.size), reps)
    j = np.arange(src.size) - np.repeat(np.cumsum(reps) - reps, reps)
    val = val[src] * coef[j, top[src] - j] * coef[j, top_p[src] - j]
    if mode == "a":
        return n[src] - j, k[src] - j, kp[src] - j, val
    return n[src] - j, k[src], kp[src], val


def _summed(n, k, kp, val, n_max: int):
    """Elements with repeated (n, k, k') added and zeros dropped."""
    size = n_max + 1
    key, where = np.unique((n * size + k) * size + kp, return_inverse=True)
    val = np.bincount(where, val.real, key.size) + 1j * np.bincount(where, val.imag, key.size)
    key, val = key[val != 0], val[val != 0]
    nk, kp = np.divmod(key, size)
    n, k = np.divmod(nk, size)
    return n, k, kp, val


def _loss_sectors(s: SpectralState, coef: np.ndarray) -> SpectralState:
    """Loss on a state of sector blocks: mode a, then mode b, on the nonzero elements."""
    n_max = s.n_max
    lost_a = _summed(*_lose(*_sector_elements(s.stacks), coef, "a"), n_max)
    return _sector_state(*_lose(*lost_a, coef, "b"), n_max)


def _loss_dense(s: SpectralState, coef: np.ndarray) -> SpectralState:
    """Loss on any state: every Kraus branch of every eigenvector, one eigendecomposition."""
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

    Raises CutoffError when the output trace deviates from the input trace
    beyond 1e-8 (a truncation failure, not a rounding issue).
    """
    spec = from_pure(s) if isinstance(s, TwoModeState) else s
    t = loss.transmission
    coef = _loss_coeff_table(spec.n_max, t)
    if all(st.sectors is not None for st in spec.stacks):
        out = _loss_sectors(spec, coef)
    else:
        out = _loss_dense(spec, coef)
    if abs(out.trace() - spec.trace()) > 1e-8:
        raise CutoffError(
            f"trace loss: {spec.trace():.12f} -> {out.trace():.12f} under T={t}"
        )
    return out


# ---------------------------------------------------------------------------
# noon-basis spectral rows
# ---------------------------------------------------------------------------


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
    return NoonMixture(rows=tuple(rows), phi=phi)


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


def cps_round(s: TwoModeState, varphi: float) -> TwoModeState:
    return cps_round_outcome(s, varphi).state


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


def synthesize_extended(alpha: float, k: int, n_max: int | None = None) -> TwoModeState:
    """The state of `synthesize_heralded` without the herald probabilities."""
    return synthesize_heralded(alpha, k, n_max)[0]
