"""Non-unitary maps and state engineering: photon loss, phase averaging, CPS heralding.

Mixed states are kept in spectral form (weights + orthonormal pure
vectors).  Photon loss on a mode is the operator sum with Kraus operators
K_k = sqrt(R^k/k!) T^{n/2} a^k, which acts on number states as
K_k|n> = sqrt(C(n,k) R^k T^{n-k}) |n-k>; the two-mode channel applies it
independently per mode.  Completeness of the binomial sum makes the
channel exactly trace preserving on the truncated grid.

`loss_channel` picks one of three routes with the same operator-sum
semantics; the test suite cross-checks each against the dense one:

* noon span {|0,0>} u {|n,0>, |0,n>}: states there stay there, so loss
  runs in the reduced basis (2*n_max + 1 dimensional), as 2x2 blocks per
  total photon number when each term lies in one sector.  Phase-averaged
  ecs, modified, extended and noon states take this route (every lossy
  sweep row and the CLI for those families).
* sector blocks: a state whose every term lies in one total-photon sector
  (any `phase_average` output) off the noon span is held as blocks
  B[n, k, k'] with k = n_a; loss shifts the blocks and each output block
  gets its own small eigendecomposition.  Phase-averaged cat4 and coherent
  states take this route (`bench.numeric_point`, which also serves
  `catqfi qfi --family cat4|coherent --transmission`).
* dense: the full-grid operator sum and one eigendecomposition, for states
  that were not phase averaged (random or pure states, loss applied
  before averaging).  Nothing in the sweeps or the CLI reaches it.

`synthesize_heralded` is the one CPS synthesis loop (`synthesize_extended`, `catqfi synthesize`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .fock import CatSpec, CutoffError, TwoModeState, beam_splitter_5050, cat_state, default_cutoff, phase_shift

WEIGHT_FLOOR = 1e-14
_SPAN_TOL = 1e-14


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
class SpectralState:
    """Mixed two-mode state as (weight, vector) pairs with orthonormal vectors."""

    terms: tuple

    @property
    def n_max(self) -> int:
        return self.terms[0][1].n_max

    def trace(self) -> float:
        return float(sum(w for w, _ in self.terms))

    def to_dense(self) -> np.ndarray:
        """Density matrix on the flattened grid basis, for comparisons."""
        dim = (self.n_max + 1) ** 2
        rho = np.zeros((dim, dim), dtype=complex)
        for w, v in self.terms:
            flat = v.amps.ravel()
            rho += w * np.outer(flat, flat.conj())
        return rho


def from_pure(s: TwoModeState) -> SpectralState:
    return SpectralState(terms=((1.0, s),))


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
    """Rebuild the grid-basis spectral form of a noon mixture."""
    terms = []
    for n, lam_p, lam_m in mix.rows:
        if n > n_max:
            raise CutoffError(f"mixture row n={n} exceeds n_max={n_max}")
        for lam, sign in ((lam_p, 1.0), (lam_m, -1.0)):
            if lam <= WEIGHT_FLOOR or (n == 0 and sign < 0):
                continue
            amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
            if n == 0:
                amps[0, 0] = 1.0
            else:
                amps[n, 0] = 1 / sqrt(2)
                amps[0, n] = sign * np.exp(1j * n * mix.phi) / sqrt(2)
            terms.append((float(lam), TwoModeState(amps)))
    return SpectralState(terms=tuple(terms))


def _as_terms(s: TwoModeState | SpectralState):
    if isinstance(s, TwoModeState):
        return ((1.0, s),)
    return s.terms


def phase_average(s: TwoModeState | SpectralState) -> SpectralState:
    """Erase coherences between total-photon-number sectors (Eq.-(3) dephasing).

    Uniform averaging of a common phase on both modes keeps exactly the
    block-diagonal part with respect to n_a + n_b, so the output is
    assembled sector by sector; pure inputs need no diagonalization
    (each sector projection is already an eigenvector).
    """
    terms_in = _as_terms(s)
    n_max = terms_in[0][1].n_max
    out = []
    if isinstance(s, TwoModeState):
        # sector weights of a pure state are exact slice norms: keep them all,
        # however small, so that feeble high-n sectors stay verifiable
        for n in range(2 * n_max + 1):
            ks = _sector_ks(n, n_max)
            sector = s.amps[ks, n - ks]
            w = float(np.sum(np.abs(sector) ** 2))
            if w <= 0.0:
                continue
            amps = np.zeros_like(s.amps)
            amps[ks, n - ks] = sector / sqrt(w)
            out.append((w, TwoModeState(amps)))
        return SpectralState(terms=tuple(out))
    for n in range(2 * n_max + 1):
        ks = _sector_ks(n, n_max)
        cols = []
        for w, v in terms_in:
            sec = v.amps[ks, n - ks]
            if np.any(sec):
                cols.append(sqrt(w) * sec)
        if not cols:
            continue
        mat = np.stack(cols, axis=1)
        out.extend(_sector_terms(n, mat @ mat.conj().T, n_max))
    return SpectralState(terms=tuple(out))


def _sector_ks(n: int, n_max: int) -> np.ndarray:
    """Mode-a photon numbers k of the grid cells |k, n-k> in sector n."""
    return np.arange(max(0, n - n_max), min(n, n_max) + 1)


def _sector_terms(n: int, block: np.ndarray, n_max: int) -> list:
    """Spectral terms of a sector-n density block indexed by k over `_sector_ks`."""
    block_trace = float(np.trace(block).real)
    if block_trace <= 0.0:
        return []
    ks = _sector_ks(n, n_max)
    terms = []
    vals, vecs = np.linalg.eigh(block)
    for lam, col in zip(vals, vecs.T):
        # floor relative to the sector, so tiny sectors keep full precision
        if lam <= 1e-14 * block_trace:
            continue
        amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        amps[ks, n - ks] = col
        terms.append((float(lam), TwoModeState(amps)))
    return terms


# ---------------------------------------------------------------------------
# photon loss
# ---------------------------------------------------------------------------


def _loss_coeff_table(n_max: int, t: float, r: float) -> np.ndarray:
    """coef[k, m] = sqrt(C(m+k, k) R^k T^m): amplitude for |m+k> -> |m> under K_k."""
    coef = np.zeros((n_max + 1, n_max + 1))
    m = np.arange(n_max + 1, dtype=float)
    coef[0] = t ** (m / 2)
    for k in range(1, n_max + 1):
        valid = m + k <= n_max
        # C(m+k, k) = C(m+k-1, k-1) * (m+k)/k
        coef[k, valid] = coef[k - 1, valid] * np.sqrt((m[valid] + k) / k * r)
    return coef


def _noon_span_mass_outside(v: TwoModeState) -> float:
    p = np.abs(v.amps) ** 2
    total = p.sum()
    span = p[:, 0].sum() + p[0, :].sum() - p[0, 0]
    return float((total - span) / max(total, 1e-300))


def _in_noon_span(s: SpectralState) -> bool:
    return all(_noon_span_mass_outside(v) <= _SPAN_TOL for _, v in s.terms)


def _reduced_index(n_max: int, which: str) -> np.ndarray:
    """Positions of the |n,0> ('a') or |0,n> ('b') ladder in the reduced basis.

    Reduced basis layout: index 0 is |00>, then 2n-1 is |n,0> and 2n is |0,n>.
    """
    ns = np.arange(n_max + 1)
    off = 1 if which == "a" else 0
    return np.where(ns == 0, 0, 2 * ns - off)


def _photon_sector(v: TwoModeState) -> int | None:
    """Total photon number n_a + n_b of a vector, or None if it spans sectors."""
    nonzero = v.amps != 0
    count = np.count_nonzero(nonzero)
    if count == 0:
        return None
    i, j = divmod(int(nonzero.argmax()), v.n_max + 1)
    # sector i + j is diagonal n_max - (i + j) of the grid's left-right mirror
    on_sector = np.count_nonzero(nonzero[:, ::-1].diagonal(v.n_max - i - j))
    return i + j if on_sector == count else None


def _noon_term(n_max: int, n: int, lam: float, ca: complex, cb: complex):
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    if n == 0:
        amps[0, 0] = 1.0
    else:
        amps[n, 0] = ca
        amps[0, n] = cb
    return float(lam), TwoModeState(amps)


def _loss_reduced_sectorwise(s: SpectralState, sectors: list, coef: np.ndarray) -> SpectralState:
    """Loss on a state diagonal in total photon number.

    Each Kraus branch maps a sector-n vector into a single lower sector, so
    the output is block diagonal with 2x2 blocks over {|m,0>, |0,m>}; the
    blocks are diagonalized individually, which keeps tiny sectors at full
    relative precision instead of drowning them in the noise floor of one
    big eigendecomposition.
    """
    n_max = s.n_max
    blocks = np.zeros((n_max + 1, 2, 2), dtype=complex)
    vacuum = 0.0
    for (w, v), n in zip(s.terms, sectors):
        if n == 0:
            vacuum += w * abs(v.amps[0, 0]) ** 2
            continue
        va, vb = v.amps[n, 0], v.amps[0, n]
        u = sqrt(w) * coef[0, n] * np.array([va, vb])
        blocks[n] += np.outer(u, u.conj())
        for k in range(1, n + 1):
            m = n - k
            c2 = w * coef[k, m] ** 2
            if m == 0:
                vacuum += c2 * (abs(va) ** 2 + abs(vb) ** 2)
            else:
                blocks[m, 0, 0] += c2 * abs(va) ** 2
                blocks[m, 1, 1] += c2 * abs(vb) ** 2
    terms = []
    if vacuum > 0.0:
        terms.append(_noon_term(n_max, 0, vacuum, 1.0, 0.0))
    for m in range(1, n_max + 1):
        block = blocks[m]
        tr = float(block[0, 0].real + block[1, 1].real)
        if tr <= 0.0:
            continue
        vals, vecs = np.linalg.eigh(block)
        for lam, col in zip(vals, vecs.T):
            if lam <= 1e-15 * tr:
                continue
            terms.append(_noon_term(n_max, m, lam, col[0], col[1]))
    return SpectralState(terms=tuple(terms))


def _loss_sector_blocks(s: SpectralState, sectors: list, coef: np.ndarray) -> SpectralState:
    """Loss on a state diagonal in total photon number, off the noon span.

    The state is held as blocks B[n, k, k'] of |k, n-k><k', n-k'| (k = n_a).
    Losing j photons from mode a maps block n to n-j and shifts both k
    indices by j; losing them from mode b maps n to n-j with k fixed.  Each
    Kraus index is one shifted multiply-add over all blocks, and each output
    block is diagonalized on its own, as in `phase_average`.
    """
    n_max = s.n_max
    n_sec = 2 * n_max + 1
    k = np.arange(n_max + 1)
    blocks = np.zeros((n_sec, n_max + 1, n_max + 1), dtype=complex)
    for (w, v), n in zip(s.terms, sectors):
        ks = _sector_ks(n, n_max)
        u = np.zeros(n_max + 1, dtype=complex)
        u[ks] = v.amps[ks, n - ks]
        blocks[n] += w * np.outer(u, u.conj())
    lost_a = np.zeros_like(blocks)
    for j in range(n_max + 1):
        # |k, n-k> -> |k-j, n-k>: weight coef[j, k-j]
        c = coef[j, : n_max + 1 - j]
        lost_a[: n_sec - j, : n_max + 1 - j, : n_max + 1 - j] += np.outer(c, c) * blocks[j:, j:, j:]
    lost = np.zeros_like(blocks)
    m = np.arange(n_sec)[:, None]
    for j in range(n_max + 1):
        # |k, n-k> -> |k, n-j-k>: weight coef[j, n-j-k], zero off the grid
        d = m[: n_sec - j] - k
        c = np.where((d >= 0) & (d <= n_max), coef[j, np.clip(d, 0, n_max)], 0.0)
        lost[: n_sec - j] += c[:, :, None] * c[:, None, :] * lost_a[j:]
    terms = []
    for n in range(n_sec):
        ks = _sector_ks(n, n_max)
        terms.extend(_sector_terms(n, lost[n][np.ix_(ks, ks)], n_max))
    return SpectralState(terms=tuple(terms))


def _loss_reduced(s: SpectralState, coef: np.ndarray) -> SpectralState:
    """Operator sum restricted to the loss-invariant noon span.

    Only Kraus branches (k,0) and (0,l) act nontrivially there: losing
    photons from one mode annihilates the opposite ladder, while the
    no-loss branch (0,0) damps the whole vector coherently.
    """
    n_max = s.n_max
    m_dim = 2 * n_max + 1
    idx_a = _reduced_index(n_max, "a")
    idx_b = _reduced_index(n_max, "b")
    cols = []
    for w, v in s.terms:
        va = v.amps[:, 0].copy()
        vb = v.amps[0, :].copy()
        vb[0] = 0.0  # vacuum amplitude kept on the a-ladder only
        sw = sqrt(w)
        col0 = np.zeros(m_dim, dtype=complex)
        col0[idx_a] = va * coef[0]
        col0[idx_b[1:]] = vb[1:] * coef[0, 1:]
        cols.append(sw * col0)
        for k in range(1, n_max + 1):
            for ladder, idx in ((va, idx_a), (vb, idx_b)):
                shifted = ladder[k:] * coef[k, : n_max + 1 - k]
                if not np.any(shifted):
                    continue
                col = np.zeros(m_dim, dtype=complex)
                col[idx[: len(shifted)]] = shifted
                cols.append(sw * col)
    w_mat = np.stack(cols, axis=1)
    rho = w_mat @ w_mat.conj().T
    vals, vecs = np.linalg.eigh(rho)
    terms = []
    for lam, col in zip(vals[::-1], vecs.T[::-1]):
        if lam <= WEIGHT_FLOOR:
            continue
        amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
        amps[0, 0] = col[0]
        ns = np.arange(1, n_max + 1)
        amps[ns, 0] = col[2 * ns - 1]
        amps[0, ns] = col[2 * ns]
        terms.append((float(lam), TwoModeState(amps)))
    return SpectralState(terms=tuple(terms))


def _loss_dense(s: SpectralState, t: float, r: float) -> SpectralState:
    n_max = s.n_max
    dim = (n_max + 1) ** 2
    coef = _loss_coeff_table(n_max, t, r)
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
    w_mat = np.stack(cols, axis=1)
    rho = w_mat @ w_mat.conj().T
    vals, vecs = np.linalg.eigh(rho)
    terms = []
    for lam, col in zip(vals[::-1], vecs.T[::-1]):
        if lam <= WEIGHT_FLOOR:
            continue
        terms.append((float(lam), TwoModeState(col.reshape(n_max + 1, n_max + 1))))
    return SpectralState(terms=tuple(terms))


def loss_channel(s: TwoModeState | SpectralState, loss: LossSpec) -> SpectralState:
    """Equal photon loss on both modes, returned in spectral form.

    Raises CutoffError when the output trace deviates from the input trace
    beyond 1e-8 (a truncation failure, not a rounding issue).
    """
    spec = from_pure(s) if isinstance(s, TwoModeState) else s
    if loss.transmission == 1.0:
        return spec
    t, r = loss.transmission, loss.reflectance
    coef = _loss_coeff_table(spec.n_max, t, r)
    sectors = [_photon_sector(v) for _, v in spec.terms]
    sector_diagonal = all(n is not None for n in sectors)
    if _in_noon_span(spec):
        if sector_diagonal:
            out = _loss_reduced_sectorwise(spec, sectors, coef)
        else:
            out = _loss_reduced(spec, coef)
    elif sector_diagonal:
        out = _loss_sector_blocks(spec, sectors, coef)
    else:
        out = _loss_dense(spec, t, r)
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
    for _, v in s.terms:
        if _noon_span_mass_outside(v) > 1e-8:
            raise NoonSupportError(
                "eigenvector has more than 1e-8 weight outside the noon span"
            )
    n_max = s.n_max
    # reduced density matrix over {|00>, |n,0>, |0,n>}
    m_dim = 2 * n_max + 1
    rho = np.zeros((m_dim, m_dim), dtype=complex)
    ns = np.arange(1, n_max + 1)
    for w, v in s.terms:
        col = np.zeros(m_dim, dtype=complex)
        col[0] = v.amps[0, 0]
        col[2 * ns - 1] = v.amps[ns, 0]
        col[2 * ns] = v.amps[0, ns]
        rho += w * np.outer(col, col.conj())
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
