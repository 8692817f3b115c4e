"""Channel tests: photon loss, phase averaging, noon-basis rows (tests/noon_basis.py), CPS heralding."""

import tracemalloc
from dataclasses import replace
from math import exp, pi, sqrt

import numpy as np
import pytest

from catqfi import bench, channels
from catqfi import closed_form as cf
from catqfi.channels import (
    BlockStack,
    LossSpec,
    SpectralState,
    _loss_coeff_table,
    _loss_dense,
    cps_round_outcome,
    from_pure,
    loss_channel,
    phase_average,
    synthesize_heralded,
)
from catqfi.fock import (
    CatSpec,
    CutoffError,
    TwoModeState,
    beam_splitter_5050,
    cat_state,
    coherent,
    default_cutoff,
    extended_entangled_state,
    fidelity,
    noon_state,
    product_state,
)
from catqfi.qfi import qfi_mixed
from noon_basis import NoonSupportError, lossless_weights, noon_mixture_to_spectral, to_dense, to_noon_mixture

RNG = np.random.default_rng(20250808)


def random_state(n_max: int) -> TwoModeState:
    amps = RNG.normal(size=(n_max + 1, n_max + 1)) + 1j * RNG.normal(size=(n_max + 1, n_max + 1))
    return TwoModeState(amps).normalize()


def dense(s: SpectralState) -> np.ndarray:
    return to_dense(s)


def blocks(s: SpectralState):
    """(na, nb, weights, vecs) of every block, unstacked."""
    for st in s.stacks:
        yield from zip(st.na, st.nb, st.weights, st.vecs)


def block(na, nb, weights, vecs) -> BlockStack:
    """A stack of one block on the cells |na[i], nb[i]>."""
    return BlockStack(np.array([na]), np.array([nb]), np.array([weights], dtype=float), np.array([vecs], dtype=complex))


def sector_weights(s: SpectralState) -> dict:
    """Total weight per photon-number sector; every block must lie in one sector."""
    weights = {}
    for st in s.stacks:
        assert st.sectors is not None
        for n, w in zip(st.sectors, st.weights.sum(axis=1)):
            weights[int(n)] = weights.get(int(n), 0.0) + w
    return weights


def dense_loss(s, t: float) -> SpectralState:
    return _loss_dense(s, _loss_coeff_table(s.n_max, t))


def cat4_pure(alpha: float, beta: float, n_max: int) -> TwoModeState:
    """4-headed cat and coherent state through the 50:50 beam splitter (Fig. 1 input)."""
    return beam_splitter_5050(
        cat_state(CatSpec(4, alpha / sqrt(2)), n_max), coherent(beta / sqrt(2), n_max)
    ).normalize()


def rows_dict(mix):
    return {n: (lp, lm) for n, lp, lm in mix.rows}


# ---------------------------------------------------------------------------
# loss channel
# ---------------------------------------------------------------------------


def test_loss_identity_at_full_transmission():
    # both routes run at T = 1: the pure state (dense) and its phase average (sector blocks)
    state = extended_entangled_state(2, 1.0)
    out = loss_channel(state, LossSpec(1.0))
    [(na, nb, w, vecs)] = blocks(out)
    assert w.shape == (1,)
    assert w[0] == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(state.amps[na, nb], vecs[:, 0])) ** 2 > 1 - 1e-12
    averaged = phase_average(state)
    assert np.max(np.abs(dense(loss_channel(averaged, LossSpec(1.0))) - dense(averaged))) < 1e-14


def test_loss_coherent_stays_coherent():
    alpha, t = 1.2, 0.64
    state = product_state(coherent(alpha, 40), coherent(0.0, 40))
    out = loss_channel(state, LossSpec(t))
    assert out.trace() == pytest.approx(1.0, abs=1e-10)
    na, nb, w, vecs = max(blocks(out), key=lambda b: b[2].max())
    top = np.argmax(w)
    assert w[top] == pytest.approx(1.0, abs=1e-10)
    target = product_state(coherent(sqrt(t) * alpha, 40), coherent(0.0, 40))
    assert abs(np.vdot(target.amps[na, nb], vecs[:, top])) ** 2 > 1 - 1e-12


def test_loss_trace_preserving_on_random_states():
    for _ in range(20):
        state = random_state(10)
        out = loss_channel(state, LossSpec(0.8))
        assert out.trace() == pytest.approx(1.0, abs=1e-10)
        assert all(np.all(st.weights >= -1e-14) for st in out.stacks)


def test_loss_semigroup_composition():
    t1, t2 = 0.9, 0.8
    for _ in range(3):
        state = random_state(8)
        two_step = loss_channel(loss_channel(state, LossSpec(t2)), LossSpec(t1))
        one_step = loss_channel(state, LossSpec(t1 * t2))
        assert np.max(np.abs(dense(two_step) - dense(one_step))) < 1e-8


def test_loss_reduced_path_matches_dense_route():
    # on the noon span (phase-averaged extended states) the sector-block
    # kernel must reproduce the generic operator sum + eigendecomposition
    for n in (1, 2, 4):
        state = phase_average(extended_entangled_state(n, 1.0, 24))
        assert all(st.sectors is not None for st in state.stacks)
        out_blocks = loss_channel(state, LossSpec(0.9))
        out_dense = dense_loss(state, 0.9)
        assert np.max(np.abs(dense(out_blocks) - dense(out_dense))) < 1e-12


def test_loss_sector_blocks_match_dense_route():
    # phase-averaged cat4 is sector diagonal but off the noon span
    state = phase_average(cat4_pure(1.0, 0.25, 14))
    assert any(np.any((na > 0) & (nb > 0)) for na, nb, _, _ in blocks(state))
    assert all(st.sectors is not None for st in state.stacks)
    out_blocks = loss_channel(state, LossSpec(0.9))
    out_dense = dense_loss(state, 0.9)
    assert np.max(np.abs(dense(out_blocks) - dense(out_dense))) < 1e-12


def test_terms_view_expands_blocks_to_the_grid():
    state = loss_channel(phase_average(cat4_pure(1.0, 0.5, 14)), LossSpec(0.8))
    terms = list(state.terms)
    assert len(terms) == len(state.terms) == sum(st.weights.size for st in state.stacks)
    rebuilt = sum(w * np.outer(v.amps.ravel(), v.amps.ravel().conj()) for w, v in terms)
    assert np.max(np.abs(rebuilt - dense(state))) < 1e-14


def test_photon_sector_of_vectors():
    def stack(*cells):
        na, nb = (np.array([[c[i] for c in cells]], dtype=int).reshape(1, len(cells)) for i in (0, 1))
        return BlockStack(na, nb, np.ones((1, 1)), np.ones((1, len(cells), 1)))

    assert stack().sectors is None
    assert stack((0, 0)).sectors.tolist() == [0]
    assert stack((1, 1), (2, 0), (0, 2)).sectors.tolist() == [2]
    assert stack((4, 4), (3, 4)).sectors is None
    assert stack((4, 4)).sectors.tolist() == [8]
    assert stack((1, 0), (0, 2)).sectors is None
    two = BlockStack(np.array([[0, 1], [0, 3]]), np.array([[1, 0], [3, 0]]), np.ones((2, 1)), np.ones((2, 2, 1)))
    assert two.sectors.tolist() == [1, 3]
    # loss takes the sector route when every stack has sectors, a test made over all stacks at once
    for stacks in [(), (two,), (two, stack((0, 0))), (two, stack((1, 0), (0, 2))), (stack(), two)]:
        state = SpectralState(4, stacks)
        assert channels._sector_diagonal(state) == all(st.sectors is not None for st in stacks)


def test_loss_sector_blocks_keep_trace_and_sectors():
    state = phase_average(cat4_pure(1.0, 0.7, 14))
    out = loss_channel(state, LossSpec(0.8))
    assert out.trace() == pytest.approx(state.trace(), abs=1e-12)
    assert all(st.sectors is not None for st in out.stacks)
    n_tot = np.indices((15, 15)).sum(axis=0).ravel()
    assert np.all(dense(out)[n_tot[:, None] != n_tot[None, :]] == 0.0)


def test_loss_sector_blocks_semigroup():
    state = phase_average(cat4_pure(1.0, 0.5, 14))
    two_step = loss_channel(loss_channel(state, LossSpec(0.8)), LossSpec(0.9))
    one_step = loss_channel(state, LossSpec(0.72))
    assert np.max(np.abs(dense(two_step) - dense(one_step))) < 1e-8


def test_loss_sector_route_on_a_mixed_sector_state_matches_dense_route():
    # complex sector blocks of rank > 1, most of their lines through the triangular products
    state = phase_average(loss_channel(random_state(10), LossSpec(0.8)))
    assert max(st.weights.shape[1] for st in state.stacks) > 1
    out_blocks = loss_channel(state, LossSpec(0.7))
    out_dense = dense_loss(state, 0.7)
    assert np.max(np.abs(dense(out_blocks) - dense(out_dense))) < 1e-12


def test_loss_of_a_batch_gives_each_point_its_qfi_alone():
    # noon-span lines (mostly the j = 0 factor) beside cat4 lines, at two cutoffs
    states = [extended_entangled_state(2, 0.7, 32), cat4_pure(1.0, 0.5, 40)]
    batch = qfi_mixed(loss_channel(phase_average(states), LossSpec(0.85)), "n_b")
    for p, state in enumerate(states):
        assert batch[p] == qfi_mixed(loss_channel(phase_average(state), LossSpec(0.85)), "n_b")


def test_sector_loss_keeps_a_real_state_real():
    # the offset planes take the blocks' dtype; a real state and its complex
    # copy give the same density and QFI
    real = TwoModeState(RNG.normal(size=(11, 11))).normalize()
    twin = TwoModeState(real.amps.astype(complex))
    lossy = [loss_channel(phase_average(phase_average(s)), LossSpec(0.8)) for s in (real, twin)]
    assert all(st.vecs.dtype == np.float64 for st in lossy[0].stacks)
    assert all(st.vecs.dtype == np.complex128 for st in lossy[1].stacks)
    assert np.max(np.abs(dense(lossy[0]) - dense(lossy[1]))) < 1e-15
    assert qfi_mixed(lossy[0], "n_b") == pytest.approx(qfi_mixed(lossy[1], "n_b"), rel=1e-13)


def test_loss_and_phase_average_of_an_empty_batch():
    empty = SpectralState(8, (), 3)
    for out in (loss_channel(empty, LossSpec(0.9)), phase_average(empty)):
        assert (out.stacks, out.points) == ((), 3)
    assert qfi_mixed(empty, "n_b").tolist() == [0.0, 0.0, 0.0]


def test_loss_memory_grows_as_lines_not_as_kraus_copies():
    # the element-copy kernel this replaced peaked at 97.5 MB here, the line kernel at about 12 MB
    state = phase_average(cat4_pure(2.0, 2.0, 44))
    tracemalloc.start()
    try:
        loss_channel(state, LossSpec(0.9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40e6


def test_loss_refuses_lines_above_the_budget(monkeypatch):
    # the blocks' densities (972,240 bytes) are refused before any is expanded
    state = phase_average(cat4_pure(2.0, 2.0, 44))
    monkeypatch.setattr(channels, "LOSS_LINE_BYTES", 2**16)
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError, match=r"needs [\d,]+ bytes for \d+ lines of up to 45 elements.*65,536 bytes"):
            loss_channel(state, LossSpec(0.9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_loss_refuses_a_line_array_past_the_element_budget(monkeypatch):
    # at beta = 0 only every fourth sector is occupied, and sectors 40 and 44
    # fall under SECTOR_FLOOR: the ten kept densities take 78,880 bytes, and
    # their offset planes, a (37 - d)^2 box at each offset d <= 36, 281,200
    state = phase_average(cat4_pure(2.0, 0.0, 44))
    monkeypatch.setattr(channels, "LOSS_LINE_BYTES", 2**17)
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError, match=r"offset planes need 281,200 bytes for 37 offsets .* of 131,072 bytes"):
            loss_channel(state, LossSpec(0.9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_loss_trace_check_is_per_point(monkeypatch):
    # defects of +d and -d on the two points cancel in the batch total
    state = extended_entangled_state(1, 1.0, 32)
    batch = phase_average([state, state])
    exact = channels._loss_sectors

    def skewed(s, coef):
        out = exact(s, coef)
        first, *rest = out.stacks
        weights = first.weights.copy()
        weights[np.flatnonzero(first.point == 0)[0], -1] += 1e-6
        weights[np.flatnonzero(first.point == 1)[0], -1] -= 1e-6
        return SpectralState(out.n_max, (replace(first, weights=weights), *rest), out.points)

    monkeypatch.setattr(channels, "_loss_sectors", skewed)
    lost = skewed(batch, _loss_coeff_table(batch.n_max, 0.9))
    assert lost.trace() == pytest.approx(batch.trace(), abs=1e-12)
    assert np.all(np.abs(lost.point_traces() - batch.point_traces()) > 1e-8)
    with pytest.raises(CutoffError, match="at point 0"):
        loss_channel(batch, LossSpec(0.9))


def test_loss_coefficients_do_not_depend_on_the_table_size():
    # a batch reads every point's coefficients from the table of its largest cutoff
    small, large = _loss_coeff_table(32, 0.85), _loss_coeff_table(59, 0.85)
    k, m = np.indices(small.shape)
    assert np.array_equal(small[k + m <= 32], large[:33, :33][k + m <= 32])


def test_dense_loss_rejects_a_batch():
    batch = phase_average([noon_state(2, 8), noon_state(3, 8)])
    with pytest.raises(ValueError, match="one point"):
        dense_loss(batch, 0.9)


def test_phase_average_batch_keeps_each_point():
    states = [extended_entangled_state(2, 0.7, 32), cat4_pure(1.0, 0.5, 40)]
    batch = phase_average(states)
    assert (batch.points, batch.n_max) == (2, 40)
    assert batch.point_traces() == pytest.approx([1.0, 1.0], abs=1e-12)
    for p, state in enumerate(states):
        alone = phase_average(state)
        mine = [
            (st.na[b], st.nb[b], st.weights[b], st.vecs[b]) for st in batch.stacks for b in np.flatnonzero(st.point == p)
        ]
        assert len(mine) == sum(len(st.na) for st in alone.stacks)
        for got, want in zip(mine, blocks(alone)):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


def test_lossy_cat4_qfi_matches_loss_before_averaging():
    # loss commutes with the common phase, so averaging first (sector blocks)
    # and losing first (dense loss on the pure state) give the same state
    pure = cat4_pure(0.8, 0.4, 16)
    averaged_first = qfi_mixed(loss_channel(phase_average(pure), LossSpec(0.9)), "n_b")
    lost_first = qfi_mixed(phase_average(loss_channel(pure, LossSpec(0.9))), "n_b")
    assert len(loss_channel(pure, LossSpec(0.9)).stacks) == 1  # the dense route: one block
    assert averaged_first == pytest.approx(lost_first, rel=1e-12)


def eigh_widths(monkeypatch) -> list:
    """The width of every batch numpy.linalg.eigh is called on from here on."""
    widths, eigh = [], np.linalg.eigh

    def counted(a, *args, **kwargs):
        widths.append(a.shape[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    return widths


def test_wide_lossy_cat4_sectors_are_factored_by_rank(monkeypatch):
    # the benchmark's lossy cat4 point (n_max 32, sector blocks 1-29 wide, of rank <= 4): only the
    # widths 1-3, below RANK_WIDTH, reach eigh
    widths = eigh_widths(monkeypatch)
    curve = bench.FamilyCurve("cat4", "cat4", "phase_averaged", 0.25, 4, 0.9)
    bench.numeric_point(curve, 1.146)
    assert sorted(widths) == [1, 2, 3]


def test_a_wide_block_of_any_rank_is_factored_by_rank(monkeypatch):
    # 12-wide blocks of rank 2 and of full rank: the width alone picks the route, and the
    # full-rank factorization runs all 12 steps to its floor
    widths = eigh_widths(monkeypatch)
    n, k = 20, np.arange(3, 15)
    for rank in (2, 12):
        factor = RNG.normal(size=(k.size, rank)) + 1j * RNG.normal(size=(k.size, rank))
        state = SpectralState(16, (BlockStack(k[None], n - k[None], np.ones((1, rank)), factor[None]),))
        out = phase_average(state)
        assert [st.weights.shape[1] for st in out.stacks] == [rank]
        assert np.max(np.abs(dense(out) - dense(state))) < 1e-12
    assert widths == []


def test_the_rank_route_keeps_each_eigenvalue_above_the_floor(monkeypatch):
    # a 12-wide block of eigenvalues 1, 1e-6 and 1e-12, the last 100 times BLOCK_FLOOR: the
    # factorization may not stop before it.  Forming the block rounds at 1e-16, so the smallest
    # is known to about 1e-4 of itself
    widths = eigh_widths(monkeypatch)
    n, k = 20, np.arange(3, 15)
    vecs = np.linalg.qr(RNG.normal(size=(k.size, 3)) + 1j * RNG.normal(size=(k.size, 3)))[0]
    lam = np.array([1.0, 1e-6, 1e-12])
    out = phase_average(SpectralState(16, (BlockStack(k[None], n - k[None], lam[None], vecs[None]),)))
    assert np.sort(np.concatenate([st.weights.ravel() for st in out.stacks])) == pytest.approx(lam[::-1], rel=1e-2)
    assert widths == []


def test_lossy_cat4_qfi_at_a_large_point():
    # alpha = beta = 8: n_max 164, sector blocks up to 165 wide, all factored by rank
    curve = bench.FamilyCurve("cat4", "cat4", "phase_averaged", 1.0, 4, 0.9)
    assert bench.numeric_point(curve, 8.0)[1] == pytest.approx(31.604177195407036, rel=1e-12)


def test_loss_ecs_rows_match_analytic_spectrum():
    state = extended_entangled_state(1, 1.0)
    pipeline = to_noon_mixture(loss_channel(phase_average(state), LossSpec(0.9)))
    analytic = cf.lossy_noon_mixture(1, 1.0, LossSpec(0.9), n_cut=state.n_max)
    got, want = rows_dict(pipeline), rows_dict(analytic)
    for n in set(got) | set(want):
        gp, gm = got.get(n, (0.0, 0.0))
        wp, wm = want.get(n, (0.0, 0.0))
        assert gp == pytest.approx(wp, abs=1e-8)
        assert gm == pytest.approx(wm, abs=1e-8)


# ---------------------------------------------------------------------------
# phase averaging
# ---------------------------------------------------------------------------


def test_phase_average_noon_unchanged():
    state = noon_state(3, 16)
    out = phase_average(state)
    [(na, nb, w, vecs)] = blocks(out)
    assert w.tolist() == pytest.approx([1.0], abs=1e-12)
    assert abs(np.vdot(state.amps[na, nb], vecs[:, 0])) ** 2 > 1 - 1e-12


def test_phase_average_ecs_sector_weights():
    # Poisson-weighted noon mixture; vacuum carries the doubled weight
    a = 1.0
    out = phase_average(extended_entangled_state(1, 1.0, 40))
    weights = sector_weights(out)
    base = exp(-a) / (1 + exp(-a))
    assert weights[0] == pytest.approx(2 * base, abs=1e-10)
    fact = 1.0
    for n in range(1, 8):
        fact *= n
        assert weights[n] == pytest.approx(base * a**n / fact, abs=1e-10)


def test_phase_average_modified_even_selector():
    out = phase_average(extended_entangled_state(2, 1.0, 40))
    weights = lossless_weights(2, 1.0, 40)
    for n, w in sector_weights(out).items():
        assert n % 2 == 0
        assert w == pytest.approx(weights[n], abs=1e-10)


def test_phase_average_idempotent():
    for state in (extended_entangled_state(1, 1.0, 24), random_state(8)):
        once = phase_average(state)
        twice = phase_average(once)
        assert np.max(np.abs(dense(once) - dense(twice))) < 1e-12


def test_phase_average_trace_preserved():
    for _ in range(20):
        state = random_state(9)
        assert phase_average(state).trace() == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# noon-basis rows
# ---------------------------------------------------------------------------


def test_to_noon_mixture_pure_noon():
    mix = to_noon_mixture(from_pure(noon_state(2, 12)))
    rows = rows_dict(mix)
    assert rows[2][0] == pytest.approx(1.0, abs=1e-12)
    assert rows[2][1] == pytest.approx(0.0, abs=1e-14)
    assert mix.trace() == pytest.approx(1.0, abs=1e-12)


def test_to_noon_mixture_rejects_off_span_state():
    noon = (np.array([0, 2]), np.array([2, 0]), [0.5], [[1 / sqrt(2)], [1 / sqrt(2)]])
    thermal_ish = SpectralState(8, (block([1], [1], [0.5], [[1.0]]), block(*noon)))
    with pytest.raises(NoonSupportError):
        to_noon_mixture(thermal_ish)


def test_to_noon_mixture_rejects_cross_sector_coherence():
    amps = np.zeros((9, 9), dtype=complex)
    amps[1, 0] = amps[2, 0] = 1 / sqrt(2)
    with pytest.raises(NoonSupportError):
        to_noon_mixture(from_pure(TwoModeState(amps)))


def test_noon_mixture_roundtrip():
    state = phase_average(extended_entangled_state(2, 1.2))
    lossy = loss_channel(state, LossSpec(0.85))
    mix = to_noon_mixture(lossy)
    rebuilt = noon_mixture_to_spectral(mix, lossy.n_max)
    assert np.max(np.abs(dense(rebuilt) - dense(lossy))) < 1e-10


def test_every_phase_averaged_family_is_noon_diagonal():
    for n_comp in (1, 2, 4, 8, 16):
        state = phase_average(extended_entangled_state(n_comp, 1.2))
        mix = to_noon_mixture(state)
        assert mix.trace() == pytest.approx(1.0, abs=1e-10)
    mix = to_noon_mixture(phase_average(noon_state(3, 16)))
    assert mix.trace() == pytest.approx(1.0, abs=1e-10)


def test_to_noon_mixture_nonzero_phase():
    state = phase_average(extended_entangled_state(1, 0.9))
    rotated = SpectralState(
        state.n_max,
        tuple(replace(st, vecs=st.vecs * np.exp(0.7j * st.nb)[:, :, None]) for st in state.stacks),
    )
    mix = to_noon_mixture(rotated, phi=0.7)
    ref = to_noon_mixture(state, phi=0.0)
    got, want = rows_dict(mix), rows_dict(ref)
    for n in want:
        assert got[n][0] == pytest.approx(want[n][0], abs=1e-10)


# ---------------------------------------------------------------------------
# CPS heralding and synthesis
# ---------------------------------------------------------------------------


def test_cps_zero_phase_is_identity():
    state = extended_entangled_state(2, 1.0, 24)
    outcome = cps_round_outcome(state, 0.0)
    assert np.max(np.abs(outcome.state.amps - state.amps)) < 1e-14
    assert outcome.herald_prob_a == pytest.approx(1.0)
    assert outcome.herald_prob_b == pytest.approx(1.0)


def test_cps_vacuum_fixed_point():
    vac = product_state(coherent(0.0, 12), coherent(0.0, 12))
    out = cps_round_outcome(vac, 1.1).state
    assert abs(out.amps[0, 0] - 1.0) < 1e-14


def test_cps_round_heralds_four_headed_cat():
    # (|a>+|-a>)|0> + |0>(|a>+|-a>) --pi/2--> C4 in one arm or the other
    alpha, n_max = 1.0, 40
    plus = cat_state(CatSpec(2, alpha), n_max).amps
    amps = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    amps[:, 0] += plus
    amps[0, :] += plus
    state = TwoModeState(amps).normalize()
    out = cps_round_outcome(state, pi / 2).state
    target = extended_entangled_state(4, alpha, n_max)
    assert fidelity(out, target) > 1 - 1e-10


def test_cps_zero_norm_branch():
    amps = np.zeros((9, 9), dtype=complex)
    amps[1, 0] = 1.0  # single photon in mode a
    with pytest.raises(ValueError):
        cps_round_outcome(TwoModeState(amps), pi)


def test_synthesize_matches_cat_built_target():
    for k in (0, 1, 2):
        built = synthesize_heralded(1.0, k)[0]
        target = extended_entangled_state(2 ** (k + 1), 1.0, built.n_max)
        assert fidelity(built, target) > 1 - 1e-10


def _beam_split_cats(alpha: float) -> TwoModeState:
    """The synthesis input as the protocol makes it: two |C_2(alpha/sqrt2)> on the 50:50 beam splitter."""
    half = cat_state(CatSpec(2, alpha / sqrt(2)), default_cutoff(alpha))
    return beam_splitter_5050(half, half).normalize()


def test_synthesis_starts_from_the_beam_split_pair_of_cats():
    # the heads (+-alpha/sqrt2, +-alpha/sqrt2) land on (+-alpha, 0) and (0, +-alpha)
    for alpha in (0.3, 1.0, 2.0, 3.0, 5.0):
        built = extended_entangled_state(2, alpha)
        assert np.max(np.abs(_beam_split_cats(alpha).amps - built.amps)) <= 1e-14, alpha
    for alpha in (0.8, 1.0, 2.0):
        state, probs = _beam_split_cats(alpha), []
        for k in range(4):
            synthesized, heralds = synthesize_heralded(alpha, k)
            assert np.allclose(heralds, probs, rtol=0, atol=1e-12), (alpha, k)
            assert np.max(np.abs(synthesized.amps - state.amps)) <= 1e-12, (alpha, k)
            outcome = cps_round_outcome(state, 2 * pi / 2 ** (k + 2))
            probs.append((outcome.herald_prob_a, outcome.herald_prob_b))
            state = outcome.state


def test_synthesize_herald_probabilities_in_range():
    state = synthesize_heralded(0.8, 0)[0]
    outcome = cps_round_outcome(state, pi / 2)
    assert 0 < outcome.herald_prob_a <= 1
    assert 0 < outcome.herald_prob_b <= 1


def test_synthesize_validates_arguments():
    with pytest.raises(ValueError):
        synthesize_heralded(1.0, -1)
    with pytest.raises(ValueError):
        synthesize_heralded(0.0, 1)
