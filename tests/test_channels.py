"""Channel tests: photon loss, phase averaging, noon-basis rows (tests/noon_basis.py), CPS heralding."""

import tracemalloc
from dataclasses import replace
from math import exp, ldexp, sqrt

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
    cat_amps,
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
    """4-headed cat and coherent state through the 50:50 beam splitter (Fig. 1 input), a complex grid."""
    return beam_splitter_5050(
        cat_state(CatSpec(4, complex(alpha / sqrt(2))), n_max), coherent(complex(beta / sqrt(2)), n_max)
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


def test_photon_sector_of_vectors(monkeypatch):
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

    # loss takes the sector route when every stack has sectors
    def route(name):
        def taken(*args):
            raise LookupError(name)

        return taken

    monkeypatch.setattr(channels, "_planes", route("sectors"))
    monkeypatch.setattr(channels, "_loss_dense", route("dense"))
    for stacks in [(), (two,), (two, stack((0, 0))), (two, stack((1, 0), (0, 2))), (stack(), two)]:
        with pytest.raises(LookupError) as taken:
            loss_channel(SpectralState(4, stacks), LossSpec(0.9))
        assert taken.value.args[0] == ("sectors" if all(st.sectors is not None for st in stacks) else "dense")


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


def test_blocks_sharing_a_sector_keep_apart():
    # |1,1> beside a noon pair of sector 2, two blocks: laid on one grid they would gain coherences
    noon = (np.array([0, 2]), np.array([2, 0]), [0.5], [[1 / sqrt(2)], [1 / sqrt(2)]])
    state = SpectralState(4, (block([1], [1], [0.5], [[1.0]]), block(*noon)))
    assert np.max(np.abs(dense(phase_average(state)) - dense(state))) < 1e-15
    assert np.max(np.abs(dense(loss_channel(state, LossSpec(0.7))) - dense(dense_loss(state, 0.7)))) < 1e-12


def test_loss_of_a_batch_gives_each_point_its_qfi_alone():
    # noon-span lines (mostly the j = 0 factor) beside cat4 lines, at two cutoffs
    states = [extended_entangled_state(2, 0.7 + 0j, 32), cat4_pure(1.0, 0.5, 40)]  # complex, both
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
    # the offset planes (502,320 bytes) are refused before any is allocated
    state = phase_average(cat4_pure(2.0, 2.0, 44))
    monkeypatch.setattr(channels, "LOSS_LINE_BYTES", 2**16)
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError, match=r"planes need [\d,]+ bytes for \d+ offsets of up to 45 x 45 .*65,536 bytes"):
            loss_channel(state, LossSpec(0.9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_loss_refuses_a_line_array_past_the_element_budget(monkeypatch):
    # at beta = 0 only every fourth sector is occupied, and sectors 40 and 44
    # fall under SECTOR_FLOOR: the one grid of the blocks' eigenvectors takes
    # 32,400 bytes, and their offset planes, a (37 - d)^2 box at each offset
    # d <= 36, 281,200
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


def test_loss_refuses_eigenvector_grids_above_the_budget(monkeypatch):
    # a phase-averaged pure state is rank one in every sector, so its eigenvectors share one grid
    state = phase_average(cat4_pure(2.0, 0.0, 44))
    monkeypatch.setattr(channels, "LOSS_LINE_BYTES", 2**14)
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError, match=r"eigenvector grids need 32,400 bytes for 1 x 45 x 45 .*16,384"):
            loss_channel(state, LossSpec(0.9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_loss_refuses_run_pairs_above_the_budget(monkeypatch):
    # on a checkerboard every occupied cell is a run of its own, so a sector of c
    # cells has c (c + 1) / 2 run pairs: 348,551 (pair, offset) entries, each
    # owning a plane element of 8 bytes, are refused before any pair is formed
    amps = np.zeros((201, 201))
    amps[::2, ::2] = 1.0
    state = phase_average(TwoModeState(amps).normalize())
    monkeypatch.setattr(channels, "LOSS_LINE_BYTES", 2**20)
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError, match=r"offset planes need at least 2,788,408 bytes, .* of 1,048,576 bytes"):
            loss_channel(state, LossSpec(0.9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**22


def test_loss_refuses_rank_factors_above_the_budget(monkeypatch):
    # after loss every cell of a 101 x 101 checkerboard state is occupied, and its sector blocks (up to
    # 101 wide) need more than 16 factor steps: the rank factor's rows, 8 bytes for each of the 10,189
    # cells of the wide blocks, are refused before they grow from 16 to 32; the planes take 1.4 MB.
    # The peak, 5.93 MB, is the run pairs of `_extents`; the factor's own, with its pivot rows gathered
    # a step at a time, is 4.82 MB (5.53 MB with them gathered whole).  The bound leaves 5% over 5.93 MB
    amps = np.zeros((101, 101))
    amps[::2, ::2] = 1.0
    state = phase_average(TwoModeState(amps).normalize())
    monkeypatch.setattr(channels, "LOSS_LINE_BYTES", 2**21)
    tracemalloc.start()
    try:
        with pytest.raises(CutoffError, match=r"rank factors need 2,608,384 bytes for 32 x 10189 .* of 2,097,152 bytes"):
            loss_channel(state, LossSpec(0.9))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6_230_000


def test_a_spectral_state_refuses_cells_off_its_grid():
    # the cells (k, 20 - k), k = 3..14, reach n_b = 17: on a 17 x 17 grid (n_max 16) the first of
    # them, (3, 17), is named, where the index n_a (n_max + 1) + n_b would alias it onto (4, 0)
    n, k = 20, np.arange(3, 15)
    wide = BlockStack(k[None], n - k[None], np.ones((1, 1)), np.full((1, k.size, 1), 1 / sqrt(k.size)))
    with pytest.raises(ValueError, match=r"cell \(n_a, n_b\) = \(3, 17\) of block 0 of stack 0 lies off the 17 x 17"):
        SpectralState(16, (wide,))
    assert SpectralState(17, (wide,)).trace() == pytest.approx(1.0)
    with pytest.raises(ValueError, match=r"\(-1, 2\) of block 0 of stack 1"):
        SpectralState(4, (block([0], [1], [1.0], [[1.0]]), block([-1], [2], [1.0], [[1.0]])))


def test_loss_trace_check_is_per_point(monkeypatch):
    # defects of +d and -d on the two points cancel in the batch total
    state = extended_entangled_state(1, 1.0, 32)
    batch = phase_average([state, state])
    exact = channels._lose

    def skewed(planes, coef):
        exact(planes, coef)
        planes.box(0)[0, :, 0] += [1e-6, -1e-6]  # the vacuum of each point

    planes, _ = channels._planes(channels._grids(batch))
    skewed(planes, _loss_coeff_table(batch.n_max, 0.9))
    lost = channels._sector_blocks(planes)
    assert lost.trace() == pytest.approx(batch.trace(), abs=1e-12)
    assert np.all(np.abs(lost.point_traces() - batch.point_traces()) > 1e-8)
    monkeypatch.setattr(channels, "_lose", skewed)
    with pytest.raises(CutoffError, match="at point 0"):
        loss_channel(batch, LossSpec(0.9))


def test_layer_trace_is_checked_per_point_not_renormalized():
    # the weights carry the input's norm: a layer state whose trace is off by 1e-7 at one point of a
    # batch is refused, not rescaled
    heads = np.array([[1.0, 1j, -1.0, -1j], [0.5, 0.5j, -0.5, -0.5j]]) + 0.25
    layers = channels.head_layers(heads, heads[:, [2, 3, 0, 1]], 0.9)
    assert channels.layer_blocks(layers, 0.9).point_traces() == pytest.approx([1.0, 1.0], abs=1e-12)
    skewed = replace(layers, weights=layers.weights * np.array([1.0, 1.0 + 1e-7])[:, None, None])
    with pytest.raises(CutoffError, match="trace loss at point 1"):
        channels.layer_blocks(skewed, 0.9)


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
    states = [extended_entangled_state(2, 0.7 + 0j, 32), cat4_pure(1.0, 0.5, 40)]  # complex, both
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
    # the benchmark's lossy cat4 point (n_max 32, sector blocks 1-29 wide, of rank <= 4) on the Kraus
    # route: only the widths 1-3, below RANK_WIDTH, reach eigh
    curve = bench.FamilyCurve("cat4", "cat4", "phase_averaged", 0.25, 4, 0.9)
    averaged = phase_average(curve.state(1.146))
    widths = eigh_widths(monkeypatch)
    loss_channel(averaged, curve.loss)
    assert sorted(widths) == [1, 2, 3]


def test_a_wide_block_of_any_rank_is_factored_by_rank(monkeypatch):
    # 12-wide blocks of rank 2 and of full rank: the width alone picks the route, and the
    # full-rank factorization runs all 12 steps to its floor
    widths = eigh_widths(monkeypatch)
    n, k = 20, np.arange(3, 15)
    for rank in (2, 12):
        factor = RNG.normal(size=(k.size, rank)) + 1j * RNG.normal(size=(k.size, rank))
        state = SpectralState(17, (BlockStack(k[None], n - k[None], np.ones((1, rank)), factor[None]),))
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
    out = phase_average(SpectralState(17, (BlockStack(k[None], n - k[None], lam[None], vecs[None]),)))
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


def test_synthesize_matches_cat_built_target():
    # at alpha 8.5 the seventh round keeps 1.8e-22 of the state on mode b, which no rounding residue may swamp
    for alpha, k in ((1.0, 0), (1.0, 1), (1.0, 2), (8.5, 7)):
        built = synthesize_heralded(alpha, k)[0]
        target = extended_entangled_state(2 ** (k + 1), alpha, built.n_max)
        assert fidelity(built, target) > 1 - 1e-10, (alpha, k)


def _beam_split_cats(alpha: float) -> TwoModeState:
    """The synthesis input as the protocol makes it: two |C_2(alpha/sqrt2)> on the 50:50 beam splitter."""
    half = cat_state(CatSpec(2, alpha / sqrt(2)), default_cutoff(alpha))
    return beam_splitter_5050(half, half).normalize()


def test_synthesis_starts_from_the_beam_split_pair_of_cats():
    # the heads (+-alpha/sqrt2, +-alpha/sqrt2) land on (+-alpha, 0) and (0, +-alpha)
    for alpha in (0.3, 1.0, 2.0, 3.0, 5.0):
        built = extended_entangled_state(2, alpha)
        assert np.max(np.abs(_beam_split_cats(alpha).amps - built.amps)) <= 1e-14, alpha


def _herald_closed_form(alpha: float, heads: int) -> tuple[float, float]:
    """(p_a, p_b) of the round that takes the extended state with N heads to 2N: with
    K0(M) = sum_m x^{Mm}/(Mm)! at x = alpha^2, the unnormalized state |C_N>|0> + |0>|C_N> has norm^2
    2 K0(N) + 2, keeps K0(2N) + K0(N) + 2 of it on mode a and 2 K0(2N) + 2 on mode b."""

    def k0(m: int) -> float:
        value, _, _, e = cf._cat_series(m, alpha * alpha)
        return ldexp(value, e)

    k_n, k_2n = k0(heads), k0(2 * heads)
    return (k_2n + k_n + 2) / (2 * k_n + 2), (2 * k_2n + 2) / (k_2n + k_n + 2)


def test_synthesis_herald_probabilities_match_their_closed_form():
    # before round j the state is the extended state with N = 2^j heads; every round up to k = 10 stays on
    # the grid at these alphas, down to a herald probability of 8e-29 at alpha 9, k = 7
    for alpha in (0.3, 0.8, 1.0, 2.0, 3.0, 5.0, 7.0, 8.0, 8.5, 9.0):
        heralds = synthesize_heralded(alpha, 10)[1]
        assert len(heralds) == 10
        for j, probs in enumerate(heralds, start=1):
            assert probs == pytest.approx(_herald_closed_form(alpha, 2**j), rel=1e-12, abs=0), (alpha, j)


def test_synthesize_herald_probabilities_in_range():
    for p_a, p_b in synthesize_heralded(0.8, 3)[1]:
        assert 0 < p_a <= 1
        assert 0 < p_b <= 1


def test_synthesis_tail_checks_stop_past_the_grid(monkeypatch):
    # n_max 32 at alpha 1: the heralded cats of N = 4 .. 64 are checked, the 9994 rounds after them are not
    calls = []

    def counted(n_components, alphas, n_maxes):
        calls.append(n_components)
        return cat_amps(n_components, alphas, n_maxes)

    monkeypatch.setattr(channels, "cat_amps", counted)
    synthesize_heralded(1.0, 10_000)
    assert calls == [4, 8, 16, 32, 64]


def test_synthesize_validates_arguments():
    with pytest.raises(ValueError):
        synthesize_heralded(1.0, -1)
    with pytest.raises(ValueError):
        synthesize_heralded(0.0, 1)
