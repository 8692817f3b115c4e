"""Property tests of the block form: loss and phase averaging on drawn states (n_max <= 12).

Each state is drawn twice over: as a pure state (loss takes the dense
route) and phase averaged (loss takes the sector-block route).  Batches of
drawn sector-diagonal states must behave as their points do alone.  Points
drawn inside the family table's domain must give the same QFI and N_av by
the closed forms and by the grid route, and lossy points the same resolved
QFI with and without the sector floor of the loss.
"""

from dataclasses import replace
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catqfi import bench, channels
from catqfi.channels import BlockStack, LossSpec, SpectralState, loss_channel, phase_average
from catqfi.fock import CatSpec, TwoModeState, beam_splitter_5050, cat_state, coherent, extended_entangled_state
from catqfi.qfi import qfi_mixed
from noon_basis import to_dense

transmissions = st.floats(0.05, 1.0)


@st.composite
def random_states(draw) -> TwoModeState:
    """Random pure states: on the full grid, on the noon span, or on a random subset of cells."""
    n_max = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    amps = rng.normal(size=(n_max + 1, n_max + 1)) + 1j * rng.normal(size=(n_max + 1, n_max + 1))
    layout = draw(st.sampled_from(("full", "noon_span", "sparse")))
    if layout == "noon_span":
        amps[1:, 1:] = 0.0
    elif layout == "sparse":
        amps[rng.random(amps.shape) < 0.6] = 0.0
        amps[0, n_max] = 1.0
    return TwoModeState(amps).normalize()


@st.composite
def family_states(draw) -> TwoModeState:
    """Extended N in {1, 2, 4} and cat4 with its coherent input, at n_max 12."""
    alpha = draw(st.floats(0.1, 0.6))
    if draw(st.booleans()):
        return extended_entangled_state(draw(st.sampled_from((1, 2, 4))), alpha, 12)
    beta = draw(st.floats(0.0, 1.0)) * alpha
    cat = cat_state(CatSpec(4, alpha / sqrt(2)), 12)
    return beam_splitter_5050(cat, coherent(beta / sqrt(2), 12)).normalize()


pure_states = st.one_of(random_states(), family_states())


def max_diff(a: SpectralState, b: SpectralState) -> float:
    return float(np.max(np.abs(to_dense(a) - to_dense(b))))


def cells(s: SpectralState) -> np.ndarray:
    return np.concatenate([(st.na * (s.n_max + 1) + st.nb).ravel() for st in s.stacks])


def dense_qfi(s: SpectralState, generator: str) -> float:
    """QFI from one eigendecomposition of the full density matrix, 2 sum (l_i-l_j)^2/(l_i+l_j) |G_ij|^2."""
    n = np.arange(s.n_max + 1, dtype=float)
    grid = {"n_b": n[None, :] + 0 * n[:, None], "half_difference": 0.5 * (n[None, :] - n[:, None])}[generator]
    lam, vecs = np.linalg.eigh(to_dense(s))
    lam = np.clip(lam, 0.0, None)
    g = vecs.conj().T @ (grid.ravel()[:, None] * vecs)
    pair = lam[:, None] + lam[None, :]
    with np.errstate(invalid="ignore", divide="ignore"):
        terms = np.where(pair > 0, (lam[:, None] - lam[None, :]) ** 2 / pair * np.abs(g) ** 2, 0.0)
    return 2.0 * float(np.sum(terms))


@given(pure_states, transmissions)
def test_loss_preserves_trace_on_both_routes(state, t):
    for out in (loss_channel(state, LossSpec(t)), loss_channel(phase_average(state), LossSpec(t))):
        assert abs(out.trace() - 1.0) < 1e-10
        assert all(np.all(st.weights > 0) for st in out.stacks)
        support = cells(out)
        assert np.unique(support).size == support.size  # pairwise disjoint blocks


@given(pure_states, transmissions, transmissions)
def test_loss_semigroup(state, t1, t2):
    averaged = phase_average(state)
    two_step = loss_channel(loss_channel(averaged, LossSpec(t2)), LossSpec(t1))
    assert max_diff(two_step, loss_channel(averaged, LossSpec(t1 * t2))) < 1e-10


@given(pure_states, transmissions)
def test_loss_commutes_with_phase_average(state, t):
    lost_first = phase_average(loss_channel(state, LossSpec(t)))
    averaged_first = loss_channel(phase_average(state), LossSpec(t))
    assert max_diff(lost_first, averaged_first) < 1e-12


@given(pure_states, transmissions)
def test_phase_average_idempotent(state, t):
    for s in (phase_average(state), loss_channel(state, LossSpec(t))):
        once = phase_average(s)
        assert max_diff(phase_average(once), once) < 1e-12


@given(pure_states, transmissions, st.sampled_from(("n_b", "half_difference")))
def test_block_qfi_matches_dense_qfi(state, t, generator):
    for s in (loss_channel(phase_average(state), LossSpec(t)), loss_channel(state, LossSpec(t))):
        expected = dense_qfi(s, generator)
        assert abs(qfi_mixed(s, generator) - expected) <= 1e-8 * max(1.0, expected)


@st.composite
def sector_blocks(draw) -> tuple:
    """(n_max, n, k, factor): the PSD block factor factor^H on the cells (k, n - k) of sector n.

    Real or complex, 1-40 wide, of rank 0, full rank, up to half the width or any; the factor's
    columns are scaled over up to 7 decades, so the eigenvalues reach down to `BLOCK_FLOOR` of the
    largest.  Blocks from `channels.RANK_WIDTH` wide on take the rank route, full-rank ones too.
    """
    m = draw(st.integers(1, 40))
    rank = draw(st.one_of(st.just(0), st.just(m), st.integers(1, max(1, m // 2)), st.integers(0, m)))
    n_max = draw(st.integers(m - 1, 48))
    n = draw(st.integers(m - 1, 2 * n_max - m + 1))  # sector n holds min(n, 2 n_max - n) + 1 cells
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.sort(rng.choice(np.arange(max(0, n - n_max), min(n, n_max) + 1), size=m, replace=False))
    factor = rng.normal(size=(m, rank))
    if draw(st.booleans()):
        factor = factor + 1j * rng.normal(size=(m, rank))
    return n_max, n, k, factor * np.logspace(0, -draw(st.floats(0.0, 7.0)), rank)


@settings(max_examples=100)
@given(sector_blocks(), st.sampled_from(("n_b", "half_difference")))
def test_sector_block_eigenpairs_match_eigh(block, generator):
    # phase averaging a one-block state scatters it to the offset planes and takes it back by sector
    n_max, n, k, factor = block
    state = SpectralState(n_max, (BlockStack(k[None], n - k[None], np.ones((1, factor.shape[1])), factor[None]),))
    out = phase_average(state)
    rho = factor @ factor.conj().T
    trace = float(np.trace(rho).real)
    lam, vecs = np.linalg.eigh(rho)
    kept = lam > channels.BLOCK_FLOOR * trace
    got = np.sort(np.concatenate([blocks.weights.ravel() for blocks in out.stacks] + [np.zeros(k.size)]))[::-1]
    want = np.sort(np.append(lam[kept], np.zeros(k.size)))[::-1]
    assert np.max(np.abs(got[: k.size] - want[: k.size])) <= 1e-12 * trace
    assert all(blocks.vecs.dtype == factor.dtype for blocks in out.stacks)
    expected = SpectralState(n_max, (BlockStack(k[None], n - k[None], lam[None, kept], vecs[None][:, :, kept]),))
    # relative to the scale of the sums qfi_mixed forms, tr(rho) max G^2: F itself can be
    # 1000 times smaller, where G varies little over the cells, and rounds as that scale does
    g = {"n_b": n - k, "half_difference": (n - 2 * k) / 2}[generator]
    assert abs(qfi_mixed(out, generator) - qfi_mixed(expected, generator)) <= 1e-12 * trace * np.max(g * g, initial=0)


@st.composite
def sector_diagonal_states(draw) -> SpectralState:
    """A phase-averaged drawn state, of rank one per sector or (lost first) of higher rank."""
    state = draw(pure_states)
    if draw(st.booleans()):
        return phase_average(loss_channel(state, LossSpec(draw(transmissions))))
    return phase_average(state)


def batch_of(states) -> SpectralState:
    """The states as the points of one batch, on the largest cutoff."""
    stacks = tuple(
        replace(blocks, point=np.full(len(blocks.na), p)) for p, s in enumerate(states) for blocks in s.stacks
    )
    return SpectralState(max(s.n_max for s in states), stacks, len(states))


@given(st.lists(sector_diagonal_states(), min_size=2, max_size=4), transmissions)
def test_loss_on_a_batch_is_loss_on_each_point(states, t):
    batch = batch_of(states)
    lost = loss_channel(batch, LossSpec(t))
    assert lost.points == len(states)
    for p, state in enumerate(states):
        alone = loss_channel(state, LossSpec(t))
        assert abs(lost.point_traces()[p] - alone.trace()) <= 1e-14
        mine = [(b.na[i], b.nb[i], b.weights[i], b.vecs[i]) for b in lost.stacks for i in np.flatnonzero(b.point == p)]
        theirs = [(b.na[i], b.nb[i], b.weights[i], b.vecs[i]) for b in alone.stacks for i in range(len(b.na))]
        assert len(mine) == len(theirs)
        for (na, nb, w, v), (na_1, nb_1, w_1, v_1) in zip(mine, theirs):
            assert np.array_equal(na, na_1) and np.array_equal(nb, nb_1)
            assert w.shape == w_1.shape and np.max(np.abs(w - w_1)) <= 1e-14
            assert np.max(np.abs((v * w) @ v.conj().T - (v_1 * w_1) @ v_1.conj().T)) <= 1e-14


# every (family, variant) of the table with a closed QFI
CLOSED_ENTRIES = [
    (kind, variant) for kind, family in bench.FAMILIES.items() for variant, form in family.qfi.items() if form
]


@st.composite
def table_points(draw) -> tuple:
    """(curve, alpha) of an entry with a closed QFI: alpha <= 2.5, beta/alpha in [0, 1],
    N <= 8, T in {1} or [0.8, 1); noon at integer n = alpha^2, where the grid holds it."""
    kind, variant = draw(st.sampled_from(CLOSED_ENTRIES))
    params = bench.FAMILIES[kind].params
    beta_ratio = draw(st.floats(0.0, 1.0)) if "beta_ratio" in params else None
    n_components = draw(st.integers(1, 8)) if "n_components" in params else None
    t = 1.0
    if variant == "phase_averaged":
        t = draw(st.one_of(st.just(1.0), st.floats(0.8, 1.0, exclude_max=True)))
    alpha = sqrt(draw(st.integers(1, 6))) if kind == "noon" else draw(st.floats(0.01, 2.5))
    return bench.FamilyCurve(kind, kind, variant, beta_ratio, n_components, t), alpha


@settings(max_examples=100)
@given(table_points())
def test_closed_forms_match_the_grid_route(point):
    # verify's rule: relative error with a 1e-6 floor, and no QFI check below
    # QFI_RESOLUTION (1e-9), where the state is the vacuum to double precision
    curve, alpha = point
    nav, f = bench.numeric_point(curve, alpha)
    assert bench._rel_err(bench.closed_nav(curve, alpha), nav) <= 1e-8
    f_closed = bench.closed_qfi(curve, alpha)
    if f_closed >= bench.QFI_RESOLUTION:
        assert bench._rel_err(f_closed, f) <= 1e-8


@st.composite
def lossy_cat4_points(draw) -> tuple:
    """(curve, alpha) of a phase-averaged lossy cat4 point: alpha <= 2, beta/alpha in [0, 1], T in [0.5, 0.99]."""
    t = draw(st.floats(0.5, 0.99))
    curve = bench.FamilyCurve("cat4", "cat4", "phase_averaged", draw(st.floats(0.0, 1.0)), 4, t)
    return curve, draw(st.floats(0.3, 2.0))


def block_count(s: SpectralState) -> int:
    return sum(len(blocks.na) for blocks in s.stacks)


@given(st.one_of(table_points().filter(lambda p: p[0].transmission < 1.0), lossy_cat4_points()))
def test_sector_floor_moves_no_resolved_qfi(point):
    curve, alpha = point
    averaged = phase_average(curve.state(alpha))
    floored = loss_channel(averaged, curve.loss)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(channels, "SECTOR_FLOOR", 0.0)
        full = loss_channel(averaged, curve.loss)
    assert block_count(floored) <= block_count(full)
    # the trace of the input blocks the floor drops, summed apart from the ~1 of the rest
    traces = np.concatenate([blocks.weights.sum(axis=1) for blocks in averaged.stacks])
    dropped = traces[~channels._weighty(averaged)].sum()
    assert dropped <= (2 * averaged.n_max + 1) * channels.SECTOR_FLOOR * averaged.trace()
    f_full = qfi_mixed(full, "n_b")
    if f_full >= bench.QFI_RESOLUTION:
        assert abs(qfi_mixed(floored, "n_b") - f_full) <= 1e-12 * f_full
