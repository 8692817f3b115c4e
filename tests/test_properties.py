"""Property tests of the block form: loss and phase averaging on drawn states (n_max <= 12).

Each state is drawn twice over: as a pure state (loss takes the dense
route) and phase averaged (loss takes the sector-block route).
"""

from math import sqrt

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from catqfi.channels import LossSpec, SpectralState, loss_channel, phase_average
from catqfi.fock import CatSpec, TwoModeState, beam_splitter_5050, cat_state, coherent, extended_entangled_state
from catqfi.qfi import qfi_mixed

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
    return float(np.max(np.abs(a.to_dense() - b.to_dense())))


def cells(s: SpectralState) -> np.ndarray:
    return np.concatenate([(st.na * (s.n_max + 1) + st.nb).ravel() for st in s.stacks])


def dense_qfi(s: SpectralState, generator: str) -> float:
    """QFI from one eigendecomposition of the full density matrix, 2 sum (l_i-l_j)^2/(l_i+l_j) |G_ij|^2."""
    n = np.arange(s.n_max + 1, dtype=float)
    grid = {"n_b": n[None, :] + 0 * n[:, None], "half_difference": 0.5 * (n[None, :] - n[:, None])}[generator]
    lam, vecs = np.linalg.eigh(s.to_dense())
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


# the double-sum value is gap safe, so degenerate drawn spectra need no warning
@pytest.mark.filterwarnings("ignore::catqfi.qfi.DegenerateSpectrumWarning")
@given(pure_states, transmissions, st.sampled_from(("n_b", "half_difference")))
def test_block_qfi_matches_dense_qfi(state, t, generator):
    for s in (loss_channel(phase_average(state), LossSpec(t)), loss_channel(state, LossSpec(t))):
        expected = dense_qfi(s, generator)
        assert abs(qfi_mixed(s, generator) - expected) <= 1e-8 * max(1.0, expected)
