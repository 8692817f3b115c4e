"""QFI engine tests: pure forms, mixed double-sum vs literal form, the noon-row QFI oracle."""

from dataclasses import replace
from math import exp, sqrt

import warnings

import numpy as np
import pytest

from catqfi import bench, qfi
from catqfi.channels import (
    BlockStack,
    LossSpec,
    SpectralState,
    from_pure,
    loss_channel,
    phase_average,
)
from catqfi.closed_form import NoonMixture
from catqfi.fock import (
    CutoffError,
    coherent,
    extended_entangled_state,
    noon_state,
    phase_shift,
    product_state,
)
from catqfi.qfi import qfi_mixed, qfi_pure
from noon_basis import noon_mixture_to_spectral, qfi_noon_mixture

RNG = np.random.default_rng(11)


def rotated(s: SpectralState, phi: float) -> SpectralState:
    """e^{i phi n_b} applied to every eigenvector of a block-form state."""
    return SpectralState(s.n_max, tuple(replace(st, vecs=st.vecs * np.exp(1j * phi * st.nb)[:, :, None]) for st in s.stacks))


# ---------------------------------------------------------------------------
# pure states
# ---------------------------------------------------------------------------


def test_qfi_pure_coherent_classical_limit():
    alpha = 1.0
    state = product_state(coherent(alpha / sqrt(2), 32), coherent(alpha / sqrt(2), 32))
    assert qfi_pure(state, "n_b") == pytest.approx(2 * alpha**2, abs=1e-10)


def test_qfi_pure_ecs_matches_analytic_value():
    # 2(a + a^2)/(1+e^-a) - a^2/(1+e^-a)^2 at a = 1
    a = 1.0
    expected = 2 * (a + a * a) / (1 + exp(-a)) - a * a / (1 + exp(-a)) ** 2
    assert expected == pytest.approx(2.3897876691314965, abs=1e-14)
    state = extended_entangled_state(1, 1.0)
    assert qfi_pure(state, "n_b") == pytest.approx(expected, rel=1e-10)


def test_qfi_pure_noon_two_mode_generator():
    for n in range(1, 6):
        state = noon_state(n, 16)
        assert qfi_pure(state, "half_difference") == pytest.approx(n * n, abs=1e-12)


def test_qfi_pure_rejects_unknown_config():
    with pytest.raises(ValueError):
        qfi_pure(noon_state(1, 8), "sideways")


# ---------------------------------------------------------------------------
# mixed states
# ---------------------------------------------------------------------------


def test_qfi_mixed_rank_one_reduces_to_pure():
    state = extended_entangled_state(2, 0.9)
    wrapped = from_pure(state)
    assert qfi_mixed(wrapped, "n_b") == pytest.approx(
        qfi_pure(state, "n_b"), abs=1e-10
    )
    assert qfi_mixed(wrapped, "half_difference") == pytest.approx(
        qfi_pure(state, "half_difference"), abs=1e-10
    )


def test_qfi_mixed_pa_ecs_eq16():
    a = 1.0
    expected = a * (1 + a) / (1 + exp(-a))
    assert expected == pytest.approx(1.4621171572600098, abs=1e-14)
    state = phase_average(extended_entangled_state(1, 1.0))
    assert qfi_mixed(state, "n_b") == pytest.approx(expected, rel=1e-8)


def test_qfi_mixed_pa_modified_eq14():
    a = 1.0
    expected = a * (1 + a + (a - 1) * exp(-2 * a)) / (1 + exp(-a)) ** 2
    assert expected == pytest.approx(1.068893290777046, abs=1e-14)
    state = phase_average(extended_entangled_state(2, 1.0))
    assert qfi_mixed(state, "n_b") == pytest.approx(expected, rel=1e-8)


def test_phase_reference_identity_across_families():
    # F_q of the phase-averaged state equals F_Q2 of the pure state, and the
    # two mixed generators coincide on block-diagonal states
    for n_comp in (1, 2, 4):
        for alpha in (0.5, 1.0, 1.5):
            state = extended_entangled_state(n_comp, alpha)
            f_q2 = qfi_pure(state, "half_difference")
            pa = phase_average(state)
            assert qfi_mixed(pa, "n_b") == pytest.approx(f_q2, rel=1e-8)
            assert qfi_mixed(pa, "half_difference") == pytest.approx(f_q2, rel=1e-8)


def test_qfi_invariant_under_evaluation_point():
    state = extended_entangled_state(2, 1.0)
    assert qfi_pure(phase_shift(state, "b", 0.7), "n_b") == pytest.approx(
        qfi_pure(state, "n_b"), rel=1e-8
    )
    pa = phase_average(state)
    assert qfi_mixed(rotated(pa, 0.7), "n_b") == pytest.approx(
        qfi_mixed(pa, "n_b"), rel=1e-8
    )


def test_qfi_lossy_state_invariant_under_evaluation_point():
    lossy = loss_channel(phase_average(extended_entangled_state(2, 1.0)), LossSpec(0.9))
    assert qfi_mixed(rotated(lossy, 0.7), "n_b") == pytest.approx(
        qfi_mixed(lossy, "n_b"), rel=1e-8
    )


def test_qfi_invariant_under_global_phase():
    state = extended_entangled_state(1, 1.0)
    from catqfi.fock import TwoModeState

    shifted = TwoModeState(state.amps * np.exp(0.43j))
    assert qfi_pure(shifted, "n_b") == pytest.approx(
        qfi_pure(state, "n_b"), abs=1e-12
    )


@pytest.mark.parametrize("generator", ["n_b", "half_difference"])
def test_qfi_mixed_ignores_the_basis_of_a_degenerate_eigenspace(generator):
    # one block over three cells with weights (0.4, 0.4, 0.2): both forms sum
    # over eigenpairs, so a rotation of the degenerate pair leaves the QFI as is
    rng = np.random.default_rng(3)
    vecs = np.linalg.qr(rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))[0]

    def block_qfi(v):
        stack = BlockStack(np.array([[0, 1, 2]]), np.array([[2, 0, 1]]), np.array([[0.4, 0.4, 0.2]]), v[None])
        return qfi_mixed(SpectralState(4, (stack,)), generator)

    reference = block_qfi(vecs)
    assert reference > 0.01
    for angle in (0.1, 0.7, 1.3, 2.9):
        c, s = np.cos(angle), np.sin(angle)
        turned = vecs.copy()
        turned[:, 0], turned[:, 1] = c * vecs[:, 0] - s * vecs[:, 1], s * vecs[:, 0] + c * vecs[:, 1]
        assert abs(block_qfi(turned) - reference) <= 1e-13, angle


def test_degenerate_weights_in_different_blocks_do_not_warn():
    split = SpectralState(8, (BlockStack(np.array([[1], [2]]), np.array([[0], [0]]), np.full((2, 1), 0.5), np.ones((2, 1, 1))),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert qfi_mixed(split, "n_b") == 0.0


def test_qfi_mixed_is_the_sum_of_block_qfis():
    lossy = loss_channel(phase_average(extended_entangled_state(4, 1.3)), LossSpec(0.85))
    assert len(lossy.stacks) > 1
    parts = [qfi_mixed(SpectralState(lossy.n_max, (st,)), "n_b") for st in lossy.stacks]
    assert sum(parts) == pytest.approx(qfi_mixed(lossy, "n_b"), rel=1e-13)


def test_qfi_mixed_pads_stacks_of_every_shape():
    # a lossy ecs point (blocks of support 1-2, rank 1-2) beside a lossy cat4
    # point (support up to 28, rank up to 4), evaluated as one padded batch
    states = [extended_entangled_state(1, 1.2, 32), bench.point_curve("cat4", "phase_averaged", 1.0, 0.5).state(1.0)]
    batch = loss_channel(phase_average(states), LossSpec(0.9))
    shapes = {st.vecs.shape[1:] for st in batch.stacks}
    assert len({m for m, _ in shapes}) > 2 and len({r for _, r in shapes}) > 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        together = qfi_mixed(batch, "n_b")
        for p, state in enumerate(states):
            alone = qfi_mixed(loss_channel(phase_average(state), LossSpec(0.9)), "n_b")
            assert together[p] == pytest.approx(alone, rel=1e-14)


def test_qfi_mixed_refuses_padded_blocks_above_the_budget(monkeypatch):
    state = phase_average(product_state(coherent(1.1, 20), coherent(0.7j, 20)))
    blocks = sum(len(st.na) for st in state.stacks)
    width = max(st.na.shape[1] for st in state.stacks)
    nbytes = blocks * width * 16  # complex eigenvectors of rank 1
    monkeypatch.setattr(qfi, "LOSS_LINE_BYTES", nbytes)
    assert qfi_mixed(state, "n_b") > 0
    monkeypatch.setattr(qfi, "LOSS_LINE_BYTES", nbytes - 1)
    with pytest.raises(CutoffError, match=f"{nbytes:,} bytes for {blocks} x {width} x 1 elements"):
        qfi_mixed(state, "n_b")


# ---------------------------------------------------------------------------
# noon-row QFI oracle (tests/noon_basis.py)
# ---------------------------------------------------------------------------


def test_qfi_noon_single_row():
    for n in (1, 3, 7):
        assert qfi_noon_mixture(NoonMixture(rows=((n, 1.0, 0.0),))) == n * n


def test_qfi_noon_lossy_noon_damping():
    import catqfi.closed_form as cf

    for n in (1, 2, 5, 8):
        for t in (1.0, 0.9, 0.85):
            mix = cf.lossy_noon_ladder(n, LossSpec(t))
            assert qfi_noon_mixture(mix) == pytest.approx(t**n * n * n, abs=1e-12)


def test_qfi_noon_reduction_agrees_with_qfi_mixed():
    # the closed reduction F = sum n^2 (l+ - l-)^2/(l+ + l-) is only trusted
    # because of this: 20 random mixtures against the generic engine
    for _ in range(20):
        n_rows = int(RNG.integers(2, 7))
        ns = RNG.choice(np.arange(1, 12), size=n_rows, replace=False)
        raw = RNG.random((n_rows, 2))
        raw /= raw.sum()
        phi = float(RNG.uniform(0, 2 * np.pi))
        rows = [(int(n), float(lp), float(lm)) for n, (lp, lm) in zip(ns, raw)]
        mix = NoonMixture(rows=tuple(rows))
        spectral = noon_mixture_to_spectral(mix, n_max=16, phi=phi)
        assert qfi_noon_mixture(mix) == pytest.approx(
            qfi_mixed(spectral, "n_b"), rel=1e-8
        )


def test_qfi_noon_skips_empty_rows():
    mix = NoonMixture(rows=((0, 1.0, 0.0), (3, 0.0, 0.0)))
    assert qfi_noon_mixture(mix) == 0.0


def test_lossy_pipeline_equals_fast_path():
    import catqfi.closed_form as cf

    state = extended_entangled_state(1, 1.0)
    lossy = loss_channel(phase_average(state), LossSpec(0.9))
    mix = cf.lossy_noon_mixture(1, 1.0, LossSpec(0.9), n_cut=state.n_max)
    assert qfi_mixed(lossy, "n_b") == pytest.approx(qfi_noon_mixture(mix), rel=1e-8)
