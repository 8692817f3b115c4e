"""QFI engine tests: pure forms, mixed double-sum vs literal form, noon fast path."""

from dataclasses import replace
from math import exp, sqrt

import warnings

import numpy as np
import pytest

from catqfi.channels import (
    BlockStack,
    LossSpec,
    NoonMixture,
    SpectralState,
    from_pure,
    loss_channel,
    noon_mixture_to_spectral,
    phase_average,
)
from catqfi.fock import (
    coherent,
    extended_entangled_state,
    noon_state,
    phase_shift,
    product_state,
)
from catqfi.qfi import DegenerateSpectrumWarning, qfi_mixed, qfi_noon_mixture, qfi_pure

RNG = np.random.default_rng(11)


def rotated(s: SpectralState, phi: float) -> SpectralState:
    """e^{i phi n_b} applied to every eigenvector of a block-form state."""
    return SpectralState(s.n_max, tuple(replace(st, vecs=st.vecs * np.exp(1j * phi * st.nb)[:, :, None]) for st in s.stacks))


def quiet_qfi_mixed(s, generator="n_b"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrumWarning)
        return qfi_mixed(s, generator)


# ---------------------------------------------------------------------------
# pure states
# ---------------------------------------------------------------------------


def test_qfi_pure_coherent_classical_limit():
    alpha = 1.0
    state = product_state(coherent(alpha / sqrt(2), 32), coherent(alpha / sqrt(2), 32))
    assert qfi_pure(state, "one_mode_b") == pytest.approx(2 * alpha**2, abs=1e-10)


def test_qfi_pure_ecs_matches_analytic_value():
    # 2(a + a^2)/(1+e^-a) - a^2/(1+e^-a)^2 at a = 1
    a = 1.0
    expected = 2 * (a + a * a) / (1 + exp(-a)) - a * a / (1 + exp(-a)) ** 2
    assert expected == pytest.approx(2.3897876691314965, abs=1e-14)
    state = extended_entangled_state(1, 1.0)
    assert qfi_pure(state, "one_mode_b") == pytest.approx(expected, rel=1e-10)


def test_qfi_pure_noon_two_mode_generator():
    for n in range(1, 6):
        state = noon_state(n, 16)
        assert qfi_pure(state, "two_mode_half") == pytest.approx(n * n, abs=1e-12)


def test_qfi_pure_rejects_unknown_config():
    with pytest.raises(ValueError):
        qfi_pure(noon_state(1, 8), "sideways")


# ---------------------------------------------------------------------------
# mixed states
# ---------------------------------------------------------------------------


def test_qfi_mixed_rank_one_reduces_to_pure():
    state = extended_entangled_state(2, 0.9)
    wrapped = from_pure(state)
    assert quiet_qfi_mixed(wrapped, "n_b") == pytest.approx(
        qfi_pure(state, "one_mode_b"), abs=1e-10
    )
    assert quiet_qfi_mixed(wrapped, "half_difference") == pytest.approx(
        qfi_pure(state, "two_mode_half"), abs=1e-10
    )


def test_qfi_mixed_pa_ecs_eq16():
    a = 1.0
    expected = a * (1 + a) / (1 + exp(-a))
    assert expected == pytest.approx(1.4621171572600098, abs=1e-14)
    state = phase_average(extended_entangled_state(1, 1.0))
    assert quiet_qfi_mixed(state, "n_b") == pytest.approx(expected, rel=1e-8)


def test_qfi_mixed_pa_modified_eq14():
    a = 1.0
    expected = a * (1 + a + (a - 1) * exp(-2 * a)) / (1 + exp(-a)) ** 2
    assert expected == pytest.approx(1.068893290777046, abs=1e-14)
    state = phase_average(extended_entangled_state(2, 1.0))
    assert quiet_qfi_mixed(state, "n_b") == pytest.approx(expected, rel=1e-8)


def test_phase_reference_identity_across_families():
    # F_q of the phase-averaged state equals F_Q2 of the pure state, and the
    # two mixed generators coincide on block-diagonal states
    for n_comp in (1, 2, 4):
        for alpha in (0.5, 1.0, 1.5):
            state = extended_entangled_state(n_comp, alpha)
            f_q2 = qfi_pure(state, "two_mode_half")
            pa = phase_average(state)
            assert quiet_qfi_mixed(pa, "n_b") == pytest.approx(f_q2, rel=1e-8)
            assert quiet_qfi_mixed(pa, "half_difference") == pytest.approx(f_q2, rel=1e-8)


def test_qfi_invariant_under_evaluation_point():
    state = extended_entangled_state(2, 1.0)
    assert qfi_pure(phase_shift(state, "b", 0.7), "one_mode_b") == pytest.approx(
        qfi_pure(state, "one_mode_b"), rel=1e-8
    )
    pa = phase_average(state)
    assert quiet_qfi_mixed(rotated(pa, 0.7), "n_b") == pytest.approx(
        quiet_qfi_mixed(pa, "n_b"), rel=1e-8
    )


def test_qfi_lossy_state_invariant_under_evaluation_point():
    lossy = loss_channel(phase_average(extended_entangled_state(2, 1.0)), LossSpec(0.9))
    assert quiet_qfi_mixed(rotated(lossy, 0.7), "n_b") == pytest.approx(
        quiet_qfi_mixed(lossy, "n_b"), rel=1e-8
    )


def test_qfi_invariant_under_global_phase():
    state = extended_entangled_state(1, 1.0)
    from catqfi.fock import TwoModeState

    shifted = TwoModeState(state.amps * np.exp(0.43j))
    assert qfi_pure(shifted, "one_mode_b") == pytest.approx(
        qfi_pure(state, "one_mode_b"), abs=1e-12
    )


def test_degenerate_spectrum_warns():
    # one block over |1,0> and |2,0> with two equal weights
    degenerate = SpectralState(8, (BlockStack(np.array([[1, 2]]), np.array([[0, 0]]), np.array([[0.5, 0.5]]), np.eye(2)[None]),))
    with pytest.warns(DegenerateSpectrumWarning):
        qfi_mixed(degenerate, "n_b")


def test_degenerate_weights_in_different_blocks_do_not_warn():
    # the gap test is per block: n_b never couples two blocks, so equal
    # weights in separate blocks leave every eigenvector derivative defined
    split = SpectralState(8, (BlockStack(np.array([[1], [2]]), np.array([[0], [0]]), np.full((2, 1), 0.5), np.ones((2, 1, 1))),))
    with warnings.catch_warnings():
        warnings.simplefilter("error", DegenerateSpectrumWarning)
        assert qfi_mixed(split, "n_b") == 0.0


def test_qfi_mixed_is_the_sum_of_block_qfis():
    lossy = loss_channel(phase_average(extended_entangled_state(4, 1.3)), LossSpec(0.85))
    assert len(lossy.stacks) > 1
    parts = [quiet_qfi_mixed(SpectralState(lossy.n_max, (st,)), "n_b") for st in lossy.stacks]
    assert sum(parts) == pytest.approx(quiet_qfi_mixed(lossy, "n_b"), rel=1e-13)


# ---------------------------------------------------------------------------
# noon-mixture fast path
# ---------------------------------------------------------------------------


def test_qfi_noon_single_row():
    for n in (1, 3, 7):
        assert qfi_noon_mixture(NoonMixture(rows=((n, 1.0, 0.0),))) == n * n


def test_qfi_noon_lossy_noon_damping():
    import catqfi.closed_form as cf

    for n in (1, 2, 5, 8):
        for t in (1.0, 0.9, 0.85):
            mix = cf.lossy_noon_mixture("noon", sqrt(float(n)), LossSpec(t), n_cut=max(12, n))
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
        mix = NoonMixture(rows=tuple(rows), phi=phi)
        spectral = noon_mixture_to_spectral(mix, n_max=16)
        assert qfi_noon_mixture(mix) == pytest.approx(
            quiet_qfi_mixed(spectral, "n_b"), rel=1e-8
        )


def test_qfi_noon_skips_empty_rows():
    mix = NoonMixture(rows=((0, 1.0, 0.0), (3, 0.0, 0.0)))
    assert qfi_noon_mixture(mix) == 0.0


def test_lossy_pipeline_equals_fast_path():
    import catqfi.closed_form as cf

    state = extended_entangled_state(1, 1.0)
    lossy = loss_channel(phase_average(state), LossSpec(0.9))
    mix = cf.lossy_noon_mixture("ecs", 1.0, LossSpec(0.9), n_cut=state.n_max)
    assert quiet_qfi_mixed(lossy, "n_b") == pytest.approx(qfi_noon_mixture(mix), rel=1e-8)
