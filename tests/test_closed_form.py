"""Closed-form module tests against series oracles and the grid pipeline."""

from math import cos, exp, fsum, lgamma, log, sqrt

import pytest

from catqfi import closed_form as cf
from catqfi.channels import LossSpec, loss_channel, phase_average, synthesize_extended, to_noon_mixture
from catqfi.fock import CutoffError, beam_splitter_5050, CatSpec, cat_state, coherent, extended_entangled_state, number_moment
from catqfi.qfi import qfi_pure


def series_k_oracle(n_comp: int, alpha: float, terms: int = 60) -> float:
    """sum x^{N m}/(N m)! by direct log-space evaluation (oracle route)."""
    x = alpha * alpha
    return 1.0 + fsum(
        exp(n_comp * m * log(x) - lgamma(n_comp * m + 1)) for m in range(1, terms)
    )


# ---------------------------------------------------------------------------
# normalization and k_sum
# ---------------------------------------------------------------------------


def test_normalization_vacuum_limit():
    assert cf.normalization(4, 0.0) == pytest.approx(16.0)
    assert cf.normalization(2, 0.0) == pytest.approx(4.0)


def test_normalization_m4_series_and_closed_form():
    a2 = 2.0
    closed = 4 * (1 + exp(-2 * a2) + 2 * exp(-a2) * cos(a2))
    assert cf.normalization(4, sqrt(a2)) == pytest.approx(closed, rel=1e-13)
    assert cf.normalization(4, sqrt(a2)) == pytest.approx(3.622707755617915, rel=1e-13)


def test_normalization_m2_even_cat():
    for alpha in (0.5, 1.0, 2.0):
        a2 = alpha * alpha
        assert cf.normalization(2, alpha) == pytest.approx(2 * (1 + exp(-2 * a2)), rel=1e-13)


def test_k_sum_matches_direct_series():
    for n_comp in (1, 2, 4, 8):
        for alpha in (0.3, 1.0, 2.2):
            assert cf.k_sum(n_comp, alpha) == pytest.approx(
                series_k_oracle(n_comp, alpha), rel=1e-14
            )


# ---------------------------------------------------------------------------
# fig1 moments (4HCS + coherent through the beam splitter)
# ---------------------------------------------------------------------------


def test_fig1_moments_vacuum_cat_reduces_to_coherent():
    beta = 1.0
    m = cf.fig1_moments(0.0, beta)
    assert m.mean_nb == pytest.approx(beta**2 / 4, abs=1e-14)
    assert m.mean_nb2 == pytest.approx(beta**4 / 16 + beta**2 / 4, abs=1e-14)


@pytest.mark.parametrize("alpha,beta", [(1.0, 0.0), (1.0, 1.0), (1.5, 0.375), (2.0, 0.5)])
def test_fig1_moments_vs_grid_oracle(alpha, beta):
    n_max = 48
    state = beam_splitter_5050(
        cat_state(CatSpec(4, alpha / sqrt(2)), n_max), coherent(beta / sqrt(2), n_max)
    )
    m = cf.fig1_moments(alpha, beta)
    assert number_moment(state, "b", 1) == pytest.approx(m.mean_nb, abs=1e-10)
    assert number_moment(state, "b", 2) == pytest.approx(m.mean_nb2, abs=1e-10)
    assert number_moment(state, "a", 1) == pytest.approx(m.n_av, abs=1e-10)


# ---------------------------------------------------------------------------
# ECS
# ---------------------------------------------------------------------------


def test_ecs_qfi_vacuum():
    f, nav = cf.ecs_qfi(0.0)
    assert f == 0.0
    assert nav == 0.0


def test_ecs_qfi_unit_intensity():
    f, nav = cf.ecs_qfi(1.0)
    assert f == pytest.approx(2.3897876691314965, abs=1e-14)
    assert nav == pytest.approx(0.36552928931500245, abs=1e-14)


def test_ecs_qfi_asymptotic_ratio():
    # Large amplitude: F -> a2^2 + 2 a2 and N_av -> a2/2, so
    # F/N_av -> 2(a2 + 2).  Verified against the truncated-Fock route,
    # which reproduces this ratio exactly at a2 = 25.
    a2 = 25.0
    f, nav = cf.ecs_qfi(sqrt(a2))
    assert f / nav == pytest.approx(2 * (a2 + 2), rel=0.01)


def test_ecs_qfi_vs_grid():
    state = extended_entangled_state(1, 1.0)
    f, nav = cf.ecs_qfi(1.0)
    assert qfi_pure(state, "one_mode_b") == pytest.approx(f, rel=1e-10)
    assert number_moment(state, "a", 1) == pytest.approx(nav, abs=1e-10)


# ---------------------------------------------------------------------------
# modified and extended entangled states
# ---------------------------------------------------------------------------


def test_modified_moments_vacuum():
    m = cf.modified_moments(0.0)
    assert m.mean_nb == 0.0
    assert m.mean_nb2 == 0.0


def test_modified_moments_unit_intensity():
    m = cf.modified_moments(1.0)
    assert m.mean_nb == pytest.approx((1 - exp(-2)) / (2 * (1 + exp(-1)) ** 2), abs=1e-14)
    assert m.mean_nb == pytest.approx(0.2310585786300049, abs=1e-14)


def test_modified_qfi_matches_synthesized_state():
    for alpha in (0.7, 1.0):
        state = synthesize_extended(alpha, 0)
        assert cf.moment_qfi(cf.modified_moments(alpha)) == pytest.approx(
            qfi_pure(state, "one_mode_b"), rel=1e-9
        )


def test_extended_reduces_to_ecs_and_modified():
    for alpha in (0.25, 0.7, 1.3, 2.0):
        one = cf.extended_moments(1, alpha)
        f, nav = cf.ecs_qfi(alpha)
        assert cf.moment_qfi(one) == pytest.approx(f, rel=1e-10)
        assert one.n_av == pytest.approx(nav, rel=1e-10)
        two = cf.extended_moments(2, alpha)
        mod = cf.modified_moments(alpha)
        assert two.mean_nb == pytest.approx(mod.mean_nb, rel=1e-10)
        assert two.mean_nb2 == pytest.approx(mod.mean_nb2, rel=1e-10)


def test_extended_moments_vs_grid_oracle():
    state = extended_entangled_state(4, 1.0)
    m = cf.extended_moments(4, 1.0)
    assert number_moment(state, "b", 1) == pytest.approx(m.mean_nb, abs=1e-9)
    assert number_moment(state, "b", 2) == pytest.approx(m.mean_nb2, abs=1e-9)


def test_moment_pair_validates():
    with pytest.raises(ValueError):
        cf.MomentPair(mean_nb=1.0, mean_nb2=0.5, n_av=1.0)


# ---------------------------------------------------------------------------
# phase-averaged weights and QFI
# ---------------------------------------------------------------------------


def test_pa_weight_modified_odd_vanishes():
    for n in (1, 3, 5, 9):
        assert cf.pa_weight("modified", 1.0, n) == 0.0


def test_pa_weight_extended_non_multiple_vanishes():
    assert cf.pa_weight("extended", 1.0, 6, n_components=4) == 0.0
    assert cf.pa_weight("extended", 1.0, 8, n_components=4) > 0.0


def test_pa_weights_sum_to_one():
    for family, n_comp in (("ecs", None), ("modified", None), ("extended", 4)):
        total = fsum(cf.pa_weight(family, 1.0, n, n_components=n_comp) for n in range(0, 80))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_pa_weights_match_numeric_sectors():
    out = phase_average(extended_entangled_state(4, 1.2))
    for st in out.stacks:
        for n, w in zip(st.sectors, st.weights[:, 0]):
            assert w == pytest.approx(cf.pa_weight("extended", 1.2, int(n), n_components=4), rel=1e-9)


def test_pa_qfi_noon_square():
    assert cf.pa_qfi("noon", 2.0) == pytest.approx(16.0)


def test_pa_qfi_analytic_values():
    assert cf.pa_qfi("ecs", 1.0) == pytest.approx(1.4621171572600098, abs=1e-14)
    assert cf.pa_qfi("modified", 1.0) == pytest.approx(1.068893290777046, abs=1e-14)


def test_pa_qfi_extended_vs_engine():
    from catqfi.qfi import DegenerateSpectrumWarning, qfi_mixed
    import warnings

    state = phase_average(extended_entangled_state(4, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrumWarning)
        engine = qfi_mixed(state, "n_b")
    assert cf.pa_qfi("extended", 1.0, n_components=4) == pytest.approx(engine, rel=1e-8)


def test_pa_qfi_unknown_family():
    with pytest.raises(ValueError):
        cf.pa_qfi("squeezed", 1.0)


# ---------------------------------------------------------------------------
# lossy spectra
# ---------------------------------------------------------------------------


def test_lossy_mixture_full_transmission_kills_minus_branch():
    mix = cf.lossy_noon_mixture("ecs", 1.0, LossSpec(1.0), n_cut=40)
    for n, lam_p, lam_m in mix.rows:
        assert lam_m == 0.0
        assert lam_p == pytest.approx(cf.pa_weight("ecs", 1.0, n), rel=1e-12)


@pytest.mark.parametrize("family,n_comp", [("ecs", None), ("modified", None), ("extended", 4)])
def test_lossy_mixture_matches_channel_pipeline(family, n_comp):
    alpha, t = 1.0, 0.9
    state = extended_entangled_state(n_comp or {"ecs": 1, "modified": 2}[family], alpha)
    pipeline = to_noon_mixture(loss_channel(phase_average(state), LossSpec(t)))
    analytic = cf.lossy_noon_mixture(family, alpha, LossSpec(t), n_cut=state.n_max, n_components=n_comp)
    got = {n: (lp, lm) for n, lp, lm in pipeline.rows}
    for n, lam_p, lam_m in analytic.rows:
        gp, gm = got.get(n, (0.0, 0.0))
        assert gp == pytest.approx(lam_p, abs=1e-8)
        assert gm == pytest.approx(lam_m, abs=1e-8)
    assert analytic.trace() == pytest.approx(1.0, abs=1e-10)


def test_lossy_mixture_trace_guard():
    with pytest.raises(CutoffError):
        cf.lossy_noon_mixture("ecs", 2.0, LossSpec(0.9), n_cut=3)


def test_lossy_noon_requires_integer():
    with pytest.raises(ValueError):
        cf.lossy_noon_mixture("noon", 1.3, LossSpec(0.9), n_cut=12)
