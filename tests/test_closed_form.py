"""Closed-form module tests against series oracles and the grid pipeline."""

import time
from math import cos, exp, fsum, lgamma, log, sqrt

import pytest

from catqfi import bench
from catqfi import closed_form as cf
from catqfi.channels import LossSpec, loss_channel, phase_average, synthesize_heralded
from catqfi.fock import (
    CatSpec,
    CutoffError,
    beam_splitter_5050,
    cat_state,
    coherent,
    default_cutoff,
    extended_entangled_state,
    number_moment,
)
from catqfi.qfi import qfi_pure
from noon_basis import qfi_noon_mixture, to_noon_mixture


def series_k_oracle(n_comp: int, alpha: float, order: int = 0, terms: int = 60) -> float:
    """sum (N m)^order x^{N m}/(N m)! by direct log-space evaluation (oracle route)."""
    x = alpha * alpha
    return float(order == 0) + fsum(
        (n_comp * m) ** order * exp(n_comp * m * log(x) - lgamma(n_comp * m + 1)) for m in range(1, terms)
    )


def cat_norm(n_comp: int, alpha: float) -> float:
    """Norm M_N = N^2 e^{-|alpha|^2} K0 of the N-headed cat sum_k |alpha w^k>, w = e^{2 pi i/N}."""
    return n_comp * n_comp * exp(-alpha * alpha) * cf._cat_series(n_comp, alpha * alpha)[0]


# ---------------------------------------------------------------------------
# the cat series K0, K1, K2
# ---------------------------------------------------------------------------


def test_normalization_vacuum_limit():
    assert cat_norm(4, 0.0) == pytest.approx(16.0)
    assert cat_norm(2, 0.0) == pytest.approx(4.0)


def test_normalization_m4_series_and_closed_form():
    a2 = 2.0
    closed = 4 * (1 + exp(-2 * a2) + 2 * exp(-a2) * cos(a2))
    assert cat_norm(4, sqrt(a2)) == pytest.approx(closed, rel=1e-13)
    assert cat_norm(4, sqrt(a2)) == pytest.approx(3.622707755617915, rel=1e-13)


def test_normalization_m2_even_cat():
    for alpha in (0.5, 1.0, 2.0):
        a2 = alpha * alpha
        assert cat_norm(2, alpha) == pytest.approx(2 * (1 + exp(-2 * a2)), rel=1e-13)


def test_k_sum_matches_direct_series():
    for n_comp in (1, 2, 4, 8):
        for alpha in (0.3, 1.0, 2.2):
            assert cf._cat_series(n_comp, alpha * alpha) == pytest.approx(
                tuple(series_k_oracle(n_comp, alpha, order) for order in range(3)), rel=1e-14
            )


def test_cat_series_stops_when_the_first_term_underflows():
    # 4^10000/10000! underflows to 0, so the running sums never grow; the
    # series used to run all 5000 x N inner steps and raise
    t0 = time.perf_counter()
    assert cf._cat_series(10**4, 4.0) == (1.0, 0.0, 0.0)
    assert time.perf_counter() - t0 < 0.1


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
    assert qfi_pure(state, "n_b") == pytest.approx(f, rel=1e-10)
    assert number_moment(state, "a", 1) == pytest.approx(nav, abs=1e-10)


# ---------------------------------------------------------------------------
# modified and extended entangled states
# ---------------------------------------------------------------------------


def test_modified_moments_vacuum():
    m = cf.extended_moments(2, 0.0)
    assert m.mean_nb == 0.0
    assert m.mean_nb2 == 0.0


def test_modified_moments_unit_intensity():
    m = cf.extended_moments(2, 1.0)
    assert m.mean_nb == pytest.approx((1 - exp(-2)) / (2 * (1 + exp(-1)) ** 2), abs=1e-14)
    assert m.mean_nb == pytest.approx(0.2310585786300049, abs=1e-14)


def test_modified_qfi_matches_synthesized_state():
    for alpha in (0.7, 1.0):
        state = synthesize_heralded(alpha, 0)[0]
        assert cf.moment_qfi(cf.extended_moments(2, alpha)) == pytest.approx(
            qfi_pure(state, "n_b"), rel=1e-9
        )


def test_extended_reduces_to_ecs_and_modified():
    for alpha in (0.25, 0.7, 1.3, 2.0):
        one = cf.extended_moments(1, alpha)
        f, nav = cf.ecs_qfi(alpha)
        assert cf.moment_qfi(one) == pytest.approx(f, rel=1e-10)
        assert one.n_av == pytest.approx(nav, rel=1e-10)
        # the modified entangled state's explicit moments, d2 = (1 + e^{-|alpha|^2})^2
        a2 = alpha * alpha
        d2 = (1 + exp(-a2)) ** 2
        two = cf.extended_moments(2, alpha)
        assert two.mean_nb == pytest.approx(a2 * (1 - exp(-2 * a2)) / (2 * d2), rel=1e-10)
        assert two.mean_nb2 == pytest.approx(a2 * (1 + a2 + (a2 - 1) * exp(-2 * a2)) / (2 * d2), rel=1e-10)


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
        assert cf.pa_weight(2, 1.0, n) == 0.0


def test_pa_weight_extended_non_multiple_vanishes():
    assert cf.pa_weight(4, 1.0, 6) == 0.0
    assert cf.pa_weight(4, 1.0, 8) > 0.0


def test_pa_weights_sum_to_one():
    for n_comp in (1, 2, 4):  # ecs, modified, extended[N=4]
        total = fsum(cf.pa_weight(n_comp, 1.0, n) for n in range(0, 80))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_pa_weights_match_numeric_sectors():
    out = phase_average(extended_entangled_state(4, 1.2))
    for st in out.stacks:
        for n, w in zip(st.sectors, st.weights[:, 0]):
            assert w == pytest.approx(cf.pa_weight(4, 1.2, int(n)), rel=1e-9)


def test_pa_qfi_noon_square():
    curve = bench.FamilyCurve("noon", "noon", "phase_averaged")
    assert bench.closed_qfi(curve, 2.0) == pytest.approx(16.0)


def test_pa_qfi_analytic_values():
    assert cf.pa_qfi(1, 1.0) == pytest.approx(1.4621171572600098, abs=1e-14)
    assert cf.pa_qfi(2, 1.0) == pytest.approx(1.068893290777046, abs=1e-14)


def test_pa_qfi_extended_vs_engine():
    from catqfi.qfi import DegenerateSpectrumWarning, qfi_mixed
    import warnings

    state = phase_average(extended_entangled_state(4, 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrumWarning)
        engine = qfi_mixed(state, "n_b")
    assert cf.pa_qfi(4, 1.0) == pytest.approx(engine, rel=1e-8)


def test_pa_qfi_unknown_family():
    # no cat has zero heads: each N-headed form rejects N = 0 before summing
    with pytest.raises(ValueError):
        cf.pa_qfi(0, 1.0)
    with pytest.raises(ValueError):
        cf.pa_weight(0, 1.0, 2)
    with pytest.raises(ValueError):
        cf.lossy_noon_mixture(0, 1.0, LossSpec(0.9), n_cut=12)


@pytest.mark.parametrize("alpha", [27.0, 40.0])
def test_n_headed_forms_where_the_series_leave_double_range(alpha):
    # e^{alpha^2} overflows a double; a shifted series divides it out as it sums
    x = alpha * alpha
    assert cf.pa_qfi(1, alpha) == pytest.approx(x * (1 + x) / (1 + exp(-x)), rel=1e-13)
    assert cf.pa_qfi(2, alpha) == pytest.approx(x * (1 + x + (x - 1) * exp(-2 * x)) / (1 + exp(-x)) ** 2, rel=1e-13)
    w = [exp(3 * m * log(x) - lgamma(3 * m + 1) - x) for m in range(1, 1000)]
    oracle = fsum((3 * m) ** 2 * wm for m, wm in enumerate(w, 1)) / (2 * exp(-x) + fsum(w))
    assert cf.pa_qfi(3, alpha) == pytest.approx(oracle, rel=1e-12)
    f, nav = cf.ecs_qfi(alpha)
    one = cf.extended_moments(1, alpha)
    assert cf.moment_qfi(one) == pytest.approx(f, rel=1e-10)
    assert one.n_av == pytest.approx(nav, rel=1e-10)
    # the lossy rows take no shift: past double range they raise, not return NaN
    with pytest.raises(ArithmeticError):
        cf.lossy_noon_mixture(1, alpha, LossSpec(0.9), n_cut=2000)


# ---------------------------------------------------------------------------
# phase-averaged QFI under loss
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_comp", [1, 2, 3, 4, 8, 16])
def test_lossy_pa_qfi_is_the_sum_over_the_spectral_rows(n_comp):
    # F = K2(xT) / ((1 + K0(x)) K0(xR)) against sum n^2 (l+ - l-)^2/(l+ + l-)
    # over the rows of lossy_noon_mixture, cut where the grid route cuts
    checked = 0
    for t in (1.0, 0.99, 0.9, 0.85, 0.5, 0.1):
        for alpha in [k / 20 for k in range(1, 121)]:
            rows = cf.lossy_noon_mixture(n_comp, alpha, LossSpec(t), n_cut=default_cutoff(alpha))
            expected = qfi_noon_mixture(rows)
            if expected < 1e-9:
                continue
            assert cf.pa_qfi(n_comp, alpha, t) == pytest.approx(expected, rel=1e-10), (alpha, t)
            checked += 1
    assert checked > 400


def test_lossy_pa_qfi_ecs_explicit_form():
    # N = 1: K2(y) = (y^2 + y) e^y, K0(x) = e^x, so F = (x^2 T^2 + x T) e^{-2 x R} / (1 + e^{-x});
    # past alpha ~ 26.6, e^{alpha^2} leaves double range
    for alpha in [k / 2 for k in range(1, 85)]:
        x = alpha * alpha
        for t in (0.0, 0.1, 0.5, 0.85, 0.9, 0.99, 1.0):
            expected = (x * x * t * t + x * t) * exp(-2 * x * (1 - t)) / (1 + exp(-x))
            got = cf.pa_qfi(1, alpha, t)
            if expected < 1e-300:  # zero, or subnormal where exp itself rounds
                assert got < 1e-290, (alpha, t)
            else:
                assert got == pytest.approx(expected, rel=1e-12, abs=0.0), (alpha, t)


@pytest.mark.parametrize("n_comp", [1, 2, 4, 16])
def test_pa_qfi_full_transmission_is_the_lossless_form(n_comp):
    for alpha in (0.3, 1.0, 5.0, 27.0, 40.0):
        assert cf.pa_qfi(n_comp, alpha, 1.0) == cf.pa_qfi(n_comp, alpha)


# ---------------------------------------------------------------------------
# lossy spectra
# ---------------------------------------------------------------------------


def test_lossy_mixture_full_transmission_kills_minus_branch():
    mix = cf.lossy_noon_mixture(1, 1.0, LossSpec(1.0), n_cut=40)
    for n, lam_p, lam_m in mix.rows:
        assert lam_m == 0.0
        assert lam_p == pytest.approx(cf.pa_weight(1, 1.0, n), rel=1e-12)


def test_lossy_mixture_of_2_to_the_70_heads_is_the_vacuum_row_alone():
    # a row m <= 32 takes loss terms (xR)^j/j! with N | (m + j), so j >= 2^70 - 32
    mix = cf.lossy_noon_mixture(2**70, 1.0, LossSpec(0.9), n_cut=32)
    assert mix.rows[0] == (0, 1.0, 0.0)
    assert [row[1:] for row in mix.rows[1:]] == [(0.0, 0.0)] * 32


@pytest.mark.parametrize("family,n_comp", [("ecs", None), ("modified", None), ("extended", 4)])
def test_lossy_mixture_matches_channel_pipeline(family, n_comp):
    alpha, t = 1.0, 0.9
    heads = n_comp or {"ecs": 1, "modified": 2}[family]
    state = extended_entangled_state(heads, alpha)
    pipeline = to_noon_mixture(loss_channel(phase_average(state), LossSpec(t)))
    analytic = cf.lossy_noon_mixture(heads, alpha, LossSpec(t), n_cut=state.n_max)
    got = {n: (lp, lm) for n, lp, lm in pipeline.rows}
    for n, lam_p, lam_m in analytic.rows:
        gp, gm = got.get(n, (0.0, 0.0))
        assert gp == pytest.approx(lam_p, abs=1e-8)
        assert gm == pytest.approx(lam_m, abs=1e-8)
    assert analytic.trace() == pytest.approx(1.0, abs=1e-10)


def test_lossy_mixture_trace_guard():
    with pytest.raises(CutoffError):
        cf.lossy_noon_mixture(1, 2.0, LossSpec(0.9), n_cut=3)


def test_lossy_noon_requires_integer():
    for n in (-1, 1.3):
        with pytest.raises(ValueError):
            cf.lossy_noon_ladder(n, LossSpec(0.9))
