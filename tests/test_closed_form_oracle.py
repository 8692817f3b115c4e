"""The closed forms against a 50-digit mpmath evaluation of the same sums.

The oracle sums K_j(x) = sum_m (N m)^j x^{N m}/(N m)! term by term at 50
significant digits, with no scaling: mpmath's exponent range is unbounded.
It takes the same double arguments x = alpha^2, x T and x (1 - T) that the
closed forms form, so the comparison measures the summation alone: one ulp
in x moves K0 ~ e^x by x ulps.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf

from catqfi import closed_form as cf

HEADS = (1, 2, 4, 16, 64)
REL = 1e-13
# the smallest normal double: below it a double keeps fewer than 53 bits, and
# a series term that small can underflow to 0
NORMAL_MIN = mpf(2) ** -1022


def k_sums(n_comp: int, x: float) -> tuple[mpf, mpf, mpf]:
    """(K0, K1, K2) at 50 digits, summed past the peak until a K2 term falls below 1e-55 of K2."""
    with mp.workdps(50):
        x = mpf(x)
        k0, k1, k2 = mpf(1), mpf(0), mpf(0)
        term, n = mpf(1), 0
        while x > 0:
            for j in range(n + 1, n + n_comp + 1):
                term *= x / j
            n += n_comp
            k0, k1, k2 = k0 + term, k1 + n * term, k2 + n * n * term
            if n > x and n * n * term < mpf(10) ** -55 * k2:
                break
        return k0, k1, k2


def pa_qfi_ref(n_comp: int, alpha: float, t: float) -> mpf:
    """F = K2(x T) / ((1 + K0(x)) K0(x R))."""
    x = alpha * alpha
    with mp.workdps(50):
        return k_sums(n_comp, x * t)[2] / ((1 + k_sums(n_comp, x)[0]) * k_sums(n_comp, x * (1.0 - t))[0])


def extended_ref(n_comp: int, alpha: float) -> tuple[mpf, mpf]:
    """(4 Var(n_b), <n_b>) of (|C_N>|0> + |0>|C_N>)/sqrt(M): <n_b^j> = K_j / (2 (1 + K0))."""
    with mp.workdps(50):
        k0, k1, k2 = k_sums(n_comp, alpha * alpha)
        nb, nb2 = k1 / (2 * (1 + k0)), k2 / (2 * (1 + k0))
        return 4 * (nb2 - nb * nb), nb


def fig1_ref(alpha: float, beta: float) -> tuple[mpf, mpf, mpf]:
    """(4 Var(n_b), <n_b>, <n_b^2>) of the 4HCS + coherent beam-splitter output, from the N = 4 sums at alpha^2/2."""
    with mp.workdps(50):
        k0, k1, k2 = k_sums(4, alpha * alpha / 2)
        b2 = mpf(beta * beta)
        nb = (b2 * k0 + 2 * k1) / (4 * k0)
        nb2 = nb + (b2 * b2 * k0 + 8 * b2 * k1 + 4 * (k2 - k1)) / (16 * k0)
        return 4 * (nb2 - nb * nb), nb, nb2


def assert_close(got: float | mpf, ref: mpf) -> None:
    """Relative REL, or absolute NORMAL_MIN where the reference is below the normal doubles."""
    with mp.workdps(50):
        assert abs(mpf(got) - ref) <= REL * abs(ref) + NORMAL_MIN, (got, ref)


def assert_series_close(n_comp: int, x: float) -> None:
    """2^e K_j from `_cat_series` against the oracle's K_j, j = 0, 1, 2."""
    k0, k1, k2, e = cf._cat_series(n_comp, x)
    for got, ref in zip((k0, k1, k2), k_sums(n_comp, x)):
        assert_close(mpf(got) * mpf(2) ** e, ref)


@settings(max_examples=60)
@given(st.sampled_from(HEADS), st.floats(0.1, 20.0), st.floats(0.5, 1.0))
def test_closed_forms_match_the_50_digit_sums(n_comp, alpha, t):
    # alpha from 0.1: below about 0.06 the N = 64 QFI itself leaves double range
    x = alpha * alpha
    for arg in (x, x * t, x * (1.0 - t)):
        assert_series_close(n_comp, arg)
    assert_close(cf.pa_qfi(n_comp, alpha, t), pa_qfi_ref(n_comp, alpha, t))
    f, nav = extended_ref(n_comp, alpha)
    m = cf.extended_moments(n_comp, alpha)
    assert_close(cf.moment_qfi(m), f)
    assert_close(m.n_av, nav)


@settings(max_examples=40)
@given(st.floats(0.1, 20.0), st.floats(0.0, 2.0))
def test_fig1_moments_match_the_50_digit_sums(alpha, beta_ratio):
    beta = beta_ratio * alpha
    f, nb, nb2 = fig1_ref(alpha, beta)
    m = cf.fig1_moments(alpha, beta)
    assert_close(m.n_av, nb)
    assert_close(m.mean_nb2, nb2)
    # Var(n_b) is formed without 4 (<n_b^2> - <n_b>^2), which cancelled about <n_b> ulps: 1.2e-13 off
    # at alpha = 18-20 that way, within 1.1e-15 of the oracle now
    assert_close(cf.moment_qfi(m), f)


@pytest.mark.parametrize("alpha", [26.0, 30.0, 40.0])
@pytest.mark.parametrize("n_comp", HEADS)
def test_scaled_sums_match_the_50_digit_sums(n_comp, alpha):
    # e^{alpha^2} passes 2^900 here, so each series divides it out as it sums (e > 0)
    x = alpha * alpha
    assert cf._cat_series(n_comp, x)[3] > 0
    assert_series_close(n_comp, x)
    for t in (0.5, 0.75, 0.9, 1.0):
        assert_close(cf.pa_qfi(n_comp, alpha, t), pa_qfi_ref(n_comp, alpha, t))
    f, nav = extended_ref(n_comp, alpha)
    m = cf.extended_moments(n_comp, alpha)
    assert_close(cf.moment_qfi(m), f)
    assert_close(m.n_av, nav)


def test_a_qfi_below_double_range_reads_zero():
    ref = pa_qfi_ref(1, 30.0, 0.5)
    assert ref < mpf(2) ** -1075  # 2.8e-386, below half the smallest subnormal: it rounds to 0
    assert cf.pa_qfi(1, 30.0, 0.5) == 0.0
