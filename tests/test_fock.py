"""Fock-layer tests: constructors, beam splitter, phase shift, moments.

Expected values are produced by test-local oracles (direct series sums,
coherent-state algebra) rather than by the functions under test.
"""

import json
import os
import subprocess
import sys
import time
from functools import lru_cache
from math import cos, exp, factorial, fsum, lgamma, log, pi, sqrt
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from catqfi import bench, channels, cli, fock
from catqfi import closed_form as cf
from catqfi.channels import phase_average
from catqfi.fock import (
    N_MAX_LIMIT,
    CatSpec,
    CutoffError,
    FockVector,
    beam_splitter_5050,
    cat_state,
    coherent,
    extended_entangled_state,
    fidelity,
    mandel_q,
    noon_state,
    number_moment,
    phase_shift,
    default_cutoff,
    product_state,
)


def poisson_tail(n_max: int, lam: float) -> float:
    """Direct Poisson tail sum P(X > n_max), smallest terms gathered by fsum."""
    return fsum(
        exp(-lam + n * log(lam) - lgamma(n + 1)) for n in range(n_max + 1, n_max + 500)
    )


# ---------------------------------------------------------------------------
# coherent states
# ---------------------------------------------------------------------------


def test_coherent_vacuum():
    vec = coherent(0.0, 32)
    assert vec.amps[0] == 1.0
    assert np.all(vec.amps[1:] == 0)


def test_coherent_amplitude_direct_formula():
    vec = coherent(1.0, 32)
    assert abs(vec.amps[2] - exp(-0.5) / sqrt(2)) < 1e-15
    assert abs(vec.amps[2].imag) == 0.0


def single_mode_moment(vec, order: int) -> float:
    """<n^order> of a single-mode state from its photon-number distribution (need not be normalized)."""
    p = np.abs(vec.amps) ** 2
    return float(np.sum(np.arange(len(p), dtype=float) ** order * p) / np.sum(p))


def test_coherent_mean_photon():
    for alpha in (0.7, 1.3 + 0.4j, 2.5):
        vec = coherent(alpha, 64)
        a2 = abs(alpha) ** 2
        assert abs(single_mode_moment(vec, 1) - a2) < 1e-10
        assert abs(single_mode_moment(vec, 2) - (a2 * a2 + a2)) < 1e-10


def test_coherent_complex_phase():
    vec = coherent(1.0j, 32)
    assert abs(vec.amps[1] - 1.0j * exp(-0.5)) < 1e-15


def test_coherent_cutoff_too_small():
    with pytest.raises(CutoffError):
        coherent(3.0, 12)


def test_norm_after_normalize():
    vec = coherent(1.7, 48).normalize()
    assert abs(vec.norm_sq() - 1.0) <= 1e-12


# ---------------------------------------------------------------------------
# default cutoff
# ---------------------------------------------------------------------------


def test_default_cutoff_floor():
    assert default_cutoff(0.0) == 32
    # the heuristic is 31 at alpha = 1; Poisson(1) crosses 1e-12 at n = 14
    assert default_cutoff(1.0) == 32


def test_truncation_bound_tail_oracle():
    # the truncation bound is default_cutoff: its Poisson tail sits under
    # 1e-12 and under the Bernstein bound its docstring cites
    for alpha in (2.0, 3.0):
        n_max, lam = default_cutoff(alpha), alpha * alpha
        tail = poisson_tail(n_max, lam)
        assert tail <= 1e-12
        t = n_max - lam
        assert tail <= exp(-t * t / (2 * lam + 2 * t / 3))


@pytest.mark.parametrize(
    "alphas",
    [np.sqrt(np.arange(1991)), np.arange(1001) / 100],
    ids=["sqrt_k_to_1990", "grid_0.01_to_10"],
)
def test_truncation_bound_matches_tail_oracle_everywhere(alphas):
    # default_cutoff leaves Poisson(alpha^2) tail <= 1e-12 by the direct sum
    for alpha in alphas:
        try:
            n_max = default_cutoff(alpha)
        except CutoffError as exc:  # the grid ends near alpha = 39.8
            assert "grid limit" in str(exc) and alpha > 39.0, alpha
            continue
        assert n_max >= 32
        if alpha > 0.0:
            assert poisson_tail(n_max, alpha * alpha) <= 1e-12, alpha


def test_default_cutoff_monotone():
    assert default_cutoff(2.0) >= default_cutoff(1.0)
    assert default_cutoff(3.0) >= default_cutoff(2.0)


@pytest.mark.parametrize("alpha", [45.0, 1000.0, 1e6])
def test_cutoff_beyond_grid_limit_raises_before_allocating(alpha):
    # default_cutoff(1000) would be 1,010,020: a two-mode grid of ~15,200 GiB
    t0 = time.perf_counter()
    with pytest.raises(CutoffError, match="grid limit"):
        default_cutoff(alpha)
    assert time.perf_counter() - t0 < 1.0
    assert default_cutoff(39.0) <= N_MAX_LIMIT


def test_noon_state_beyond_grid_limit_raises():
    with pytest.raises(CutoffError, match="grid limit"):
        noon_state(N_MAX_LIMIT + 1, N_MAX_LIMIT + 1)


# ---------------------------------------------------------------------------
# cat states
# ---------------------------------------------------------------------------


def test_cat_single_component_is_coherent():
    cat = cat_state(CatSpec(1, 0.9), 40)
    coh = coherent(0.9, 40)
    assert np.max(np.abs(cat.amps - coh.amps)) < 1e-14


def test_cat_alpha_zero_is_vacuum():
    cat = cat_state(CatSpec(2, 0.0), 32)
    assert cat.amps[0] == 1.0
    assert np.all(cat.amps[1:] == 0)


def test_cat_support_on_multiples():
    cat = cat_state(CatSpec(3, 1.2), 40)
    nonzero = np.nonzero(cat.amps)[0]
    assert np.all(nonzero % 3 == 0)


def test_cat4_amplitudes_vs_series_oracle():
    # |alpha|^2 = 2: normalization from the direct overlap series,
    # cross-checked against 4[1 + e^{-2a} + 2 e^{-a} cos a]
    a2 = 2.0
    alpha = sqrt(a2)
    m4_series = 16 * exp(-a2) * fsum(a2 ** (4 * n) / factorial(4 * n) for n in range(30))
    m4_closed = 4 * (1 + exp(-2 * a2) + 2 * exp(-a2) * cos(a2))
    assert abs(m4_series - m4_closed) < 1e-13
    cat = cat_state(CatSpec(4, alpha), 40)
    for n in range(0, 4):
        expected = 4 * exp(-a2 / 2) / sqrt(m4_series) * alpha ** (4 * n) / sqrt(factorial(4 * n))
        assert abs(cat.amps[4 * n] - expected) < 1e-12


def test_cat_equals_coherent_superposition():
    # Sum of N coherent vectors at evenly spaced phases, normalized numerically
    N, alpha = 3, 0.9
    total = np.zeros(41, dtype=complex)
    for k in range(N):
        total += coherent(alpha * np.exp(2j * pi * k / N), 40).amps
    total /= np.linalg.norm(total)
    cat = cat_state(CatSpec(N, alpha), 40)
    assert abs(np.vdot(total, cat.amps)) ** 2 > 1 - 1e-12


@pytest.mark.parametrize("n_components, alpha", [(32, 5.0), (64, 7.0)])
def test_cat_tail_check_weighs_the_first_point_past_the_grid(n_components, alpha):
    # the support comes in steps of N: at N = 32, alpha = 5 the grid 0..95 keeps
    # 0, 32, 64 and drops 96 onwards, whose weight is far below TAIL_TOL
    n_max = default_cutoff(alpha)
    vec = cat_state(CatSpec(n_components, alpha), n_max)
    first_dropped = (n_max // n_components + 1) * n_components
    dropped = exp(-alpha * alpha + first_dropped * log(alpha * alpha) - lgamma(first_dropped + 1))
    assert dropped < 1e-12 * exp(-alpha * alpha)
    assert vec.norm_sq() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize("n_components, alpha, n_max", [(32, 5.0, 63), (32, 5.0, 40), (2, 3.0, 10), (4, 2.0, 13)])
def test_cat_cutoff_too_small(n_components, alpha, n_max):
    with pytest.raises(CutoffError):
        cat_state(CatSpec(n_components, alpha), n_max)


@pytest.mark.parametrize("make", [lambda: cat_state(CatSpec(2, 30.0), 5), lambda: coherent(30.0, 0)],
                         ids=["cat", "coherent"])
def test_truncation_is_caught_where_the_squared_amplitudes_underflow(make):
    # at alpha = 30 every kept |amp|^2 is below 1e-190 and underflows to 0, and so does the
    # dropped one, while the dropped mass is 10^4 (cat) and 1 (coherent) times the kept
    with pytest.raises(CutoffError, match="cutoff too small"):
        make()


def test_cat_mean_photon_two_routes():
    # grid moment vs term-wise series over the cat's own support
    N, alpha = 4, 1.3
    a2 = alpha * alpha
    weights = [
        (n, exp(-a2 + n * log(a2) - lgamma(n + 1)) if n else exp(-a2))
        for n in range(0, 120, N)
    ]
    z = fsum(w for _, w in weights)
    mean_series = fsum(n * w for n, w in weights) / z
    cat = cat_state(CatSpec(N, alpha), 48)
    assert single_mode_moment(cat, 1) == pytest.approx(mean_series, abs=1e-10)


def test_cat_is_nth_order_annihilation_eigenstate():
    N, alpha = 4, 1.1
    cat = cat_state(CatSpec(N, alpha), 48)
    amps = cat.amps.copy()
    for _ in range(N):
        lowered = np.zeros_like(amps)
        ns = np.arange(len(amps) - 1)
        lowered[:-1] = np.sqrt(ns + 1.0) * amps[1:]
        amps = lowered
    # a^N |C_N> = alpha^N |C_N> on the retained grid
    expect = alpha**N * cat.amps
    assert np.max(np.abs(amps[:-N] - expect[:-N])) < 1e-10


# ---------------------------------------------------------------------------
# beam splitter
# ---------------------------------------------------------------------------


def _bs_block_tridiagonal_reference(n: int) -> np.ndarray:
    """The sector block from scipy's tridiagonal eigensolver, the construction numpy's eigh replaced."""
    from scipy.linalg import eigh_tridiagonal

    if n == 0:
        return np.ones((1, 1))
    k = np.arange(n)
    w, v = eigh_tridiagonal(np.zeros(n + 1), np.sqrt((k + 1.0) * (n - k)))
    d = 1j ** np.arange(n + 1)
    u = (d[:, None] * v) @ (np.exp(-1j * (pi / 4) * w)[:, None] * (v.T * d.conj()[None, :]))
    return u.real


def test_bs_blocks_match_tridiagonal_reference():
    pytest.importorskip("scipy")
    for n in range(261):
        block = fock._bs_block(n)
        assert np.max(np.abs(block - _bs_block_tridiagonal_reference(n))) <= 1e-14, n
        assert not block.flags.writeable


def test_import_loads_neither_scipy_nor_numpy_ma():
    code = "import sys, catqfi.cli; print(sorted(m for m in ('scipy', 'numpy.ma') if m in sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(fock.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "[]"


def test_beam_splitter_vacuum():
    vac = coherent(0.0, 16)
    out = beam_splitter_5050(vac, vac)
    assert abs(out.amps[0, 0] - 1.0) < 1e-14
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_beam_splitter_coherent_branches():
    # |alpha/sqrt2>|beta/sqrt2> -> |(beta+alpha)/2>|(beta-alpha)/2>
    alpha, beta = 1.0, 0.5
    out = beam_splitter_5050(coherent(alpha / sqrt(2), 32), coherent(beta / sqrt(2), 32))
    target = product_state(coherent((beta + alpha) / 2, 32), coherent((beta - alpha) / 2, 32))
    assert fidelity(target, out) > 1 - 1e-10
    assert abs(out.norm_sq() - 1.0) < 1e-10


def test_beam_splitter_dimension_mismatch():
    with pytest.raises(ValueError):
        beam_splitter_5050(coherent(0.3, 16), coherent(0.3, 20))


def test_beam_splitter_corner_truncation_raises():
    # both inputs pass their own tail check at n_max = 28, but the output
    # sectors n > 28 spill 4.7e-8 of the norm past the grid corner
    n_max = 28
    cat = cat_state(CatSpec(4, 3 / sqrt(2)), n_max)
    coh = coherent(3 / sqrt(2), n_max)
    with pytest.raises(CutoffError, match="grid corner"):
        beam_splitter_5050(cat, coh)
    wide = default_cutoff(3 / sqrt(2))
    out = beam_splitter_5050(cat_state(CatSpec(4, 3 / sqrt(2)), wide), coherent(3 / sqrt(2), wide))
    assert out.norm_sq() == pytest.approx(1.0, abs=1e-12)


def test_beam_splitter_preserves_sector_masses():
    a = cat_state(CatSpec(2, 0.8), 32)
    b = coherent(0.6, 32)
    before = product_state(a, b)
    after = beam_splitter_5050(a, b)

    def sector_masses(state):
        p = np.abs(state.amps) ** 2
        masses = np.zeros(2 * state.n_max + 1)
        for i in range(state.n_max + 1):
            for j in range(state.n_max + 1):
                masses[i + j] += p[i, j]
        return masses

    assert np.max(np.abs(sector_masses(before) - sector_masses(after))) < 1e-10


def test_beam_splitter_corner_block_matches_full_sector_product():
    # the reference pads each sector to n + 1 cells and applies the whole block
    a, b = cat_state(CatSpec(4, 2.0), 50), coherent(1.0 - 0.5j, 50)
    grid = np.outer(a.amps, b.amps)
    expected = np.zeros_like(grid)
    for n in range(101):
        ks = np.arange(max(0, n - 50), min(n, 50) + 1)
        vec = np.zeros(n + 1, dtype=complex)
        vec[ks] = grid[ks, n - ks]
        expected[ks, n - ks] = (fock._bs_block(n) @ vec)[ks]
    assert np.max(np.abs(beam_splitter_5050(a, b).amps - expected)) <= 1e-15


_cached_block = lru_cache(maxsize=None)(fock._bs_block)  # the 200 cat4 states below share their sectors


def _per_sector_product(a, b):
    """The beam splitter's corner product gathered and scattered sector by sector
    through index arrays: the reference for its strided anti-diagonal slices."""
    n_max = a.n_max
    grid = np.outer(a.amps, b.amps)
    out = np.zeros_like(grid)
    for n in range(2 * n_max + 1):
        k_lo, k_hi = max(0, n - n_max), min(n, n_max) + 1
        ks = np.arange(k_lo, k_hi)
        vec = grid[ks, n - ks]
        if vec.any():
            out[ks, n - ks] = _cached_block(n)[k_lo:k_hi, k_lo:k_hi] @ vec
    return out


def test_beam_splitter_on_the_smallest_grids():
    # n_max = 0: one cell, so the anti-diagonal stride n_max would be 0
    one = FockVector(np.array([0.6 + 0.8j]))
    assert np.array_equal(beam_splitter_5050(one, one).amps, [[(0.6 + 0.8j) ** 2]])
    # n_max = 1: a^dag -> (a^dag - b^dag)/sqrt2 and b^dag -> (a^dag + b^dag)/sqrt2
    vac, photon = FockVector(np.array([1.0 + 0j, 0.0])), FockVector(np.array([0.0, 1.0 + 0j]))
    for a, b, expected in ((photon, vac, [[0, -1], [1, 0]]), (vac, photon, [[0, 1], [1, 0]])):
        out = beam_splitter_5050(a, b).amps
        assert np.array_equal(out, _per_sector_product(a, b))
        assert np.allclose(out, np.array(expected) / sqrt(2), rtol=0, atol=1e-15)
    # |1,1> -> (|2,0> - |0,2>)/sqrt2 lies wholly past the corner
    with pytest.raises(CutoffError, match="grid corner"):
        beam_splitter_5050(photon, photon)


def _cat4_points():
    """Every cat4 (curve, alpha) of the fig1 sweep and of verify's (alpha, beta/alpha) grid."""
    fig1 = bench.FIGURES["fig1"]
    points = [(c, alpha) for c in fig1.curves if c.kind == "cat4" for alpha in fig1.alpha_grid]
    points += [
        (bench.FamilyCurve("cat4", "cat4", "pure", beta_ratio=ratio), alpha)
        for alpha in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
        for ratio in (0.0, 0.25, 0.5, 1.0)
    ]
    assert len(points) == 4 * 44 + 24
    return points


@lru_cache(maxsize=None)
def _beam_splitter_build(curve, alpha):
    """|C_4(alpha/sqrt2)>, |beta/sqrt2> at the cutoff of the cat4 family's state, and
    their beam-splitter output, shared by the tests below."""
    beta = curve.beta_ratio * alpha
    n_max = default_cutoff(sqrt((alpha * alpha + beta * beta) / 2))
    a, b = cat_state(CatSpec(4, alpha / sqrt(2)), n_max), coherent(beta / sqrt(2), n_max)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(fock, "_bs_block", _cached_block)
        return a, b, beam_splitter_5050(a, b)


def _forbid_beam_splitter(monkeypatch):
    def beam_splitter(*args):
        raise AssertionError("a state build reached the beam splitter")

    for module in (fock, bench, channels):
        monkeypatch.setattr(module, "beam_splitter_5050", beam_splitter, raising=False)


def test_beam_splitter_is_bit_identical_to_the_per_sector_product():
    for c, alpha in _cat4_points():
        a, b, out = _beam_splitter_build(c, alpha)
        assert np.array_equal(out.amps, _per_sector_product(a, b))


def test_no_figure_or_verify_state_is_built_by_the_beam_splitter(monkeypatch):
    _forbid_beam_splitter(monkeypatch)
    built = 0
    for figure in bench.FIGURES.values():
        for c in figure.curves:
            for alpha in figure.alpha_grid:
                built += c.state(alpha) is not None
    for c, alpha in _cat4_points():
        built += c.state(alpha) is not None
    assert built == 1538  # noon has a grid state only where alpha^2 is an integer


def test_synthesize_does_not_reach_the_beam_splitter(monkeypatch):
    # n_max 1220: 2,441 dense sector blocks, had the beam splitter built the input
    _forbid_beam_splitter(monkeypatch)
    result = CliRunner().invoke(cli.main, ["synthesize", "--alpha", "30", "-k", "2"])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["fidelity"] == pytest.approx(1.0, abs=1e-12)


def test_cat4_heads_sum_to_the_beam_splitter_output(monkeypatch):
    # the (gamma, delta) convention of the component build, checked against the beam splitter
    points = _cat4_points() + [(bench.FamilyCurve("cat4", "cat4", "pure", beta_ratio=1.0), 6.0)]
    with monkeypatch.context() as m:
        _forbid_beam_splitter(m)
        states = [c.state(alpha) for c, alpha in points]
    for (c, alpha), state in zip(points, states):
        expected = _beam_splitter_build(c, alpha)[2].normalize()
        assert state.n_max == expected.n_max
        assert np.max(np.abs(state.amps - expected.amps)) <= 1e-13, (c.label, alpha)


def test_phase_averaged_cat4_at_zero_beta_has_only_sectors_of_four():
    # exact head phases: the cells off n = 0 (mod 4) cancel to zero, not to 1e-17 residues
    state = bench.point_curve("cat4", "phase_averaged", 2.0, 0.0).state(2.0)
    na, nb = np.nonzero(state.amps)
    assert np.all((na + nb) % 4 == 0)
    sectors = np.concatenate([st.sectors for st in phase_average(state).stacks])
    assert sorted(sectors) == list(range(0, 2 * state.n_max + 1, 4))


def test_beam_splitter_cat_moment_matches_closed_form():
    alpha = beta = 1.0
    out = beam_splitter_5050(
        cat_state(CatSpec(4, alpha / sqrt(2)), 40), coherent(beta / sqrt(2), 40)
    )
    assert number_moment(out, "b", 1) == pytest.approx(cf.fig1_moments(alpha, beta).mean_nb, abs=1e-10)


# ---------------------------------------------------------------------------
# phase shift and moments
# ---------------------------------------------------------------------------


def test_phase_shift_identity_and_period():
    state = beam_splitter_5050(coherent(0.7, 24), coherent(0.4, 24))
    assert np.max(np.abs(phase_shift(state, "b", 0.0).amps - state.amps)) == 0.0
    assert np.max(np.abs(phase_shift(state, "b", 2 * pi).amps - state.amps)) < 1e-12


def test_phase_shift_additive_composition():
    state = beam_splitter_5050(coherent(0.7, 24), coherent(0.4, 24))
    once = phase_shift(phase_shift(state, "a", 0.3), "a", 0.9)
    combined = phase_shift(state, "a", 1.2)
    assert np.max(np.abs(once.amps - combined.amps)) < 1e-15


def test_phase_shift_noon_component():
    n = 3
    state = noon_state(n, 16)
    shifted = phase_shift(state, "b", 0.37)
    assert shifted.amps[n, 0] == pytest.approx(1 / sqrt(2))
    assert shifted.amps[0, n] == pytest.approx(np.exp(1j * n * 0.37) / sqrt(2))


def test_number_moment_vacuum_and_coherent():
    vac = product_state(coherent(0.0, 16), coherent(0.0, 16))
    assert number_moment(vac, "a", 1) == 0.0
    assert number_moment(vac, "b", 2) == 0.0
    a2 = 1.3**2
    state = product_state(coherent(1.3, 40), coherent(0.0, 40))
    assert number_moment(state, "a", 1) == pytest.approx(a2, abs=1e-10)
    assert number_moment(state, "a", 2) == pytest.approx(a2 * a2 + a2, abs=1e-10)


def test_number_moment_ecs_nav():
    # N_av = |alpha|^2 / (2 (1 + e^{-|alpha|^2})) at |alpha|^2 = 1
    ecs = extended_entangled_state(1, 1.0)
    expected = 1.0 / (2 * (1 + exp(-1.0)))
    assert number_moment(ecs, "a", 1) == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(0.36552928931500245, abs=1e-15)


# ---------------------------------------------------------------------------
# Mandel Q
# ---------------------------------------------------------------------------


def test_mandel_q_coherent_poissonian():
    assert abs(mandel_q(coherent(1.3, 48))) < 1e-10


def test_mandel_q_fock_state():
    amps = np.zeros(16, dtype=complex)
    amps[5] = 1.0
    assert mandel_q(FockVector(amps)) == pytest.approx(-1.0, abs=1e-14)


def test_mandel_q_vacuum_undefined():
    with pytest.raises(ValueError):
        mandel_q(coherent(0.0, 16))


def test_mandel_q_cat2_series_oracle():
    # brute-force moments over the even-photon Poisson profile of a 2HCS
    a = 1.0
    weights = [(n, exp(-a) * a**n / factorial(n)) for n in range(0, 120, 2)]
    z = fsum(w for _, w in weights)
    m1 = fsum(n * w for n, w in weights) / z
    m2 = fsum(n * n * w for n, w in weights) / z
    expected = (m2 - m1 * m1) / m1 - 1.0
    assert mandel_q(cat_state(CatSpec(2, 1.0), 40)) == pytest.approx(expected, abs=1e-10)


# ---------------------------------------------------------------------------
# entangled-state builders
# ---------------------------------------------------------------------------


def test_noon_state_layout():
    state = noon_state(4, 16)
    assert state.amps[4, 0] == pytest.approx(1 / sqrt(2))
    assert state.amps[0, 4] == pytest.approx(1 / sqrt(2))
    assert state.norm_sq() == pytest.approx(1.0)
    assert noon_state(0, 8).amps[0, 0] == 1.0


def test_extended_state_n1_matches_manual_ecs():
    alpha, n_max = 1.0, 40
    c = coherent(alpha, n_max).amps
    manual = np.zeros((n_max + 1, n_max + 1), dtype=complex)
    manual[:, 0] += c
    manual[0, :] += c
    manual /= np.linalg.norm(manual)
    built = extended_entangled_state(1, alpha, n_max)
    assert abs(np.vdot(manual, built.amps)) ** 2 > 1 - 1e-12
