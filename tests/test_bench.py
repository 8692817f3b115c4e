"""Sweep machinery tests: rows, equal-energy lookup, crossover, verifier, encodings."""

import bisect
import inspect
import json
import random
import subprocess
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from math import sqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catqfi import bench, channels, fock, qfi
from catqfi import closed_form as cf


# ---------------------------------------------------------------------------
# sweep rows
# ---------------------------------------------------------------------------


def test_sweep_coherent_classical_point():
    rows = [r for r in bench.run_sweep("fig1", (1.0,)) if r.family == "coherent"]
    assert len(rows) == 2  # closed_form + numeric
    for r in rows:
        assert r.qfi == pytest.approx(2.0, abs=1e-10)
        assert r.delta_phi == pytest.approx(1 / sqrt(2), abs=1e-10)
        assert r.n_av == pytest.approx(0.5, abs=1e-10)


@pytest.mark.parametrize(
    "kind, kwargs",
    [
        ("squeezed", {}),
        ("ecs", {"variant": "mixed"}),
        ("ecs", {"n_components": 3}),
        ("ecs", {"beta_ratio": 0.5}),
        ("coherent", {"n_components": 1}),
        ("cat4", {}),
        ("extended", {}),
        ("extended", {"n_components": 0}),
        ("noon", {"transmission": 0.9}),
        ("noon", {"variant": "phase_averaged", "transmission": 1.5}),
    ],
)
def test_family_curve_rejects_parameters_outside_the_table(kind, kwargs):
    fields = {"variant": "pure", **kwargs}
    with pytest.raises(bench.ParameterError):
        bench.FamilyCurve(kind, kind, **fields)


@pytest.mark.parametrize(
    "kind, kwargs, heads",
    [("ecs", {}, 1), ("modified", {}, 2), ("cat4", {"beta_ratio": 0.5}, 4), ("coherent", {}, None), ("noon", {}, None)],
)
def test_family_curve_n_components_is_the_family_head_count(kind, kwargs, heads):
    curve = bench.FamilyCurve(kind, kind, "pure", **kwargs)
    assert curve.n_components == heads
    assert curve == bench.FamilyCurve(kind, kind, "pure", n_components=heads, **kwargs)


# the grid route's numerics, by defining module
GRID_FUNCTIONS = {
    fock: ("cat_state", "coherent", "beam_splitter_5050", "extended_entangled_state", "noon_state", "default_cutoff",
           "cat_amps", "coherent_amps", "extended_grids", "noon_grids", "product_grids", "stack_grids", "normalized",
           "number_moments"),
    channels: ("phase_average", "loss_channel", "head_layers", "class_layers", "noon_layers", "layer_blocks"),
    qfi: ("qfi_mixed", "qfi_pure", "qfi_pure_grids"),
}


def test_closed_forms_never_call_grid_numerics(monkeypatch):
    def grid_call(*args, **kwargs):
        raise AssertionError("a closed form reached the grid route")

    for module, names in GRID_FUNCTIONS.items():
        for name in names:
            for holder in (module, bench, cf):
                if hasattr(holder, name):
                    monkeypatch.setattr(holder, name, grid_call)
    checked = 0
    for kind, family in bench.FAMILIES.items():
        n_components = 4 if "n_components" in family.params else None
        for variant, form in family.qfi.items():
            for t in (1.0, 0.9) if variant == "phase_averaged" else (1.0,):
                curve = bench.point_curve(kind, variant, 1.0, n_components=n_components, transmission=t)
                assert bench.closed_nav(curve, 1.0) > 0
                if form is not None:
                    assert bench.closed_qfi(curve, 1.0) > 0
                    checked += 1
    assert checked == 16  # 6 closed pure QFIs, and 5 phase-averaged ones at two T each
    with pytest.raises(AssertionError, match="grid route"):
        bench.numeric_point(curve, 1.0)


def test_sweep_noon_point_fig2a():
    rows = [r for r in bench.run_sweep("fig2a", (2.0,)) if r.family == "noon"]
    assert {r.path for r in rows} == {"closed_form", "numeric"}
    for r in rows:
        assert r.n_av == pytest.approx(2.0, abs=1e-12)
        assert r.qfi == pytest.approx(16.0, abs=1e-10)


def test_sweep_noon_lossy_point():
    rows = [
        r
        for r in bench.run_sweep("fig4", (sqrt(2.0),))
        if r.family == "noon" and r.transmission == 0.9
    ]
    for r in rows:
        assert r.qfi == pytest.approx(3.24, abs=1e-10)


def test_sweep_rows_pair_consistency():
    rows = bench.run_sweep("fig2b", (0.5, 1.0, 1.5))
    by_key = {}
    for r in rows:
        if r.family in ("extended[N=8]", "extended[N=16]"):
            continue
        by_key.setdefault((r.family, r.alpha, r.transmission), {})[r.path] = r
    paired = 0
    for group in by_key.values():
        if len(group) == 2:
            paired += 1
            a, b = group["closed_form"], group["numeric"]
            assert abs(a.qfi - b.qfi) / max(abs(a.qfi), 1e-6) <= 1e-8
            assert abs(a.n_av - b.n_av) / max(abs(a.n_av), 1e-6) <= 1e-8
    assert paired > 0


@pytest.mark.filterwarnings("error")  # nothing on the sweep path warns
def test_every_default_sweep_row_pair_agrees_unfloored():
    # relative to the closed value itself, with no floor: the 4HCS + coherent
    # form once cancelled O(1) terms and was 3e-8 off at alpha = 0.05
    paired = 0
    for figure, fig in bench.FIGURES.items():
        rows = bench.run_sweep(figure, fig.alpha_grid)
        closed = {(r.family, r.transmission, r.alpha): r for r in rows if r.path == "closed_form"}
        for r in rows:
            if r.path != "numeric":
                continue
            c = closed[(r.family, r.transmission, r.alpha)]
            for name in ("qfi", "n_av"):
                want, got = getattr(c, name), getattr(r, name)
                if want != 0:
                    assert abs(got - want) <= 1e-12 * abs(want), (figure, r.family, r.transmission, r.alpha, name)
            paired += 1
    assert paired > 1000


def test_sweep_row_delta_phi_invariant():
    for r in bench.run_sweep("fig1", (0.5, 1.0)):
        if r.qfi > 0:
            assert r.delta_phi * sqrt(r.qfi) == pytest.approx(1.0, abs=1e-12)


def test_sweep_deterministic_order():
    rows_a = bench.run_sweep("fig2a", (0.5, 1.0))
    rows_b = bench.run_sweep("fig2a", (0.5, 1.0))
    assert [(r.family, r.alpha, r.path) for r in rows_a] == [
        (r.family, r.alpha, r.path) for r in rows_b
    ]
    keys = [(r.figure, r.family, r.transmission, r.alpha, r.path) for r in rows_a]
    assert keys == sorted(keys)


def test_sweep_noon_numeric_only_at_integer_n():
    rows = [r for r in bench.run_sweep("fig2a", (1.0, 1.1)) if r.family == "noon"]
    assert {r.path for r in rows if r.alpha == 1.0} == {"closed_form", "numeric"}
    assert {r.path for r in rows if r.alpha == 1.1} == {"closed_form"}


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        bench.run_sweep("fig7", (1.0,))
    with pytest.raises(ValueError):
        bench.run_sweep("fig1", ())
    with pytest.raises(ValueError):
        bench.run_sweep("fig1", (1.0, 0.5))


@pytest.mark.parametrize(
    "lo, hi, step, refused",
    [(0.0, 0.9998, 1e-4, False), (0.0, 0.99995, 1e-4, True), (1.0, 1.0, 1e-13, True)],
)
def test_alpha_range_refuses_every_grid_of_max_points_or_more(lo, hi, step, refused):
    # np.arange takes ceil((hi + 1e-9 - lo) / step) points: 9,999, 10,000 and
    # 10,001 here; a count of (hi - lo) / step let the last two through
    if refused:
        with pytest.raises(bench.ParameterError):
            bench.alpha_range(lo, hi, step)
    else:
        assert len(bench.alpha_range(lo, hi, step)) == bench.MAX_GRID_POINTS - 1


@pytest.mark.parametrize("figure", list(bench.FIGURES))
def test_figure_table_is_well_formed(figure):
    # what run_sweep, crossover's label lookup and alpha_solver assume of every entry
    grid, curves = bench.FIGURES[figure].alpha_grid, bench.FIGURES[figure].curves
    assert len(grid) > 0
    assert all(b > a for a, b in zip(grid, grid[1:]))
    keys = [(c.label, c.transmission) for c in curves]
    assert len(set(keys)) == len(keys)
    for c in curves:
        navs = [bench.closed_nav(c, alpha) for alpha in grid]
        assert all(b > a for a, b in zip(navs, navs[1:])), c.label


# ---------------------------------------------------------------------------
# the numeric route a curve at a time
# ---------------------------------------------------------------------------


def rel_close(batch, alone, tol=1e-14):
    """Both None, or (N_av, QFI) pairs within tol relative."""
    if batch is None or alone is None:
        return batch is alone
    return all(abs(b - a) <= tol * max(abs(a), 1e-300) for b, a in zip(batch, alone))


@pytest.mark.parametrize("figure", ["fig2b", "fig4"])
def test_numeric_points_match_numeric_point_on_every_curve(figure):
    grid = bench.FIGURES[figure].alpha_grid
    for curve in bench.FIGURES[figure].curves:
        batch = bench.numeric_points(curve, grid)
        assert len(batch) == len(grid)
        for alpha, got in zip(grid, batch):
            assert rel_close(got, bench.numeric_point(curve, alpha)), (curve.label, alpha)


def test_numeric_points_batch_of_mixed_cutoffs():
    curve = bench.FamilyCurve("ecs", "ecs", "phase_averaged", transmission=0.85)
    alphas = (0.5, 3.0)
    assert [curve.state(a).n_max for a in alphas] == [32, 59]
    for got, alpha in zip(bench.numeric_points(curve, alphas), alphas):
        assert rel_close(got, bench.numeric_point(curve, alpha))


@st.composite
def family_chunks(draw) -> tuple:
    """(curve, alphas, n_max): a curve of any table family, a chunk of 1-8 alphas in [0, 3] (cutoffs 32-59, so a
    chunk often mixes them; alphas near 0 and at 0 included), and n_max None or explicit.  cat4 takes beta = alpha,
    whose k = 2 head is zero, among its ratios; noon takes integer and non-integer alpha^2."""
    kind = draw(st.sampled_from(tuple(bench.FAMILIES)))
    params = bench.FAMILIES[kind].params
    beta_ratio = draw(st.sampled_from((0.0, 0.25, 0.5, 1.0)) | st.floats(0.0, 2.0)) if "beta_ratio" in params else None
    n_components = draw(st.integers(1, 16)) if "n_components" in params else None
    curve = bench.FamilyCurve(kind, kind, "pure", beta_ratio, n_components)
    amplitude = st.sampled_from((0.0, 1e-300, 1e-8, 0.05)) | st.floats(0.0, 3.0)
    if kind == "noon":
        amplitude = st.integers(0, 9).map(sqrt) | amplitude
    alphas = draw(st.lists(amplitude, min_size=1, max_size=8))
    return curve, np.array(alphas), draw(st.sampled_from((None, 45, 64)))


@settings(max_examples=150, deadline=None)
@example((bench.FamilyCurve("cat4", "cat4", "pure", beta_ratio=1.0), np.array([0.5, 3.0, 1e-8]), None))
@example((bench.FamilyCurve("ecs", "ecs", "pure"), np.array([0.0, 2.9, 0.3, 1.7]), 64))
@given(family_chunks())
def test_each_family_builds_a_chunk_as_its_points_alone(chunk):
    # row by row to 1e-15, each grid zero past its own cutoff; a chunk refused for its cutoff has a point refused
    # alone; no RuntimeWarning (an error under the test settings) on either route
    curve, alphas, n_max = chunk
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            grids, live = bench.FAMILIES[curve.kind].build(curve, alphas, n_max)
        except fock.CutoffError:
            with pytest.raises(fock.CutoffError):
                for alpha in alphas:
                    curve.state(alpha, n_max)
            return
        alone = [curve.state(alpha, n_max) for alpha in alphas]
    assert live.tolist() == [state is not None for state in alone]
    assert grids.shape[1] == live.sum()
    for got, state in zip(grids.transpose(1, 0, 2), (state for state in alone if state is not None)):
        size = state.n_max + 1
        assert got.dtype == state.amps.dtype == np.float64  # every table family is real at real alpha
        assert np.max(np.abs(got[:size, :size] - state.amps)) <= 1e-15
        assert not got[size:].any() and not got[:, size:].any()


@pytest.mark.parametrize("kind", tuple(bench.FAMILIES))
@pytest.mark.parametrize("variant, transmission", [("pure", 1.0), ("phase_averaged", 1.0), ("phase_averaged", 0.9)])
def test_a_numeric_points_chunk_calls_its_family_builder_once(monkeypatch, kind, variant, transmission):
    # no per-point build: the chunk is one stack, and no one-point state is made
    family = bench.FAMILIES[kind]
    calls = []

    def counted(curve, alphas, n_max):
        calls.append(len(alphas))
        return family.build(curve, alphas, n_max)

    def no_state(*args, **kwargs):
        raise AssertionError("numeric_points built a point alone")

    monkeypatch.setitem(bench.FAMILIES, kind, replace(family, build=counted))
    monkeypatch.setattr(bench.FamilyCurve, "state", no_state)
    n_components = 4 if "n_components" in family.params else None
    curve = bench.point_curve(kind, variant, 1.0, n_components=n_components, transmission=transmission)
    alphas = (1.0, 1.5, 2.0, sqrt(2.0), 2.5, 3.0, 0.5, sqrt(3.0))[: bench._SWEEP_CHUNK]
    points = bench.numeric_points(curve, alphas)
    assert calls == [len(alphas)]
    assert sum(p is not None for p in points) == (5 if kind == "noon" else len(alphas))  # alpha^2 = 1, 4, 2, 9, 3


@pytest.mark.parametrize(
    "alpha, beta, transmission, n_max, expected",
    [(3.0, 3.0, 0.85, 59, 14.523773265279909), (2.0, 1.0, 0.9, 39, 2.3710076415834576)],
)
def test_lossy_cat4_qfi_pinned(alpha, beta, transmission, n_max, expected):
    # values of the element-copy loss kernel that the line kernel replaced
    curve = bench.point_curve("cat4", "phase_averaged", alpha, beta, transmission=transmission)
    assert fock.default_cutoff(sqrt((alpha**2 + beta**2) / 2)) == n_max
    assert bench.numeric_point(curve, alpha)[1] == pytest.approx(expected, rel=1e-12)


def test_lossy_cat4_memory_skips_empty_sectors():
    # n_max 59: the sectors under channels.SECTOR_FLOOR skip the line kernel and
    # their eigh batches; the point peaked at 25.5 MiB traced with them, 18.3 without
    curve = bench.point_curve("cat4", "phase_averaged", 3.0, 3.0, transmission=0.85)
    tracemalloc.start()
    try:
        f = bench.numeric_point(curve, 3.0)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f == pytest.approx(14.523773265279909, rel=1e-12)
    assert peak < 22 * 2**20


def test_lossy_cat4_memory_at_large_n_av():
    # n_max 116: assembling the output sectors from element lists peaked at
    # 134 MiB traced here; the offset planes hold about 8 MB
    curve = bench.point_curve("cat4", "phase_averaged", 6.0, 6.0, transmission=0.9)
    tracemalloc.start()
    try:
        f = bench.numeric_point(curve, 6.0)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert f == pytest.approx(32.47870185066275, abs=1e-12)
    assert peak < 80 * 2**20


@pytest.mark.parametrize(
    "alpha, beta, expected",
    [(6.0, 6.0, 32.4787018506626), (8.0, 8.0, 31.604177195406717), (16.0, 1.0, 66.948299954542),
     (12.0, 6.0, 55.08118469536307)],
)
def test_lossy_cat4_qfi_pinned_at_large_n_av(alpha, beta, expected):
    # the values of the Kraus loss on the offset planes, which the coherent heads at sqrt(T) reproduce
    curve = bench.point_curve("cat4", "phase_averaged", alpha, beta, transmission=0.9)
    assert bench.numeric_point(curve, alpha)[1] == pytest.approx(expected, rel=1e-12)


NOON_SPAN = [("ecs", None), ("modified", None), ("extended", 4), ("extended", 8), ("extended", 16)]


@pytest.mark.parametrize("transmission", [0.9, 0.85])
@pytest.mark.parametrize("kind, n_components", NOON_SPAN, ids=[f"{k}-{n}" for k, n in NOON_SPAN])
def test_lossy_noon_span_points_match_the_closed_form_at_large_n_av(kind, n_components, transmission):
    # decohered blocks: the grid's mixed QFI was 1.1e-3 off for ecs at alpha 12, T 0.9, when the pair
    # term came from the difference of two nearly equal eigenvalues
    curve = bench.point_curve(kind, "phase_averaged", 5.0, n_components=n_components, transmission=transmission)
    alphas = (5.0, 8.0, 12.0)
    for alpha, (_, f) in zip(alphas, bench.numeric_points(curve, alphas)):
        assert f == pytest.approx(cf.pa_qfi(curve.n_components, alpha, transmission), rel=1e-12)


@pytest.mark.parametrize("kind", tuple(bench.FAMILIES))
def test_lossy_points_take_the_layers_not_the_kraus_planes(monkeypatch, kind):
    def kraus(*args, **kwargs):
        raise AssertionError("a lossy point reached the Kraus planes")

    monkeypatch.setattr(channels, "_planes", kraus)
    monkeypatch.setattr(channels, "_lose", kraus)
    family = bench.FAMILIES[kind]
    curve = bench.FamilyCurve(kind, kind, "phase_averaged", 0.5 if "beta_ratio" in family.params else None,
                              4 if "n_components" in family.params else None, 0.9)
    points = bench.numeric_points(curve, (1.0, 1.5, sqrt(2.0), 3.0))
    assert sum(p is not None for p in points) == (3 if kind == "noon" else 4)


def test_sweep_chunk_failure_drops_only_its_row(monkeypatch, capsys):
    chunk = bench._SWEEP_CHUNK
    grid = tuple(round(0.2 + 0.05 * i, 10) for i in range(2 * chunk + 3))
    healthy = bench.run_sweep("fig4", grid)
    capsys.readouterr()
    bad_alpha = grid[chunk + 2]  # inside the second chunk
    ecs = bench.FAMILIES["ecs"]

    def failing(curve, alphas, n_max):
        if bad_alpha in alphas and curve.transmission == 0.9:
            raise bench.CutoffError("injected")
        return ecs.build(curve, alphas, n_max)

    monkeypatch.setitem(bench.FAMILIES, "ecs", replace(ecs, build=failing))
    rows = bench.run_sweep("fig4", grid)
    aborted = [line for line in capsys.readouterr().err.splitlines() if "sweep row aborted" in line]
    assert aborted == [f"sweep row aborted: ecs alpha={bad_alpha} T=0.9: injected"]
    dropped = [
        r
        for r in healthy
        if r.family == "ecs" and r.alpha == bad_alpha and r.transmission == 0.9 and r.path == "numeric"
    ]
    assert len(dropped) == 1
    assert rows == [r for r in healthy if r is not dropped[0]]


# ---------------------------------------------------------------------------
# equal-energy lookup
# ---------------------------------------------------------------------------


def curve(figure, label, transmission=None):
    """The one curve of `figure` named `label` (at `transmission` where the figure plots several)."""
    (found,) = [
        c
        for c in bench.FIGURES[figure].curves
        if c.label == label and transmission in (None, c.transmission)
    ]
    return found


def test_interpolate_exact_sample_matches_row():
    grid = (0.8, 1.0, 1.2)
    rows = bench.run_sweep("fig2a", grid)
    target = next(r for r in rows if r.family == "ecs" and r.alpha == 1.0 and r.path == "closed_form")
    got = bench.interpolate_at_nav(curve("fig2a", "ecs"), grid, target.n_av)
    assert got == pytest.approx(target.delta_phi, abs=1e-12)


def test_interpolate_ecs_known_point():
    got = bench.interpolate_at_nav(curve("fig2a", "ecs"), (0.8, 1.0, 1.2), 0.36552928931500245)
    assert got == pytest.approx(1 / sqrt(2.3897876691314965), abs=1e-10)


def test_interpolate_noon_analytic():
    # N_av = 1.5 -> n = 3 -> delta_phi = 1/3
    assert bench.interpolate_at_nav(curve("fig2a", "noon"), (1.5, 1.8, 2.0), 1.5) == pytest.approx(1 / 3, abs=1e-10)


def test_interpolate_out_of_range():
    with pytest.raises(ValueError):
        bench.interpolate_at_nav(curve("fig2a", "ecs"), (0.8, 1.0), 50.0)


def test_interpolate_nav_must_rise_over_the_grid():
    with pytest.raises(ValueError, match="not monotone"):
        bench.interpolate_at_nav(curve("fig2a", "ecs"), (1.0, 0.8), 0.3)


def test_interpolate_lossy_curve():
    # each fig4 curve carries its transmission: loss lowers the QFI at equal N_av
    grid = (0.8, 1.0)
    lossless = bench.interpolate_at_nav(curve("fig2b", "modified"), grid, 0.2)
    assert lossless < bench.interpolate_at_nav(curve("fig4", "modified", 0.9), grid, 0.2) < (
        bench.interpolate_at_nav(curve("fig4", "modified", 0.85), grid, 0.2)
    )


FIGURE_CURVES = [(name, c) for name, figure in bench.FIGURES.items() for c in figure.curves]


@pytest.mark.parametrize(
    "figure, c", FIGURE_CURVES, ids=[f"{name}-{c.label}-T{c.transmission}" for name, c in FIGURE_CURVES]
)
def test_alpha_solver_lands_in_its_grid_cell_within_an_evaluation_budget(monkeypatch, figure, c):
    # at every sample (both ends among them), every cell midpoint and seeded
    # random N_av; a solve that bisected the alpha range would take ~50 calls
    grid = bench.FIGURES[figure].alpha_grid
    real = bench.closed_nav
    navs = [real(c, alpha) for alpha in grid]
    rng = random.Random(14)
    targets = navs + [(a + b) / 2 for a, b in zip(navs, navs[1:])]
    targets += [rng.uniform(navs[0], navs[-1]) for _ in range(100)]
    calls = []
    monkeypatch.setattr(bench, "closed_nav", lambda curve, alpha: calls.append(alpha) or real(curve, alpha))
    solve = bench.alpha_solver(c, grid)
    assert len(calls) == len(grid)
    for n_av in targets:
        calls.clear()
        alpha = solve(n_av)
        assert len(calls) <= 10, n_av
        i = bisect.bisect_left(navs, n_av)
        if navs[i] == n_av:
            assert alpha == grid[i]
        else:
            assert grid[i - 1] <= alpha <= grid[i], n_av
        assert abs(real(c, alpha) - n_av) <= 1e-12 * n_av, n_av


# ---------------------------------------------------------------------------
# crossover
# ---------------------------------------------------------------------------


FIG1_GRID = tuple(x / 20 for x in range(2, 45, 2))


def test_crossover_identical_families_rejected():
    ecs = curve("fig1", "ecs")
    with pytest.raises(bench.ParameterError):
        bench.find_crossover(ecs, ecs, FIG1_GRID, (0.3, 1.0))


@pytest.mark.parametrize("bracket", [(1.2, 0.1), (1.0, 0.2), (0.5, 0.5), (float("nan"), 1.0)])
def test_crossover_rejects_bracket_not_increasing(bracket):
    # a reversed bracket once skipped the N_av search and returned its midpoint
    # (0.65 and 0.6 for the first two, where the crossing is at 0.6694)
    with pytest.raises(bench.ParameterError):
        bench.find_crossover(curve("fig1", "ecs"), curve("fig1", "cat4[b=a/4]"), FIG1_GRID, bracket)


# the ten crossings of the equal-energy benchmark table, as Brent's method in
# N_av returns them, each beside the midpoint of the last 1e-4 bracket that the
# bisection used before it returned
CROSSOVER_TABLE = [
    ("fig1", "ecs", "cat4[b=a/2]", (0.2, 1.2), 0.7511409596737333, 0.751116943359375),
    ("fig1", "ecs", "cat4[b=a/4]", (0.2, 1.2), 0.6694686792492915, 0.669451904296875),
    ("fig1", "ecs", "cat4[b=0]", (0.2, 1.2), 0.6264298108513894, 0.626422119140625),
    ("fig1", "cat4[b=a]", "cat4[b=a/2]", (0.2, 1.2), 1.1724707773663745, 1.172442626953125),
    ("fig1", "cat4[b=a]", "cat4[b=a/4]", (0.2, 1.2), 0.9570514446506287, 0.957049560546875),
    ("fig1", "cat4[b=a]", "cat4[b=0]", (0.2, 1.2), 0.8830453923594315, 0.883074951171875),
    ("fig1", "cat4[b=a/2]", "cat4[b=a/4]", (0.2, 1.2), 0.5675215458029829, 0.567523193359375),
    ("fig1", "cat4[b=a/2]", "cat4[b=0]", (0.2, 1.2), 0.5228154707514192, 0.522845458984375),
    ("fig1", "cat4[b=a/4]", "cat4[b=0]", (0.2, 1.2), 0.41849386127344235, 0.41847534179687496),
    ("fig2b", "extended[N=4]", "extended[N=8]", (0.5, 3.5), 3.4874566238167577, 3.4874114990234375),
]


@pytest.mark.parametrize(
    "figure, label_a, label_b, bracket, expected, bisected",
    CROSSOVER_TABLE,
    ids=[f"{r[0]}-{r[1]}-{r[2]}" for r in CROSSOVER_TABLE],
)
def test_crossover_table_values_exactly(monkeypatch, figure, label_a, label_b, bracket, expected, bisected):
    grid = bench.FIGURES[figure].alpha_grid
    a, b = curve(figure, label_a), curve(figure, label_b)
    real = bench.closed_qfi
    calls = []
    monkeypatch.setattr(bench, "closed_qfi", lambda c, alpha: calls.append(alpha) or real(c, alpha))
    nav = bench.find_crossover(a, b, grid, bracket)
    assert nav == expected
    # each gap evaluation takes one closed QFI per curve; bisecting to 1e-4 took 16-17
    assert len(calls) <= 2 * 15
    # the two delta_phi agree at the crossing, which lies inside the bisection's last bracket
    phi_a, phi_b = bench.interpolate_at_nav(a, grid, nav), bench.interpolate_at_nav(b, grid, nav)
    assert abs(phi_a - phi_b) <= 1e-12 * max(phi_a, phi_b)
    assert abs(nav - bisected) <= 5e-5


def test_crossover_cat4_quarter_vs_ecs():
    nav = bench.find_crossover(curve("fig1", "cat4[b=a/4]"), curve("fig1", "ecs"), FIG1_GRID, (0.1, 1.2))
    assert 0.4 <= nav <= 1.0


def test_crossover_modified_never_beats_ecs_backwards():
    # modified is strictly better than the ECS over N_av in [1, 3]: no root
    grid = tuple(x / 10 for x in range(8, 31, 2))
    modified, ecs = curve("fig2a", "modified"), curve("fig2a", "ecs")
    for nav in (1.0, 1.5, 2.0, 2.5, 3.0):
        assert bench.interpolate_at_nav(modified, grid, nav) < bench.interpolate_at_nav(ecs, grid, nav)
    assert bench.find_crossover(modified, ecs, grid, (1.0, 3.0)) is None


# the N_av windows where one curve beats another (the smaller delta_phi), each edge the crossing solved in
# one of two brackets (None: the window runs to that end of the scan, or is empty).  fig1 holds the
# abstract's small-N_av claim: below a lower edge the F/N_av of cat4 with beta > 0 tends to 4, while the
# ECS's stays above 4.02.  fig2a and fig2b hold the extended[N=4] dip at N_av 2, where it falls behind the
# ECS and the modified state, pure or phase averaged
FIG1_SCAN, FIG1_BRACKETS = (0.001, 1.2), ((0.001, 0.3), (0.3, 1.2))
FIG2_SCAN, FIG2_BRACKETS = (0.3, 3.5), ((1.5, 2.3), (2.3, 3.2))
WINDOWS = [
    ("fig1", "cat4[b=a/2]", "ecs", 0.08864355675262037, 0.7511409596737314),
    ("fig1", "cat4[b=a/4]", "ecs", 0.004829989003738892, 0.6694686792492921),
    ("fig1", "cat4[b=0]", "ecs", None, 0.6264298108513899),
    ("fig1", "cat4[b=a]", "ecs", None, None),
    *(
        (figure, ahead, "extended[N=4]", lower, upper)
        for figure in ("fig2a", "fig2b")
        for ahead, lower, upper in (
            ("ecs", 1.9580148594964144, 2.692282835982099),
            ("modified", 1.7899429755329572, 2.858426768732317),
        )
    ),
]


@pytest.mark.parametrize("figure, ahead, behind, lower, upper", WINDOWS, ids=[f"{w[0]}-{w[1]}" for w in WINDOWS])
def test_windows_where_one_curve_beats_another(figure, ahead, behind, lower, upper):
    scan, brackets = (FIG1_SCAN, FIG1_BRACKETS) if figure == "fig1" else (FIG2_SCAN, FIG2_BRACKETS)
    grid = bench.FIGURES[figure].alpha_grid
    behind, ahead = curve(figure, behind), curve(figure, ahead)
    edges = [bench.find_crossover(behind, ahead, grid, bracket) for bracket in brackets]
    for got, want in zip(edges, (lower, upper)):
        assert got == want if want is None else got == pytest.approx(want, abs=1e-12)
    # ahead has the smaller delta_phi inside the window and the larger outside it
    lo, hi = (lower or 0.0, upper) if upper is not None else (0.0, 0.0)
    for n_av in np.geomspace(*scan, 40):
        gap = bench.interpolate_at_nav(behind, grid, n_av) - bench.interpolate_at_nav(ahead, grid, n_av)
        assert (gap > 0) == (lo < n_av < hi), n_av
    # the grid route agrees with the closed forms at each edge
    for n_av in (e for e in edges if e is not None):
        for c in (behind, ahead):
            alpha = bench.alpha_solver(c, grid)(n_av)
            assert bench.numeric_point(c, alpha)[1] == pytest.approx(bench.closed_qfi(c, alpha), rel=1e-8)


def test_brent_bisects_where_interpolation_is_rejected():
    # a step at 0.3: every secant or inverse-quadratic step is refused once both sides of the
    # bracket read the same value, so the root is found by the bisection branch alone
    code = bench._brent.__code__
    lines, start = inspect.getsourcelines(bench._brent)
    bisect_lines = {start + i for i, line in enumerate(lines) if line.strip() == "d = e = m"}
    ran, calls = set(), []

    def trace(frame, event, arg):
        if frame.f_code is code:
            if event == "line":
                ran.add(frame.f_lineno)
            return trace
        return None

    step = lambda x: calls.append(x) or (-1.0 if x < 0.3 else 1.0)
    outer = sys.gettrace()
    sys.settrace(trace)
    try:
        root = bench._brent(step, 0.0, -1.0, 1.0, 1.0)
    finally:
        sys.settrace(outer)
    assert abs(root - 0.3) <= 1e-14 * max(1.0, root)
    assert len(calls) < 200
    assert bisect_lines and ran & bisect_lines


# ---------------------------------------------------------------------------
# consistency verifier
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def report():
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # nothing on the verify path warns
        return bench.verify_consistency()


def test_verify_consistency_passes(report):
    assert report.passed
    assert len(report.checks) >= 40


def test_verify_consistency_fault_injection(monkeypatch):
    healthy = cf.ecs_qfi

    def corrupted(alpha):
        f, nav = healthy(alpha)
        return -f, nav

    monkeypatch.setattr(cf, "ecs_qfi", corrupted)
    report = bench.verify_consistency()
    assert not report.passed
    names = {c.name for c in report.failures}
    assert any("ecs" in name for name in names)
    failing = next(c for c in report.failures if "ecs" in c.name)
    assert "alpha" in failing.params


def test_verify_consistency_catches_a_batch_that_mixes_its_points(monkeypatch):
    # rotating the per-point QFI totals of a batch corrupts every phase-averaged
    # and lossy sweep row; a verifier that runs one point per batch never sees it
    healthy = bench.qfi_mixed

    def rotated(state, generator):
        f = healthy(state, generator)
        return np.roll(f, 1) if np.ndim(f) else f

    monkeypatch.setattr(bench, "qfi_mixed", rotated)
    report = bench.verify_consistency()
    assert not report.passed
    assert {"pa-qfi", "lossy-qfi"} <= {c.name.split("[")[0] for c in report.failures}


def test_verify_consistency_batches_each_curve_under_the_sweep_generator(monkeypatch):
    # n_b, the generator of every sweep row: one numeric_points batch per curve;
    # half_difference, which no sweep uses: one numeric_point call per point
    healthy_points, healthy_point = bench.numeric_points, bench.numeric_point
    batches, singles = Counter(), Counter()

    def counted_points(curve, alphas, generator="n_b"):
        batches[curve, generator] += 1
        return healthy_points(curve, alphas, generator)

    def counted_point(curve, alpha, generator="n_b"):
        singles[curve, generator] += 1
        return healthy_point(curve, alpha, generator)

    monkeypatch.setattr(bench, "numeric_points", counted_points)
    monkeypatch.setattr(bench, "numeric_point", counted_point)
    assert bench.verify_consistency().passed
    sweep_batches = [n for (_, generator), n in batches.items() if generator == "n_b"]
    assert sweep_batches and max(sweep_batches) == 1
    assert singles and {generator for _, generator in singles} == {"half_difference"}
    assert all(n == 2 for n in singles.values())


def test_verify_consistency_summary_format(report):
    text = report.summary()
    assert "checks passed" in text.splitlines()[-1]
    assert text.count("PASS") >= len(report.checks)


def test_mandel_ratio_gap_reported_not_asserted():
    ratio, four_q = bench.mandel_q_ratio_gap(4, 1.0)
    assert ratio > 0 and four_q > 0
    # the two sides differ; the artifact only reports the gap
    assert abs(ratio - four_q) > 1e-3


# ---------------------------------------------------------------------------
# output encodings
# ---------------------------------------------------------------------------


def test_csv_header_and_digits():
    rows = bench.run_sweep("fig1", (1.0,))
    text = bench.rows_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "figure,family,alpha,beta,n_components,transmission,n_av,qfi,delta_phi,path"
    coherent_line = next(l for l in lines if l.startswith("fig1,coherent") and l.endswith("closed_form"))
    fields = coherent_line.split(",")
    assert fields[2] == "1"
    assert fields[7] == "2"  # qfi = 2 at alpha = 1
    # 12-significant-digit formatting on a non-terminating value
    assert fields[8] == format(1 / sqrt(2.0), ".12g")


def test_csv_empty_fields_for_missing_params():
    rows = bench.run_sweep("fig2a", (1.0,))
    text = bench.rows_to_csv(rows)
    noon_line = next(l for l in text.split("\n") if l.startswith("fig2a,noon"))
    fields = noon_line.split(",")
    assert fields[3] == ""  # beta not applicable
    assert fields[4] == ""  # n_components not applicable


def test_json_records_mirror_csv():
    rows = bench.run_sweep("fig1", (1.0,))
    records = bench.rows_to_records(rows)
    assert len(records) == len(rows)
    payload = json.loads(json.dumps(records))
    first = payload[0]
    assert set(first) == {
        "figure",
        "family",
        "alpha",
        "beta",
        "n_components",
        "transmission",
        "n_av",
        "qfi",
        "delta_phi",
        "path",
    }
    coherent_rec = next(r for r in payload if r["family"] == "coherent")
    assert coherent_rec["qfi"] == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# the benchmark's view of the package
# ---------------------------------------------------------------------------


def test_the_benchmark_reaches_every_name_it_uses(monkeypatch):
    # perfbench/workloads.py and perfbench/spans.py import or wrap these names, and their tree changes
    # only with the benchmark, so the package keeps them
    for module, names in {
        fock: ("beam_splitter_5050", "cat_state", "coherent", "default_cutoff", "CatSpec"),
        channels: ("LossSpec", "loss_channel", "phase_average", "SpectralState"),
        qfi: ("qfi_mixed", "DegenerateSpectrumWarning"),
        bench: ("FamilyCurve", "numeric_point"),
    }.items():
        for name in names:
            assert callable(getattr(module, name)), f"{module.__name__}.{name}"
    assert issubclass(qfi.DegenerateSpectrumWarning, Warning)
    # the lossy cat4 reference: dense loss on the pure state, then phase_average of a SpectralState
    alpha, beta_ratio, t = 1.0, 0.5, 0.9
    n_max = fock.default_cutoff(sqrt((1 + beta_ratio**2) / 2) * alpha)
    pure = fock.beam_splitter_5050(fock.cat_state(fock.CatSpec(4, alpha / sqrt(2)), n_max),
                                   fock.coherent(beta_ratio * alpha / sqrt(2), n_max)).normalize()
    averaged = channels.phase_average(channels.loss_channel(pure, channels.LossSpec(t)))
    assert isinstance(averaged, channels.SpectralState)
    weight, vector = averaged.terms[0]  # SpectralState.terms: (weight, grid) pairs, read by spans.py
    assert isinstance(weight, float) and vector.amps.shape == (n_max + 1, n_max + 1)
    curve = bench.FamilyCurve("cat4", "cat4", "phase_averaged", beta_ratio, 4, t)
    assert bench.numeric_point(curve, alpha)[1] == pytest.approx(qfi.qfi_mixed(averaged, "n_b"), rel=1e-12)
    # perfbench's test_reproduce_reaches_every_layer counts loss_channel calls in verify: its t1 identity check
    calls = Counter()
    traced = bench.loss_channel

    def counted(*args, **kwargs):
        calls["loss_channel"] += 1
        return traced(*args, **kwargs)

    monkeypatch.setattr(bench, "loss_channel", counted)
    assert bench.verify_consistency().passed
    assert calls["loss_channel"] > 0


def test_benchmark_selftest_passes():
    # perfbench imports and reads catqfi names (beam_splitter_5050, DegenerateSpectrumWarning,
    # SpectralState.terms, bench.loss_channel) and traces reproduce into loss_channel, numeric_point and the
    # fock builders: its self-test fails where a change to src/ breaks any of them
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
