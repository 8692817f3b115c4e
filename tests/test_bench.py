"""Sweep machinery tests: rows, equal-energy lookup, crossover, verifier, encodings."""

import bisect
import inspect
import json
import random
import sys
import tracemalloc
import warnings
from collections import Counter
from dataclasses import replace
from math import sqrt

import numpy as np
import pytest

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
    fock: ("cat_state", "coherent", "beam_splitter_5050", "extended_entangled_state", "noon_state", "default_cutoff"),
    channels: ("phase_average", "loss_channel"),
    qfi: ("qfi_mixed", "qfi_pure"),
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


def test_sweep_chunk_failure_drops_only_its_row(monkeypatch, capsys):
    chunk = bench._SWEEP_CHUNK
    grid = tuple(round(0.2 + 0.05 * i, 10) for i in range(2 * chunk + 3))
    healthy = bench.run_sweep("fig4", grid)
    capsys.readouterr()
    bad_alpha = grid[chunk + 2]  # inside the second chunk
    ecs = bench.FAMILIES["ecs"]

    def failing(curve, alpha, n_max):
        if alpha == bad_alpha and curve.transmission == 0.9:
            raise bench.CutoffError("injected")
        return ecs.build(curve, alpha, n_max)

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
    ("fig1", "ecs", "cat4[b=a/2]", (0.2, 1.2), 0.7511409596737325, 0.751116943359375),
    ("fig1", "ecs", "cat4[b=a/4]", (0.2, 1.2), 0.6694686792492918, 0.669451904296875),
    ("fig1", "ecs", "cat4[b=0]", (0.2, 1.2), 0.6264298108513896, 0.626422119140625),
    ("fig1", "cat4[b=a]", "cat4[b=a/2]", (0.2, 1.2), 1.1724707773663734, 1.172442626953125),
    ("fig1", "cat4[b=a]", "cat4[b=a/4]", (0.2, 1.2), 0.9570514446506285, 0.957049560546875),
    ("fig1", "cat4[b=a]", "cat4[b=0]", (0.2, 1.2), 0.8830453923594319, 0.883074951171875),
    ("fig1", "cat4[b=a/2]", "cat4[b=a/4]", (0.2, 1.2), 0.5675215458029816, 0.567523193359375),
    ("fig1", "cat4[b=a/2]", "cat4[b=0]", (0.2, 1.2), 0.5228154707514212, 0.522845458984375),
    ("fig1", "cat4[b=a/4]", "cat4[b=0]", (0.2, 1.2), 0.418493861273438, 0.41847534179687496),
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


# the abstract's small-N_av claim on fig1: the N_av window where each cat4 curve beats the ECS, its edges
# the crossings below and above N_av 0.3 (None: the window runs to that end of the range, or is empty).
# Below a lower edge the F/N_av of cat4 with beta > 0 tends to 4, while the ECS's stays above 4.02
FIG1_WINDOWS = [
    ("cat4[b=a/2]", 0.08864355675262037, 0.7511409596737314),
    ("cat4[b=a/4]", 0.004829989003738892, 0.6694686792492921),
    ("cat4[b=0]", None, 0.6264298108513899),
    ("cat4[b=a]", None, None),
]


@pytest.mark.parametrize("label, lower, upper", FIG1_WINDOWS, ids=[w[0] for w in FIG1_WINDOWS])
def test_fig1_windows_where_cat4_beats_the_ecs(label, lower, upper):
    grid = bench.FIGURES["fig1"].alpha_grid
    ecs, cat4 = curve("fig1", "ecs"), curve("fig1", label)
    edges = [bench.find_crossover(ecs, cat4, grid, bracket) for bracket in ((0.001, 0.3), (0.3, 1.2))]
    for got, want in zip(edges, (lower, upper)):
        assert got == want if want is None else got == pytest.approx(want, abs=1e-12)
    # cat4 is ahead (the smaller delta_phi) inside the window and behind outside it
    lo, hi = (lower or 0.0, upper) if upper is not None else (0.0, 0.0)
    for n_av in np.geomspace(0.001, 1.2, 40):
        gap = bench.interpolate_at_nav(ecs, grid, n_av) - bench.interpolate_at_nav(cat4, grid, n_av)
        assert (gap > 0) == (lo < n_av < hi), n_av
    # the grid route agrees with the closed forms at each edge
    for n_av in (e for e in edges if e is not None):
        for c in (ecs, cat4):
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
