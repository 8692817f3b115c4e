"""Sweep machinery tests: rows, equal-energy lookup, crossover, verifier, encodings."""

import json
from math import sqrt

import pytest

from catqfi import bench
from catqfi import closed_form as cf


def sweep(figure, grid, **overrides):
    base = bench.default_config(figure)
    cfg = bench.SweepConfig(
        figure=figure,
        alpha_grid=tuple(grid),
        beta_ratios=overrides.get("beta_ratios", base.beta_ratios),
        n_components_list=overrides.get("n_components_list", base.n_components_list),
        transmissions=overrides.get("transmissions", base.transmissions),
    )
    return bench.run_sweep(cfg)


# ---------------------------------------------------------------------------
# sweep rows
# ---------------------------------------------------------------------------


def test_sweep_coherent_classical_point():
    rows = [r for r in sweep("fig1", (1.0,)) if r.family == "coherent"]
    assert len(rows) == 2  # closed_form + numeric
    for r in rows:
        assert r.qfi == pytest.approx(2.0, abs=1e-10)
        assert r.delta_phi == pytest.approx(1 / sqrt(2), abs=1e-10)
        assert r.n_av == pytest.approx(0.5, abs=1e-10)


def test_sweep_closed_rows_without_numeric_route():
    cfg = bench.SweepConfig(figure="fig4", alpha_grid=(0.5, 1.0), n_components_list=(4,))
    full = bench.run_sweep(cfg)
    assert bench.run_sweep(cfg, numeric=False) == [r for r in full if r.path == "closed_form"]


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


def test_sweep_noon_point_fig2a():
    rows = [r for r in sweep("fig2a", (2.0,)) if r.family == "noon"]
    assert {r.path for r in rows} == {"closed_form", "numeric"}
    for r in rows:
        assert r.n_av == pytest.approx(2.0, abs=1e-12)
        assert r.qfi == pytest.approx(16.0, abs=1e-10)


def test_sweep_noon_lossy_point():
    rows = [
        r
        for r in sweep("fig4", (sqrt(2.0),), transmissions=(0.9,))
        if r.family == "noon"
    ]
    for r in rows:
        assert r.qfi == pytest.approx(3.24, abs=1e-10)


def test_sweep_rows_pair_consistency():
    rows = sweep("fig2b", (0.5, 1.0, 1.5), n_components_list=(4,))
    by_key = {}
    for r in rows:
        by_key.setdefault((r.family, r.alpha, r.transmission), {})[r.path] = r
    paired = 0
    for group in by_key.values():
        if len(group) == 2:
            paired += 1
            a, b = group["closed_form"], group["numeric"]
            assert abs(a.qfi - b.qfi) / max(abs(a.qfi), 1e-6) <= 1e-8
            assert abs(a.n_av - b.n_av) / max(abs(a.n_av), 1e-6) <= 1e-8
    assert paired > 0


def test_sweep_row_delta_phi_invariant():
    for r in sweep("fig1", (0.5, 1.0)):
        if r.qfi > 0:
            assert r.delta_phi * sqrt(r.qfi) == pytest.approx(1.0, abs=1e-12)


def test_sweep_deterministic_order():
    rows_a = sweep("fig2a", (0.5, 1.0))
    rows_b = sweep("fig2a", (0.5, 1.0))
    assert [(r.family, r.alpha, r.path) for r in rows_a] == [
        (r.family, r.alpha, r.path) for r in rows_b
    ]
    keys = [(r.figure, r.family, r.transmission, r.alpha, r.path) for r in rows_a]
    assert keys == sorted(keys)


def test_sweep_noon_numeric_only_at_integer_n():
    rows = [r for r in sweep("fig2a", (1.0, 1.1)) if r.family == "noon"]
    assert {r.path for r in rows if r.alpha == 1.0} == {"closed_form", "numeric"}
    assert {r.path for r in rows if r.alpha == 1.1} == {"closed_form"}


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        bench.SweepConfig(figure="fig7", alpha_grid=(1.0,))
    with pytest.raises(ValueError):
        bench.SweepConfig(figure="fig1", alpha_grid=())
    with pytest.raises(ValueError):
        bench.SweepConfig(figure="fig1", alpha_grid=(1.0, 0.5))


# ---------------------------------------------------------------------------
# equal-energy lookup
# ---------------------------------------------------------------------------


def test_interpolate_exact_sample_matches_row():
    rows = sweep("fig2a", (0.8, 1.0, 1.2))
    target = next(r for r in rows if r.family == "ecs" and r.alpha == 1.0 and r.path == "closed_form")
    got = bench.interpolate_at_nav(rows, "ecs", target.n_av)
    assert got == pytest.approx(target.delta_phi, abs=1e-12)


def test_interpolate_ecs_known_point():
    rows = sweep("fig2a", (0.8, 1.0, 1.2))
    got = bench.interpolate_at_nav(rows, "ecs", 0.36552928931500245)
    assert got == pytest.approx(1 / sqrt(2.3897876691314965), abs=1e-10)


def test_interpolate_noon_analytic():
    rows = sweep("fig2a", (1.5, 1.8, 2.0))
    # N_av = 1.5 -> n = 3 -> delta_phi = 1/3
    assert bench.interpolate_at_nav(rows, "noon", 1.5) == pytest.approx(1 / 3, abs=1e-10)


def test_interpolate_out_of_range():
    rows = sweep("fig2a", (0.8, 1.0))
    with pytest.raises(ValueError):
        bench.interpolate_at_nav(rows, "ecs", 50.0)


def test_interpolate_ambiguous_family_needs_filter():
    rows = sweep("fig4", (0.8, 1.0), transmissions=(0.9, 0.85))
    with pytest.raises(ValueError):
        bench.interpolate_at_nav(rows, "modified", 0.2)
    value = bench.interpolate_at_nav(rows, "modified", 0.2, transmission=0.9)
    assert value > 0


# ---------------------------------------------------------------------------
# crossover
# ---------------------------------------------------------------------------


def fig1_rows():
    return sweep("fig1", tuple(x / 20 for x in range(2, 45, 2)))


def test_crossover_identical_families_rejected():
    rows = fig1_rows()
    with pytest.raises(bench.ParameterError):
        bench.find_crossover(rows, "ecs", "ecs", (0.3, 1.0))


@pytest.mark.parametrize("bracket", [(1.2, 0.1), (1.0, 0.2), (0.5, 0.5), (float("nan"), 1.0)])
def test_crossover_rejects_bracket_not_increasing(bracket):
    # a reversed bracket used to skip the bisection and return its midpoint
    # (0.65 and 0.6 for the first two, where the crossing is at 0.6694)
    rows = fig1_rows()
    with pytest.raises(bench.ParameterError):
        bench.find_crossover(rows, "ecs", "cat4[b=a/4]", bracket)


def test_crossover_cat4_quarter_vs_ecs():
    rows = fig1_rows()
    nav = bench.find_crossover(rows, "cat4[b=a/4]", "ecs", (0.1, 1.2))
    assert 0.4 <= nav <= 1.0


def test_crossover_modified_never_beats_ecs_backwards():
    # modified is strictly better than the ECS over N_av in [1, 3]: no root
    rows = sweep("fig2a", tuple(x / 10 for x in range(8, 31, 2)))
    for nav in (1.0, 1.5, 2.0, 2.5, 3.0):
        assert bench.interpolate_at_nav(rows, "modified", nav) < bench.interpolate_at_nav(
            rows, "ecs", nav
        )
    with pytest.raises(ValueError):
        bench.find_crossover(rows, "modified", "ecs", (1.0, 3.0))


# ---------------------------------------------------------------------------
# consistency verifier
# ---------------------------------------------------------------------------


def quick_report(**kwargs):
    defaults = dict(
        alphas=(0.5, 1.0),
        beta_ratios=(0.0, 0.5),
        n_components_list=(1, 2, 4),
        transmissions=(0.9,),
    )
    defaults.update(kwargs)
    return bench.verify_consistency(**defaults)


def test_verify_consistency_quick_grid_passes():
    report = quick_report()
    assert report.passed
    assert len(report.checks) >= 40


def test_verify_consistency_fault_injection(monkeypatch):
    healthy = cf.ecs_qfi

    def corrupted(alpha):
        f, nav = healthy(alpha)
        return -f, nav

    monkeypatch.setattr(cf, "ecs_qfi", corrupted)
    report = quick_report()
    assert not report.passed
    names = {c.name for c in report.failures}
    assert any("ecs" in name for name in names)
    failing = next(c for c in report.failures if "ecs" in c.name)
    assert "alpha" in failing.params


def test_verify_consistency_summary_format():
    report = quick_report()
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
    rows = sweep("fig1", (1.0,))
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
    rows = sweep("fig2a", (1.0,))
    text = bench.rows_to_csv(rows)
    noon_line = next(l for l in text.split("\n") if l.startswith("fig2a,noon"))
    fields = noon_line.split(",")
    assert fields[3] == ""  # beta not applicable
    assert fields[4] == ""  # n_components not applicable


def test_json_records_mirror_csv():
    rows = sweep("fig1", (1.0,))
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
