"""CLI surface tests: commands, output encodings, exit codes."""

import json
import time
import tracemalloc
from math import exp

import pytest
from click.testing import CliRunner

from catqfi import bench
from catqfi.cli import main

runner = CliRunner()


def invoke(*args):
    return runner.invoke(main, list(args))


def test_state_coherent_dump():
    result = invoke("state", "--family", "coherent", "--alpha", "1.2")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["norm_sq"] == pytest.approx(1.0, abs=1e-10)
    assert payload["mean_n"] == pytest.approx(1.44, abs=1e-10)
    assert abs(payload["mandel_q"]) < 1e-10
    assert len(payload["amplitudes"]) == payload["n_max"] + 1


def test_state_cat_dump():
    # at 2^1100 heads the first support point past the grid is past float range
    for n in (4, 2**1100):
        result = invoke("state", "--family", "cat", "--alpha", "1.0", "--n-components", str(n))
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        nonzero = [i for i, (re, im) in enumerate(payload["amplitudes"]) if abs(complex(re, im)) > 0]
        assert nonzero and all(i % n == 0 for i in nonzero)


def test_state_extended_dump():
    result = invoke("state", "--family", "extended", "--alpha", "1.0", "--n-components", "4")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["norm_sq"] == pytest.approx(1.0, abs=1e-10)
    assert payload["mean_n_a"] == pytest.approx(payload["mean_n_b"], abs=1e-12)


def test_qfi_command_ecs_both_routes_agree():
    result = invoke("qfi", "--family", "ecs", "--alpha", "1.0")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["qfi_closed_form"] == pytest.approx(2.3897876691314965, rel=1e-12)
    assert payload["qfi_numeric"] == pytest.approx(payload["qfi_closed_form"], rel=1e-8)
    assert payload["delta_phi"] == pytest.approx(payload["qfi_closed_form"] ** -0.5, rel=1e-12)


def test_qfi_command_cat4_with_beta():
    result = invoke("qfi", "--family", "cat4", "--alpha", "1.0", "--beta", "0.25")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["qfi_numeric"] == pytest.approx(payload["qfi_closed_form"], rel=1e-8)


def test_qfi_command_phase_averaged_loss():
    result = invoke(
        "qfi", "--family", "modified", "--alpha", "1.0", "--transmission", "0.9"
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["phase_averaged"] is True
    assert payload["qfi_numeric"] == pytest.approx(payload["qfi_closed_form"], rel=1e-8)


def test_qfi_command_phase_averaged_cat4():
    # off the noon span: numeric route only, through the sector-block loss
    for extra, t in ((("--transmission", "0.9"), 0.9), (("--phase-averaged",), 1.0)):
        result = invoke("qfi", "--family", "cat4", "--alpha", "1", "--beta", "0.25", *extra)
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["qfi_closed_form"] is None
        curve = bench.FamilyCurve(
            "cat4", "cat4", "phase_averaged", beta_ratio=0.25, n_components=4, transmission=t
        )
        assert payload["qfi_numeric"] == bench.numeric_point(curve, 1.0)[1]
        assert payload["delta_phi"] == pytest.approx(payload["qfi_numeric"] ** -0.5, rel=1e-12)


@pytest.mark.parametrize(
    "args, resolved",
    [
        (("--family", "ecs", "--alpha", "1.0"), True),
        # the lossy ECS at alpha = 27 is the vacuum to double precision: the
        # grid prints 4.7e-62 beside the closed form's 2.06e-58
        (("--family", "ecs", "--alpha", "27", "--transmission", "0.9"), False),
        (("--family", "noon", "--alpha", "1.1"), None),  # no grid state at a non-integer alpha^2
    ],
    ids=["ordinary", "below-resolution", "no-numeric-route"],
)
def test_qfi_command_flags_a_numeric_qfi_below_resolution(args, resolved):
    result = invoke("qfi", *args)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["qfi_numeric_resolved"] is resolved
    if resolved is False:
        assert payload["qfi_numeric"] < bench.QFI_RESOLUTION
        assert payload["qfi_closed_form"] == pytest.approx(2.0628423718214178e-58, rel=1e-12)


def test_qfi_command_two_mode_generator():
    result = invoke("qfi", "--family", "ecs", "--alpha", "1.0", "--generator", "half_difference")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["qfi_closed_form"] is None
    assert payload["qfi_numeric"] > 0
    # a phase-averaged state commutes with n_a + n_b: its n_b closed form holds under half_difference too
    for args in (("ecs", "--alpha", "1.5", "--phase-averaged"), ("modified", "--alpha", "1", "--transmission", "0.85"),
                 ("extended", "--n-components", "4", "--alpha", "2", "--transmission", "0.9"),
                 ("coherent", "--alpha", "2", "--transmission", "0.85"), ("noon", "--alpha", "2", "--transmission", "0.9")):
        result = invoke("qfi", "--family", *args, "--generator", "half_difference")
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["qfi_closed_form"] == pytest.approx(payload["qfi_numeric"], rel=1e-8)


def test_qfi_command_generator_variant_mismatch():
    # every variant takes n_b or half_difference, and no other generator
    result = invoke(
        "qfi", "--family", "ecs", "--alpha", "1.0", "--phase-averaged", "--generator", "one_mode_b"
    )
    assert result.exit_code == 2


def test_sweep_csv_file(tmp_path):
    out = tmp_path / "fig1.csv"
    result = invoke(
        "sweep",
        "--figure",
        "fig1",
        "--out",
        str(out),
        "--alpha-min",
        "0.5",
        "--alpha-max",
        "1.0",
        "--alpha-step",
        "0.25",
    )
    assert result.exit_code == 0
    lines = out.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "figure,family,alpha,beta,n_components,transmission,n_av,qfi,delta_phi,path"
    assert len(lines) > 10


def test_sweep_json_stdout():
    result = invoke(
        "sweep",
        "--figure",
        "fig2a",
        "--format",
        "json",
        "--alpha-min",
        "1.0",
        "--alpha-max",
        "1.0",
        "--alpha-step",
        "0.5",
    )
    assert result.exit_code == 0
    records = json.loads(result.output)
    assert all(rec["figure"] == "fig2a" for rec in records)
    noon = [r for r in records if r["family"] == "noon"]
    assert noon and noon[0]["qfi"] == pytest.approx(1.0, rel=1e-9)


def test_synthesize_command():
    result = invoke("synthesize", "--alpha", "1.0", "-k", "2")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["n_components"] == 8
    assert payload["fidelity"] > 1 - 1e-10
    assert len(payload["herald_probs"]) == 2
    # 2^101 heads leave only the vacuum on the grid, whose support is counted in ints
    result = invoke("synthesize", "--alpha", "1.0", "-k", "100")
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["fidelity"] > 1 - 1e-10
    # 2^10001 heads, the largest -k: the round phases pi/2^j underflow instead of overflowing
    result = invoke("synthesize", "--alpha", "1.0", "-k", "10000")
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["fidelity"] == 1.0
    # the seventh round's mode-b herald at alpha 9 keeps 8e-29 of the state: exact, not a zero-norm branch
    result = invoke("synthesize", "--alpha", "9", "-k", "7")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["fidelity"] == pytest.approx(1.0, abs=1e-12)
    assert 0 < payload["herald_probs"][-1][1] < 1e-28


def test_crossover_command():
    result = invoke(
        "crossover",
        "--figure",
        "fig1",
        "--family-a",
        "cat4[b=a/4]",
        "--family-b",
        "ecs",
        "--nav-lo",
        "0.1",
        "--nav-hi",
        "1.2",
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert 0.4 <= payload["crossover_n_av"] <= 1.0


def test_crossover_command_no_crossing_in_the_bracket():
    # modified beats the ECS over the whole bracket: an answer (null), not a numeric failure
    result = invoke(
        "crossover", "--figure", "fig2a", "--family-a", "modified", "--family-b", "ecs", "--nav-lo", "1", "--nav-hi", "3"
    )
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["crossover_n_av"] is None


def test_verify_exit_zero():
    result = invoke("verify")
    assert result.exit_code == 0
    assert "206/206 checks passed" in result.output


def test_bad_arguments_exit_two():
    assert invoke("qfi", "--family", "ecs").exit_code == 2  # missing --alpha
    assert invoke("sweep", "--figure", "fig9").exit_code == 2
    assert invoke("qfi", "--family", "squeezed", "--alpha", "1").exit_code == 2


def test_qfi_transmission_out_of_range_exit_two():
    for t in ("1.5", "-0.1"):
        result = invoke("qfi", "--family", "ecs", "--alpha", "1.0", "--transmission", t)
        assert result.exit_code == 2


def test_synthesize_negative_iterations_exit_two():
    assert invoke("synthesize", "--alpha", "1.0", "-k", "-1").exit_code == 2


def test_numeric_failure_exit_three():
    result = invoke("state", "--family", "coherent", "--alpha", "3.0", "--n-max", "10")
    assert result.exit_code == 3
    assert "numeric failure" in result.output


@pytest.mark.parametrize("family, n_max", [("cat", "5"), ("ecs", "10")])
def test_truncation_under_underflow_exit_three(family, n_max):
    # the squared amplitudes at alpha = 30 underflow on these grids: a cutoff error, not nan amplitudes
    result = invoke("state", "--family", family, "--alpha", "30", "--n-max", n_max)
    assert result.exit_code == 3, result.output
    assert "numeric failure: cutoff too small" in result.output


def test_out_of_memory_exit_three(monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate a sector block")

    monkeypatch.setattr(bench, "coherent_amps", no_memory)
    result = invoke("qfi", "--family", "cat4", "--alpha", "1.0")
    assert result.exit_code == 3, result.output
    assert "numeric failure: Unable to allocate a sector block" in result.output


@pytest.mark.parametrize(
    "n_components, extra",
    [
        ("1000000", ()),
        ("10000000", ("--transmission", "0.9")),
        (str(2**70), ()),
        (str(2**1100), ()),
        (str(2**1100), ("--transmission", "0.9")),
    ],
    ids=["pure", "lossy-1e7", "pure-2^70", "pure-2^1100", "lossy-2^1100"],
)
def test_qfi_a_million_heads_ends_in_under_five_seconds(n_components, extra):
    # the cat support 0, N, ... leaves only the vacuum at alpha = 2: F = 0 by both routes;
    # the series stop where their terms underflow, not after N steps each
    t0 = time.perf_counter()
    result = invoke("qfi", "--family", "extended", "--n-components", n_components, "--alpha", "2", *extra)
    assert time.perf_counter() - t0 < 5.0
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["qfi_closed_form"] == payload["qfi_numeric"] == 0.0


# every (family, variant) the family table declares, at one alpha, with the
# phase-averaged variant both lossless and lossy; a family added to the table
# is covered here without a new test
CLI_PARAMS = {"beta_ratio": ("--beta", "0.5"), "n_components": ("--n-components", "4")}
VARIANT_ARGS = {"pure": [()], "phase_averaged": [("--phase-averaged",), ("--transmission", "0.9")]}


@pytest.mark.parametrize(
    "kind, variant, extra",
    [
        (kind, variant, extra)
        for kind, family in bench.FAMILIES.items()
        for variant in family.qfi
        for extra in VARIANT_ARGS[variant]
    ],
)
def test_qfi_every_table_family_and_variant(kind, variant, extra):
    family = bench.FAMILIES[kind]
    args = [arg for name in family.params for arg in CLI_PARAMS[name]]
    result = invoke("qfi", "--family", kind, "--alpha", "1.0", *args, *extra)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["qfi_numeric"] > 0
    if family.qfi[variant] is None:
        assert payload["qfi_closed_form"] is None
    else:
        assert payload["qfi_numeric"] == pytest.approx(payload["qfi_closed_form"], rel=1e-8)


def test_qfi_command_phase_averaged_coherent():
    # phase averaging leaves one binomial pure state per total photon number n,
    # each with 4 Var(n_b) = n, so F = <n> = T alpha^2 by both routes
    for extra, t in ((("--phase-averaged",), 1.0), (("--transmission", "0.9"), 0.9)):
        result = invoke("qfi", "--family", "coherent", "--alpha", "1.3", *extra)
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload["qfi_closed_form"] == t * 1.3 * 1.3
        assert payload["qfi_numeric"] == pytest.approx(t * 1.3**2, rel=1e-8)


@pytest.mark.parametrize(
    "n_components, alpha, extra",
    [("32", "5", ()), ("32", "5", ("--phase-averaged",)), ("32", "5", ("--transmission", "0.9")), ("64", "7", ())],
)
def test_qfi_many_heads_at_large_alpha_both_routes(n_components, alpha, extra):
    # the cat support comes in steps of N, so the grid 0..95 at alpha = 5
    # ends on a support point (64) whose weight is above TAIL_TOL; the mass
    # actually dropped starts at 96
    result = invoke("qfi", "--family", "extended", "--n-components", n_components, "--alpha", alpha, *extra)
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["qfi_numeric"] == pytest.approx(payload["qfi_closed_form"], rel=1e-12)


# (id, family, extra options); each runs at a large alpha and at 1e300
BEYOND_LIMIT = [
    ("ecs", "ecs", ()),
    ("coherent", "coherent", ()),
    ("noon", "noon", ()),
    ("cat4", "cat4", ()),
    ("cat4-beta-1e300", "cat4", ("--beta", "1e300")),
    ("ecs-pa", "ecs", ("--phase-averaged",)),
    ("modified-pa", "modified", ("--phase-averaged",)),
    ("extended-pa", "extended", ("--n-components", "4", "--phase-averaged")),
    ("ecs-lossy", "ecs", ("--transmission", "0.9")),
    ("modified-lossy", "modified", ("--transmission", "0.9")),
    ("extended-lossy", "extended", ("--n-components", "4", "--transmission", "0.9")),
]


@pytest.mark.parametrize(
    "family,extra,alpha",
    [
        pytest.param(family, extra, alpha, id=name if alpha != "1e300" else f"{name}-alpha-1e300")
        for name, family, extra in BEYOND_LIMIT
        for alpha in ("1e6" if family != "noon" else "1000", "1e300")
    ],
)
def test_qfi_grid_beyond_limit_exit_three(family, extra, alpha):
    # the grid limit is checked before any closed-form series runs to its term cap,
    # and before rounding, so an amplitude whose square overflows to inf is named too
    t0 = time.perf_counter()
    result = invoke("qfi", "--family", family, "--alpha", alpha, *extra)
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 3, result.output
    assert "grid limit" in result.output


@pytest.mark.parametrize(
    "alpha, iterations, message",
    [("45", "1", "grid limit"), ("1e300", "0", "grid limit"), ("26", "10", "cutoff too small"), ("10", "7", "cutoff too small")],
)
def test_synthesize_state_beyond_the_grid_exit_three(alpha, iterations, message):
    # alpha 45 needs n_max 2495; the limit is checked before the grid is allocated.  At alpha 26 (10) the
    # N = 1024 (256) cat heralded by the last round reaches past its default cutoff 956 (220)
    t0 = time.perf_counter()
    result = invoke("synthesize", "--alpha", alpha, "-k", iterations)
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 3, result.output
    assert message in result.output


def test_qfi_cat4_at_large_n_av_matches_its_closed_form():
    # n_max 262: the heads' coherent products, not 525 dense beam-splitter blocks (5 s or more)
    t0 = time.perf_counter()
    result = invoke("qfi", "--family", "cat4", "--alpha", "16", "--beta", "1")
    assert time.perf_counter() - t0 < 2.0
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["qfi_numeric"] == pytest.approx(payload["qfi_closed_form"], rel=1e-12)


def test_qfi_lossy_cat4_at_large_n_av_answers():
    # n_max 262: the line kernel refused this point after its densities were
    # formed (a 702 MB peak); the value is the coherent-basis route's (ROADMAP)
    tracemalloc.start()
    try:
        result = invoke(
            "qfi", "--family", "cat4", "--alpha", "16", "--beta", "1", "--phase-averaged", "--transmission", "0.9"
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.exit_code == 0, result.output
    assert json.loads(result.output)["qfi_numeric"] == pytest.approx(66.94829995460037, rel=1e-11)
    assert peak < 300 * 2**20


def test_qfi_lossy_closed_form_past_double_range():
    # e^{alpha^2} overflows a double at alpha = 27; the lossy closed form divides it out
    result = invoke("qfi", "--family", "ecs", "--alpha", "27", "--transmission", "0.9")
    assert result.exit_code == 0, result.output
    x, t = 27.0**2, 0.9
    expected = (x * x * t * t + x * t) * exp(-2 * x * (1 - t)) / (1 + exp(-x))
    assert json.loads(result.output)["qfi_closed_form"] == pytest.approx(expected, rel=1e-12)


def test_state_n_max_beyond_limit_exit_two():
    t0 = time.perf_counter()
    result = invoke("state", "--family", "coherent", "--alpha", "1", "--n-max", "2001")
    assert time.perf_counter() - t0 < 1.0
    assert result.exit_code == 2, result.output


def test_qfi_option_the_family_does_not_take_exit_two():
    result = invoke("qfi", "--family", "ecs", "--alpha", "1", "--beta", "0.5")
    assert result.exit_code == 2
    assert "takes no beta" in result.output


def test_qfi_n_components_against_fixed_heads_exit_two():
    result = invoke("qfi", "--family", "cat4", "--alpha", "1.0", "--beta", "0.25", "--n-components", "8")
    assert result.exit_code == 2
    assert invoke("qfi", "--family", "coherent", "--alpha", "1", "--n-components", "3").exit_code == 2


def test_state_coherent_n_components_exit_two():
    assert invoke("state", "--family", "coherent", "--alpha", "1.0", "--n-components", "3").exit_code == 2


def test_state_cat_zero_components_exit_two():
    assert invoke("state", "--family", "cat", "--alpha", "-1", "--n-components", "0").exit_code == 2
    assert invoke("state", "--family", "cat", "--alpha", "-1", "--n-components", "2").exit_code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("qfi", "--family", "ecs", "--alpha", "nan"),
        ("qfi", "--family", "ecs", "--alpha", "inf"),
        ("qfi", "--family", "ecs", "--alpha", "-1"),
        ("qfi", "--family", "extended", "--alpha", "1", "--n-components", "0"),
        ("qfi", "--family", "extended", "--alpha", "1"),
        ("qfi", "--family", "cat4", "--alpha", "0"),
        ("qfi", "--family", "cat4", "--alpha", "1", "--beta", "nan"),
        ("state", "--family", "ecs", "--alpha", "nan"),
        ("state", "--family", "noon", "--alpha", "1.5"),
        ("state", "--family", "coherent", "--alpha", "1", "--n-max", "-1"),
        ("synthesize", "--alpha", "0", "-k", "1"),
        ("synthesize", "--alpha", "1", "-k", "10001"),  # one past the largest -k
        ("sweep", "--figure", "fig2a", "--alpha-step", "0"),
        ("sweep", "--figure", "fig2a", "--alpha-step", "-0.1"),
        ("sweep", "--figure", "fig2a", "--alpha-step", "inf"),
        ("sweep", "--figure", "fig2a", "--alpha-min", "nan"),
        ("sweep", "--figure", "fig2a", "--alpha-max", "inf"),
        ("sweep", "--figure", "fig2a", "--alpha-min", "-1", "--alpha-max", "0.2"),
        ("sweep", "--figure", "fig2a", "--alpha-min", "2", "--alpha-max", "1"),
        # grids of 10,000 points or more, refused before they are allocated
        ("sweep", "--figure", "fig1", "--alpha-step", "1e-300"),
        ("sweep", "--figure", "fig1", "--alpha-min", "1", "--alpha-max", "1e300"),
        ("sweep", "--figure", "fig1", "--alpha-max", "1", "--alpha-step", "1e-5"),
        ("sweep", "--figure", "fig1", "--alpha-min", "1", "--alpha-max", "1", "--alpha-step", "1e-300"),
    ],
)
def test_argument_outside_family_domain_exit_two(argv):
    result = invoke(*argv)
    assert result.exit_code == 2, result.output
    assert "Error" in result.output


@pytest.mark.parametrize(
    "extra",
    [
        ("--figure", "fig4", "--family-a", "ecs", "--family-b", "modified", "--transmission", "1.5"),
        ("--figure", "fig1", "--family-a", "nosuch", "--family-b", "ecs"),
        ("--figure", "fig4", "--family-a", "ecs", "--family-b", "modified"),
        ("--figure", "fig1", "--family-a", "ecs", "--family-b", "coherent", "--transmission", "0.9"),
    ],
)
def test_crossover_bad_arguments_exit_two(extra):
    result = invoke("crossover", *extra, "--nav-lo", "0.3", "--nav-hi", "1.2")
    assert result.exit_code == 2, result.output


@pytest.mark.parametrize(
    "family_b, nav_lo, nav_hi",
    [
        ("cat4[b=a/4]", "1.2", "0.1"),  # reversed: used to exit 0 with 0.65
        ("cat4[b=a/4]", "1.0", "0.2"),  # reversed: used to exit 0 with 0.6
        ("cat4[b=a/4]", "0.5", "0.5"),  # empty
        ("ecs", "0.2", "1.2"),  # identical families: used to exit 3
        ("cat4[b=0]", "0.2", "5"),  # past the figure's N_av range: used to exit 3
    ],
)
def test_crossover_bad_bracket_or_identical_families_exit_two(family_b, nav_lo, nav_hi):
    result = invoke(
        "crossover", "--figure", "fig1", "--family-a", "ecs", "--family-b", family_b, "--nav-lo", nav_lo, "--nav-hi", nav_hi
    )
    assert result.exit_code == 2, result.output
    assert "Error" in result.output


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def test_qfi_zero_qfi_prints_null_delta_phi():
    # all photons lost: F = 0, and delta_phi = inf has no JSON token
    result = invoke("qfi", "--family", "ecs", "--alpha", "0.1", "--transmission", "0")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output, parse_constant=_reject_constant)
    assert payload["qfi_closed_form"] == 0.0
    assert payload["delta_phi"] is None


def test_qfi_dust_point_reads_unresolved():
    # the whole QFI of this lossy state, 1.1e-44, lies in sectors under
    # channels.SECTOR_FLOOR, so the grid route may read 0; the closed form is exact
    result = invoke("qfi", "--family", "extended", "--n-components", "16", "--alpha", "0.1", "--transmission", "0.9")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["qfi_numeric_resolved"] is False
    assert payload["qfi_closed_form"] == pytest.approx(1.133627902601422e-44, rel=1e-12)


def test_qfi_lossy_ecs_at_large_n_av_matches_its_closed_form():
    # 5.2645e-9 against the closed 5.2586e-9 when the decohered blocks' pair term came from the
    # difference of their eigenvalues
    result = invoke("qfi", "--family", "ecs", "--alpha", "12", "--phase-averaged", "--transmission", "0.9")
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    assert payload["qfi_numeric"] == pytest.approx(payload["qfi_closed_form"], rel=1e-12)
    assert payload["qfi_closed_form"] == pytest.approx(5.258563221900322e-09, rel=1e-12)
