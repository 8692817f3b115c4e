"""The three workloads: inputs drawn from the seed, the operations of one
pass, and the untimed check of every operation's output.

An operation is one request: one CLI command run in-process through
`catqfi.cli.main`, or one `bench.numeric_point` call where the CLI cannot
reach (it rejects the `cat4` family on the phase-averaged route).
Nothing here imports `catqfi` at module level, so the child process can
time that import itself.
"""

from __future__ import annotations

import json
import math
import random
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent

REPRODUCE_ROWS = {"fig1": 528, "fig2a": 652, "fig2b": 652, "fig4": 1068}
VERIFY_CHECKS = 206
ROW_TOL = 1e-8  # numeric row vs its closed-form partner, the verifier's rule
LOSSY_TOL = 1e-9  # numeric_point vs loss applied before phase averaging
NAV_TOL = 1e-8
ABORT_MARK = "sweep row aborted"  # run_sweep's stderr line for a dropped row
CROSSOVER_TOL = 2e-4  # in N_av, the bisection tolerance of find_crossover is 1e-4


def rel_err(expected: float, actual: float) -> float:
    """Relative error with a 1e-6 floor on the scale, as the program's verifier uses."""
    return abs(expected - actual) / max(abs(expected), 1e-6)


@dataclass
class Op:
    """One request of a pass; `run` is timed, `check` is not."""

    name: str
    run: Callable  # (tracer or None) -> output
    check: Callable  # output -> list of failure messages


@dataclass
class CliOutput:
    exit_code: int
    stdout: str
    stderr: str
    error: str | None  # an exception that escaped click, with its type


def run_cli(argv: list[str], tracer=None) -> CliOutput:
    """`catqfi <argv>` in this process, with stdout and stderr captured."""
    from click.testing import CliRunner

    from catqfi.cli import main

    runner = CliRunner()
    if tracer is None:
        res = runner.invoke(main, argv)
    else:
        with tracer.span("cli.main", "cli"):
            res = runner.invoke(main, argv)
        tracer.counts["bench.rows_aborted"] += res.stderr.count(ABORT_MARK)
    error = None
    if res.exception is not None and not isinstance(res.exception, SystemExit):
        error = f"{type(res.exception).__name__}: {res.exception}"
    return CliOutput(res.exit_code, res.stdout, res.stderr, error)


def _cli_failures(out: CliOutput, argv: list[str]) -> list[str]:
    if out.error is not None or out.exit_code != 0:
        return [f"catqfi {' '.join(argv)}: exit {out.exit_code} {out.error or out.stderr.strip()[-200:]}"]
    return []


# ---------------------------------------------------------------------------
# reproduce: the four figure sweeps and the verifier
# ---------------------------------------------------------------------------


def check_sweep_rows(records: list[dict], figure: str, stderr: str) -> list[str]:
    """Row count, no aborted row, and every numeric row against its closed-form partner."""
    failures = []
    if ABORT_MARK in stderr:
        failures.append(f"{figure}: stderr reports aborted rows")
    if len(records) != REPRODUCE_ROWS[figure]:
        failures.append(f"{figure}: {len(records)} rows, expected {REPRODUCE_ROWS[figure]}")
    closed = {}
    numeric = []
    for rec in records:
        key = (rec["figure"], rec["family"], rec["transmission"], rec["alpha"])
        if rec["path"] == "closed_form":
            closed[key] = rec
        else:
            numeric.append((key, rec))
    for key, rec in numeric:
        partner = closed.get(key)
        if partner is None:
            failures.append(f"{figure}: numeric row {key} has no closed-form partner")
            continue
        for field in ("qfi", "n_av"):
            a, b = partner[field], rec[field]
            if a is None or b is None or rel_err(a, b) > ROW_TOL:
                failures.append(f"{figure}: {field} of {key}: closed {a} vs numeric {b}")
    return failures


def check_verify(out: CliOutput) -> list[str]:
    lines = out.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    expected = f"{VERIFY_CHECKS}/{VERIFY_CHECKS} checks passed"
    return [] if summary == expected else [f"verify: {summary!r}, expected {expected!r}"]


class Reproduce:
    """`sweep --figure` for fig1, fig2a, fig2b and fig4 (JSON to a file), then `verify`.

    The inputs are the paper's fixed grids; the seed only orders the five commands.
    """

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        commands = [("sweep", fig) for fig in REPRODUCE_ROWS] + [("verify", None)]
        random.Random(seed).shuffle(commands)
        self.commands = commands

    def inputs(self):
        return list(self.commands)

    def ops(self) -> list[Op]:
        ops = []
        for cmd, figure in self.commands:
            if cmd == "verify":
                argv = ["verify"]
                ops.append(Op("verify", _cli_op(argv), _verify_check(argv)))
            else:
                path = self.workdir / f"{figure}.json"
                argv = ["sweep", "--figure", figure, "--format", "json", "--out", str(path)]
                ops.append(Op(f"sweep {figure}", _sweep_op(argv, path), _sweep_check(argv, figure, path)))
        return ops


def _cli_op(argv):
    return lambda tracer: run_cli(argv, tracer)


def _sweep_op(argv, path: Path):
    def run(tracer):
        path.unlink(missing_ok=True)
        return run_cli(argv, tracer)

    return run


def _sweep_check(argv, figure, path: Path):
    def check(out: CliOutput) -> list[str]:
        failures = _cli_failures(out, argv)
        if failures:
            return failures
        records = json.loads(path.read_text(encoding="utf-8"))
        return check_sweep_rows(records, figure, out.stderr)

    return check


def _verify_check(argv):
    def check(out: CliOutput) -> list[str]:
        return _cli_failures(out, argv) or check_verify(out)

    return check


# ---------------------------------------------------------------------------
# lossy_cat4: one phase-averaged lossy cat4 point through bench.numeric_point
# ---------------------------------------------------------------------------


def cat4_reference(alpha: float, beta_ratio: float, transmission: float) -> tuple[float, float]:
    """(closed-form N_av, QFI with loss applied before phase averaging).

    Loss is phase covariant, so qfi_mixed(phase_average(loss_channel(pure)))
    describes the same state as the program's order, by a different route
    (one dense loss on a pure state, then sector-wise averaging).
    """
    from catqfi import closed_form as cf
    from catqfi.channels import LossSpec, loss_channel, phase_average
    from catqfi.fock import CatSpec, beam_splitter_5050, cat_state, coherent, default_cutoff
    from catqfi.qfi import DegenerateSpectrumWarning, qfi_mixed

    beta = beta_ratio * alpha
    n_max = default_cutoff(math.sqrt((alpha * alpha + beta * beta) / 2))
    pure = beam_splitter_5050(
        cat_state(CatSpec(4, alpha / math.sqrt(2)), n_max), coherent(beta / math.sqrt(2), n_max)
    ).normalize()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateSpectrumWarning)
        f = qfi_mixed(phase_average(loss_channel(pure, LossSpec(transmission))), "n_b")
    return cf.fig1_moments(alpha, beta).n_av, f


def check_lossy_point(out, reference: tuple[float, float]) -> list[str]:
    nav, f = out
    nav_ref, f_ref = reference
    failures = []
    if not math.isfinite(f) or rel_err(f_ref, f) > LOSSY_TOL:
        failures.append(f"lossy cat4 QFI {f!r} vs reference {f_ref!r}")
    if rel_err(nav_ref, nav) > NAV_TOL:
        failures.append(f"lossy cat4 N_av {nav!r} vs closed form {nav_ref!r}")
    return failures


class LossyCat4:
    """One phase-averaged lossy cat4 point per pass at T = 0.9; the seed draws alpha and beta/alpha.

    Over alpha in [0.6, 1.3] and beta/alpha in {0.25, 0.5} the cutoff stays
    n_max = 32 and the dense loss builds 29,376-29,378 branch columns, so the
    work does not depend on the draw.  T is fixed because it does move the
    work: at T = 0.85 the same points build 33,353-33,375 columns (+13.6%)
    and peak at about 1,760 MB instead of 1,560 MB.
    """

    TRANSMISSION = 0.9

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(seed)
        self.alpha = rng.uniform(0.6, 1.3)
        self.beta_ratio = rng.choice((0.25, 0.5))
        self.transmission = self.TRANSMISSION
        self.workdir = workdir
        self._reference = None

    def inputs(self):
        return (self.alpha, self.beta_ratio, self.transmission)

    def reference(self) -> tuple[float, float]:
        """Computed once per run (about 2 s) and shared by its children through the workdir."""
        if self._reference is None:
            path = self.workdir / "cat4_reference.json"
            if path.exists():
                self._reference = tuple(json.loads(path.read_text(encoding="utf-8")))
            else:
                self._reference = cat4_reference(self.alpha, self.beta_ratio, self.transmission)
                path.write_text(json.dumps(self._reference), encoding="utf-8")
        return self._reference

    def ops(self) -> list[Op]:
        from catqfi import bench

        curve = bench.FamilyCurve(
            label="cat4",
            kind="cat4",
            variant="phase_averaged",
            beta_ratio=self.beta_ratio,
            n_components=4,
            transmission=self.transmission,
        )

        def run(tracer):
            # looked up at call time, so a traced pass sees the wrapper
            return bench.numeric_point(curve, self.alpha)

        name = f"cat4 alpha={self.alpha:.6f} b/a={self.beta_ratio} T={self.transmission}"
        return [Op(name, run, lambda out: check_lossy_point(out, self.reference()))]


# ---------------------------------------------------------------------------
# crossover: equal-energy crossing queries
# ---------------------------------------------------------------------------


def crossover_table() -> dict:
    return json.loads((HERE / "crossover_table.json").read_text(encoding="utf-8"))


def check_crossover(out: CliOutput, argv: list[str], expected: float) -> list[str]:
    failures = _cli_failures(out, argv)
    if failures:
        return failures
    nav = json.loads(out.stdout)["crossover_n_av"]
    if not abs(nav - expected) <= CROSSOVER_TOL:
        return [f"crossover {argv[4]} vs {argv[6]}: N_av {nav!r}, expected {expected!r}"]
    return []


class Crossover:
    """Four of the nine fig1 crossing pairs drawn by the seed, plus the fig2b
    extended[N=4] vs extended[N=8] pair on every pass."""

    def __init__(self, seed: int, workdir: Path):
        table = crossover_table()
        fig1 = table["fig1"]
        queries = [("fig1", fig1, pair) for pair in random.Random(seed).sample(fig1["pairs"], 4)]
        queries.append(("fig2b", table["fig2b"], table["fig2b"]["pairs"][0]))
        self.queries = [
            (
                [
                    "crossover",
                    "--figure", figure,
                    "--family-a", a,
                    "--family-b", b,
                    "--nav-lo", str(spec["nav_lo"]),
                    "--nav-hi", str(spec["nav_hi"]),
                ],
                nav,
            )
            for figure, spec, (a, b, nav) in queries
        ]

    def inputs(self):
        return [argv for argv, _ in self.queries]

    def ops(self) -> list[Op]:
        return [
            Op(
                f"crossover {argv[2]} {argv[4]} {argv[6]}",
                _cli_op(argv),
                lambda out, argv=argv, nav=nav: check_crossover(out, argv, nav),
            )
            for argv, nav in self.queries
        ]


WORKLOADS = {"reproduce": Reproduce, "lossy_cat4": LossyCat4, "crossover": Crossover}
