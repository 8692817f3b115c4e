"""Benchmark for catqfi: three workloads, each in a fresh single-BLAS-thread child.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, order rotated by seed

With --trace 0 the last line of standard output is one JSON object holding
the end-to-end metrics (setup_s, first_pass_s, wall_s, peak_rss_mb,
ok_frac); with --trace 1 it holds the per-layer metrics of one extra,
traced pass.  The lines before it name every metric with its unit and
record the machine, the library versions and the BLAS thread setting.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("reproduce", "lossy_cat4", "crossover")
# fresh workload children per untraced run, each paying import and a cold
# pass; lossy_cat4 passes take 6-9 s, so it gets two to bound the run time
CHILDREN = {"reproduce": 3, "lossy_cat4": 2, "crossover": 3}
PROBES_PER_GAP = 2  # import-only children before, between and after them
RUN_LIMIT_S = 175  # the whole run, set-up samples included


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    return env


def run_child(cmd: list[str], env: dict, deadline: float) -> str:
    """Run a child to completion (killed at the deadline) and return its last stdout line."""
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=max(1.0, deadline - monotonic())
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{cmd[1]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{cmd[1]} printed nothing:\n{proc.stderr[-2000:]}")
    return lines[-1]


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    """One run: fresh children that each pay import and a cold pass.

    An untraced run splits its warm-pass budget over CHILDREN[workload]
    children and puts import-only probes before, between and after them,
    so setup_s and first_pass_s are medians of cold samples taken across
    the run.  A traced run uses one child, which ends with the traced pass.
    """
    env = child_env()
    workdir = ROOT / ".perfbench-work" / f"{workload}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    n_children = 1 if trace else CHILDREN[workload]
    cmd = [
        sys.executable,
        str(HERE / "child.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds / n_children),
        "--trace", str(trace),
        "--workdir", str(workdir),
    ]
    probe = [sys.executable, str(HERE / "child.py"), "--setup-only"]
    probes, children = [], []
    try:
        # import probes before, between and after the workload children,
        # so setup_s samples the whole run rather than one moment of it
        for i in range(n_children + 1):
            if not trace:
                probes += [json.loads(run_child(probe, env, deadline)) for _ in range(PROBES_PER_GAP)]
            if i < n_children:
                children.append(json.loads(run_child(cmd, env, deadline)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(c["attempted"] for c in children)
    failed = sum(c["failed"] for c in children)
    setup = [p["import_s"] for p in probes + children]
    cold = [c["first_pass_s"] for c in children]
    warm = [w for c in children for w in c["wall_s"]]
    if trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in children[0]["layers"].items()}
    else:
        metrics = {
            "setup_s": {"value": median(setup), "unit": "s"},
            "first_pass_s": {"value": median(cold), "unit": "s"},
            "wall_s": {"value": median(warm), "unit": "s"},
            "peak_rss_mb": {"value": max(c["peak_rss_mb"] for c in children), "unit": "MB"},
            "ok_frac": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }
    info = {
        "workload": workload,
        "seed": seed,
        "env": children[0]["env"],
        "setup_samples_s": setup,
        "cold_passes_s": cold,
        "warm_passes_s": warm,
        "failures": [f for c in children for f in c["failures"]],
    }
    if trace:
        info["trace_file"] = os.path.relpath(children[0]["trace_file"], ROOT)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return {"info": info, "result": result}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "catqfi" / "cli.py").is_file():
        print(f"perfbench: no catqfi source tree under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        # rotate the order with the seed, so no workload always runs first
        k = args.seed % len(WORKLOADS)
        names = WORKLOADS[k:] + WORKLOADS[:k]
    else:
        names = (args.workload,)
    results = {}
    for name in names:
        deadline = monotonic() + RUN_LIMIT_S
        try:
            out = run_workload(name, args.seed, args.seconds, args.trace, deadline)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"perfbench: workload {name} failed: {exc}", file=sys.stderr)
            return 1
        print("# " + json.dumps(out["info"]))
        for metric, m in out["result"]["metrics"].items():
            print(f"{name}  {metric:36s} {m['value']:.6g} {m['unit']}")
        results[name] = out["result"]
    print(json.dumps(results[names[0]] if len(names) == 1 else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
