"""One workload in a fresh interpreter: import, a cold pass, warm passes, checks.

Started by run.py with BLAS pinned to one thread in its environment.  Prints
one JSON object as its last line of standard output:

    import_s, first_pass_s, wall_s (every warm pass), peak_rss_mb,
    attempted, failed, failures (the first few messages), env, and with
    --trace 1 also layers (metric name -> [value, unit]) of one more,
    traced pass.

With --setup-only it only times `import catqfi.cli` and prints {import_s}.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

# before numpy loads, also when this file is started by hand
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

sys.path.insert(0, str(Path(__file__).resolve().parent))

MAX_FAILURE_MESSAGES = 20


def run_pass(ops, tracer=None):
    """Run every operation once; only this loop is timed."""
    outputs = []
    start = perf_counter()
    for op in ops:
        if tracer is not None:
            tracer.request = op.name
        try:
            outputs.append(op.run(tracer))
        except Exception:  # a failed operation counts against ok_frac
            outputs.append(traceback.format_exc(limit=3))
    return perf_counter() - start, outputs


def check_pass(ops, outputs) -> list[str]:
    failures = []
    for op, out in zip(ops, outputs):
        if isinstance(out, str):
            failures.append(f"{op.name}: raised {out.strip().splitlines()[-1]}")
            continue
        try:
            msgs = op.check(out)
        except Exception:  # an unreadable output fails its check
            msgs = [traceback.format_exc(limit=2).strip().splitlines()[-1]]
        if msgs:
            failures.append(f"{op.name}: {msgs[0]}" + (f" (+{len(msgs) - 1} more)" if len(msgs) > 1 else ""))
    return failures


def blas_runtime() -> list[str]:
    """Configuration and live thread count of each OpenBLAS loaded in this process."""
    import ctypes

    found = []
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""), ("openblas", "")):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                found.append(f"{get_config().decode()} threads={get_threads()}")
                break
    return found


def environment() -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "blas_runtime": blas_runtime(),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--setup-only", action="store_true", help="time the import and stop")
    p.add_argument("--workload")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float, help="time budget of the warm passes")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", type=Path)
    args = p.parse_args(argv)

    t0 = perf_counter()
    import catqfi.cli  # noqa: F401  (the import every CLI call pays)

    import_s = perf_counter() - t0
    if args.setup_only:
        print(json.dumps({"import_s": import_s}))
        return 0

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    ops = workload.ops()
    attempted = 0
    failures: list[str] = []

    first_pass_s, outputs = run_pass(ops)
    attempted += len(ops)
    failures += check_pass(ops, outputs)

    # stop at the pass count that comes closest to the budget
    walls = []
    while not walls or sum(walls) + median(walls) / 2 < args.seconds:
        wall, outputs = run_pass(ops)
        walls.append(wall)
        attempted += len(ops)
        failures += check_pass(ops, outputs)

    result = {"import_s": import_s, "first_pass_s": first_pass_s, "wall_s": walls, "env": environment()}

    if args.trace:
        from spans import Tracer, installed

        tracer = Tracer()
        with installed(tracer):
            traced_wall, outputs = run_pass(ops, tracer)
        attempted += len(ops)
        failures += check_pass(ops, outputs)
        result["layers"] = tracer.metrics(traced_wall, median(walls))
        trace_path = args.workdir.parent / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_jsonl(trace_path)
        result["trace_file"] = str(trace_path)

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["attempted"] = attempted
    result["failed"] = len(failures)
    result["failures"] = failures[:MAX_FAILURE_MESSAGES]
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
