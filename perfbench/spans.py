"""Span tracing installed from outside the program.

`installed(tracer)` wraps every public function of the layer modules and puts
the wrapper in every `catqfi` namespace that holds the function.  The
lookup site matters: `bench` and `cli` import the fock, channels and qfi
functions by name, and `bench` reaches `closed_form` as `cf.<fn>`, so a
wrapper placed only on the defining module would miss most calls.  Calls
inside a module go through its own namespace and are recorded too, as
child spans.

Each span holds (name, layer, start, end, parent, request).  Spans stay in
memory until `write_jsonl`; a span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from contextlib import contextmanager
from functools import wraps
from time import perf_counter

LAYERS = ("fock", "channels", "qfi", "closed_form", "bench", "cli")

# state constructors of the fock layer, reported together as `fock.build`
FOCK_BUILDERS = frozenset(
    {"coherent", "cat_state", "product_state", "noon_state", "extended_entangled_state"}
)

# layers whose total call count is reported; the other layers' calls are
# reported per function below
LAYER_CALLS = ("closed_form", "cli")

# function-level metrics reported by name; everything else only counts
# towards its layer
FUNCTION_SELF = (
    "channels.loss_channel",
    "channels.phase_average",
    "qfi.qfi_mixed",
    "qfi.qfi_pure",
    "qfi.qfi_noon_mixture",
    "fock.beam_splitter_5050",
)
FUNCTION_CALLS = (
    "channels.loss_channel",
    "channels.phase_average",
    "qfi.qfi_mixed",
    "fock.beam_splitter_5050",
    "bench.numeric_point",
)
COUNTS = (
    "channels.terms_out",
    "channels.state_mb",
    "qfi.spectrum_terms",
    "fock.grid_cells",
    "bench.rows_closed",
    "bench.rows_numeric",
    "bench.rows_aborted",
)


def _spectral_out(counts: Counter, args, result) -> None:
    # bytes of the (n_max+1)^2 complex grid held per returned eigenvector
    cells = (result.n_max + 1) ** 2 if result.terms else 0
    counts["channels.terms_out"] += len(result.terms)
    counts["channels.state_mb"] += len(result.terms) * cells * 16 / 1e6


def _qfi_mixed_in(counts: Counter, args, result) -> None:
    counts["qfi.spectrum_terms"] += len(args[0].terms)


def _grid_out(counts: Counter, args, result) -> None:
    if result.amps.ndim == 2:
        counts["fock.grid_cells"] += result.amps.size


def _sweep_rows(counts: Counter, args, result) -> None:
    for row in result:
        counts["bench.rows_numeric" if row.path == "numeric" else "bench.rows_closed"] += 1


RESULT_HOOKS = {
    "channels.loss_channel": _spectral_out,
    "channels.phase_average": _spectral_out,
    "qfi.qfi_mixed": _qfi_mixed_in,
    "fock.beam_splitter_5050": _grid_out,
    **{f"fock.{name}": _grid_out for name in FOCK_BUILDERS},
    "bench.run_sweep": _sweep_rows,
}


class Tracer:
    """In-memory span recorder for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, request]
        self.counts: Counter = Counter()
        self.request: str | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, layer: str):
        rec = [name, layer, 0.0, 0.0, self._stack[-1] if self._stack else None, self.request]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[2] = perf_counter()
        try:
            yield
        finally:
            rec[3] = perf_counter()
            self._stack.pop()

    def wrap(self, layer: str, name: str, fn):
        qualname = f"{layer}.{name}"
        hook = RESULT_HOOKS.get(qualname)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(qualname, layer):
                result = fn(*args, **kwargs)
            if hook is not None:
                hook(self.counts, args, result)
            return result

        return wrapper

    def self_times(self) -> list[float]:
        child = [0.0] * len(self.spans)
        for name, layer, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        return [end - start - c for (_, _, start, end, _, _), c in zip(self.spans, child)]

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict:
        """Per-layer self time and call counts, plus the named counters."""
        self_s = self.self_times()
        layer_self = defaultdict(float)
        layer_calls = Counter()
        fn_self = defaultdict(float)
        fn_calls = Counter()
        for (name, layer, *_), s in zip(self.spans, self_s):
            group = name
            if layer == "fock" and name.split(".", 1)[1] in FOCK_BUILDERS:
                group = "fock.build"
            layer_self[layer] += s
            layer_calls[layer] += 1
            fn_self[group] += s
            fn_calls[group] += 1
        out = {}
        for layer in LAYERS:
            out[f"{layer}.self_s"] = (layer_self[layer], "s")
        for layer in LAYER_CALLS:
            out[f"{layer}.calls"] = (layer_calls[layer], "count")
        for name in FUNCTION_SELF + ("fock.build",):
            out[f"{name}.self_s"] = (fn_self[name], "s")
        for name in FUNCTION_CALLS + ("fock.build",):
            out[f"{name}.calls"] = (fn_calls[name], "count")
        for name in COUNTS:
            out[name] = (self.counts[name], "MB" if name.endswith("_mb") else "count")
        out["trace.wall_s"] = (traced_wall_s, "s")
        out["trace.coverage"] = (sum(layer_self.values()) / traced_wall_s, "ratio")
        out["trace.overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
        return out

    def write_jsonl(self, path) -> None:
        self_s = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, ((name, layer, start, end, parent, request), s) in enumerate(zip(self.spans, self_s)):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "self_s": s,
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )


@contextmanager
def installed(tracer: Tracer):
    """Wrap the layers' public functions for the duration of the block."""
    modules = {layer: importlib.import_module(f"catqfi.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, mod in modules.items():
        for name, fn in vars(mod).items():
            if not name.startswith("_") and inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                wrappers[fn] = tracer.wrap(layer, name, fn)
    namespaces = [*modules.values(), importlib.import_module("catqfi")]
    patched = []
    for mod in namespaces:
        for name, value in list(vars(mod).items()):
            if inspect.isfunction(value) and value in wrappers:
                patched.append((mod, name, value))
                setattr(mod, name, wrappers[value])
    try:
        yield patched
    finally:
        for mod, name, value in patched:
            setattr(mod, name, value)
