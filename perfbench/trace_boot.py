"""Run one `pwsis` CLI job with the public functions of every module wrapped.

    python trace_boot.py OUT.json time|peak -- <pwsis arguments>

The bootstrap imports `pwsis.cli` first (it applies the PWSIS_THREADS cap
before numpy loads), then every other `pwsis` module.  It wraps each
function named in a module's `__all__` and replaces the name in every
`pwsis` module namespace that holds it, so calls made through names
imported with `from ... import` are seen too.  Then it runs
`pwsis.cli.main(argv)` and writes what it recorded to OUT.json:

- `time` mode: one span per call (name, start, end, parent span index) and
  counts computed from arguments and return values;
- `peak` mode: only the functions in PEAK are wrapped, each under its own
  tracemalloc session, and the largest allocation peak per name is kept.

Nothing under `src/` is changed; private helpers are never wrapped.
"""

import importlib
import inspect
import json
import pkgutil
import sys
import time
import tracemalloc

PEAK = ("fibers.symmetrize", "omega.best_omega_invariant")


def _orbits(args, result, parent):
    if parent == "omega.best_omega_invariant":
        return {"omega.orbits": len(result)}
    return {}


def _terms(region):
    return len(region) if isinstance(region, (list, tuple)) else 1


# name -> f(bound arguments, return value, parent span name) -> {count: n}
COUNTS = {
    "textio.parse_dataset": lambda a, r, p: {"textio.values_parsed": r.values.size},
    "spectral.synthesize": lambda a, r, p: {
        "spectral.samples_tested":
            a["grid"].n_offsets * a["grid"].n_cells * len(a["scene"].terms),
        "spectral.samples_nonzero": int((r.values != 0).sum())},
    "spectral.pw_mask": lambda a, r, p: {
        "spectral.samples_tested":
            a["grid"].n_offsets * a["grid"].n_cells * _terms(a["region"])},
    "fibers.gramian_field": lambda a, r, p: {
        "fibers.cells": r.grid.n_cells, "fibers.active_cells": r.n_active},
    "solver.eigen_field": lambda a, r, p: {"solver.eigen_cells": r.n_active},
    "lattice.orbit_partition": _orbits,
}


class Tracer:
    def __init__(self, mode):
        self.mode = mode
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}
        self.peaks = {}

    def timed(self, name, fn):
        sig = inspect.signature(fn)
        count = COUNTS.get(name)

        def wrapper(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                pname = self.spans[parent][0] if parent >= 0 else None
                for key, n in count(bound.arguments, result, pname).items():
                    self.counts[key] = self.counts.get(key, 0) + n
            return result
        return wrapper

    def peaked(self, name, fn):
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0.0), peak)
        return wrapper

    def install(self, modules):
        """Wrap the public functions; returns (wrapped names, missing names)."""
        wrapped, missing = [], []
        for short, mod in modules.items():
            for attr in getattr(mod, "__all__", ()):
                name = "%s.%s" % (short, attr)
                fn = getattr(mod, attr, None)
                if fn is None:
                    missing.append(name)
                    continue
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if self.mode == "peak" and name not in PEAK:
                    continue
                wrapper = (self.peaked if self.mode == "peak" else self.timed)(name, fn)
                for other in modules.values():
                    for key, val in list(vars(other).items()):
                        if val is fn:
                            setattr(other, key, wrapper)
                wrapped.append(name)
        return wrapped, missing


def main(argv):
    out, mode, sep, cli_args = argv[0], argv[1], argv[2], argv[3:]
    if mode not in ("time", "peak") or sep != "--":
        raise SystemExit("usage: trace_boot.py OUT.json time|peak -- <pwsis arguments>")
    import pwsis.cli as cli  # first: sets the BLAS thread cap before numpy loads
    import pwsis

    modules = {info.name: importlib.import_module("pwsis." + info.name)
               for info in pkgutil.iter_modules(pwsis.__path__)}
    tracer = Tracer(mode)
    wrapped, missing = tracer.install(modules)
    rc = 1
    try:
        rc = cli.main(cli_args)
    finally:
        with open(out, "w") as fh:
            json.dump({"spans": tracer.spans, "counts": tracer.counts,
                       "peaks": tracer.peaks, "wrapped": wrapped,
                       "missing": missing}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
