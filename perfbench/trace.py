"""Run one benchmark step in-process with the calls into every fracmv layer timed.

Usage:
    python3 perfbench/trace.py OUT.json cli ARG...        # fracmv.cli.main([ARG...])
    python3 perfbench/trace.py OUT.json step NAME ARG...  # steps.main([NAME, ARG...])

Before the step runs, every public layer function is wrapped, and so is
every name in a fracmv module that is bound to it (``from .x import f``
copies), plus ``ScalarField.__call__`` on the class.  Each wrapper counts
calls and the points it was given, and keeps inclusive and self time (span
time minus the wrapped child calls it covers).  The totals are written to
OUT.json when the step ends; the step's exit code is passed on.
"""
from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

import fracmv
import fracmv.analysis
import fracmv.bump
import fracmv.cli
import fracmv.extension
import fracmv.fraclap
import fracmv.kernel
import fracmv.quadrature

MODULES = [fracmv, fracmv.bump, fracmv.extension, fracmv.quadrature,
           fracmv.kernel, fracmv.fraclap, fracmv.analysis, fracmv.cli]


def _rows(arr, n) -> int:
    return int(np.size(arr)) // n


# layer -> the public functions that are timed
TRACED = {
    "bump": ["eta_raw", "eta_raw_prime", "normalize"],
    "extension": ["poisson_constant", "extend", "reflected_extension"],
    "quadrature": ["gauss_legendre", "integrate_ball_weighted"],
    "kernel": ["build_table", "write_table", "read_table", "phi_r_convolve",
               "phi_direct", "verify_kernel_properties",
               "extension_mean_value"],
    "fraclap": ["make_field"],
    "analysis": ["hl_maximal", "sharp_maximal", "gradient_of_solution",
                 "gradient_sharp_ratio", "besov_seminorm",
                 "weighted_gradient_besov_ratio"],
    "cli": ["main"],
}

# how many points a call was handed, for functions that take a point array
POINTS = {
    "bump.eta_raw": lambda args, kw: int(np.size(args[0])),
    "bump.eta_raw_prime": lambda args, kw: int(np.size(args[0])),
    "extension.extend": lambda args, kw: _rows(args[2], args[0].n),
    "fraclap.field": lambda args, kw: _rows(args[1], args[0].n),
}

# import bindings that must end up wrapped, or the trace misses calls
REQUIRED_BINDINGS = [
    "fracmv.kernel.normalize", "fracmv.kernel.eta_raw",
    "fracmv.kernel.eta_raw_prime", "fracmv.kernel.integrate_ball_weighted",
    "fracmv.bump.integrate_ball_weighted",
    "fracmv.cli.build_table", "fracmv.cli.phi_r_convolve",
    "fracmv.cli.read_table", "fracmv.cli.write_table",
    "fracmv.cli.verify_kernel_properties", "fracmv.cli.extension_mean_value",
    "fracmv.cli.reflected_extension", "fracmv.cli.make_field",
    "fracmv.cli.gradient_sharp_ratio",
    "fracmv.cli.weighted_gradient_besov_ratio",
] + [f"fracmv.analysis.{name}" for name in TRACED["analysis"]] \
  + [f"fracmv.extension.{name}" for name in TRACED["extension"]]


class Tracer:
    """Per-function span totals, kept in memory until the step ends."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.counters = {"kernel.table_bytes": 0}
        self._stack: list[list[float]] = []  # child time of each open span
        self._depth: dict[str, int] = {}

    def wrap(self, name, fn):
        st = self.stats.setdefault(
            name, {"calls": 0, "s": 0.0, "self_s": 0.0, "points": 0})
        points = POINTS.get(name)
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        stack, depth = self._stack, self._depth
        clock = time.perf_counter

        def traced(*args, **kwargs):
            st["calls"] += 1
            if points is not None:
                st["points"] += points(args, kwargs)
            if before is not None:
                args = before(st, args)
            frame = [0.0]
            stack.append(frame)
            depth[name] = depth.get(name, 0) + 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                depth[name] -= 1
                st["self_s"] += dur - frame[0]
                if depth[name] == 0:  # a recursive call is inside its parent
                    st["s"] += dur
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(st, result, args)
            return result

        return traced

    # hooks -----------------------------------------------------------------
    def _before_quadrature_integrate_ball_weighted(self, st, args):
        g = args[0]
        st.setdefault("integrand_calls", 0)

        def counted(*a, **kw):
            st["integrand_calls"] += 1
            return g(*a, **kw)

        return (counted,) + tuple(args[1:])

    def _after_kernel_build_table(self, st, result, args):
        st["rho_nodes"] = st.get("rho_nodes", 0) + len(result.rho_grid)

    def _after_kernel_write_table(self, st, result, args):
        self.counters["kernel.table_bytes"] += os.path.getsize(args[1])

    def _after_kernel_read_table(self, st, result, args):
        self.counters["kernel.table_bytes"] += os.path.getsize(args[0])

    # installation ------------------------------------------------------------
    def install(self) -> list[str]:
        """Wrap every traced function and every binding to it; list bindings."""
        bound = []
        for layer, names in TRACED.items():
            home = getattr(fracmv, layer)
            for fname in names:
                orig = getattr(home, fname)
                wrapper = self.wrap(f"{layer}.{fname}", orig)
                for mod in MODULES:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            setattr(mod, attr, wrapper)
                            bound.append(f"{mod.__name__}.{attr}")
        cls = fracmv.fraclap.ScalarField
        cls.__call__ = self.wrap("fraclap.field", cls.__call__)
        bound.append("fracmv.fraclap.ScalarField.__call__")
        missing = sorted(set(REQUIRED_BINDINGS) - set(bound))
        if missing:
            raise RuntimeError("trace would miss bindings: " + ", ".join(missing))
        return sorted(bound)


def main(argv) -> int:
    if len(argv) < 2 or argv[1] not in ("cli", "step"):
        print(__doc__, file=sys.stderr)
        return 2
    out, mode, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    bindings = tracer.install()
    t0 = time.perf_counter()
    try:
        if mode == "cli":
            rc = fracmv.cli.main(rest)
        else:
            import steps  # imported after install so it sees the wrappers
            rc = steps.main(rest)
    finally:
        record = {"wall_s": time.perf_counter() - t0, "stats": tracer.stats,
                  "counters": tracer.counters, "bindings": bindings}
        with open(out, "w") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
