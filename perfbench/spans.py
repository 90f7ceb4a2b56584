"""Spans around calls into lmgfisher's public functions, from outside the package.

The tracer replaces the module attributes that callers look up and puts
the originals back afterwards.  `cli` reaches the other layers through
their module namespaces (`solver.lmg_ground_state`, `metrology.report`,
`analytic.*`, `scaling.*`), and `lmg_ground_state` and
`GroundState.sector()` reach `build_sector`, `build_sector_matrix` and
`ground_eigenpair` through the `solver` namespace, so wrapping those
attributes sees every call.  `_`-prefixed functions are never timed.
Spans are kept in memory; each records its name, start, end and parent.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass

# (module, attribute) pairs to wrap; the span is named after the module
# that defines the function, which is the layer it belongs to.
TARGETS = (
    ("cli", "main"),
    ("solver", "lmg_ground_state"),
    ("solver", "build_sector"),
    ("solver", "build_sector_matrix"),
    ("solver", "ground_eigenpair"),
    ("metrology", "report"),
    ("metrology", "dicke_metrics"),
    ("analytic", "classify_phase"),
    ("analytic", "tl_prediction"),
    ("analytic", "isotropic_ground_m"),
    ("analytic", "isotropic_energy"),
    ("analytic", "isotropic_level_crossings"),
    ("scaling", "fit_power_law"),
    ("scaling", "fit_linear"),
)


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int | None  # index of the enclosing span
    rows: int = 0  # block dimension, for the spincore and solver spans
    error: str = ""  # exception class that left the call, if any


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self, package) -> None:
        for module_name, attr in TARGETS:
            module = getattr(package, module_name)
            original = getattr(module, attr)
            layer = original.__module__.rsplit(".", 1)[-1]
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, f"{layer}.{attr}"))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, func, name: str):
        spans, stack = self.spans, self._stack
        counts_rows = name in ("spincore.build_sector_matrix", "solver.ground_eigenpair")

        def traced(*args, **kwargs):
            span = Span(name, time.perf_counter_ns(), 0, stack[-1] if stack else None)
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
            if counts_rows:
                span.rows = (args[0] if name == "solver.ground_eigenpair" else result).dimension
            return result

        return traced


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one traced pass.

    Self time is a span's duration minus its direct children's; a layer is
    busy for the self time of all its spans.
    """
    self_ns = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            self_ns[s.parent] -= s.end - s.start

    def of(prefix):
        return [i for i, s in enumerate(spans) if s.name.startswith(prefix)]

    def busy(idx):
        return sum(self_ns[i] for i in idx) * 1e-9

    eig = of("solver.ground_eigenpair")
    eig_ms = sorted((spans[i].end - spans[i].start) * 1e-6 for i in eig)
    eig_busy = sum(eig_ms) * 1e-3
    block_rows = sum(spans[i].rows for i in eig)
    driver = of("solver.lmg_ground_state")
    deciles = statistics.quantiles(eig_ms, n=10, method="inclusive") if len(eig_ms) > 1 else eig_ms * 9
    out = {
        "spincore.calls": len(of("spincore.")),
        "spincore.busy_s": busy(of("spincore.")),
        "spincore.rows": sum(spans[i].rows for i in of("spincore.build_sector_matrix")),
        "solver.blocks": len(eig),
        "solver.block_rows": block_rows,
        "solver.eig_busy_s": eig_busy,
        "solver.eig_ms_p50": statistics.median(eig_ms) if eig_ms else 0.0,
        "solver.eig_ms_p90": deciles[8] if eig_ms else 0.0,
        "solver.rows_per_s": block_rows / eig_busy if eig_busy else 0.0,
        "solver.driver_self_s": busy(driver),
        "solver.convergence_errors": sum(spans[i].error == "ConvergenceError" for i in driver),
        "cli.self_s": busy(of("cli.main")),
    }
    for layer in ("metrology", "analytic"):
        idx = of(layer + ".")
        out[f"{layer}.calls"] = len(idx)
        out[f"{layer}.busy_s"] = busy(idx)
    # Two least-squares fits of a handful of points take well under a
    # millisecond, and no scaling call happens in a field sweep: only the
    # count is kept.
    out["scaling.calls"] = len(of("scaling."))
    return out
