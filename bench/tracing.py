"""Span tracing for the benchmark's traced passes.

The tracer wraps the package's public layer functions from outside the
package.  Each function is found by object identity in every loaded
``mixedgraphs.*`` namespace, so aliases such as ``search.diameter`` and
``families._diameter`` are wrapped too.  Every call records one span
``[name, parent, start, end, outcome]`` in memory; the per-layer metrics
are derived from the spans after the pass, and the spans are written out
when the pass ends.

A span's self time is its duration minus the durations of its direct child
spans, so time spent in helpers that are not wrapped is charged to the
nearest wrapped caller.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

# layer -> public functions wrapped in that layer; core.build is the
# MixedGraph.build static method.
TRACED: dict[str, tuple[str, ...]] = {
    "core": (
        "build",
        "validate_and_profile",
        "bipartition",
        "are_isomorphic",
        "format_edge_list",
        "parse_edge_list",
    ),
    "metrics": ("diameter", "eccentricity_report"),
    "families": ("lift", "bdm", "crm", "crm_optimal", "cdrm"),
    "search": ("lift_search", "exhaustive_max_order", "cdrm_scan"),
    "spectral": ("char_poly_eigenvalues",),
    "bounds": ("moore_bipartite", "improved_bound"),
}

# CLI subcommands the workloads run; each op span is named cli.<subcommand>.
CLI_SUBCOMMANDS = (
    "search_lift",
    "search_exhaustive",
    "search_cdrm-scan",
    "analyze",
    "table",
    "verify",
    "spectrum",
)

ERROR = "error"

# Functions whose return value is kept as the span outcome.
_KEEP_RESULT = {"metrics.diameter", "core.are_isomorphic"}


class Tracer:
    """Collects spans for every call of the wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self._stack: list[int] = [-1]
        self.absent: list[str] = []

    def install(self) -> None:
        """Wrap every traced function that the loaded package defines."""
        package = {
            name: module
            for name, module in sys.modules.items()
            if module is not None
            and (name == "mixedgraphs" or name.startswith("mixedgraphs."))
        }
        for layer, names in TRACED.items():
            module = package.get(f"mixedgraphs.{layer}")
            for fn_name in names:
                full = f"{layer}.{fn_name}"
                if layer == "core" and fn_name == "build":
                    cls = getattr(module, "MixedGraph", None)
                    raw = None if cls is None else cls.__dict__.get("build")
                    if not isinstance(raw, staticmethod):
                        self.absent.append(full)
                        continue
                    cls.build = staticmethod(self._wrap(full, raw.__func__))
                    continue
                target = getattr(module, fn_name, None)
                if not callable(target):
                    self.absent.append(full)
                    continue
                wrapped = self._wrap(full, target)
                for namespace in package.values():
                    for attr, value in list(vars(namespace).items()):
                        if value is target:
                            setattr(namespace, attr, wrapped)

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        keep = name in _KEEP_RESULT

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = [name, stack[-1], clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[4] = ERROR
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if keep:
                span[4] = result
            return result

        return functools.wraps(fn)(traced)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A root span around one benchmark op."""
        span = [name, self._stack[-1], time.perf_counter(), 0.0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        """Write the spans as tab-separated id, parent, name, start, end,
        outcome lines."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("id\tparent\tname\tstart\tend\toutcome\n")
            for sid, (name, parent, start, end, outcome) in enumerate(self.spans):
                handle.write(
                    f"{sid}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t"
                    f"{'' if outcome is None else outcome}\n"
                )


def layer_metrics(
    spans: list[list[Any]],
    searches: list[tuple[int, int, int, Optional[int]]],
) -> dict[str, float]:
    """Per-layer counts, self times and ratios of one traced pass.

    ``searches`` lists, for each candidate search op, its span id range
    [first, last), its diameter bound k and the candidate count it reported.
    """
    child_time = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: dict[str, int] = {}
    errors: dict[str, int] = {}
    total_s: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for sid, (name, _, start, end, outcome) in enumerate(spans):
        calls[name] = calls.get(name, 0) + 1
        errors[name] = errors.get(name, 0) + (outcome == ERROR)
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_time[sid])

    out: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in TRACED}
    for layer, names in TRACED.items():
        for fn_name in names:
            full = f"{layer}.{fn_name}"
            own = self_s.get(full, 0.0)
            layer_self[layer] += own
            out[f"{full}.calls"] = calls.get(full, 0)
            out[f"{full}.self_s"] = own
            out[f"{full}.errors"] = errors.get(full, 0)
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.wall_s"] = total_s.get(f"cli.{sub}", 0.0)
    out["cli.self_s"] = sum(self_s.get(f"cli.{sub}", 0.0) for sub in CLI_SUBCOMMANDS)
    for layer, total in layer_self.items():
        out[f"{layer}.self_s"] = total

    candidates = well_formed = malformed = accepted = bipartitions = 0
    for first, last, k, count in searches:
        candidates += count or 0
        for name, _, _, _, outcome in spans[first:last]:
            if name == "core.validate_and_profile":
                if outcome == ERROR:
                    malformed += 1
                else:
                    well_formed += 1
            elif name == "families.lift" and outcome == ERROR:
                malformed += 1
            elif name == "core.bipartition":
                bipartitions += 1
            elif name == "metrics.diameter" and _at_most(outcome, k):
                accepted += 1
    out["search.candidates"] = candidates
    out["search.well_formed"] = well_formed
    out["search.malformed_ratio"] = _ratio(malformed, candidates)
    out["search.accept_ratio"] = _ratio(accepted, candidates)
    out["core.bipartition.calls_per_candidate"] = _ratio(bipartitions, well_formed)

    iso = [o for name, _, _, _, o in spans if name == "core.are_isomorphic"]
    out["core.are_isomorphic.true_ratio"] = _ratio(
        sum(1 for o in iso if o is True), len(iso)
    )
    diam = [o for name, _, _, _, o in spans if name == "metrics.diameter"]
    out["metrics.diameter.finite_ratio"] = _ratio(
        sum(1 for o in diam if isinstance(o, (int, float)) and math.isfinite(o)),
        len(diam),
    )
    out["trace.spans"] = len(spans)
    return out


def _at_most(value: Any, k: Optional[int]) -> bool:
    return k is not None and isinstance(value, (int, float)) and value <= k


def _ratio(part: int, base: int) -> float:
    """part / base, or 0.0 when the base is empty (the base is reported
    alongside every ratio)."""
    return part / base if base else 0.0
