"""Extremal searches: exhaustive small-order enumeration, randomized voltage
lifts, and the chordal double ring scan.

The exhaustive search enumerates bipartite unit-degree mixed graphs with the
edge matching normalized to {2j, 2j+1} (colour = parity), and the class-0
arc permutation fixed to one canonical representative per cycle type; this
prunes the matching's stabilizer without losing isomorphism classes.
Candidate evaluation is pure, and all reports merge in a deterministic total
order, so results do not depend on evaluation order.

The lift search judges each voltage assignment on the base graph, as in
voltage-graph theory (Gross and Tucker, Topological Graph Theory): a lift is
malformed exactly when the darts form no matching of edges or a voltage
congruence on one or two darts holds.  Every lift of a base whose underlying
graph is bipartite is bipartite; lifts of other bases are 2-coloured one by
one.  Only the well-formed assignments are built, directly from the darts,
for the diameter; only the kept witnesses are built with ``families.lift``.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from .core import MixedGraph, bipartition, format_edge_list, isomorphism_classes
from .errors import UnsupportedParameterError
from .families import CdrmConvention, Dart, VoltageBaseGraph, cdrm, lift
from .metrics import diameter

_WITNESS_CAP = 8
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class SearchReport:
    """Outcome of one search run.

    ``witnesses`` holds representatives up to isomorphism, sorted by their
    canonical edge-list text.  ``lift_search`` keeps at most a fixed number
    of labelled witnesses, the first by canonical text, before classing
    them; ``exhaustive_max_order`` classes every witness.  ``wall_time`` is
    informational only and excluded from serialization so that reruns with
    the same seed and budget serialize byte-identically.
    """

    kind: str
    k: int
    max_order_tested: int
    best_order: Optional[int]
    exhaustive: bool
    witnesses: tuple[MixedGraph, ...]
    candidates: int
    wall_time: float
    seed: Optional[int] = None

    def serialize(self) -> str:
        seed = "-" if self.seed is None else str(self.seed)
        best = "-" if self.best_order is None else str(self.best_order)
        lines = [
            f"searchreport kind={self.kind} k={self.k}"
            f" max_order_tested={self.max_order_tested} best_order={best}"
            f" exhaustive={'true' if self.exhaustive else 'false'}"
            f" candidates={self.candidates} seed={seed}",
            f"witnesses {len(self.witnesses)}",
        ]
        for witness in self.witnesses:
            lines.append(format_edge_list(witness).rstrip("\n"))
        return "\n".join(lines) + "\n"


def exhaustive_max_order(
    k: int,
    n_max: int,
    totally_regular_only: bool = True,
    budget: Optional[int] = None,
) -> SearchReport:
    """Largest even order n <= n_max admitting a bipartite unit-degree mixed
    graph of diameter <= k, scanning n downward and stopping at the first n
    with witnesses.

    In totally regular mode edges form a perfect matching and arcs a
    permutation crossing the bipartition; the general mode (any degrees
    <= 1) is far larger and only sensible for tiny n.  A budget caps the
    number of candidates evaluated; hitting it clears the exhaustive flag.
    """
    if k < 1:
        raise UnsupportedParameterError(f"diameter must be >= 1, got {k}")
    if n_max < 2 or n_max % 2 != 0:
        raise UnsupportedParameterError(f"order cap must be even >= 2, got {n_max}")
    start = time.perf_counter()
    candidates = 0
    exhausted_budget = False
    best_order: Optional[int] = None
    witnesses: list[MixedGraph] = []
    for n in range(n_max, 1, -2):
        found: list[MixedGraph] = []
        generator = (
            _totally_regular_candidates(n)
            if totally_regular_only
            else _general_candidates(n)
        )
        for g in generator:
            if budget is not None and candidates >= budget:
                exhausted_budget = True
                break
            candidates += 1
            if diameter(g) <= k:
                found.append(g)
        if found:
            best_order = n
            witnesses = isomorphism_classes(found)
            break
        if exhausted_budget:
            break
    return SearchReport(
        kind="exhaustive",
        k=k,
        max_order_tested=n_max,
        best_order=best_order,
        exhaustive=not exhausted_budget,
        witnesses=tuple(witnesses),
        candidates=candidates,
        wall_time=time.perf_counter() - start,
    )


@dataclass(frozen=True)
class LiftTemplate:
    """A base-graph shape whose dart voltages are left free."""

    n: int
    edge_darts: tuple[tuple[int, int], ...]
    arc_darts: tuple[tuple[int, int], ...]

    @property
    def dart_count(self) -> int:
        return len(self.edge_darts) + len(self.arc_darts)


def two_vertex_template() -> LiftTemplate:
    """One edge plus opposite arcs between two base vertices (order 2q lifts)."""
    return LiftTemplate(n=2, edge_darts=((0, 1),), arc_darts=((0, 1), (1, 0)))


def four_vertex_template() -> LiftTemplate:
    """Two edges and a four-arc circuit on four base vertices (order 4q lifts);
    with q = 5 the assignment realizing bdm(5) lies in this space."""
    return LiftTemplate(
        n=4,
        edge_darts=((0, 1), (2, 3)),
        arc_darts=((0, 3), (3, 0), (1, 2), (2, 1)),
    )


def lift_search(
    k: int,
    template: LiftTemplate,
    q_range: Iterable[int],
    budget: int,
    seed: int,
) -> SearchReport:
    """Search voltage assignments on a template for large lifts of diameter
    <= k.

    For each distinct group order q, in order of first occurrence in
    ``q_range``, the q^darts assignment space is enumerated fully when it
    fits in the remaining budget and sampled deterministically from a
    counter-based generator keyed by the seed otherwise.  Each candidate is
    judged on the base graph: malformed lifts are rejected from the darts
    and voltages alone, and only well-formed lifts are built, directly, to
    measure their diameter.  When the base's underlying graph is bipartite
    so is every lift; otherwise each built lift is 2-coloured, and lifts
    that are not bipartite are rejected.  The witnesses kept are the
    first by canonical text, and only they are built with ``lift``, labels
    included.  Reports are byte-identical across reruns with the same
    arguments.

    Raises UnsupportedParameterError for k < 1, a nonpositive budget or a
    group order below 1, and MalformedBaseError for a template without
    vertices or with a dart endpoint out of range, all before any candidate
    is evaluated.
    """
    if k < 1:
        raise UnsupportedParameterError(f"diameter must be >= 1, got {k}")
    if budget <= 0:
        raise UnsupportedParameterError(f"budget must be positive, got {budget}")
    orders = [int(q) for q in q_range]
    for q in orders:
        if q < 1:
            raise UnsupportedParameterError(f"group order must be >= 1, got {q}")
    orders = list(dict.fromkeys(orders))  # a repeated order is searched once
    # the template's vertex count and dart endpoints, checked on a base
    # whose voltages are all 0
    _voltage_base(template, 1, [0] * template.dart_count).validate()
    start = time.perf_counter()
    candidates = 0
    remaining = budget
    exhaustive = True
    best_order: Optional[int] = None
    # canonical text -> (q, voltages) of the first lift seen with that text,
    # for the _WITNESS_CAP smallest texts at the best order
    kept: dict[str, tuple[int, tuple[int, ...]]] = {}
    for q in orders:
        if remaining <= 0:
            exhaustive = False
            break
        evaluator = _LiftEvaluator(template, q)
        order = template.n * q
        space = q**template.dart_count
        if space <= remaining:
            assignments: Iterable[tuple[int, ...]] = itertools.product(
                range(q), repeat=template.dart_count
            )
        else:
            exhaustive = False
            assignments = (
                _sample_voltages(seed, q, counter, template.dart_count)
                for counter in range(remaining)
            )
        for voltages in assignments:
            candidates += 1
            remaining -= 1
            g = evaluator.lift_if_valid(voltages)
            if g is None:
                continue
            if diameter(g) <= k and (best_order is None or order >= best_order):
                if best_order is None or order > best_order:
                    best_order, kept = order, {}
                text = format_edge_list(g)
                if text in kept:
                    continue
                if len(kept) == _WITNESS_CAP:
                    worst = max(kept)
                    if text > worst:
                        continue
                    del kept[worst]
                kept[text] = (q, voltages)
    witnesses = isomorphism_classes(
        [lift(_voltage_base(template, q, voltages)) for q, voltages in kept.values()]
    )
    return SearchReport(
        kind="lift",
        k=k,
        max_order_tested=template.n * max(orders) if orders else 0,
        best_order=best_order,
        exhaustive=exhaustive,
        witnesses=tuple(witnesses),
        candidates=candidates,
        wall_time=time.perf_counter() - start,
        seed=seed,
    )


def cdrm_scan(m: int) -> tuple[int, CdrmConvention, float]:
    """Best chordal double ring on 2m vertices over all odd chords and both
    attachment conventions.

    Returns (c, convention, diameter) minimizing diameter, with ties broken
    by smaller c and then shift before reflect.
    """
    best: Optional[tuple[float, int, int]] = None
    conventions: tuple[CdrmConvention, ...] = ("shift", "reflect")
    for c in range(1, m, 2):
        for rank, convention in enumerate(conventions):
            d = diameter(cdrm(m, c, convention))
            key = (d, c, rank)
            if best is None or key < best:
                best = key
    if best is None:
        raise UnsupportedParameterError(f"no odd chord exists for m = {m}")
    d, c, rank = best
    return c, conventions[rank], d


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------

def _totally_regular_candidates(n: int) -> Iterator[MixedGraph]:
    """All totally regular bipartite unit-degree graphs on n vertices, with
    the matching normalized and the class-0 arc permutation canonical per
    cycle type.  Every isomorphism class appears at least once."""
    h = n // 2
    for p in _derangement_type_representatives(h):
        for q in itertools.permutations(range(h)):
            if any(q[j] == j or q[p[j]] == j for j in range(h)):
                continue
            yield _matching_graph(h, p, q)


def _matching_graph(h: int, p: Sequence[int], q: Sequence[int]) -> MixedGraph:
    edges = [(2 * j, 2 * j + 1) for j in range(h)]
    arcs = [(2 * j, 2 * p[j] + 1) for j in range(h)]
    arcs += [(2 * j + 1, 2 * q[j]) for j in range(h)]
    return MixedGraph.build(2 * h, edges=edges, arcs=arcs)


def _derangement_type_representatives(h: int) -> list[tuple[int, ...]]:
    """One canonical permutation of 0..h-1 per cycle type without fixed
    points: cycles laid out as consecutive blocks in decreasing length."""
    reps: list[tuple[int, ...]] = []

    def partitions(remaining: int, largest: int) -> Iterator[list[int]]:
        if remaining == 0:
            yield []
            return
        for part in range(min(remaining, largest), 1, -1):
            if remaining - part == 1:
                continue  # a leftover part of size 1 would be a fixed point
            for rest in partitions(remaining - part, part):
                yield [part] + rest

    for cycle_type in partitions(h, h):
        perm = [0] * h
        base = 0
        for length in cycle_type:
            for offset in range(length):
                perm[base + offset] = base + (offset + 1) % length
            base += length
        reps.append(tuple(perm))
    return reps


def _general_candidates(n: int) -> Iterator[MixedGraph]:
    """All bipartite mixed graphs on n vertices with every undirected degree
    and out-degree at most one, up to swapping the colour classes.  The space
    is exponential; use a budget."""
    for h0 in range((n + 1) // 2, n):
        h1 = n - h0
        class1 = list(range(h0, n))
        for matching in _partial_matchings(h0, class1):
            partner = {u: v for u, v in matching}
            partner.update({v: u for u, v in matching})
            heads: list[Optional[int]] = [None] * n

            def assign(v: int) -> Iterator[MixedGraph]:
                if v == n:
                    arcs = [(u, w) for u, w in enumerate(heads) if w is not None]
                    yield MixedGraph.build(n, edges=matching, arcs=arcs)
                    return
                options: list[Optional[int]] = [None]
                targets = class1 if v < h0 else range(h0)
                for w in targets:
                    if partner.get(v) == w:
                        continue  # parallel to the edge
                    if w < v and heads[w] == v:
                        continue  # digon
                    options.append(w)
                for choice in options:
                    heads[v] = choice
                    yield from assign(v + 1)
                heads[v] = None

            yield from assign(0)


def _partial_matchings(
    h0: int, class1: Sequence[int]
) -> Iterator[list[tuple[int, int]]]:
    free = list(class1)

    def extend(v: int) -> Iterator[list[tuple[int, int]]]:
        if v == h0:
            yield []
            return
        for rest in extend(v + 1):
            yield rest
        for idx, w in enumerate(list(free)):
            del free[idx]
            for rest in extend(v + 1):
                yield [(v, w)] + rest
            free.insert(idx, w)

    yield from extend(0)


# ---------------------------------------------------------------------------
# Lift candidates, judged on the base graph
# ---------------------------------------------------------------------------

class _LiftEvaluator:
    """Decides from the darts and voltages alone whether a voltage
    assignment on a template lifts to a well-formed mixed graph over Z_q,
    and builds the lift only when it does and is bipartite.

    Voltages are indexed as in ``LiftTemplate``: edge darts first, then arc
    darts.  The template's endpoints must lie in 0..n-1.  Lift vertex
    (b, x) gets index b*q + x, as in ``families.lift``.
    """

    def __init__(self, template: LiftTemplate, q: int) -> None:
        self.n = template.n
        self.q = q
        self.edge_darts = template.edge_darts
        n_edges = len(template.edge_darts)
        # An edge loop, or two edge darts at one base vertex, gives every
        # lift vertex over it two edges or a loop, whatever the voltages.
        ends = [v for dart in template.edge_darts for v in dart]
        self.always_malformed = len(set(ends)) < len(ends)
        # Every other malformation is (v_i + sign * v_j) % q == 0 for one
        # rule (i, j, sign).  An arc dart paired with itself is a loop: a
        # self-loop or a digon in the lift when twice its voltage is 0.
        self.rules: list[tuple[int, int, int]] = []
        for a, (u, v) in enumerate(template.arc_darts):
            i = n_edges + a
            for b in range(a, len(template.arc_darts)):
                dart = template.arc_darts[b]
                if dart == (v, u):
                    self.rules.append((i, n_edges + b, 1))  # digon
                if b > a and dart == (u, v):
                    self.rules.append((i, n_edges + b, -1))  # duplicate arc
            for e, dart in enumerate(template.edge_darts):
                if dart == (u, v):
                    self.rules.append((i, e, -1))  # arc along an edge
                elif dart == (v, u):
                    self.rules.append((i, e, 1))
        self.arcs_from: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for a, (tail, head) in enumerate(template.arc_darts):
            self.arcs_from[tail].append((n_edges + a, head))
        # The projection maps a closed walk in a lift to one of the same
        # length in the base, so every lift of a base whose underlying graph
        # (arc loops included) is bipartite is bipartite.  Lifts of any
        # other base are checked one by one.
        self.base_bipartite = False
        if not self.always_malformed:
            partner: list[Optional[int]] = [None] * self.n
            for tail, head in template.edge_darts:
                partner[tail], partner[head] = head, tail
            base = MixedGraph(
                n=self.n,
                edge_partner=tuple(partner),
                out_arcs=tuple(
                    tuple(head for _, head in darts) for darts in self.arcs_from
                ),
            )
            self.base_bipartite = bipartition(base) is not None

    def fibre(self, b: int, s: int) -> tuple[int, ...]:
        """The indices of lift vertices (b, x + s) for x = 0..q-1."""
        q = self.q
        return (*range(b * q + s, b * q + q), *range(b * q, b * q + s))

    def lift_if_valid(self, voltages: Sequence[int]) -> Optional[MixedGraph]:
        """The lift, unlabelled, if it is well formed and bipartite, else
        None."""
        if self.always_malformed:
            return None
        q = self.q
        volts = [voltage % q for voltage in voltages]
        for i, j, sign in self.rules:
            if (volts[i] + sign * volts[j]) % q == 0:
                return None
        fibre = self.fibre
        partner: list[Optional[int]] = [None] * (self.n * q)
        for e, (tail, head) in enumerate(self.edge_darts):
            partner[tail * q : tail * q + q] = fibre(head, volts[e])
            partner[head * q : head * q + q] = fibre(tail, -volts[e] % q)
        out_arcs: list[tuple[int, ...]] = []
        for darts in self.arcs_from:
            if darts:
                out_arcs.extend(zip(*[fibre(head, volts[i]) for i, head in darts]))
            else:
                out_arcs.extend([()] * q)
        g = MixedGraph(
            n=self.n * q, edge_partner=tuple(partner), out_arcs=tuple(out_arcs)
        )
        if not self.base_bipartite and bipartition(g) is None:
            return None
        return g


def _voltage_base(
    template: LiftTemplate, q: int, voltages: Sequence[int]
) -> VoltageBaseGraph:
    darts = []
    for (tail, head), voltage in zip(template.edge_darts, voltages):
        darts.append(Dart(tail, head, voltage % q, "edge"))
    for (tail, head), voltage in zip(
        template.arc_darts, voltages[len(template.edge_darts) :]
    ):
        darts.append(Dart(tail, head, voltage % q, "arc"))
    return VoltageBaseGraph(n=template.n, group_order=q, darts=tuple(darts))


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _sample_voltages(seed: int, q: int, counter: int, ndarts: int) -> tuple[int, ...]:
    base = _splitmix64((seed & _MASK64) ^ (q * 0x517CC1B727220A95) & _MASK64)
    return tuple(
        _splitmix64(base ^ (counter * ndarts + d)) % q for d in range(ndarts)
    )
