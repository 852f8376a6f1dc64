"""Extremal searches: exhaustive small-order enumeration, randomized voltage
lifts, and the chordal double ring scan.

The exhaustive search enumerates totally regular bipartite unit-degree
mixed graphs with the edge matching normalized to {2j, 2j+1} (colour =
parity) and the class-0 arc permutation p fixed to one canonical
representative per cycle type.  Of the class-1 arc permutations q it
generates one per orbit under conjugation by the centraliser of p:
relabelling j -> s(j) with s p = p s keeps the matching and p and turns q
into s q s^-1, an isomorphic graph.  The member kept is the one whose arc
text sorts first, so every isomorphism class keeps its member of least
canonical text, and the witnesses are those of the unpruned search.  The
orbit check prunes partial permutations during the backtracking that
places q, so a subtree holding no representative is never entered.  A
candidate is judged as its pair (p, q), on the successor lists of its
graph with the distance kernel stopped after round k (``_within``), and
only an accepted one is built.  The general mode prunes nothing.
Candidate evaluation is pure, and all reports merge in a deterministic
total order, so results do not depend on evaluation order.

The lift search takes its base shape as a ``families.LiftTemplate``, the
one description of a base graph: with a group order q and voltages it is
the voltage graph (template, q, voltages) that ``families.lift`` takes.
Two assignments of one voltage class (``LiftTemplate.voltage_class``)
have isomorphic lifts, and so have a class c and u*c, u a unit of Z_q:
(b, x) -> (b, u*x) is an isomorphism (Gross and Tucker).  So the search
judges each class once, on its tree-zero member (voltage 0 on the
spanning forest), exactly: well formed (from the voltages alone),
bipartite, and of diameter <= k (``metrics.lift_diameter``, which builds
no graph).  A connected lift is bipartite exactly when the base is, or
when q is even and every class voltage has the parity of its fundamental
cycle (``LiftTemplate.lifts_bipartite``); a disconnected one fails the
diameter test.  Each test keeps its answer under a unit on its own: a
congruence g_i +- g_j = 0 (mod q) holds for u*g exactly when it holds for
g, and for even q a unit is odd, so u*g keeps the parities that the rule
reads.  The verdict is stored for the whole orbit of the class.  A q that
takes at least one assignment per class judges all q^|cotree| classes
before any candidate, so it draws nothing when no class is accepted; its
units are listed only then, where they number at most the count.  Fewer
samples than classes judge the classes the samples meet, and store each
verdict for the class alone.  A fully enumerated q makes only an
accepted class's members: tree voltages t, and on the cotree the class
less the class of t alone.  A lift of diameter <= k has at most
1 + D + ... + D^k vertices, D the most steps out of a base vertex, so a
q of larger order is only counted.  The witnesses are ranked by their
canonical text without rendering it, by the heads of its lines alone
(``_text_key``), fibre block by fibre block, so that a candidate is
dropped at its first block above the worst kept key.  The "E" blocks lead
the key, and fibre b's reads only the voltages of b's edge steps to
fibres above b, so the verdict of comparing it with the worst key's is
kept per fibre, keyed by those voltages, until the worst key changes:
most candidates are dropped by a lookup, with no block made.  A lift is
built only for a kept witness, once the search is over, by
``families.lift``.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from operator import itemgetter
from typing import Iterable, Iterator, Optional, Sequence

from .core import MixedGraph, Record, _set, ball_rounds, format_edge_list, isomorphism_classes
from .errors import check_int, require
from .families import CdrmConvention, LiftTemplate, cdrm_voltage_graph, lift
from .metrics import _last_round, diameter, lift_diameter

_WITNESS_CAP = 8
_MASK64 = (1 << 64) - 1
# fibre and its steps' voltages -> the fibre's "E" and "A" heads (_block)
_Heads = dict[tuple[int, ...], tuple[tuple[str, ...], tuple[str, ...]]]


class SearchReport(Record):
    """Outcome of one search run.

    ``witnesses`` holds representatives up to isomorphism, sorted by their
    canonical edge-list text.  ``lift_search`` keeps at most a fixed number
    of witnesses, the first by canonical text, ranked without building or
    rendering a lift, and builds (with ``families.lift``) and classes only
    those; ``exhaustive_max_order`` classes every witness.  ``wall_time`` is
    informational only and excluded from serialization so that reruns with
    the same seed and budget serialize byte-identically.
    """

    __slots__ = (
        "kind", "k", "max_order_tested", "best_order", "exhaustive", "witnesses",
        "candidates", "wall_time", "seed",
    )

    def __init__(
        self, kind: str, k: int, max_order_tested: int, best_order: Optional[int],
        exhaustive: bool, witnesses: tuple[MixedGraph, ...], candidates: int,
        wall_time: float, seed: Optional[int] = None,
    ) -> None:
        _set(self, "kind", kind)
        _set(self, "k", k)
        _set(self, "max_order_tested", max_order_tested)
        _set(self, "best_order", best_order)
        _set(self, "exhaustive", exhaustive)
        _set(self, "witnesses", witnesses)
        _set(self, "candidates", candidates)
        _set(self, "wall_time", wall_time)
        _set(self, "seed", seed)

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
    permutation crossing the bipartition, and the candidates are the
    pairs (p, q) ``_totally_regular_candidates`` keeps, one per orbit of
    the centraliser of the class-0 permutation p.  Each is judged on its
    successor lists up to round k (``_within``), and a graph is built
    (``_matching_graph``) only for an accepted one.  The general mode (any
    degrees <= 1) is far larger and only sensible for tiny n; it builds
    each graph and asks ``diameter(g, limit=k)``.  Either way the search
    asks only whether the diameter is <= k, not what it is.
    ``candidates`` counts the candidates evaluated, and a budget caps it;
    hitting the budget clears the exhaustive flag.  The budget does not
    cap the set-up for each cycle type of p: its centraliser C(p) is
    listed in full, with two lists of length h = n/2 per element, before
    the first candidate, so O(|C(p)| h) time and memory (|C(p)| = h for
    the first, single-cycle p).
    Raises UnsupportedParameterError unless k is an int >= 1, the order cap
    an even int >= 2 and the budget None or an int >= 1, before any
    candidate is evaluated.
    """
    check_int(k, "diameter", 1)
    check_int(n_max, "order cap")
    require(n_max >= 2 and n_max % 2 == 0, f"order cap must be even >= 2, got {n_max}")
    if budget is not None:
        check_int(budget, "budget", 1)
    start = time.perf_counter()
    candidates = 0
    exhausted_budget = False
    best_order: Optional[int] = None
    witnesses: list[MixedGraph] = []
    for n in range(n_max, 1, -2):
        h = n // 2
        found: list[MixedGraph] = []
        generator = (
            _totally_regular_candidates(n)
            if totally_regular_only
            else _general_candidates(n)
        )
        for candidate in generator:
            if budget is not None and candidates >= budget:
                exhausted_budget = True
                break
            candidates += 1
            if totally_regular_only:
                if _within(h, *candidate, k):
                    found.append(_matching_graph(h, *candidate))
            elif diameter(candidate, limit=k) <= k:
                found.append(candidate)
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
    counter-based generator keyed by the seed otherwise; every assignment
    counts as a candidate.  All assignments of one voltage class, and all
    unit multiples of it, have isomorphic lifts, so each class is judged
    once (``_accepted``), on its tree-zero member: well formed, bipartite
    by the class's parity rule (``LiftTemplate.lifts_bipartite``, exact for
    every lift of finite diameter), and of diameter <= k by
    ``metrics.lift_diameter`` with ``limit=k``.  A q that takes at least
    q^|cotree| assignments judges every class before any candidate, so
    that a q with no accepted class draws no sample; a smaller count
    judges the classes its samples meet.  A q of order n*q below the best
    order found, or above 1 + D + ... + D^k, D the most steps out of a
    base vertex, which bounds the order of a lift of diameter <= k, is
    only counted.  The witnesses
    kept are accepted assignments at the best order of the smallest
    canonical texts, one per text, ranked by ``_text_key`` without a lift
    being built; once the cap is full, a candidate is dropped at its first
    fibre "E" block above the worst kept key's.  That block depends only
    on the voltages of the fibre's edge steps upward, so each fibre keeps
    its verdicts (below, equal, above) by those voltages, for one q and
    until the worst key changes, and a block is made only on a miss.  Only
    a kept witness is built, once the search is over, by
    ``families.lift``.  Reports are byte-identical across reruns with the
    same arguments.

    Raises UnsupportedParameterError unless k, the budget and every group
    order are ints >= 1, the seed is an int and no cover has more than
    sys.maxsize vertices, before any candidate is evaluated; the template
    checked its own shape when it was made.
    """
    check_int(k, "diameter", 1)
    check_int(budget, "budget", 1)
    check_int(seed, "seed")
    orders = list(dict.fromkeys(check_int(q, "group order", 1) for q in q_range))
    largest = template.n * max(orders, default=0)
    require(largest <= sys.maxsize, f"a cover of {largest} vertices exceeds {sys.maxsize}")
    # a lift of diameter <= k has at most 1 + D + ... + D^k vertices, D the
    # most steps out of a base vertex; for D >= 2, D^k passes every order
    # once k reaches largest's bit length, so k is cut there
    degree = max(map(len, template.steps_from))
    if degree == 1:
        bound = k + 1
    else:
        bound = (degree ** (min(k, largest.bit_length()) + 1) - 1) // (degree - 1)
    start = time.perf_counter()
    remaining = budget
    exhaustive = True
    best_order: Optional[int] = None
    # _text_key -> a (q, voltages) with that key, for the _WITNESS_CAP
    # smallest keys at the best order; worst is the largest once it is full
    kept: dict[tuple, tuple[int, Sequence[int]]] = {}
    worst: Optional[tuple] = None
    for q in orders:
        if remaining <= 0:
            exhaustive = False
            break
        order = template.n * q
        space = q**template.dart_count
        if space > remaining:
            exhaustive = False
        count = min(space, remaining)
        remaining -= count
        if order > bound or (best_order is not None and order < best_order):
            continue  # nothing at this order can be kept
        heads: _Heads = {}
        # per fibre b with an "E" block: a getter of the voltages of b's
        # edge steps upward, the only ones the block reads, and a table from
        # them to the sign of the block against worst[b], emptied when worst
        # changes
        fibres = []
        for b, steps in enumerate(template.steps_from):
            darts = [d for head, d, _ in map(template.steps.__getitem__, steps)
                     if d < len(template.edge_darts) and head > b]
            if darts:
                fibres.append((b, itemgetter(*darts), {}))
        for voltages in _accepted(template, k, q, count, seed):
            if best_order != order:
                best_order, kept, worst = order, {}, None
            if worst is not None:
                # the "E" blocks lead the key: a larger one cannot enter
                sign = 0
                for b, darts, signs in fibres:
                    at = darts(voltages)
                    sign = signs.get(at)
                    if sign is None:
                        edges = _block(template, q, voltages, b, heads)[0]
                        sign = signs[at] = (edges > worst[b]) - (edges < worst[b])
                    if sign:
                        break
                if sign > 0:
                    continue
            key = _text_key(template, q, voltages, heads)
            if key in kept or (worst is not None and key > worst):
                continue
            if worst is not None:
                del kept[worst]
            kept[key] = (q, voltages)
            if len(kept) == _WITNESS_CAP:
                worst = max(kept)
                for _, _, signs in fibres:
                    signs.clear()
    witnesses = isomorphism_classes([lift(template, q, v) for q, v in kept.values()])
    return SearchReport(
        kind="lift",
        k=k,
        max_order_tested=largest,
        best_order=best_order,
        exhaustive=exhaustive,
        witnesses=tuple(witnesses),
        candidates=budget - remaining,
        wall_time=time.perf_counter() - start,
        seed=seed,
    )


def _accepted(
    template: LiftTemplate, k: int, q: int, count: int, seed: int
) -> Iterator[Sequence[int]]:
    """The assignments over Z_q, of the count ``lift_search`` takes, whose
    lifts are well formed, bipartite and of diameter <= k.  ``accepted``
    judges a voltage class once, on its tree-zero member, and stores the
    verdict for every u*c mod q, u a unit of Z_q: u*g keeps each
    well-formedness congruence zero or nonzero, u is odd for even q so the
    parity rule of ``lifts_bipartite`` holds alike, and the lifts are
    isomorphic, (b, x) -> (b, u*x).  A count of at least q^|cotree| judges
    every class up front, in order of its cotree voltages c, and yields
    nothing when none is accepted.  The units are listed only then: below
    that count q may exceed the count, and its units the samples.  The
    whole space then yields only an accepted class's members, in order of
    c: each member's tree voltages t, and on the cotree c less the class of
    t with a zero cotree.  A smaller count yields the seeded samples of an
    accepted class."""

    cotree = template.cotree
    up_front = q ** len(cotree) <= count
    # listing them takes q steps: up front, q <= q^|cotree| <= count for a
    # non-empty cotree
    units = [u for u in range(q) if math.gcd(u, q) == 1] if up_front and cotree else [1]
    verdicts: dict[tuple[int, ...], bool] = {}

    def accepted(voltage_class: tuple[int, ...]) -> bool:
        verdict = verdicts.get(voltage_class)
        if verdict is None:
            voltages = [0] * template.dart_count
            for (d, _, _), g in zip(cotree, voltage_class):
                voltages[d] = g
            verdict = (
                template.well_formed(q, voltages)
                and template.lifts_bipartite(q, voltage_class)
                and lift_diameter(template, q, voltages, limit=k) <= k
            )
            for u in units:
                verdicts[tuple(u * g % q for g in voltage_class)] = verdict
        return verdict

    if up_front:
        classes = [c for c in itertools.product(range(q), repeat=len(cotree)) if accepted(c)]
        if not classes:
            return
    if count < q**template.dart_count:
        for voltages in _sample_voltages(seed, q, count, template.dart_count):
            if accepted(template.voltage_class(q, voltages)):
                yield voltages
        return
    # per member: its tree voltages, and the class they give with a zero cotree
    members = []
    for shifts in itertools.product(range(q), repeat=len(template.tree)):
        voltages = [0] * template.dart_count
        for (_, _, d, _), g in zip(template.tree, shifts):
            voltages[d] = g
        members.append((voltages, template.voltage_class(q, voltages)))
    for voltage_class in classes:
        for voltages, base in members:
            for (d, _, _), g, b in zip(cotree, voltage_class, base):
                voltages[d] = (g - b) % q
            yield tuple(voltages)


def _block(
    template: LiftTemplate, q: int, voltages: Sequence[int], b: int, heads: _Heads
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Fibre b's "E" and "A" blocks of ``_text_key``, memoised in heads by
    b and its steps' voltages."""
    steps = template.steps_from[b]
    at = (b, *[voltages[template.steps[i][1]] for i in steps])
    block = heads.get(at)
    if block is None:
        n_edges = len(template.edge_darts)
        edges, arcs = [], []
        for head, d, sign in map(template.steps.__getitem__, steps):
            # (start, shift): the step from (b, x) ends at start + (x + shift) % q
            if d >= n_edges or head > b:
                (edges if d < n_edges else arcs).append((head * q, sign * voltages[d] % q))
        block = heads[at] = tuple(
            tuple(
                str(end)
                for x in range(q)
                for end in sorted(start + (x + shift) % q for start, shift in kind)
            )
            for kind in (edges, arcs)
        )
    return block


def _text_key(
    template: LiftTemplate, q: int, voltages: Sequence[int], heads: _Heads
) -> tuple[tuple[str, ...], ...]:
    """A key that orders and equates the well-formed lifts of one template
    and q as ``format_edge_list(template.cover(q, voltages))`` does: each
    fibre b's "E" block, then each fibre's "A" block (``_block``).  An "E"
    block holds, for each x, the numerically sorted heads of b's edge steps
    to fibres above b, each as ``str(end)``; an "A" block the same for b's
    arc steps.  The text's lines read "E tail head" and "A tail head" in
    that order, and every assignment puts the same tail on the same line,
    so, with a newline sorting below every digit, the heads compare as the
    texts do.  ``heads`` holds the blocks for one q."""
    blocks = [_block(template, q, voltages, b, heads) for b in range(template.n)]
    return (*(edges for edges, _ in blocks), *(arcs for _, arcs in blocks))


def cdrm_scan(m: int) -> tuple[int, CdrmConvention, float]:
    """Best chordal double ring on 2m vertices over all odd chords and both
    attachment conventions.

    Returns (c, convention, diameter) minimizing diameter, with shift
    winning ties.  Every odd chord gives one voltage class, and so an
    isomorphic ring, under a given convention (see ``cdrm``), so the scan
    measures the voltage graph of chord 1 under each convention; none is
    built, and the chord returned is always 1.  Raises
    UnsupportedParameterError unless m is an even int >= 4, as ``cdrm`` does.
    """
    diameters: dict[CdrmConvention, float] = {
        convention: lift_diameter(*cdrm_voltage_graph(m, 1, convention))
        for convention in ("shift", "reflect")
    }
    convention = min(diameters, key=diameters.__getitem__)  # shift wins ties
    return 1, convention, diameters[convention]


# ---------------------------------------------------------------------------
# Candidate enumeration
# ---------------------------------------------------------------------------

def _totally_regular_candidates(n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """The totally regular bipartite unit-degree graphs on n vertices with
    the matching normalized, as the pairs (p, q) of ``_matching_graph``:
    the class-0 arc permutation p canonical per cycle type and the class-1
    permutation q one per orbit of the centraliser of p
    (``_class1_representatives``, which prunes the other members while it
    generates q, not after).  Every isomorphism class appears, with its
    member of least canonical text.  An exhaustive search's
    ``candidates=`` counts these pairs and its budget bounds them."""
    for p in _derangement_type_representatives(n // 2):
        for q in _class1_representatives(p):
            yield p, q


def _within(h: int, p: Sequence[int], q: Sequence[int], k: int) -> bool:
    """Whether ``_matching_graph(h, p, q)`` has diameter <= k, judged on its
    successor lists, with no graph built: the kernel stops after round k."""
    succ: list[list[int]] = []
    for j in range(h):
        succ += [2 * p[j] + 1, 2 * j + 1], [2 * q[j], 2 * j]
    return _last_round(ball_rounds(succ), 2 * h, (1 << 2 * h) - 1, k) <= k


def _class1_representatives(p: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """The class-1 permutations q for p whose arc text sorts first among
    their conjugates by the centraliser C(p), in order of that text.
    Relabelling j -> s(j) for s in C(p) keeps the matching and p and turns
    q into s q s^-1, an isomorphic graph.  The arc lines read
    "A 2j+1 2q[j]" in order of j, so the texts compare as the tuples of
    the ranks of q[j] in ``_text_order``.

    A backtracking places q[0], q[1], ... trying values in that rank
    order, never a forbidden one: q[i] = i is an arc along an edge and
    q[i] = p^-1(i) a digon with a class-0 arc.  The orbit check runs
    during generation (orderly generation, Read 1978): after each
    placement every conjugate still tied with q is compared on the
    positions whose entry it already determines, in order of j.  One that
    sorts below prunes the value, since no completion is then least in
    its orbit; one that sorts above is dropped for the subtree; a tie, or
    a position it does not determine yet, keeps it.  At the last position
    every entry is determined, so the yielded q are exactly the least of
    their orbits, in text order."""
    h = len(p)
    p_inv = sorted(range(h), key=p.__getitem__)
    values = _text_order(h)
    rank = sorted(range(h), key=values.__getitem__)  # v's index in values
    # per s in C(p) but the identity: (s^-1, v -> rank[s(v)], t) with the
    # conjugate c = s q s^-1 tied with q before position t; c[j] is
    # s(q[s^-1(j)]), determined once position s^-1(j) is placed
    tied: list = [None] * (h + 1)
    tied[0] = [
        (sorted(range(h), key=s.__getitem__), [rank[v] for v in s], 0)
        for s in _centraliser(p)[1:]
    ]
    q = [-1] * h
    at = [-1] * h  # the index in values of q[i], or -1
    used = [False] * h
    i = 0
    while i >= 0:
        if q[i] >= 0:
            used[q[i]] = False
        r = at[i] + 1
        kept = None
        while r < h:
            v = values[r]
            if not (used[v] or v == i or v == p_inv[i]):
                q[i] = v
                kept = _still_tied(tied[i], q, i, rank)
                if kept is not None:
                    break
            r += 1
        if kept is None:
            q[i] = at[i] = -1
            i -= 1
            continue
        at[i] = r
        used[q[i]] = True
        if i == h - 1:
            yield tuple(q)
        else:
            tied[i + 1] = kept
            i += 1


def _still_tied(tied: list, q: list[int], i: int, rank: list[int]) -> Optional[list]:
    """The conjugates of ``tied`` still tied with q once q[i] is placed,
    each with its first undecided position, or None when one of them
    sorts below q."""
    kept = []
    for s_inv, ranked, t in tied:
        while t <= i and s_inv[t] <= i:
            d = ranked[q[s_inv[t]]] - rank[q[t]]
            if d < 0:
                return None
            if d:
                break  # sorts above q, whatever the completion
            t += 1
        else:
            kept.append((s_inv, ranked, t))
    return kept


def _text_order(h: int) -> list[int]:
    """0..h-1 in the order of the texts str(2v) of the arc heads 2v."""
    return sorted(range(h), key=lambda v: str(2 * v))


def _centraliser(p: Sequence[int]) -> list[tuple[int, ...]]:
    """The permutations s of 0..h-1 with s p = p s, the identity first.
    Such an s maps each cycle of p onto one of equal length, and is fixed
    by where it sends one element of each cycle."""
    groups: dict[int, list[list[int]]] = {}  # cycle length -> cycles of p
    seen = [False] * len(p)
    for x in range(len(p)):
        cycle = []
        while not seen[x]:
            seen[x] = True
            cycle.append(x)
            x = p[x]
        if cycle:
            groups.setdefault(len(cycle), []).append(cycle)
    # per length: every choice of the image of each cycle's first element
    choices = [
        [
            list(zip(cycles, starts))
            for images in itertools.permutations(cycles)
            for starts in itertools.product(*images)
        ]
        for cycles in groups.values()
    ]
    centraliser = []
    for choice in itertools.product(*choices):
        s = [0] * len(p)
        for cycle, y in itertools.chain.from_iterable(choice):
            for x in cycle:
                s[x] = y
                y = p[y]
        centraliser.append(tuple(s))
    return centraliser


def _matching_graph(h: int, p: Sequence[int], q: Sequence[int]) -> MixedGraph:
    """The graph on 2h vertices with the edges {2j, 2j+1} and the arcs
    2j -> 2p[j]+1 and 2j+1 -> 2q[j], built without ``MixedGraph.build``'s
    checks: for permutations p and q every id is in range, the matching
    has no loop or clash, and each vertex has one arc."""
    out_arcs: list[tuple[int, ...]] = []
    for j in range(h):
        out_arcs += [(2 * p[j] + 1,), (2 * q[j],)]
    return MixedGraph(2 * h, tuple(v ^ 1 for v in range(2 * h)), tuple(out_arcs))


def _derangement_type_representatives(h: int) -> Iterator[tuple[int, ...]]:
    """Yield one canonical permutation of 0..h-1 per cycle type without
    fixed points: cycles laid out as consecutive blocks in decreasing
    length."""

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
        yield tuple(perm)


def _general_candidates(n: int) -> Iterator[MixedGraph]:
    """All bipartite mixed graphs on n vertices with every undirected degree
    and out-degree at most one, up to swapping the colour classes.  The space
    is exponential; use a budget.  Arc heads run lexicographically, vertex 0
    slowest, each None first and then the other class in order."""
    for h0 in range((n + 1) // 2, n):
        class1 = range(h0, n)
        for matching in _partial_matchings(h0, class1):
            partner = [-1] * n
            for u, v in matching:
                partner[u], partner[v] = v, u
            for heads0 in itertools.product((None, *class1), repeat=h0):
                if any(w == partner[v] for v, w in enumerate(heads0)):
                    continue  # an arc along an edge
                for heads1 in itertools.product((None, *range(h0)), repeat=n - h0):
                    # an arc v -> w out of class 1 along an edge, or closing
                    # a digon with w -> v
                    if any(
                        w is not None and (w == partner[v] or heads0[w] == v)
                        for v, w in enumerate(heads1, h0)
                    ):
                        continue
                    arcs = [
                        (v, w) for v, w in enumerate(heads0 + heads1) if w is not None
                    ]
                    yield MixedGraph.build(n, edges=matching, arcs=arcs)


def _partial_matchings(
    h0: int, class1: Sequence[int]
) -> Iterator[list[tuple[int, int]]]:
    """Matchings between 0..h0-1 and class1, lexicographically in each v's
    partner (None first), v = 0 slowest."""
    for choice in itertools.product((None, *class1), repeat=h0):
        taken = [w for w in choice if w is not None]
        if len(set(taken)) == len(taken):
            yield [(v, w) for v, w in enumerate(choice) if w is not None]


# ---------------------------------------------------------------------------
# Lift candidates
# ---------------------------------------------------------------------------

def _sample_voltages(seed: int, q: int, count: int, ndarts: int) -> Iterator[tuple[int, ...]]:
    """count seeded samples of ndarts >= 1 voltages over Z_q, streamed:
    voltage d of sample i is SplitMix64's output on base ^ (i*ndarts + d),
    modulo q, where base is its output on the seed and q."""
    (base,) = _splitmix64([(seed & _MASK64) ^ (q * 0x517CC1B727220A95) & _MASK64], 1 << 64)
    stream = _splitmix64(map(base.__xor__, range(count * ndarts)), q)
    return zip(*[stream] * ndarts)


def _splitmix64(xs: Iterable[int], modulus: int) -> Iterator[int]:
    """SplitMix64's output function on each of xs, modulo modulus."""
    for x in xs:
        z = (x + 0x9E3779B97F4A7C15) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        yield (z ^ (z >> 31)) % modulus
