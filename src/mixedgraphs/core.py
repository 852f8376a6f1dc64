"""Data model for mixed graphs with undirected degree at most one.

A mixed graph here carries plain undirected edges alongside directed arcs.
Each vertex has at most one edge (stored as an optional partner id) and an
ordered tuple of out-arc heads.  All operations are pure: graphs and the
package's other records are ``__slots__`` classes that refuse assignment
after construction, and are safe to share between threads.
"""

from __future__ import annotations

import sys
from typing import Iterable, Iterator, Optional, Sequence

from .errors import BadPermutationError, MalformedGraphError, check_int, require

_set = object.__setattr__  # how a record's __init__ sets its fields


class Record:
    """Base of the package's immutable records.  A record names its fields
    in ``__slots__`` and sets them in its own ``__init__`` with ``_set``.
    Records of one exact type are equal when their fields are; the fields
    also give the hash, the repr and the pickle (rebuilt through
    ``__init__``, as the slots refuse assignment), and assignment or
    deletion raises AttributeError."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        return self.__class__, self._fields()


class MixedGraph(Record):
    """A mixed graph on vertices 0..n-1.

    ``edge_partner[v]`` is the unique undirected neighbour of ``v`` (or
    ``None``), so the stored partner map is symmetric and irreflexive by
    construction.  ``out_arcs[v]`` lists the heads of arcs leaving ``v``.
    ``labels`` is optional display metadata; no algorithm looks at it.
    """

    __slots__ = ("n", "edge_partner", "out_arcs", "labels")

    def __init__(
        self, n: int, edge_partner: tuple[Optional[int], ...],
        out_arcs: tuple[tuple[int, ...], ...], labels: Optional[tuple[str, ...]] = None,
    ) -> None:
        _set(self, "n", n)
        _set(self, "edge_partner", edge_partner)
        _set(self, "out_arcs", out_arcs)
        _set(self, "labels", labels)

    @staticmethod
    def build(
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        arcs: Iterable[tuple[int, int]] = (),
        labels: Optional[Sequence[str]] = None,
    ) -> "MixedGraph":
        """Construct a graph from edge and arc lists, checking structure.

        Raises MalformedGraphError for a vertex count or id that is not an
        int in range (0..sys.maxsize, 0..n-1), self-loops, a vertex with two
        edges, or duplicate edges/arcs.  Digons and arc/edge parallel pairs
        are representable; ``validate_and_profile`` rejects them.
        """
        check_int(n, "vertex count", 0, sys.maxsize, MalformedGraphError)
        partner: list[Optional[int]] = [None] * n
        for u, v in edges:
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise MalformedGraphError(f"self-loop edge at vertex {u}")
            if partner[u] is not None or partner[v] is not None:
                raise MalformedGraphError(
                    f"edge {{{u},{v}}} conflicts with an existing edge"
                )
            partner[u], partner[v] = v, u
        out: list[list[int]] = [[] for _ in range(n)]
        for u, v in arcs:
            _check_vertex(u, n)
            _check_vertex(v, n)
            if u == v:
                raise MalformedGraphError(f"self-loop arc at vertex {u}")
            if v in out[u]:
                raise MalformedGraphError(f"duplicate arc {u}->{v}")
            out[u].append(v)
        if labels is not None and len(labels) != n:
            raise MalformedGraphError("labels length must equal vertex count")
        return MixedGraph(
            n=n,
            edge_partner=tuple(partner),
            out_arcs=tuple(tuple(a) for a in out),
            labels=None if labels is None else tuple(labels),
        )

    def edges(self) -> list[tuple[int, int]]:
        """All undirected edges as sorted (u, v) pairs with u < v."""
        return sorted(
            (v, p) for v, p in enumerate(self.edge_partner) if p is not None and v < p
        )

    def arcs(self) -> list[tuple[int, int]]:
        """All arcs as sorted (tail, head) pairs."""
        return sorted((u, v) for u in range(self.n) for v in self.out_arcs[u])

    def num_edges(self) -> int:
        return sum(1 for p in self.edge_partner if p is not None) // 2

    def num_arcs(self) -> int:
        return sum(len(a) for a in self.out_arcs)

    def successors(self) -> list[list[int]]:
        """Adjacency of the associated digraph: arcs plus both edge directions."""
        adj = [list(a) for a in self.out_arcs]
        for v, p in enumerate(self.edge_partner):
            if p is not None:
                adj[v].append(p)
        return adj

    def predecessors(self) -> list[list[int]]:
        """Reverse adjacency of the associated digraph."""
        radj: list[list[int]] = [[] for _ in range(self.n)]
        for u in range(self.n):
            for v in self.out_arcs[u]:
                radj[v].append(u)
        for v, p in enumerate(self.edge_partner):
            if p is not None:
                radj[v].append(p)
        return radj

    def relabelled(self, perm: Sequence[int]) -> "MixedGraph":
        """The graph with vertex v renamed perm[v]; labels follow vertices."""
        perm = _check_permutation(perm, self.n)
        labels = None
        if self.labels is not None:
            inv = [0] * self.n
            for v, w in enumerate(perm):
                inv[w] = v
            labels = [self.labels[inv[w]] for w in range(self.n)]
        return MixedGraph.build(
            self.n,
            edges=[(perm[u], perm[v]) for u, v in self.edges()],
            arcs=[(perm[u], perm[v]) for u, v in self.arcs()],
            labels=labels,
        )


class DegreeProfile(Record):
    """Per-vertex degrees of a mixed graph plus bipartiteness."""

    __slots__ = ("undirected", "out_degree", "in_degree", "bipartite_ok")

    def __init__(
        self, undirected: tuple[int, ...], out_degree: tuple[int, ...],
        in_degree: tuple[int, ...], bipartite_ok: bool,
    ) -> None:
        _set(self, "undirected", undirected)
        _set(self, "out_degree", out_degree)
        _set(self, "in_degree", in_degree)
        _set(self, "bipartite_ok", bipartite_ok)

    def is_totally_regular(self, r: int, z: int) -> bool:
        """True iff every vertex has undirected degree r and in- and
        out-degree both z."""
        return all(d == r for d in self.undirected) and all(
            o == z and i == z for o, i in zip(self.out_degree, self.in_degree)
        )

    @property
    def regularity(self) -> Optional[tuple[int, int]]:
        """(r, z) if the graph is totally regular for some pair, else None."""
        if not self.undirected:
            return (0, 0)
        r, z = self.undirected[0], self.out_degree[0]
        return (r, z) if self.is_totally_regular(r, z) else None


def validate_and_profile(g: MixedGraph) -> DegreeProfile:
    """Check the (1,1)-style adjacency invariants and return exact degrees.

    Raises MalformedGraphError if the partner map is asymmetric, a self-loop
    is present, two opposite arcs form a digon, or an arc runs parallel to an
    edge.  Digons and parallel pairs are rejected rather than merged so that
    construction bugs surface immediately.
    """
    n = g.n
    for v, p in enumerate(g.edge_partner):
        if p is None:
            continue
        _check_vertex(p, n)
        if p == v:
            raise MalformedGraphError(f"self-loop edge at vertex {v}")
        if g.edge_partner[p] != v:
            raise MalformedGraphError(f"edge partner map asymmetric at {v}")
    arc_set = set()
    for u in range(n):
        for v in g.out_arcs[u]:
            _check_vertex(v, n)
            if u == v:
                raise MalformedGraphError(f"self-loop arc at vertex {u}")
            arc_set.add((u, v))
    for u, v in arc_set:
        if (v, u) in arc_set:
            raise MalformedGraphError(
                f"arcs {u}->{v} and {v}->{u} form a digon; model it as an edge"
            )
        if g.edge_partner[u] == v:
            raise MalformedGraphError(f"arc {u}->{v} runs parallel to an edge")
    in_deg = [0] * n
    for _, v in arc_set:
        in_deg[v] += 1
    return DegreeProfile(
        undirected=tuple(0 if p is None else 1 for p in g.edge_partner),
        out_degree=tuple(len(a) for a in g.out_arcs),
        in_degree=tuple(in_deg),
        bipartite_ok=bipartition(g) is not None,
    )


def bipartition(g: MixedGraph) -> Optional[tuple[int, ...]]:
    """A 2-colouring of the underlying graph, or None if none exists.

    Arcs are treated as undirected for colouring; in the certificate every
    edge and every arc joins vertices of different colours.  A vertex's
    colour is the parity of its depth in the breadth-first forest grown
    from the least unreached vertex.
    """
    adj = g.successors()
    for u in range(g.n):
        for v in g.out_arcs[u]:
            adj[v].append(u)
    colour = [d & 1 for d in breadth_first_forest(adj, range(g.n))[2]]
    for c, near in zip(colour, adj):
        for v in near:
            if colour[v] == c:
                return None
    return tuple(colour)


def breadth_first_forest(
    adj: Sequence[Sequence[int]], roots: Iterable[int]
) -> tuple[list[int], list[Optional[tuple[int, int]]], list[int]]:
    """The breadth-first forest of ``adj`` grown from each root not yet
    reached, in the order given, as ``(order, parent, depth)``.

    ``order`` lists the reached vertices in visit order.  ``parent[v]`` is
    ``(u, i)`` when v was first reached as ``adj[u][i]``, and None for a
    root or a vertex never reached; ``depth[v]`` is -1 for a vertex never
    reached.  O(V + E) time and no recursion.
    """
    depth = [-1] * len(adj)
    parent: list[Optional[tuple[int, int]]] = [None] * len(adj)
    order: list[int] = []
    for root in roots:
        if depth[root] < 0:
            depth[root] = 0
            tree = [root]
            for u in tree:  # tree grows as vertices are reached
                d = depth[u] + 1
                for i, v in enumerate(adj[u]):
                    if depth[v] < 0:
                        depth[v] = d
                        parent[v] = (u, i)
                        tree.append(v)
            order += tree
    return order, parent, depth


def converse(g: MixedGraph) -> MixedGraph:
    """The graph with every arc reversed and edges unchanged."""
    return MixedGraph.build(
        g.n,
        edges=g.edges(),
        arcs=[(v, u) for u, v in g.arcs()],
        labels=g.labels,
    )


def contract_edges(g: MixedGraph) -> MixedGraph:
    """Merge the two endpoints of every edge into one vertex.

    The merged vertex takes the smaller original id and inherits the arcs of
    both endpoints; surviving ids are then compacted to 0..n'-1 in increasing
    order.  Parallel arcs created by a merge are deduplicated.  The result has
    no edges.
    """
    rep = list(range(g.n))
    for u, v in g.edges():
        rep[v] = u  # u < v
    survivors = sorted(v for v in range(g.n) if rep[v] == v)
    new_id = {v: i for i, v in enumerate(survivors)}
    arcs = sorted({(new_id[rep[u]], new_id[rep[v]]) for u, v in g.arcs()})
    labels = None
    if g.labels is not None:
        labels = [g.labels[v] for v in survivors]
    return MixedGraph.build(len(survivors), edges=(), arcs=arcs, labels=labels)


def verify_automorphism(g: MixedGraph, perm: Sequence[int]) -> bool:
    """True iff perm maps edges to edges and arcs to arcs (with direction)."""
    perm = _check_permutation(perm, g.n)
    for v, p in enumerate(g.edge_partner):
        expected = None if p is None else perm[p]
        if g.edge_partner[perm[v]] != expected:
            return False
    for u in range(g.n):
        if sorted(perm[v] for v in g.out_arcs[u]) != sorted(g.out_arcs[perm[u]]):
            return False
    return True


def are_isomorphic(g: MixedGraph, h: MixedGraph) -> bool:
    """True iff some bijection of vertices maps g's edges onto h's edges and
    g's arcs onto h's arcs, direction kept.

    Decided by :func:`isomorphism_classes`: in O(n^2) time when both graphs
    have a canonical form, and otherwise by a backtracking matcher whose
    worst case is exponential in the order.
    """
    return len(isomorphism_classes([g, h])) == 1


def isomorphism_classes(graphs: Sequence[MixedGraph]) -> list[MixedGraph]:
    """Representatives up to isomorphism, sorted by canonical edge-list text.

    The graphs are taken in order of canonical text, and the first graph of
    each class becomes its representative.  A graph with out-degree at most
    one everywhere in which some vertex reaches every vertex, such as every
    search witness of finite diameter, has an exact canonical form
    (:func:`_canonical_form`, walked from the roots of one cell of a
    vertex invariant), and such graphs are classed by it alone.
    Every other graph, such as ``bd_digraph`` (out-degree 2) or one in which
    no vertex reaches all the others, gets per-vertex invariant signatures,
    computed once, and is bucketed by (order, #edges, #arcs, sorted
    signatures); a backtracking matcher then runs only between graphs
    sharing a bucket.  The matcher maps vertices only onto vertices of
    equal signature, and places them in breadth-first order, so each vertex
    after a component's first goes onto a neighbour of its parent's image.
    Its worst case is still exponential in the order.
    """
    reps: list[MixedGraph] = []
    forms: set[tuple[int, ...]] = set()
    buckets: dict[tuple, list[tuple[MixedGraph, list[tuple]]]] = {}
    for g in sorted(graphs, key=format_edge_list):
        form = _canonical_form(g)
        if form is not None:
            if form not in forms:
                forms.add(form)
                reps.append(g)
            continue
        sig = _iso_signatures(g)
        key = (g.n, g.num_edges(), g.num_arcs(), tuple(sorted(sig)))
        bucket = buckets.setdefault(key, [])
        if not any(_match(g, sig, rep, rep_sig) for rep, rep_sig in bucket):
            bucket.append((g, sig))
            reps.append(g)
    return reps


def _canonical_form(g: MixedGraph) -> Optional[tuple[int, ...]]:
    """An exact canonical form for a graph whose vertices each have at most
    one out-arc and in which some vertex reaches every vertex, or None for
    any other graph.

    From a root, a breadth-first walk that takes a vertex's edge partner
    before its out-arc head visits the vertices in an order the root alone
    decides, so numbering them in visit order leaves no choice: one
    individualised vertex makes the partition discrete (McKay and Piperno,
    "Practical graph isomorphism, II", J. Symbolic Comput. 2014).  Vertex i
    in visit order is encoded as its (partner number, head number) pair,
    -1 for none, packed into one int that sorts as the pair does
    (:func:`_walk`).  As that paper picks a target cell, the roots are one
    cell of a vertex invariant, the lengths of v's cycles under v -> head
    and under v -> head of partner (:func:`_cycle_lengths`): the cell of
    fewest vertices, of least lengths on a tie.  The form is the least
    encoding over the cell's roots whose walk numbers all n vertices, or,
    if none does, over all n roots; a walk stops once its prefix exceeds
    the least encoding so far.  Two graphs of the domain get equal forms
    exactly when they are isomorphic: an encoding determines its graph,
    and an isomorphism keeps the invariant, whether some root reaches
    every vertex, and which walks could give the least encoding, so
    isomorphic graphs take the same path.  An automorphism keeps the
    invariant too, so |Aut| is the number of walked roots of least
    encoding.  When the first walk misses a vertex, :func:`_has_root`
    decides in O(n) whether any vertex reaches them all, so a graph
    outside the domain is turned away without a walk from every root.
    O(n^2) time and no recursion.
    """
    n = g.n
    heads: list[Optional[int]] = []
    for arcs in g.out_arcs:
        if len(arcs) > 1:
            return None
        heads.append(arcs[0] if arcs else None)
    partner = g.edge_partner
    cells: dict[tuple[int, int], list[int]] = {}
    across = [None if w is None else heads[w] for w in partner]
    for v, lengths in enumerate(zip(_cycle_lengths(heads), _cycle_lengths(across))):
        cells.setdefault(lengths, []).append(v)
    if not cells:
        return None
    cell = min(cells.items(), key=lambda item: (len(item[1]), item[0]))[1]
    best: list[int] = []
    for roots in (cell, range(n)):
        for root in roots:
            best = _walk(partner, heads, root, best)
            if root == cell[0] and not best and not _has_root(partner, heads):
                return None
        if best:
            return tuple(best)
    return None


def _walk(
    partner: Sequence[Optional[int]], heads: Sequence[Optional[int]], root: int,
    best: list[int],
) -> list[int]:
    """The encoding of the walk of :func:`_canonical_form` from root if it
    numbers every vertex and sorts below best (or best is empty), else
    best.  The walk stops once its prefix exceeds best."""
    n = len(heads)
    width = n + 1
    number = [-1] * n
    number[root] = 0
    order = [root]
    code: list[int] = []
    tied = bool(best)  # equal to best so far; False once below it
    for i, v in enumerate(order):  # order grows as vertices are numbered
        entry = 0
        for w in (partner[v], heads[v]):
            x = 0
            if w is not None:
                x = number[w]
                if x < 0:
                    x = number[w] = len(order)
                    order.append(w)
                x += 1
            entry = entry * width + x
        if tied:
            least = best[i]
            if entry > least:
                return best
            tied = entry == least
        code.append(entry)
    return code if len(order) == n and not tied else best


def _cycle_lengths(step: Sequence[Optional[int]]) -> list[int]:
    """The length of the cycle of v -> step[v] through each vertex v, or 0
    for a vertex on none (its path ends at None or runs into a cycle).
    Each vertex is entered once: O(n) time."""
    length = [0] * len(step)
    walk = [-1] * len(step)  # the start of the walk that entered v
    for start in range(len(step)):
        if walk[start] >= 0:
            continue
        path = []
        v = start
        while v is not None and walk[v] < 0:
            walk[v] = start
            path.append(v)
            v = step[v]
        if v is not None and walk[v] == start:  # the walk closed a cycle
            cycle = path[path.index(v):]
            for w in cycle:
                length[w] = len(cycle)
    return length


def _has_root(partner: Sequence[Optional[int]], heads: Sequence[Optional[int]]) -> bool:
    """Whether some vertex reaches every vertex along edge partners and
    out-arc heads.  Only the root of the last tree of a forest grown from
    every vertex in turn can: a vertex reaching all lies in the first tree
    to reach it, whose root then reaches all and starts the last tree.  So
    a forest from that root alone must reach all n vertices.  O(n) time."""
    adj = [[w for w in pair if w is not None] for pair in zip(partner, heads)]
    order, parent, _ = breadth_first_forest(adj, range(len(adj)))
    last_root = [v for v in order if parent[v] is None][-1:]
    return len(breadth_first_forest(adj, last_root)[0]) == len(adj)


def _match(
    g: MixedGraph, sig_g: Sequence[tuple], h: MixedGraph, sig_h: Sequence[tuple]
) -> bool:
    """Backtracking search for an isomorphism from g onto h, for graphs whose
    sorted signatures are equal.

    g's vertices are placed in the order of the breadth-first forest over
    the underlying graph, each component from its least (signature, id)
    vertex.  A component's first vertex may go onto any vertex of h with
    its signature; every later vertex only onto a neighbour of its forest
    parent's image with its signature, each tried once.  A candidate u for
    v must be unused, each placed neighbour w of v must map to a neighbour
    of u with the same relations (partner, arc v -> w, arc w -> v), and u
    must have as many used neighbours as v has placed ones, so no other
    placed vertex is adjacent to u.  The search keeps an explicit stack of
    candidate positions, one per placed vertex, so its depth is not
    bounded by Python's recursion limit.
    """
    g_out, h_out = g.out_arcs, h.out_arcs
    # each vertex's distinct underlying neighbours: a digon or an arc along
    # an edge repeats one
    g_near, h_near = (
        [[*dict.fromkeys(s + p)] for s, p in zip(x.successors(), x.predecessors())]
        for x in (g, h)
    )
    roots = sorted(range(g.n), key=lambda v: (sig_g[v], v))
    order, parent, _ = breadth_first_forest(g_near, roots)
    same_sig: dict[tuple, list[int]] = {}
    for u in range(h.n):
        same_sig.setdefault(sig_h[u], []).append(u)
    mapping: dict[int, int] = {}
    used = [False] * h.n
    next_pos = [0] * (g.n + 1)  # per depth: index of the next candidate to try
    depth = 0
    while 0 <= depth < g.n:
        v = order[depth]
        pv, sig, link = g.edge_partner[v], sig_g[v], parent[v]
        cands = same_sig[sig]
        if link is not None:
            cands = [u for u in h_near[mapping[link[0]]] if sig_h[u] == sig]
        placed = [(w, mapping[w]) for w in g_near[v] if w in mapping]
        for pos in range(next_pos[depth], len(cands)):
            u = cands[pos]
            if used[u] or sum(used[x] for x in h_near[u]) != len(placed):
                continue
            pu, out_v, out_u = h.edge_partner[u], g_out[v], h_out[u]
            for w, mw in placed:
                if (w == pv, w in out_v, v in g_out[w]) != (mw == pu, mw in out_u, u in h_out[mw]):
                    break
            else:
                mapping[v] = u
                used[u] = True
                next_pos[depth] = pos + 1
                depth += 1
                next_pos[depth] = 0
                break
        else:
            depth -= 1
            if depth >= 0:
                used[mapping.pop(order[depth])] = False
    return depth == g.n


def _iso_signatures(g: MixedGraph) -> list[tuple]:
    """Per-vertex invariants: edge flag, out-degree, and the sizes of the
    vertex's out- and in-balls in every round in which they grow."""
    out_sizes = _ball_sizes(g.successors())
    in_sizes = _ball_sizes(g.predecessors())
    return [
        (g.edge_partner[v] is not None, len(g.out_arcs[v]), out_sizes[v], in_sizes[v])
        for v in range(g.n)
    ]


def _ball_sizes(adj: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
    sizes: list[list[int]] = [[] for _ in adj]
    for balls, grown in ball_rounds(adj):
        for v in grown:
            sizes[v].append(balls[v].bit_count())
    return [tuple(s) for s in sizes]


def ball_rounds(
    adj: Sequence[Sequence[int]],
    q: int = 1,
    views: Optional[Sequence[tuple[int, int]]] = None,
) -> Iterator[tuple[list[int], list[int]]]:
    """The distance kernel: grow every vertex's ball at once, one distance
    per round.

    Balls are bitsets held in Python ints: bit u of ``balls[v]`` is set when
    u lies within distance d of v along ``adj``.  Round 0 holds ``{v}``, and
    ``ball_{d+1}(v) = ball_d(v) | OR of ball_d(w)`` over the successors w of
    v.  Yields ``(balls, grown)`` after each round d = 0, 1, ..., where
    ``grown`` lists the vertices whose ball grew in round d (every vertex in
    round 0).  A ball that stops growing never grows again, because a vertex
    at distance d + 2 needs one at distance d + 1, so each vertex grows in
    rounds 0..e(v) and no later; iteration ends after the last round in which
    some ball grew.  ``balls`` is updated in place by the next round, so read
    it before resuming.

    With ``views``, the n = len(adj) vertices are the fibre representatives
    (b, 0) of a Z_q cover, whose vertex (b, x) is bit x*n + b.  x -> x + 1
    in every fibre is an automorphism of the cover, so the ball of (w, g) is
    that of (w, 0) rotated by g*n bits.  ``views`` lists (w, g*n) pairs,
    ``adj[v]`` indexes the views out of v, and the rotated balls take the
    place of the ball_d(w).  A plain graph is the cover over the trivial
    group and needs no views.
    """
    n = len(adj)
    size = n * q
    full = (1 << size) - 1
    balls = [1 << v for v in range(n)]
    grown = list(range(n))
    while grown:
        yield balls, grown
        if views is None:
            prev = balls[:]
        else:
            prev = [
                (balls[w] << s | balls[w] >> (size - s)) & full for w, s in views
            ]
        active, grown = grown, []
        for v in active:
            ball = before = balls[v]
            if ball == full:
                continue
            for w in adj[v]:
                ball |= prev[w]
            if ball != before:
                balls[v] = ball
                grown.append(v)


# ---------------------------------------------------------------------------
# Canonical edge-list text format
# ---------------------------------------------------------------------------

def format_edge_list(g: MixedGraph) -> str:
    """Render the canonical text form: header, then sorted E and A lines."""
    lines = [f"mixedgraph {g.n}"]
    lines.extend(f"E {u} {v}" for u, v in g.edges())
    lines.extend(f"A {u} {v}" for u, v in g.arcs())
    return "\n".join(lines) + "\n"


def parse_edge_list(text: str) -> MixedGraph:
    """Parse the canonical text form produced by :func:`format_edge_list`.
    The first non-blank line must be exactly ``mixedgraph N``, and every
    integer plain ASCII decimal, as ``str`` writes it."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("mixedgraph "):
        raise MalformedGraphError("missing 'mixedgraph N' header line")
    try:
        _, count = lines[0].split()
        n = int(count)
        if str(n) != count:
            raise ValueError("not plain decimal")
    except ValueError as exc:
        raise MalformedGraphError(f"bad 'mixedgraph N' header line: {lines[0]!r}") from exc
    edges, arcs = [], []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 3 or parts[0] not in ("E", "A"):
            raise MalformedGraphError(f"bad line in edge list: {ln!r}")
        try:
            u, v = int(parts[1]), int(parts[2])
            if str(u) != parts[1] or str(v) != parts[2]:
                raise ValueError("not plain decimal")
        except ValueError as exc:
            raise MalformedGraphError(f"bad vertex id in line: {ln!r}") from exc
        (edges if parts[0] == "E" else arcs).append((u, v))
    return MixedGraph.build(n, edges=edges, arcs=arcs)


def _check_vertex(v: int, n: int) -> None:
    # errors.check_int's rule, written out: this runs once per endpoint of
    # every graph built or validated.
    if type(v) is not int or not 0 <= v < n:
        raise MalformedGraphError(f"vertex id {v!r} out of range 0..{n - 1}")


def _check_permutation(perm: Sequence[int], n: int) -> tuple[int, ...]:
    perm = tuple([check_int(v, "permutation entry", error=BadPermutationError) for v in perm])
    require(sorted(perm) == list(range(n)), f"not a permutation of 0..{n - 1}", BadPermutationError)
    return perm
