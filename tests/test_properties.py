from __future__ import annotations

import itertools
import operator
import random
from collections import Counter, deque

import pytest
from hypothesis import example, given, settings, strategies as st

from mixedgraphs import (
    INFINITE,
    EccentricityReport,
    MixedGraph,
    are_isomorphic,
    bd_digraph,
    bipartition,
    cdrm,
    contract_edges,
    converse,
    crm,
    diameter,
    distance_matrix,
    distances_from,
    eccentricity_report,
    format_edge_list,
    four_vertex_template,
    two_vertex_template,
    isomorphism_classes,
    lift,
    lift_diameter,
    validate_and_profile,
    verify_automorphism,
)
from mixedgraphs.core import (
    _canonical_form,
    _has_root,
    _iso_signatures,
    ball_rounds,
    breadth_first_forest,
)
from mixedgraphs.errors import MalformedBaseError, MalformedGraphError
from mixedgraphs.families import LiftTemplate
from mixedgraphs.metrics import UNREACHABLE
from mixedgraphs.search import (
    _centraliser,
    _derangement_type_representatives,
    _sample_voltages,
    _text_key,
    _text_order,
)


@st.composite
def mixed_graphs(draw) -> MixedGraph:
    """Random mixed graphs with degrees <= 1 and no digons or parallel pairs."""
    n = draw(st.integers(min_value=1, max_value=9))
    order = draw(st.permutations(list(range(n))))
    pairs = draw(st.integers(min_value=0, max_value=n // 2))
    edges = [(order[2 * i], order[2 * i + 1]) for i in range(pairs)]
    partner = {}
    for u, v in edges:
        partner[u], partner[v] = v, u
    arcs: list[tuple[int, int]] = []
    taken = set()
    for u in range(n):
        if not draw(st.booleans()):
            continue
        options = [
            v
            for v in range(n)
            if v != u and partner.get(u) != v and (v, u) not in taken
        ]
        if options:
            v = draw(st.sampled_from(options))
            arcs.append((u, v))
            taken.add((u, v))
    return MixedGraph.build(n, edges=edges, arcs=arcs)


@given(mixed_graphs())
def test_converse_is_involution(g):
    assert converse(converse(g)) == g


@given(mixed_graphs())
def test_profile_sums(g):
    profile = validate_and_profile(g)
    assert sum(profile.out_degree) == sum(profile.in_degree) == g.num_arcs()
    assert sum(profile.undirected) == 2 * g.num_edges()


@given(mixed_graphs())
def test_bipartition_certificate_is_proper(g):
    colours = bipartition(g)
    if colours is not None:
        for u, v in g.edges() + g.arcs():
            assert colours[u] != colours[v]


@given(mixed_graphs())
def test_bipartite_distance_parity(g):
    colours = bipartition(g)
    if colours is None:
        return
    dm = distance_matrix(g)
    for u in range(g.n):
        for v in range(g.n):
            d = dm.dist(u, v)
            if d != UNREACHABLE:
                assert d % 2 == (colours[u] != colours[v])


@given(mixed_graphs())
def test_diameter_and_radii_duality(g):
    fwd = eccentricity_report(g)
    back = eccentricity_report(converse(g))
    assert fwd.diameter == back.diameter
    assert fwd.out_radius == back.in_radius
    assert fwd.in_radius == back.out_radius


@given(mixed_graphs())
def test_triangle_inequality(g):
    dm = distance_matrix(g)
    for u in range(g.n):
        for v in range(g.n):
            duv = dm.dist(u, v)
            if duv == UNREACHABLE:
                continue
            for w in range(g.n):
                dvw = dm.dist(v, w)
                duw = dm.dist(u, w)
                if dvw != UNREACHABLE:
                    assert duw != UNREACHABLE
                    assert duw <= duv + dvw


@given(mixed_graphs())
def test_contraction_drops_one_vertex_per_edge(g):
    assert contract_edges(g).n == g.n - g.num_edges()


@given(mixed_graphs(), st.randoms())
def test_automorphism_agrees_on_converse(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert verify_automorphism(g, perm) == verify_automorphism(converse(g), perm)


# ---------------------------------------------------------------------------
# The ball kernel against the queue BFS it replaced
# ---------------------------------------------------------------------------

def queue_bfs(adj: list[list[int]], start: int) -> list[int]:
    """Reference: one queue BFS from start, UNREACHABLE for absent paths."""
    dist = [UNREACHABLE] * len(adj)
    dist[start] = 0
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] == UNREACHABLE:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def reference_ecc(row: list[int]):
    return INFINITE if UNREACHABLE in row else max(row)


def reference_ball_sizes(row: list[int]) -> tuple[int, ...]:
    """Sorted-BFS-row information as ball sizes: vertices within distance d,
    for d up to the farthest reachable vertex."""
    return tuple(sum(0 <= x <= d for x in row) for d in range(max(row) + 1))


def assert_kernel_matches_reference(g: MixedGraph) -> None:
    succ, pred = g.successors(), g.predecessors()
    rows = [queue_bfs(succ, s) for s in range(g.n)]
    columns = [[rows[s][v] for s in range(g.n)] for v in range(g.n)]
    ecc_out = [reference_ecc(row) for row in rows]
    ecc_in = [reference_ecc(col) for col in columns]

    assert [distances_from(g, s) for s in range(g.n)] == rows
    dm = distance_matrix(g)
    assert dm.rows == tuple(tuple(row) for row in rows)
    assert dm.diameter() == diameter(g) == max(ecc_out)

    report = eccentricity_report(g)
    out_radius, in_radius = min(ecc_out), min(ecc_in)
    assert report == EccentricityReport(
        ecc_out=tuple(ecc_out),
        ecc_in=tuple(ecc_in),
        diameter=max(ecc_out),
        out_radius=out_radius,
        in_radius=in_radius,
        out_central=tuple(v for v in range(g.n) if ecc_out[v] == out_radius),
        in_central=tuple(v for v in range(g.n) if ecc_in[v] == in_radius),
    )

    assert _iso_signatures(g) == [
        (
            g.edge_partner[v] is not None,
            len(g.out_arcs[v]),
            reference_ball_sizes(sorted(queue_bfs(succ, v))),
            reference_ball_sizes(sorted(queue_bfs(pred, v))),
        )
        for v in range(g.n)
    ]


@given(mixed_graphs())
def test_kernel_matches_queue_bfs(g):
    assert_kernel_matches_reference(g)


@pytest.mark.parametrize(
    "g",
    [
        MixedGraph.build(1),
        MixedGraph.build(2, edges=[(0, 1)]),
        crm(70, 5),
        cdrm(40, 3, "reflect"),
        MixedGraph.build(70, arcs=[(i, i + 1) for i in range(69)]),
    ],
    ids=["n1", "edge", "crm70", "cdrm40-reflect", "path70"],
)
def test_kernel_matches_queue_bfs_fixed(g):
    assert_kernel_matches_reference(g)


def test_kernel_on_empty_graph():
    g = MixedGraph.build(0)
    assert distance_matrix(g).rows == ()
    assert distance_matrix(g).diameter() == diameter(g) == 0
    assert eccentricity_report(g) == EccentricityReport((), (), 0, 0, 0, (), ())
    assert _iso_signatures(g) == []


# ---------------------------------------------------------------------------
# The breadth-first forest and the traversals it replaced
# ---------------------------------------------------------------------------

@given(mixed_graphs(), st.randoms())
def test_breadth_first_forest_contract(g, rng):
    adj = g.successors()
    roots = [rng.randrange(g.n) for _ in range(rng.randrange(4))]
    order, parent, depth = breadth_first_forest(adj, roots)
    trees = []  # the root of each reached vertex's tree
    for root in roots:
        if root not in trees and depth[root] == 0 and parent[root] is None:
            trees.append(root)
    reached = set()
    for root in trees:
        row = queue_bfs(adj, root)
        reached |= {v for v in range(g.n) if row[v] != UNREACHABLE}
    assert sorted(order) == sorted(reached)
    assert [depth[v] >= 0 for v in range(g.n)] == [v in reached for v in range(g.n)]
    position = {v: i for i, v in enumerate(order)}
    for v in order:
        if parent[v] is None:
            assert v in trees and depth[v] == 0
        else:
            u, i = parent[v]
            assert adj[u][i] == v and depth[v] == depth[u] + 1
            assert position[u] < position[v]
    # each tree is visited whole, in the order of its root, by depth
    assert [depth[v] for v in order if parent[v] is None] == [0] * len(trees)
    tree_of = {}
    for v in order:
        tree_of[v] = v if parent[v] is None else tree_of[parent[v][0]]
    keys = [(trees.index(tree_of[v]), depth[v]) for v in order]
    assert keys == sorted(keys)


def reference_bipartition(g: MixedGraph):
    """Reference: the queue 2-colouring that ``bipartition`` replaced,
    stopping at the first adjacency whose ends have equal colours."""
    colour = [None] * g.n
    adj = g.successors()
    for u in range(g.n):
        for v in g.out_arcs[u]:
            adj[v].append(u)
    for start in range(g.n):
        if colour[start] is not None:
            continue
        colour[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if colour[v] is None:
                    colour[v] = 1 - colour[u]
                    queue.append(v)
                elif colour[v] == colour[u]:
                    return None
    return tuple(colour)


@example(bd_digraph(6))
@example(crm(10, 3))
@example(cdrm(12, 3, "reflect"))
@example(MixedGraph.build(0))
@given(mixed_graphs())
def test_bipartition_matches_the_queue_reference(g):
    assert bipartition(g) == reference_bipartition(g)


@example(MixedGraph.build(5, arcs=[(0, 1), (1, 2), (3, 4), (4, 0)]))  # root 3, found last
@example(MixedGraph.build(4, arcs=[(0, 1), (2, 3)]))  # two paths, no root
@given(mixed_graphs())
def test_has_root_matches_brute_force(g):
    heads = [arcs[0] if arcs else None for arcs in g.out_arcs]
    succ = g.successors()
    expected = any(UNREACHABLE not in queue_bfs(succ, v) for v in range(g.n))
    assert _has_root(g.edge_partner, heads) == expected


@example(MixedGraph.build(0), 0)
@example(MixedGraph.build(1), 0)
@example(MixedGraph.build(2, edges=[(0, 1)]), 0)
@example(MixedGraph.build(3, arcs=[(0, 1), (1, 2)]), 5)  # no vertex reaches 0
@given(mixed_graphs(), st.integers(min_value=0, max_value=10))
def test_diameter_limit_is_the_diameter_up_to_it(g, k):
    d = diameter(g)
    assert diameter(g, limit=k) == (d if d <= k else INFINITE)


@given(mixed_graphs())
def test_distances_from_is_a_row_of_the_distance_matrix(g):
    rows = distance_matrix(g).rows
    for src in range(g.n):
        assert tuple(distances_from(g, src)) == rows[src]


# ---------------------------------------------------------------------------
# The iterative isomorphism matcher against the recursive one it replaced
# ---------------------------------------------------------------------------

def reference_are_isomorphic(g: MixedGraph, h: MixedGraph) -> bool:
    """Reference: recursive backtracking over signature-matched candidates.

    Recursion depth is the order, so it fails on graphs of a few hundred
    vertices; keep its inputs small."""
    if g.n != h.n or g.num_edges() != h.num_edges() or g.num_arcs() != h.num_arcs():
        return False
    sig_g, sig_h = _iso_signatures(g), _iso_signatures(h)
    if sorted(sig_g) != sorted(sig_h):
        return False
    order = sorted(range(g.n), key=lambda v: (sig_g[v], v))
    candidates = [[u for u in range(h.n) if sig_h[u] == sig_g[v]] for v in order]
    mapping: dict[int, int] = {}
    used = [False] * h.n

    def consistent(v: int, u: int) -> bool:
        pv, pu = g.edge_partner[v], h.edge_partner[u]
        if (pv is None) != (pu is None):
            return False
        if pv is not None and pv in mapping and mapping[pv] != pu:
            return False
        for w, mw in mapping.items():
            if (w in g.out_arcs[v]) != (mw in h.out_arcs[u]):
                return False
            if (v in g.out_arcs[w]) != (u in h.out_arcs[mw]):
                return False
        return True

    def extend(i: int) -> bool:
        if i == len(order):
            return True
        v = order[i]
        for u in candidates[i]:
            if not used[u] and consistent(v, u):
                mapping[v] = u
                used[u] = True
                if extend(i + 1):
                    return True
                del mapping[v]
                used[u] = False
        return False

    return extend(0)


@given(mixed_graphs(), mixed_graphs(), st.randoms())
def test_matcher_agrees_with_recursive_reference(g, h, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabelled = g.relabelled(perm)
    assert are_isomorphic(g, relabelled) == reference_are_isomorphic(g, relabelled)
    assert are_isomorphic(g, h) == reference_are_isomorphic(g, h)


# ---------------------------------------------------------------------------
# The canonical form of unit out-degree graphs with a vertex reaching all
# ---------------------------------------------------------------------------

def in_form_domain(g: MixedGraph) -> bool:
    """At most one out-arc at every vertex, and some vertex from which every
    vertex is reachable."""
    return all(len(heads) <= 1 for heads in g.out_arcs) and any(
        UNREACHABLE not in distances_from(g, v) for v in range(g.n)
    )


def reference_class1_permutations(p):
    """Reference: every permutation of 0..h-1 in lexicographic order,
    filtered for an arc along an edge or a digon with a class-0 arc."""
    h = len(p)
    return [
        q for q in itertools.permutations(range(h))
        if not any(q[j] == j or q[p[j]] == j for j in range(h))
    ]


def reference_class1_backtracking(p):
    """Reference: the class-1 permutations q for p, in lexicographic order
    of their values' ranks in ``search._text_order``, by a backtracking
    that tries values in that order and never places a forbidden one (the
    generator of the exhaustive search before it pruned by orbits)."""
    h = len(p)
    p_inv = sorted(range(h), key=p.__getitem__)
    values = _text_order(h)
    q = [-1] * h
    at = [-1] * h  # the index in values of q[i], or -1
    used = [False] * h
    i = 0
    while i >= 0:
        if q[i] >= 0:
            used[q[i]] = False
        r = at[i] + 1
        while r < h and (used[values[r]] or values[r] == i or values[r] == p_inv[i]):
            r += 1
        if r == h:
            q[i] = at[i] = -1
            i -= 1
            continue
        at[i] = r
        q[i] = values[r]
        used[q[i]] = True
        if i == h - 1:
            yield tuple(q)
        else:
            i += 1


def reference_class1_representatives(p):
    """Reference: every q of ``reference_class1_backtracking`` that no
    conjugate s q s^-1 by the centraliser of p sorts below by text, the
    check made after each q is complete."""
    order = _text_order(len(p))
    rank = sorted(range(len(p)), key=order.__getitem__)  # v's index in order
    # per s in C(p) but the identity: pick(q) = (q[s^-1(j)] per j) and
    # ranked[v] = rank[s(v)], so that s q s^-1 has ranks ranked[pick(q)[j]]
    conjugators = [
        (operator.itemgetter(*sorted(range(len(p)), key=s.__getitem__)),
         [rank[v] for v in s])
        for s in _centraliser(p)[1:]
    ]
    for q in reference_class1_backtracking(p):
        key = tuple(map(rank.__getitem__, q))
        if all(
            tuple(map(ranked.__getitem__, pick(q))) >= key
            for pick, ranked in conjugators
        ):
            yield q


def reference_class1_orbit_count(p):
    """Reference: the number of orbits of the centraliser C(p) on the
    class-1 permutations q for p, by Burnside's lemma.  A q fixed by
    conjugation by s commutes with s, so it maps each cycle of s onto one
    of equal length, fixed by the image of the cycle's first element;
    those choices are counted cycle by cycle over the set of used targets."""
    h = len(p)
    p_inv = sorted(range(h), key=p.__getitem__)
    total = 0
    centraliser = _centraliser(p)
    for s in centraliser:
        cycles, seen = [], [False] * h
        for x in range(h):
            cycle = []
            while not seen[x]:
                seen[x] = True
                cycle.append(x)
                x = s[x]
            if cycle:
                cycles.append(cycle)
        targets = [  # per cycle of s: each cycle b it may map onto, per start
            [
                b
                for b, target in enumerate(cycles)
                if len(target) == len(source)
                for start in range(len(source))
                if all(
                    target[(start + t) % len(source)] not in (x, p_inv[x])
                    for t, x in enumerate(source)
                )
            ]
            for source in cycles
        ]
        counts = {0: 1}  # set of used target cycles -> ways
        for options in targets:
            following: dict[int, int] = {}
            for used, ways in counts.items():
                for b in options:
                    if not used >> b & 1:
                        following[used | 1 << b] = following.get(used | 1 << b, 0) + ways
            counts = following
        total += sum(counts.values())
    assert total % len(centraliser) == 0
    return total // len(centraliser)


def reference_matching_graph(h, p, q) -> MixedGraph:
    """Reference: ``search._matching_graph`` through ``MixedGraph.build``
    and its checks."""
    edges = [(2 * j, 2 * j + 1) for j in range(h)]
    arcs = [(2 * j, 2 * p[j] + 1) for j in range(h)]
    arcs += [(2 * j + 1, 2 * q[j]) for j in range(h)]
    return MixedGraph.build(2 * h, edges=edges, arcs=arcs)


def reference_totally_regular_pairs(n):
    """Reference: the unpruned generator, every class-1 permutation q of
    every canonical class-0 permutation p, as the pairs (p, q), without
    the centraliser pruning of ``search._totally_regular_candidates``."""
    for p in _derangement_type_representatives(n // 2):
        for q in reference_class1_permutations(p):
            yield p, q


def reference_totally_regular_candidates(n):
    """Reference: the graphs of ``reference_totally_regular_pairs``."""
    for p, q in reference_totally_regular_pairs(n):
        yield reference_matching_graph(n // 2, p, q)


# search candidates of finite diameter, the form's main inputs
REGULAR_WITNESSES = [
    g for n in range(2, 11, 2) for g in reference_totally_regular_candidates(n)
    if diameter(g) != INFINITE
]


@st.composite
def permutation_graphs(draw) -> MixedGraph:
    """A random matching plus the arcs of a random permutation, fixed points
    left without an arc."""
    n = draw(st.integers(min_value=1, max_value=10))
    order = draw(st.permutations(list(range(n))))
    pairs = draw(st.integers(min_value=n // 4, max_value=n // 2))
    heads = draw(st.permutations(list(range(n))))
    return MixedGraph.build(
        n,
        edges=[(order[2 * i], order[2 * i + 1]) for i in range(pairs)],
        arcs=[(u, w) for u, w in enumerate(heads) if u != w],
    )


@st.composite
def strongly_connected_graphs(draw) -> MixedGraph:
    """Graphs of the form's domain, which mixed_graphs() seldom draws:
    relabelled search candidates, or permutation graphs in the domain.
    Both are strongly connected; every arc of a permutation graph lies on a
    directed cycle."""
    g = draw(st.one_of(
        st.sampled_from(REGULAR_WITNESSES),
        permutation_graphs().filter(in_form_domain),
    ))
    return g.relabelled(draw(st.permutations(list(range(g.n)))))


@settings(max_examples=300)
@given(strongly_connected_graphs(), strongly_connected_graphs(), st.randoms())
def test_canonical_form_decides_isomorphism(g, h, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    relabelled = g.relabelled(perm)
    form = _canonical_form(g)
    assert form is not None
    assert _canonical_form(relabelled) == form
    assert (_canonical_form(h) == form) == reference_are_isomorphic(g, h)


@given(mixed_graphs(), st.randoms())
def test_canonical_form_domain_is_invariant(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    form = _canonical_form(g)
    assert (form is not None) == in_form_domain(g)
    assert _canonical_form(g.relabelled(perm)) == form


def test_reaching_root_without_strong_connectivity_takes_one_path():
    # vertex 0 reaches every vertex along the edge {0, 1} and the arcs
    # 1 -> 2 -> 3 -> 4 -> 2, but no vertex of the cycle reaches 0 or 1
    g = MixedGraph.build(5, edges=[(0, 1)], arcs=[(1, 2), (2, 3), (3, 4), (4, 2)])
    relabellings = [g.relabelled(perm) for perm in itertools.permutations(range(5))]
    forms = {_canonical_form(h) for h in relabellings}
    assert len(forms) == 1 and None not in forms
    assert isomorphism_classes(relabellings) == [min(relabellings, key=format_edge_list)]


def reference_canonical_form(g: MixedGraph):
    """Reference: the form walked from every root, the least encoding over
    the roots whose walk numbers all n vertices, or None (the form before
    it walked from one invariant cell of roots)."""
    n = g.n
    if any(len(arcs) > 1 for arcs in g.out_arcs):
        return None
    heads = [arcs[0] if arcs else None for arcs in g.out_arcs]
    codes = []
    for root in range(n):
        number = {root: 0}
        order = [root]
        code = []
        for v in order:
            pair = []
            for w in (g.edge_partner[v], heads[v]):
                if w is not None and w not in number:
                    number[w] = len(order)
                    order.append(w)
                pair.append(-1 if w is None else number[w])
            code.append((pair[0] + 1) * (n + 1) + pair[1] + 1)
        if len(order) == n:
            codes.append(tuple(code))
    return min(codes, default=None)


@st.composite
def unit_graphs(draw) -> MixedGraph:
    """Graphs with out-degree and undirected degree at most one: random
    ones, most with no vertex reaching all, or ones of the form's domain."""
    return draw(st.one_of(mixed_graphs(), permutation_graphs(), strongly_connected_graphs()))


# the 3-cycle 5 -> 6 -> 7 -> 5 is the least cell, and reaches no vertex of
# the path 0 -> ... -> 4 -> 5 into it: only the walk from 0 numbers all
FALLBACK = MixedGraph.build(8, arcs=[(v, v + 1) for v in range(7)] + [(7, 5)])


@example([MixedGraph.build(0), MixedGraph.build(1), MixedGraph.build(2, edges=[(0, 1)])], random.Random(0))
@example([FALLBACK, FALLBACK.relabelled([7, 6, 5, 4, 3, 2, 1, 0])], random.Random(0))
@settings(max_examples=300)
@given(st.lists(unit_graphs(), min_size=1, max_size=5), st.randoms())
def test_canonical_form_classes_as_the_all_roots_reference(graphs, rng):
    # each graph and a relabelled copy: the forms stay, and they part the
    # graphs as the reference's forms do
    for g in list(graphs):
        perm = list(range(g.n))
        rng.shuffle(perm)
        graphs.append(g.relabelled(perm))
    forms = [_canonical_form(g) for g in graphs]
    references = [reference_canonical_form(g) for g in graphs]
    half = len(graphs) // 2
    assert forms[half:] == forms[:half]
    for (f, r), (f2, r2) in itertools.combinations(zip(forms, references), 2):
        assert (f is None) == (r is None)
        assert (f is not None and f == f2) == (r is not None and r == r2)


def test_canonical_form_falls_back_to_every_root():
    # no root of the least cell reaches every vertex, so the form is the
    # least over all roots, the reference's, whatever the labels
    assert UNREACHABLE in distances_from(FALLBACK, 5)
    form = reference_canonical_form(FALLBACK)
    assert form is not None
    for seed in range(20):
        perm = list(range(8))
        random.Random(seed).shuffle(perm)
        assert _canonical_form(FALLBACK.relabelled(perm)) == form


# ---------------------------------------------------------------------------
# The one-pass eccentricity report against the two-pass one it replaced
# ---------------------------------------------------------------------------

def reference_eccentricities(adj: list[list[int]]) -> list:
    """Each vertex's eccentricity along adj: the first round of the kernel
    in which its ball is full, or INFINITE if it never fills."""
    full = (1 << len(adj)) - 1
    ecc = [INFINITE] * len(adj)
    for d, (balls, grown) in enumerate(ball_rounds(adj)):
        for v in grown:
            if balls[v] == full:
                ecc[v] = d
    return ecc


def reference_eccentricity_report(g: MixedGraph) -> EccentricityReport:
    """Reference: the kernel once on the successor lists for the
    out-eccentricities and once more on the predecessor lists for the
    in-eccentricities."""
    if g.n == 0:
        return EccentricityReport((), (), 0, 0, 0, (), ())
    ecc_out = reference_eccentricities(g.successors())
    ecc_in = reference_eccentricities(g.predecessors())
    out_radius, in_radius = min(ecc_out), min(ecc_in)
    return EccentricityReport(
        ecc_out=tuple(ecc_out),
        ecc_in=tuple(ecc_in),
        diameter=max(ecc_out),
        out_radius=out_radius,
        in_radius=in_radius,
        out_central=tuple(v for v in range(g.n) if ecc_out[v] == out_radius),
        in_central=tuple(v for v in range(g.n) if ecc_in[v] == in_radius),
    )


@example(MixedGraph.build(0))
@example(MixedGraph.build(1))
@example(MixedGraph.build(4))  # four isolated vertices
@example(MixedGraph.build(4, edges=[(0, 1)], arcs=[(1, 2)]))  # vertex 3 isolated, 2 a sink
@example(MixedGraph.build(3, arcs=[(0, 1), (1, 0), (1, 2)]))
@settings(max_examples=300)
@given(st.one_of(mixed_graphs(), strongly_connected_graphs()))
def test_eccentricity_report_matches_the_two_pass_reference(g):
    assert eccentricity_report(g) == reference_eccentricity_report(g)


# ---------------------------------------------------------------------------
# Lifts from the template against building and checking the lift
# ---------------------------------------------------------------------------

def reference_lift(template: LiftTemplate, q: int, voltages) -> MixedGraph:
    """Reference: the lift through ``MixedGraph.build``, which accepts the
    digons and arcs along edges that ``validate_and_profile`` rejects."""
    if q < 1 or len(voltages) != template.dart_count:
        raise MalformedBaseError(f"{template!r} over Z_{q} with {voltages}")
    if not all(0 <= voltage < q for voltage in voltages):
        raise MalformedBaseError(f"a voltage of {voltages} lies outside Z_{q}")
    darts = [(*dart, "edge") for dart in template.edge_darts]
    darts += [(*dart, "arc") for dart in template.arc_darts]
    edges, arcs = [], []
    for (tail, head, kind), voltage in zip(darts, voltages):
        for x in range(q):
            pair = (tail * q + x, head * q + (x + voltage) % q)
            (edges if kind == "edge" else arcs).append(pair)
    labels = [f"({b},{x})" for b in range(template.n) for x in range(q)]
    try:
        return MixedGraph.build(template.n * q, edges=edges, arcs=arcs, labels=labels)
    except MalformedGraphError as exc:
        raise MalformedBaseError(f"lift is not a valid mixed graph: {exc}") from exc


def reference_lift_candidate(template: LiftTemplate, q: int, voltages):
    """Reference: build the lift with ``reference_lift``, check it with
    ``validate_and_profile``, then measure its diameter.  None when the lift
    is malformed or not bipartite, else (lift, diameter)."""
    try:
        g = reference_lift(template, q, [voltage % q for voltage in voltages])
        profile = validate_and_profile(g)
    except MalformedGraphError:
        return None
    if not profile.bipartite_ok:
        return None
    return g, diameter(g)


def assert_template_matches_reference(template, q, voltages) -> None:
    """The template's lift, kept by ``lift_search`` only when the base or
    the lift is bipartite, against the reference."""
    expected = reference_lift_candidate(template, q, voltages)
    g = template.cover(q, voltages)
    if g is not None and not template.bipartite and bipartition(g) is None:
        g = None
    assert (g is None) == (expected is None), (template, q, voltages)
    if g is not None:
        reference, d = expected
        assert diameter(g) == lift_diameter(template, q, voltages) == d
        assert g.edges() == reference.edges()
        assert g.arcs() == reference.arcs()


@st.composite
def lift_candidates(draw):
    """A template with loops, repeated darts and disconnected bases allowed,
    a group order, and voltages outside 0..q-1 as well as inside."""
    n = draw(st.integers(min_value=1, max_value=4))
    dart = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    template = LiftTemplate(
        n=n,
        edge_darts=tuple(draw(st.lists(dart, max_size=3))),
        arc_darts=tuple(draw(st.lists(dart, max_size=5))),
    )
    q = draw(st.integers(min_value=1, max_value=8))
    voltages = draw(
        st.lists(
            st.integers(-q, 2 * q - 1),
            min_size=template.dart_count,
            max_size=template.dart_count,
        )
    )
    return template, q, tuple(voltages)


# A base that is not bipartite, in two components whose odd cycles have net
# voltages 1 and 2 in Z_4: each lift component is bipartite, although the
# two cycle values together generate a closed walk of odd length and net
# voltage 0.
@example((LiftTemplate(4, (), ((0, 0), (1, 2), (2, 3), (3, 1))), 4, (1, 2, 0, 0)))
@settings(max_examples=500)
@given(lift_candidates())
def test_lift_evaluator_matches_reference(candidate):
    assert_template_matches_reference(*candidate)


def reference_base_bipartite(template: LiftTemplate) -> bool:
    """Reference: the base built as a graph whose darts, edge darts too,
    are all arcs, and 2-coloured by ``bipartition``."""
    heads = [[] for _ in range(template.n)]
    for tail, head in (*template.edge_darts, *template.arc_darts):
        heads[tail].append(head)
    base = MixedGraph(template.n, (None,) * template.n, tuple(map(tuple, heads)))
    return bipartition(base) is not None


def reference_rules(template: LiftTemplate) -> list[tuple[int, int, int]]:
    """Reference: the malformation rules (i, j, sign), broken when
    (g_i + sign * g_j) % q == 0, case by case: a digon (an arc loop with
    itself among them), a repeated arc, and an arc along an edge."""
    n_edges = len(template.edge_darts)
    rules = []
    for a, (u, v) in enumerate(template.arc_darts):
        i = n_edges + a
        for b in range(a, len(template.arc_darts)):
            dart = template.arc_darts[b]
            if dart == (v, u):
                rules.append((i, n_edges + b, 1))  # digon
            if b > a and dart == (u, v):
                rules.append((i, n_edges + b, -1))  # repeated arc
        for e, dart in enumerate(template.edge_darts):
            if dart == (u, v):
                rules.append((i, e, -1))  # arc along an edge
            elif dart == (v, u):
                rules.append((i, e, 1))
    return rules


@example((LiftTemplate(1, (), ((0, 0), (0, 0))), 1, (0, 0)))
@example((LiftTemplate(2, ((0, 1),), ((0, 1), (1, 0), (0, 1))), 1, (0, 0, 0, 0)))
@example((LiftTemplate(3, ((2, 2),), ((0, 1), (1, 2), (2, 0))), 1, (0, 0, 0, 0)))
@settings(max_examples=300)
@given(lift_candidates())
def test_template_derivations_match_the_references(candidate):
    # the colouring and the rules read off the link table against the
    # base's 2-colouring and the case-by-case rules
    template = candidate[0]
    assert template.bipartite == reference_base_bipartite(template)
    ends = [v for dart in template.edge_darts for v in dart]
    always_malformed = len(set(ends)) < len(ends)
    rules = reference_rules(template)
    for q in range(1, 5):
        for voltages in itertools.product(range(q), repeat=template.dart_count):
            expected = not always_malformed and all(
                (voltages[i] + sign * voltages[j]) % q for i, j, sign in rules
            )
            assert template.well_formed(q, voltages) == expected, (q, voltages)


@st.composite
def voltage_bases(draw, q_max=6):
    """A voltage graph (template, q, voltages) with loops and repeated darts
    allowed, q at most q_max, and now and then a voltage outside Z_q."""
    n = draw(st.integers(min_value=1, max_value=4))
    q = draw(st.integers(min_value=1, max_value=q_max))
    dart = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    template = LiftTemplate(
        n=n,
        edge_darts=tuple(draw(st.lists(dart, max_size=3))),
        arc_darts=tuple(draw(st.lists(dart, max_size=4))),
    )
    voltage = st.integers(0, q - 1) | st.integers(-1, q)
    voltages = draw(
        st.lists(voltage, min_size=template.dart_count, max_size=template.dart_count)
    )
    return template, q, tuple(voltages)


def reference_rejects(voltage_graph) -> bool:
    try:
        validate_and_profile(reference_lift(*voltage_graph))
    except MalformedGraphError:
        return True
    return False


@settings(max_examples=500)
@given(voltage_bases())
def test_lift_diameter_matches_the_built_cover(voltage_graph):
    g = voltage_graph[0].cover(*voltage_graph[1:])
    if g is not None:
        assert lift_diameter(*voltage_graph) == diameter(g)


@st.composite
def template_voltage_graphs(draw, q_max=8):
    """A voltage graph on the two-vertex or the four-vertex template, the
    bases the lift search scans, with q at most q_max."""
    template = draw(st.sampled_from([two_vertex_template(), four_vertex_template()]))
    q = draw(st.integers(min_value=1, max_value=q_max))
    voltages = draw(
        st.lists(st.integers(0, q - 1), min_size=template.dart_count, max_size=template.dart_count)
    )
    return template, q, tuple(voltages)


@example((four_vertex_template(), 5, (0, 0, 0, 1, 2, 3)), 0)
@example((two_vertex_template(), 1, (0, 0, 0)), 0)
@settings(max_examples=300)
@given(template_voltage_graphs() | voltage_bases(), st.integers(min_value=0, max_value=12))
def test_lift_diameter_limit_is_the_diameter_up_to_it(voltage_graph, k):
    d = lift_diameter(*voltage_graph)
    assert lift_diameter(*voltage_graph, limit=k) == (d if d <= k else INFINITE)


def assert_lifts_bipartite_matches_the_cover(template, q, voltages) -> None:
    """``LiftTemplate.lifts_bipartite`` on the voltage class against the
    built cover's 2-colouring: the rule never claims a lift that has none,
    and agrees with it on every lift of finite diameter (every connected
    lift)."""
    g = template.cover(q, voltages)
    if g is None:
        return
    rule = template.lifts_bipartite(q, template.voltage_class(q, voltages))
    coloured = bipartition(g) is not None
    assert coloured or not rule, (template, q, voltages)
    if rule != coloured:
        assert lift_diameter(template, q, voltages) == INFINITE, (template, q, voltages)


@example((LiftTemplate(3, (), ((0, 1), (1, 2), (2, 0))), 4, (1, 2, 0)))  # odd cycle, odd class
@example((LiftTemplate(1, (), ((0, 0),)), 2, (1,)))  # an arc loop over Z_2: a digon
@example((LiftTemplate(1, (), ((0, 0), (0, 0))), 8, (1, 3)))  # two odd loops: bipartite
@example((LiftTemplate(1, (), ((0, 0), (0, 0))), 8, (1, 2)))  # an even loop: not
# two odd cycles in two components, each lift component bipartite
@example((LiftTemplate(4, (), ((0, 0), (1, 2), (2, 3), (3, 1))), 4, (1, 1, 0, 0)))
@settings(max_examples=300)
@given(voltage_bases())
def test_lifts_bipartite_matches_the_built_cover(voltage_graph):
    assert_lifts_bipartite_matches_the_cover(*voltage_graph)


@example((LiftTemplate(2, (), ((0, 1), (1, 0))), 3, (1, 2)))  # a digon
@example((LiftTemplate(1, (), ((0, 0),)), 4, (2,)))  # an arc loop with 2g = 0
@example((LiftTemplate(2, ((0, 1),), ((1, 0),)), 3, (1, 2)))  # an arc against an edge
@example((LiftTemplate(1, (), ((0, 0), (0, 0))), 4, (1, 3)))  # two arc loops: a digon
@example((LiftTemplate(1, (), ((0, 0), (0, 0))), 5, (1, 3)))  # two arc loops, well formed
# opposite arcs plus an edge on one pair: an arc along the edge, then none
@example((LiftTemplate(2, ((0, 1),), ((0, 1), (1, 0))), 5, (1, 2, 4)))
@example((LiftTemplate(2, ((0, 1),), ((0, 1), (1, 0))), 5, (1, 2, 2)))
# parallel arcs in both directions: a digon, then none
@example((LiftTemplate(2, (), ((0, 1), (0, 1), (1, 0), (1, 0))), 5, (1, 2, 3, 0)))
@example((LiftTemplate(2, (), ((0, 1), (0, 1), (1, 0), (1, 0))), 5, (1, 2, 1, 2)))
@settings(max_examples=500)
@given(voltage_bases())
def test_lift_matches_reference_lift(voltage_graph):
    if reference_rejects(voltage_graph):
        with pytest.raises(MalformedBaseError):
            lift(*voltage_graph)
        return
    # edges, arcs, out-arc order and labels
    assert lift(*voltage_graph) == reference_lift(*voltage_graph)


def relabelled(template, voltages, p):
    """The voltages of the lift after relabelling lift vertex (b, x) as
    (b, x - p(b)): a dart (u, v) with voltage g gets g + p(u) - p(v)."""
    darts = (*template.edge_darts, *template.arc_darts)
    return tuple(g + p[u] - p[v] for g, (u, v) in zip(voltages, darts))


def zeroed_on_a_spanning_forest(template, voltages):
    """Reference: the voltages relabelled by p(v) = p(u) + g along the
    darts of a depth-first spanning forest, and that forest's darts, each
    now of voltage 0."""
    darts = (*template.edge_darts, *template.arc_darts)
    p = [None] * template.n
    tree = set()
    for root in range(template.n):
        if p[root] is not None:
            continue
        p[root] = 0
        stack = [root]
        while stack:
            u = stack.pop()
            for d, ((a, b), g) in enumerate(zip(darts, voltages)):
                for x, y, step in ((a, b, g), (b, a, -g)):
                    if x == u and p[y] is None:
                        p[y] = p[u] + step
                        tree.add(d)
                        stack.append(y)
    return relabelled(template, voltages, p), tree


@st.composite
def relabelled_voltages(draw):
    """A voltage graph from voltage_bases() and its voltages relabelled by
    random shifts p."""
    template, q, voltages = draw(voltage_bases())
    shift = st.integers(-q, 2 * q)
    p = draw(st.lists(shift, min_size=template.n, max_size=template.n))
    return template, q, voltages, relabelled(template, voltages, p)


@settings(max_examples=500)
@given(relabelled_voltages())
def test_one_voltage_class_gives_isomorphic_lifts(case):
    # a relabelling reaches exactly the assignments of one class
    template, q, voltages, moved = case
    key = template.voltage_class(q, voltages)
    assert template.voltage_class(q, moved) == key
    zeroed, tree = zeroed_on_a_spanning_forest(template, voltages)
    assert all(zeroed[d] % q == 0 for d in tree)
    assert template.voltage_class(q, zeroed) == key
    assert lift_diameter(template, q, voltages) == lift_diameter(template, q, moved)
    assert template.well_formed(q, voltages) == template.well_formed(q, moved)
    if template.well_formed(q, voltages):
        g, h = template.cover(q, voltages), template.cover(q, moved)
        form = _canonical_form(g)
        if form is not None:
            assert _canonical_form(h) == form
        else:
            assert are_isomorphic(g, h)


def reference_voltage_class(template: LiftTemplate, q: int, voltages) -> tuple[int, ...]:
    """Reference: the class from symbolic fundamental cycles.  A breadth-first
    spanning forest over the links, roots in increasing order, gives each
    vertex its potential as {dart: coefficient}; each non-tree dart (u, v),
    in dart order, keeps its net voltage g + p(u) - p(v) as a sorted tuple
    of (dart, nonzero coefficient), evaluated modulo q."""
    darts = (*template.edge_darts, *template.arc_darts)
    links = [[] for _ in range(template.n)]
    for d, (u, v) in enumerate(darts):
        links[u].append((v, d, 1))
        links[v].append((u, d, -1))
    potential = [None] * template.n
    tree = set()
    for root in range(template.n):
        if potential[root] is None:
            potential[root] = {}
            frontier = [root]
            for u in frontier:
                for v, d, sign in links[u]:
                    if potential[v] is None:
                        potential[v] = {**potential[u], d: sign}
                        tree.add(d)
                        frontier.append(v)
    cycles = []
    for d, (u, v) in enumerate(darts):
        if d not in tree:
            net = Counter({d: 1})
            net.update(potential[u])
            net.subtract(potential[v])
            cycles.append(tuple(sorted((i, c) for i, c in net.items() if c)))
    return tuple(sum(c * voltages[i] for i, c in cycle) % q for cycle in cycles)


@settings(max_examples=500)
@given(voltage_bases())
def test_voltage_class_matches_the_symbolic_cycles(voltage_graph):
    assert voltage_graph[0].voltage_class(*voltage_graph[1:]) == reference_voltage_class(
        *voltage_graph
    )


@st.composite
def voltage_pairs(draw, q_max=6):
    """A voltage graph from voltage_bases(q_max) and a second assignment on
    its template and group order, sharing some of the first's voltages."""
    template, q, voltages = draw(voltage_bases(q_max))
    others = tuple(draw(st.just(v) | st.integers(-1, q)) for v in voltages)
    return template, q, voltages, others


def assert_text_key_compares_as_the_text(template, q, voltages, others) -> None:
    g, h = template.cover(q, voltages), template.cover(q, others)
    if g is None or h is None:
        return
    lines = {}  # shared, as lift_search shares it over one group order
    key, other_key = (_text_key(template, q, v, lines) for v in (voltages, others))
    text, other_text = format_edge_list(g), format_edge_list(h)
    assert (key < other_key, key == other_key) == (text < other_text, text == other_text)


@settings(max_examples=500)
@given(voltage_pairs())
def test_text_key_compares_as_the_text(case):
    assert_text_key_compares_as_the_text(*case)


@settings(max_examples=200)
@given(voltage_pairs(q_max=60))
# the texts first differ on the line "A 180 4" against "A 180 48"
@example((four_vertex_template(), 60, (58, 26, 28, 4, 13, 9), (58, 26, 28, 48, 13, 9)))
def test_text_key_compares_as_the_text_past_two_digits(case):
    # covers of up to 240 vertices, so ids of up to three digits: where one
    # head is a prefix of the other, the text's newline sorts below a digit
    assert_text_key_compares_as_the_text(*case)


def reference_splitmix64(x: int) -> int:
    mask = (1 << 64) - 1
    z = (x + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def reference_sample_voltages(seed: int, q: int, counter: int, ndarts: int) -> tuple[int, ...]:
    """Reference: sample number ``counter`` of the lift search's seeded
    sampler, drawn on its own by one SplitMix64 call per voltage."""
    mask = (1 << 64) - 1
    base = reference_splitmix64((seed & mask) ^ (q * 0x517CC1B727220A95) & mask)
    return tuple(
        reference_splitmix64(base ^ (counter * ndarts + d)) % q for d in range(ndarts)
    )


@settings(max_examples=300)
@given(
    st.integers(min_value=-(2**80), max_value=2**80),
    st.integers(min_value=1, max_value=2**70),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=1, max_value=8),
)
@example(-1, 7, 5, 6)
@example(2**64, 7, 5, 6)  # the seed's bits above 64 are dropped
@example(2**64 + 1, 5, 3, 6)
@example(-(2**64) - 1, 2**64, 3, 2)
def test_sampler_streams_the_per_counter_samples(seed, q, count, ndarts):
    streamed = list(_sample_voltages(seed, q, count, ndarts))
    assert streamed == [reference_sample_voltages(seed, q, i, ndarts) for i in range(count)]
