from __future__ import annotations

import random

import pytest

from mixedgraphs import (
    BadPermutationError,
    MalformedGraphError,
    MixedGraph,
    are_isomorphic,
    bd_digraph,
    bdm,
    bdm_star,
    bipartition,
    contract_edges,
    converse,
    crm,
    diameter,
    format_edge_list,
    parse_edge_list,
    validate_and_profile,
    verify_automorphism,
)
from mixedgraphs.core import _canonical_form, _match
from mixedgraphs.families import automorphism_permutation


def directed_cycle(n: int) -> MixedGraph:
    return MixedGraph.build(n, arcs=[(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_rejects_out_of_range_ids():
    with pytest.raises(MalformedGraphError):
        MixedGraph.build(3, edges=[(0, 3)])
    with pytest.raises(MalformedGraphError):
        MixedGraph.build(3, arcs=[(-1, 0)])


def test_build_rejects_self_loops_and_double_edges():
    with pytest.raises(MalformedGraphError):
        MixedGraph.build(2, edges=[(1, 1)])
    with pytest.raises(MalformedGraphError):
        MixedGraph.build(2, arcs=[(0, 0)])
    with pytest.raises(MalformedGraphError):
        MixedGraph.build(3, edges=[(0, 1), (1, 2)])
    with pytest.raises(MalformedGraphError):
        MixedGraph.build(2, arcs=[(0, 1), (0, 1)])


def test_edges_and_arcs_are_sorted():
    g = MixedGraph.build(4, edges=[(3, 2)], arcs=[(1, 0), (0, 1), (2, 0)])
    assert g.edges() == [(2, 3)]
    assert g.arcs() == [(0, 1), (1, 0), (2, 0)]
    assert g.num_edges() == 1
    assert g.num_arcs() == 3


# ---------------------------------------------------------------------------
# validate_and_profile
# ---------------------------------------------------------------------------

def test_profile_bdm5_totally_regular():
    profile = validate_and_profile(bdm(5))
    assert profile.is_totally_regular(1, 1)
    assert profile.regularity == (1, 1)
    assert profile.bipartite_ok


def test_profile_bdm10_not_totally_regular():
    profile = validate_and_profile(bdm(10))
    assert not profile.is_totally_regular(1, 1)
    assert {0, 2} <= set(profile.in_degree)


def test_profile_empty_graph():
    profile = validate_and_profile(MixedGraph.build(4))
    assert profile.is_totally_regular(0, 0)
    assert profile.regularity == (0, 0)


def test_profile_degree_sums():
    g = bdm(10)
    profile = validate_and_profile(g)
    assert sum(profile.out_degree) == sum(profile.in_degree) == g.num_arcs()
    assert sum(profile.undirected) == 2 * g.num_edges()


def test_validate_rejects_digon():
    g = MixedGraph.build(2, arcs=[(0, 1), (1, 0)])
    with pytest.raises(MalformedGraphError, match="digon"):
        validate_and_profile(g)


def test_validate_rejects_arc_parallel_to_edge():
    g = MixedGraph.build(2, edges=[(0, 1)], arcs=[(0, 1)])
    with pytest.raises(MalformedGraphError, match="parallel"):
        validate_and_profile(g)


def test_validate_rejects_asymmetric_partner_map():
    g = MixedGraph(n=2, edge_partner=(1, None), out_arcs=((), ()))
    with pytest.raises(MalformedGraphError, match="asymmetric"):
        validate_and_profile(g)


# ---------------------------------------------------------------------------
# bipartition
# ---------------------------------------------------------------------------

def test_bipartition_bdm_is_the_beta_coordinate():
    m = 5
    colours = bipartition(bdm(m))
    assert colours is not None
    reference = colours[0]
    for idx in range(4 * m):
        expected_side = idx // (2 * m)  # beta in the index encoding
        assert (colours[idx] == reference) == (expected_side == 0)


def test_bipartition_absent_for_odd_cycle():
    assert bipartition(directed_cycle(3)) is None


def test_bipartition_crm_is_vertex_parity():
    colours = bipartition(crm(8, 3))
    assert colours is not None
    assert all((colours[i] == colours[0]) == (i % 2 == 0) for i in range(8))


def test_bipartition_certificate_separates_all_adjacencies():
    g = bdm(10)
    colours = bipartition(g)
    assert colours is not None
    for u, v in g.edges() + g.arcs():
        assert colours[u] != colours[v]


# ---------------------------------------------------------------------------
# converse
# ---------------------------------------------------------------------------

def test_converse_reverses_arcs():
    g = directed_cycle(3)
    assert converse(g).arcs() == [(0, 2), (1, 0), (2, 1)]


def test_converse_keeps_edge_only_graph():
    g = MixedGraph.build(4, edges=[(0, 1), (2, 3)])
    assert converse(g) == g


def test_converse_is_involution():
    g = bdm(5)
    assert converse(converse(g)) == g


def test_converse_preserves_diameter():
    g = bdm(5)
    assert diameter(g) == diameter(converse(g)) == 6


# ---------------------------------------------------------------------------
# contract_edges
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [5, 10, 20])
def test_contract_bdm_gives_doubling_digraph(m):
    contracted = contract_edges(bdm(m))
    expected = bd_digraph(m)
    # the index encoding makes the relabelling the identity
    assert contracted.n == expected.n
    assert contracted.arcs() == expected.arcs()
    assert are_isomorphic(contracted, expected)


def test_contract_edgeless_graph_unchanged():
    g = directed_cycle(4)
    assert contract_edges(g).arcs() == g.arcs()


def test_contract_bdm10_profile():
    contracted = contract_edges(bdm(10))
    assert contracted.n == 20
    assert all(len(a) == 2 for a in contracted.out_arcs)
    assert contracted.num_edges() == 0


def test_contract_vertex_count_drops_by_edge_count():
    g = bdm(5)
    assert contract_edges(g).n == g.n - g.num_edges()


def test_contract_deduplicates_parallel_arcs():
    # contracting {0,1} makes both arcs into 01 -> 2
    g = MixedGraph.build(3, edges=[(0, 1)], arcs=[(0, 2), (1, 2), (2, 0)])
    contracted = contract_edges(g)
    assert contracted.arcs() == [(0, 1), (1, 0)]


# ---------------------------------------------------------------------------
# automorphisms and isomorphism
# ---------------------------------------------------------------------------

def test_identity_is_always_an_automorphism():
    g = bdm(5)
    assert verify_automorphism(g, list(range(g.n)))


def test_transposition_breaks_directed_cycle():
    assert not verify_automorphism(directed_cycle(3), [1, 0, 2])


def test_verify_automorphism_rejects_non_bijection():
    with pytest.raises(BadPermutationError):
        verify_automorphism(directed_cycle(3), [0, 0, 2])


def test_automorphism_transfers_to_converse():
    g = bdm(5)
    perm = automorphism_permutation("reflect", 5)
    assert verify_automorphism(g, perm)
    assert verify_automorphism(converse(g), perm)


def test_isomorphic_to_relabelling():
    g = bdm(5)
    perm = [(7 * v + 3) % g.n for v in range(g.n)]
    assert are_isomorphic(g, g.relabelled(perm))


def test_non_isomorphic_same_degrees():
    # directed 6-cycle vs two directed 3-cycles
    g = directed_cycle(6)
    h = MixedGraph.build(6, arcs=[(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not are_isomorphic(g, h)


@pytest.mark.parametrize(
    "g", [bdm(300), bd_digraph(600)], ids=["bdm300", "bd_digraph600"]
)
def test_isomorphism_past_the_recursion_limit(g):
    # a matcher recursing once per vertex overflows the stack at these orders
    assert are_isomorphic(g, g)


@pytest.mark.parametrize("m", [10, 20])
def test_relabelled_bdm_is_isomorphic(m):
    # 9 s to over a minute for m = 10 with the backtracking matcher alone;
    # the canonical form decides it in milliseconds
    g = bdm(m)
    perm = list(range(g.n))
    random.Random(m).shuffle(perm)
    assert are_isomorphic(g, g.relabelled(perm))
    assert not are_isomorphic(g, bdm_star(m))


@pytest.mark.parametrize("m", [20, 64])
def test_relabelled_bd_digraph_is_isomorphic(m):
    # out-degree 2, outside the canonical form's domain: the backtracking
    # matcher decides it, in milliseconds, where placing the vertices in
    # signature order took from 5 s to over 20 s at m = 20
    g = bd_digraph(m)
    perm = list(range(g.n))
    random.Random(m).shuffle(perm)
    assert are_isomorphic(g, g.relabelled(perm))
    # two arc heads swapped: the same in- and out-degrees
    out = [list(heads) for heads in g.out_arcs]
    out[0][0], out[1][0] = out[1][0], out[0][0]
    h = MixedGraph.build(g.n, arcs=[(v, w) for v, heads in enumerate(out) for w in heads])
    assert not are_isomorphic(g, h)


def test_matcher_without_signatures():
    # every vertex of one signature: only the placed neighbours tie the
    # vertices down, each onto a neighbour of its forest parent's image
    for m in (20, 64):
        g = bd_digraph(m)
        perm = list(range(g.n))
        random.Random(1).shuffle(perm)
        out = [list(heads) for heads in g.out_arcs]
        out[0][0], out[1][0] = out[1][0], out[0][0]
        h = MixedGraph.build(g.n, arcs=[(v, w) for v, heads in enumerate(out) for w in heads])
        flat = [()] * g.n
        assert _match(g, flat, g.relabelled(perm), flat)
        assert not _match(g, flat, h, flat)


def test_matcher_refuses_an_adjacency_to_a_placed_vertex():
    # one signature for all: a directed path against a directed triangle.
    # Placing 0, 1, 2 of the path, vertex 2's one placed neighbour, 1,
    # matches in the triangle, but 2's image is also joined to 0's image
    g = MixedGraph.build(3, arcs=[(0, 1), (1, 2)])
    h = MixedGraph.build(3, arcs=[(0, 1), (1, 2), (2, 0)])
    flat = [()] * 3
    assert not _match(g, flat, h, flat)
    assert _match(g, flat, g.relabelled([2, 0, 1]), flat)


def test_canonical_form_domain():
    assert _canonical_form(bdm(300)) is not None
    assert _canonical_form(MixedGraph.build(1)) == (0,)
    assert _canonical_form(MixedGraph.build(0)) is None
    assert _canonical_form(bd_digraph(600)) is None  # out-degree 2
    # vertex 0 reaches every vertex, although no vertex reaches 0
    assert _canonical_form(MixedGraph.build(3, arcs=[(0, 1), (1, 2), (2, 1)])) is not None
    # 0 and 2 both reach 1, but neither reaches the other
    assert _canonical_form(MixedGraph.build(3, arcs=[(0, 1), (2, 1)])) is None
    # two 1,000-arc paths into vertex 2000: decided after one walk, where
    # a walk from every vertex took quadratic time
    paths = [(v, v + 1) for v in range(2000) if v != 999]
    assert _canonical_form(MixedGraph.build(2001, arcs=[*paths, (999, 2000)])) is None


# ---------------------------------------------------------------------------
# edge-list format
# ---------------------------------------------------------------------------

def test_edge_list_round_trip_is_bit_exact():
    g = bdm(5)
    text = format_edge_list(g)
    assert text == format_edge_list(parse_edge_list(text))
    assert text.startswith("mixedgraph 20\n")
    assert text.endswith("\n")


def test_edge_list_layout():
    g = MixedGraph.build(4, edges=[(2, 0)], arcs=[(3, 1), (0, 3)])
    assert format_edge_list(g) == "mixedgraph 4\nE 0 2\nA 0 3\nA 3 1\n"


def test_parse_rejects_garbage():
    with pytest.raises(MalformedGraphError):
        parse_edge_list("not a graph\n")
    with pytest.raises(MalformedGraphError):
        parse_edge_list("mixedgraph 2\nE 0 x\n")
    with pytest.raises(MalformedGraphError):
        parse_edge_list("mixedgraph 2\nB 0 1\n")
