from __future__ import annotations

import pytest

from mixedgraphs import (
    BdmVertex,
    LiftTemplate,
    MixedGraph,
    are_isomorphic,
    bd_digraph,
    bdm,
    bdm5_base,
    bdm_canonical,
    bdm_star,
    bipartition,
    canonical_m,
    cdrm,
    cdrm_voltage_graph,
    contract_edges,
    crm,
    crm_optimal,
    crm_voltage_graph,
    diameter,
    four_vertex_template,
    lift,
    lift_diameter,
    named_automorphism,
    path_endpoint_formula,
    validate_and_profile,
    verify_automorphism,
    walk_pattern,
)
from mixedgraphs.core import _canonical_form
from mixedgraphs.errors import (
    MalformedBaseError,
    ParityError,
    UnsupportedParameterError,
)
from mixedgraphs.families import (
    _doubling_head,
    arc_first_pattern,
    automorphism_permutation,
    double_arc_pattern,
    doubling_parameter,
    edge_first_pattern,
)


# ---------------------------------------------------------------------------
# vertex coordinates
# ---------------------------------------------------------------------------

def test_vertex_index_is_a_bijection():
    m = 7
    seen = set()
    for beta in (0, 1):
        for alpha in (0, 1):
            for i in range(m):
                idx = BdmVertex(alpha, i, beta).index(m)
                assert BdmVertex.from_index(idx, m) == BdmVertex(alpha, i, beta)
                seen.add(idx)
    assert seen == set(range(4 * m))


def test_vertex_labels():
    assert BdmVertex(0, 3, 1).label() == "(0,3)_1"
    g = bdm(5)
    assert g.labels is not None
    assert g.labels[BdmVertex(0, 3, 1).index(5)] == "(0,3)_1"


def test_canonical_m_values():
    assert [canonical_m(n) for n in range(3, 9)] == [5, 10, 20, 40, 80, 160]
    with pytest.raises(UnsupportedParameterError):
        canonical_m(2)
    assert doubling_parameter(40) == 6
    assert doubling_parameter(12) is None


# ---------------------------------------------------------------------------
# the doubled family
# ---------------------------------------------------------------------------

def test_bdm5_is_the_totally_regular_diameter6_graph():
    g = bdm(5)
    assert g.n == 20
    assert validate_and_profile(g).is_totally_regular(1, 1)
    assert bipartition(g) is not None
    assert diameter(g) == 6


def test_bdm10_diameter_and_irregularity():
    g = bdm(10)
    assert g.n == 40
    assert diameter(g) == 8
    assert not validate_and_profile(g).is_totally_regular(1, 1)


def test_bdm20_diameter():
    g = bdm(20)
    assert g.n == 80
    assert diameter(g) == 10


def test_bdm_canonical_orders():
    assert bdm_canonical(3)[0] == 5 and bdm_canonical(3)[1].n == 20
    assert bdm_canonical(4)[0] == 10 and bdm_canonical(4)[1].n == 40
    assert bdm_canonical(8)[0] == 160 and bdm_canonical(8)[1].n == 640
    with pytest.raises(UnsupportedParameterError):
        bdm_canonical(2)


def test_bdm_rejects_tiny_modulus():
    with pytest.raises(UnsupportedParameterError):
        bdm(1)


def test_bdm_rejects_a_modulus_5_does_not_divide():
    # unless 5 divides m, an arc and the arc back out of its head close a
    # digon: the reference construction shows one for every such m
    for m in range(2, 65):
        if m % 5:
            with pytest.raises(UnsupportedParameterError, match="multiple of 5"):
                bdm(m)
            arcs = set(reference_bdm(m).arcs())
            assert any((v, u) in arcs for u, v in arcs), m
        else:
            validate_and_profile(bdm(m))


# ---------------------------------------------------------------------------
# the totally regular variant
# ---------------------------------------------------------------------------

def test_bdm_star_total_regularity():
    m = 10
    g = bdm_star(m)
    assert g.n == 40
    assert validate_and_profile(g).is_totally_regular(1, 1)
    colours = bipartition(g)
    assert colours is not None
    # the independent sets are the two beta-sides of the index encoding
    for idx in range(4 * m):
        assert (colours[idx] == colours[0]) == (idx // (2 * m) == 0)


def test_bdm_star_diameter_bound():
    # measured diameter is 7 here; the proof technique only bounds it by 9
    d = diameter(bdm_star(10))
    assert d <= 9
    assert d == 7


def test_bdm_star_contracts_to_doubling_digraph():
    contracted = contract_edges(bdm_star(20))
    assert contracted.arcs() == bd_digraph(20).arcs()
    assert are_isomorphic(contracted, bd_digraph(20))


def test_bdm_star_rejects_non_canonical_modulus():
    for bad in (5, 12, 9, 11):
        with pytest.raises(UnsupportedParameterError):
            bdm_star(bad)


# ---------------------------------------------------------------------------
# the arcs-only digraph
# ---------------------------------------------------------------------------

def test_bd_diameters():
    assert diameter(bd_digraph(5)) == 3
    assert diameter(bd_digraph(10)) == 4


def test_bd_smallest_case():
    g = bd_digraph(2)
    assert g.n == 4
    assert all(len(a) == 2 for a in g.out_arcs)


# ---------------------------------------------------------------------------
# the doubling rule against the constructions written out case by case
# ---------------------------------------------------------------------------

def reference_vertices(m):
    edges, labels = [], [""] * (4 * m)
    for beta in (0, 1):
        for alpha in (0, 1):
            for i in range(m):
                labels[BdmVertex(alpha, i, beta).index(m)] = BdmVertex(alpha, i, beta).label()
    for alpha in (0, 1):
        for i in range(m):
            edges.append((BdmVertex(alpha, i, 0).index(m), BdmVertex(alpha, i, 1).index(m)))
    return edges, labels


def reference_bdm(m):
    edges, labels = reference_vertices(m)
    arcs = []
    for i in range(m):
        arcs.append((BdmVertex(0, i, 0).index(m), BdmVertex(1, 2 * i % m, 1).index(m)))
        arcs.append((BdmVertex(0, i, 1).index(m), BdmVertex(1, (2 * i + 1) % m, 0).index(m)))
        arcs.append((BdmVertex(1, i, 0).index(m), BdmVertex(0, (-2 * i - 1) % m, 1).index(m)))
        arcs.append((BdmVertex(1, i, 1).index(m), BdmVertex(0, (-2 * i - 2) % m, 0).index(m)))
    return MixedGraph.build(4 * m, edges=edges, arcs=arcs, labels=labels)


def reference_bdm_star(m):
    edges, labels = reference_vertices(m)
    arcs = []
    for i in range(m):
        if i < m // 2:
            heads = (2 * i, 2 * i + 1, -2 * i - 1, -2 * i - 2)
        else:
            heads = (2 * i + 1, 2 * i, -2 * i - 2, -2 * i - 1)
        arcs.append((BdmVertex(0, i, 0).index(m), BdmVertex(1, heads[0] % m, 1).index(m)))
        arcs.append((BdmVertex(0, i, 1).index(m), BdmVertex(1, heads[1] % m, 0).index(m)))
        arcs.append((BdmVertex(1, i, 0).index(m), BdmVertex(0, heads[2] % m, 1).index(m)))
        arcs.append((BdmVertex(1, i, 1).index(m), BdmVertex(0, heads[3] % m, 0).index(m)))
    return MixedGraph.build(4 * m, edges=edges, arcs=arcs, labels=labels)


def reference_bd_digraph(m):
    labels = [f"({alpha},{i})" for alpha in (0, 1) for i in range(m)]
    arcs = []
    for i in range(m):
        arcs.append((i, m + 2 * i % m))
        arcs.append((i, m + (2 * i + 1) % m))
        arcs.append((m + i, (-2 * i - 1) % m))
        arcs.append((m + i, (-2 * i - 2) % m))
    return MixedGraph.build(2 * m, edges=(), arcs=arcs, labels=labels)


# MixedGraph equality compares n, edge_partner, out_arcs (the order of each
# vertex's heads included) and labels.
def test_doubling_rule_matches_the_written_out_constructions():
    for m in range(5, 65, 5):
        assert bdm(m) == reference_bdm(m)
    for m in range(2, 65):
        assert bd_digraph(m) == reference_bd_digraph(m)
    for m in (10, 20, 40, 80, 160, 320, 640):
        assert bdm_star(m) == reference_bdm_star(m)


def reference_doubled(m, swap_from):
    """Reference: the doubling rule applied vertex by vertex through
    BdmVertex coordinates, as families._doubled did before it computed the
    indices arithmetically."""
    edges, arcs, labels = [], [], []
    for v in range(4 * m):
        x = BdmVertex.from_index(v, m)
        t = x.beta if x.i < swap_from else 1 - x.beta
        head = BdmVertex(1 - x.alpha, _doubling_head(x.alpha, x.i, t, m), 1 - x.beta)
        arcs.append((v, head.index(m)))
        if x.beta == 0:
            edges.append((v, BdmVertex(x.alpha, x.i, 1).index(m)))
        labels.append(x.label())
    return MixedGraph.build(4 * m, edges=edges, arcs=arcs, labels=labels)


def test_doubling_matches_the_coordinate_reference():
    for m in range(5, 41, 5):
        assert bdm(m) == reference_doubled(m, m)
    for n in range(3, 10):
        m, g = bdm_canonical(n)
        assert g == reference_doubled(m, m)
    for m in (10, 20, 40, 80):
        assert bdm_star(m) == reference_doubled(m, m // 2)


# ---------------------------------------------------------------------------
# endpoint formulas and walk patterns
# ---------------------------------------------------------------------------

def test_endpoint_formula_small_cases():
    m = 40
    for i in range(m):
        assert path_endpoint_formula("phi", 2, i, m) == (-4 * i - 1) % m
        assert path_endpoint_formula("psi", 1, i, m) == (-2 * i - 1) % m
        assert path_endpoint_formula("psi", 3, i, m) == (8 * i + 3) % m


def test_endpoint_formula_parity_checks():
    with pytest.raises(ParityError):
        path_endpoint_formula("phi", 3, 0, 40)
    with pytest.raises(ParityError):
        path_endpoint_formula("psi", 2, 0, 40)
    with pytest.raises(UnsupportedParameterError):
        path_endpoint_formula("chi", 2, 0, 40)  # type: ignore[arg-type]


def test_walk_pattern_worked_example():
    m, g = 5, bdm(5)
    start = BdmVertex(0, 0, 1).index(m)
    assert walk_pattern(g, start, "EAEAEAE") == {BdmVertex(1, 3, 0).index(m)}


def test_walk_pattern_trivial_cases():
    g = bdm(5)
    assert walk_pattern(g, 7, "") == {7}
    m = 5
    for i in range(m):
        start = BdmVertex(0, i, 1).index(m)
        expected = BdmVertex(1, (2 * i + 1) % m, 0).index(m)
        assert walk_pattern(g, start, "A") == {expected}


def test_walk_pattern_rejects_bad_step():
    with pytest.raises(UnsupportedParameterError):
        walk_pattern(bdm(5), 0, "EX")


def test_pattern_builders():
    assert edge_first_pattern(3) == "EAEAEAE"
    assert arc_first_pattern(1) == "AEA"
    assert arc_first_pattern(2) == "AEAEA"
    assert arc_first_pattern(3) == "AEAEAAE"
    assert double_arc_pattern(0) == "A"
    assert double_arc_pattern(3) == "AAEAEAE"


@pytest.mark.parametrize("m", [40, 80])
def test_edge_first_endpoints_match_formula(m):
    g = bdm(m)
    steps = doubling_parameter(m)
    for i in range(m):
        v_start = BdmVertex(0, i, 1).index(m)
        u_start = BdmVertex(1, i, 1).index(m)
        for j in range(1, steps + 1):
            (v_end,) = walk_pattern(g, v_start, edge_first_pattern(j))
            if j == 1:
                want = BdmVertex(1, 2 * i % m, 0)
            elif j % 2 == 0:
                want = BdmVertex(0, path_endpoint_formula("phi", j, i, m), 0)
            else:
                want = BdmVertex(
                    1, 2 * path_endpoint_formula("phi", j - 1, i, m) % m, 0
                )
            assert v_end == want.index(m)
            (u_end,) = walk_pattern(g, u_start, edge_first_pattern(j))
            if j % 2 == 1:
                want = BdmVertex(0, path_endpoint_formula("psi", j, i, m), 0)
            else:
                want = BdmVertex(
                    1, 2 * path_endpoint_formula("psi", j - 1, i, m) % m, 0
                )
            assert u_end == want.index(m)


@pytest.mark.parametrize("m", [40, 80])
def test_shortcut_walks_reach_the_worst_case_endpoints(m):
    g = bdm(m)
    steps = doubling_parameter(m)
    for i in range(m):
        v_start = BdmVertex(0, i, 1).index(m)
        u_start = BdmVertex(1, i, 1).index(m)
        assert walk_pattern(g, v_start, edge_first_pattern(steps)) == walk_pattern(
            g, v_start, arc_first_pattern(steps - 1)
        )
        assert walk_pattern(g, u_start, edge_first_pattern(steps)) == walk_pattern(
            g, u_start, double_arc_pattern(steps - 3)
        )


# ---------------------------------------------------------------------------
# named automorphisms
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("m", [5, 10, 20, 40])
def test_reflect_and_shift_are_automorphisms(m):
    g = bdm(m)
    for name in ("reflect", "shift"):
        assert verify_automorphism(g, automorphism_permutation(name, m))


def test_reflect_is_an_involution():
    m = 10
    for idx in range(4 * m):
        v = BdmVertex.from_index(idx, m)
        assert named_automorphism("reflect", named_automorphism("reflect", v, m), m) == v


def test_shift_has_order_five():
    for m in (5, 10, 20, 40):
        for idx in range(4 * m):
            v = BdmVertex.from_index(idx, m)
            w = v
            for step in range(1, 5):
                w = named_automorphism("shift", w, m)
                assert w != v
            assert named_automorphism("shift", w, m) == v


def test_shift_small_example():
    assert named_automorphism("shift", BdmVertex(0, 0, 0), 5) == BdmVertex(0, 1, 0)


def test_shift_needs_canonical_modulus():
    with pytest.raises(UnsupportedParameterError):
        named_automorphism("shift", BdmVertex(0, 0, 0), 12)


# ---------------------------------------------------------------------------
# chordal rings
# ---------------------------------------------------------------------------

def test_crm_known_diameters():
    assert diameter(crm(18, 5)) == 5
    assert diameter(crm(32, 7)) == 7
    assert diameter(crm(44, 31)) == 10


def test_crm_structure():
    g = crm(18, 5)
    assert validate_and_profile(g).is_totally_regular(1, 1)
    assert bipartition(g) is not None


def test_crm_rejects_bad_parity():
    with pytest.raises(UnsupportedParameterError):
        crm(9, 3)
    with pytest.raises(UnsupportedParameterError):
        crm(8, 4)
    with pytest.raises(UnsupportedParameterError):
        crm(8, 9)


def test_crm_optimal_known_rows():
    assert (crm_optimal(7).n, crm_optimal(7).c) == (32, 7)
    assert (crm_optimal(8).n, crm_optimal(8).c) == (34, 13)
    params = crm_optimal(16)
    assert (params.n, params.c) == (130, 57)
    assert params.case == "b"
    with pytest.raises(UnsupportedParameterError):
        crm_optimal(2)


def test_crm_optimal_cases():
    assert crm_optimal(9).case == "a"
    assert crm_optimal(12).case == "b"
    assert crm_optimal(14).case == "c1"
    assert crm_optimal(18).case == "c2"


# ---------------------------------------------------------------------------
# chordal double rings
# ---------------------------------------------------------------------------

def test_cdrm_smallest_case():
    # rings of length 2 are digons, so the smallest ring has length 4
    for convention in ("shift", "reflect"):
        g = cdrm(4, 1, convention)
        assert g.n == 8
        assert all(p is not None for p in g.edge_partner)
        assert all(len(a) == 1 for a in g.out_arcs)
        profile = validate_and_profile(g)
        assert profile.is_totally_regular(1, 1)
        assert profile.bipartite_ok


def test_cdrm_is_bipartite_by_position_parity():
    g = cdrm(10, 7, "reflect")
    colours = bipartition(g)
    assert colours is not None
    m = 10
    for idx in range(g.n):
        assert (colours[idx] == colours[0]) == ((idx % m) % 2 == 0)


def test_cdrm_rejects_bad_parameters():
    # m = 2 would give digons
    for args in [(9, 3), (10, 4), (10, 3, "spiral"), (2, 1), (0, 1), (-2, 1)]:
        for construct in (cdrm, cdrm_voltage_graph):
            with pytest.raises(UnsupportedParameterError):
                construct(*args)


def test_crm_voltage_graph_rejects_what_crm_rejects():
    # c = 1 and c = n - 1 put an arc along a chord; n = 2 is a digon
    bad = [(9, 3), (10, 4), (10, 11), (0, 1), (10, -1), (8, 1), (8, 7), (2, 1), (4, 3)]
    for n, c in bad:
        with pytest.raises(UnsupportedParameterError):
            crm(n, c)
        with pytest.raises(UnsupportedParameterError):
            crm_voltage_graph(n, c)


def assert_same_edges_and_arcs(g, h):
    assert g.n == h.n
    assert g.edges() == h.edges()
    assert g.arcs() == h.arcs()


@pytest.mark.parametrize("n", range(6, 41, 2))
def test_crm_is_the_cover_of_its_voltage_graph(n):
    for c in range(3, n - 1, 2):  # c = 1 and n - 1 put an arc along a chord
        voltage_graph = crm_voltage_graph(n, c)
        q = n // 2
        # lift vertex (b, x), index b*q + x, is ring vertex 2x + b
        perm = [2 * x + b for b in (0, 1) for x in range(q)]
        assert_same_edges_and_arcs(lift(*voltage_graph).relabelled(perm), crm(n, c))
        assert lift_diameter(*voltage_graph) == diameter(crm(n, c))


@pytest.mark.parametrize("m", range(4, 31, 2))
def test_cdrm_is_the_cover_of_its_voltage_graph(m):
    for c in range(-m - 1, 2 * m, 2):
        shift = cdrm_voltage_graph(m, c, "shift")
        assert_same_edges_and_arcs(lift(*shift), cdrm(m, c, "shift"))
        # lift vertex (1, x), index m + x, is ring vertex m + (c - x) mod m
        reflect = cdrm_voltage_graph(m, c, "reflect")
        perm = [*range(m), *(m + (c - x) % m for x in range(m))]
        assert_same_edges_and_arcs(
            lift(*reflect).relabelled(perm), cdrm(m, c, "reflect")
        )
        for convention, voltage_graph in (("shift", shift), ("reflect", reflect)):
            assert lift_diameter(*voltage_graph) == diameter(cdrm(m, c, convention))


@pytest.mark.parametrize("m", range(4, 31, 2))
def test_the_chord_does_not_matter_in_cdrm(m):
    # under shift the chord's edge dart is a tree dart; under reflect the
    # voltages do not involve c: one voltage class and one canonical form
    # per convention for every odd chord
    for convention in ("shift", "reflect"):
        classes, forms = set(), set()
        for c in range(1, m, 2):
            template, q, voltages = cdrm_voltage_graph(m, c, convention)
            classes.add(template.voltage_class(q, voltages))
            forms.add(_canonical_form(cdrm(m, c, convention)))
        assert len(classes) == 1 and len(forms) == 1, convention
        assert None not in forms


# ---------------------------------------------------------------------------
# voltage lifts
# ---------------------------------------------------------------------------

def test_lift_of_the_four_vertex_base():
    g = lift(*bdm5_base())
    assert g.n == 20
    assert diameter(g) == 6
    assert are_isomorphic(g, bdm(5))


def test_bdm5_base_is_the_four_vertex_template():
    template, q, voltages = bdm5_base()
    assert template == four_vertex_template()
    assert (q, voltages) == (5, (0, 0, 2, 1, 0, 2))


def test_lift_with_trivial_group_is_the_base():
    g = lift(LiftTemplate(3, ((0, 1),), ((1, 2), (2, 0))), 1, (0, 0, 0))
    assert g.n == 3
    assert g.edges() == [(0, 1)]
    assert g.arcs() == [(1, 2), (2, 0)]


def test_lift_of_a_loop_is_a_directed_cycle():
    g = lift(LiftTemplate(1, (), ((0, 0),)), 6, (1,))
    assert g.n == 6
    assert diameter(g) == 5
    assert g.arcs() == [(i, (i + 1) % 6) for i in range(6)]


def test_lift_rejects_malformed_bases():
    arc = LiftTemplate(2, (), ((0, 1),))
    with pytest.raises(MalformedBaseError):
        lift(LiftTemplate(2, (), ()), 0, ())
    with pytest.raises(MalformedBaseError):
        lift(arc, 3, (5,))
    with pytest.raises(MalformedBaseError):
        lift(arc, 3, (-1,))
    # one voltage per dart, no more and no fewer
    for voltages in [(), (1, 1)]:
        with pytest.raises(MalformedBaseError):
            lift(arc, 3, voltages)
    # an arc loop with zero voltage would lift to self-loops
    with pytest.raises(MalformedBaseError):
        lift(LiftTemplate(1, (), ((0, 0),)), 3, (0,))
    # what validate_and_profile rejects: a digon, an arc loop with 2g = 0,
    # an arc along an edge and one against it
    for template, voltages in [
        (LiftTemplate(2, (), ((0, 1), (1, 0))), (1, 5)),
        (LiftTemplate(2, (), ((0, 0),)), (3,)),
        (LiftTemplate(2, ((0, 1),), ((0, 1),)), (1, 1)),
        (LiftTemplate(2, ((0, 1),), ((1, 0),)), (1, 5)),
    ]:
        with pytest.raises(MalformedBaseError):
            lift(template, 6, voltages)


def test_lift_templates_compare_by_shape():
    shape = (2, ((0, 1),), ((0, 1), (1, 0)))
    assert LiftTemplate(*shape) == LiftTemplate(*shape)
    assert hash(LiftTemplate(*shape)) == hash(LiftTemplate(*shape))
    assert len({LiftTemplate(*shape), LiftTemplate(2, [[0, 1]], [(0, 1), (1, 0)])}) == 1
    # the dart order is part of the shape: it fixes the voltages' order
    assert LiftTemplate(2, ((0, 1),), ((1, 0), (0, 1))) != LiftTemplate(*shape)
    assert LiftTemplate(3, ((0, 1),), ((0, 1), (1, 0))) != LiftTemplate(*shape)
    assert LiftTemplate(*shape) != shape


@pytest.mark.parametrize(
    "n, edge_darts, arc_darts",
    [(0, (), ()), (2, ((0, 2),), ()), (2, (), ((0, 1), (-1, 0))),
     # not a pair, or not ints: True and 2.0 must not pass as 1 and 2
     (2, ((0, 1, 1),), ()), (2, (), (5,)), (2, ((0.5, 1),), ()),
     (2.0, ((0, 1),), ()), (True, (), ((0, 0),)), (2, (), ((True, 0),))],
    ids=["no-vertices", "edge-endpoint", "arc-endpoint", "triple", "not-iterable",
         "float-endpoint", "float-n", "bool-n", "bool-endpoint"],
)
def test_lift_template_checks_its_shape(n, edge_darts, arc_darts):
    with pytest.raises(MalformedBaseError):
        LiftTemplate(n, edge_darts, arc_darts)


# ---------------------------------------------------------------------------
# layered distance structure of chordal rings
# ---------------------------------------------------------------------------

# Vertices whose larger distance from the two orbit representatives {0, -c}
# is exactly D, written as (coefficient of c, constant) pairs.  The published
# form of these rows anchors the chords on the opposite parity, which shifts
# every vertex by +1 relative to the layers this construction produces.
TWO_CENTER_ROWS = {
    1: ((-1, 1), (0, 1)),
    2: ((-1, 2), (0, 2)),
    3: ((-2, 2), (-1, 3), (0, 3), (1, 2)),
    4: ((-2, 3), (-1, 4), (0, 4), (1, 3)),
    5: ((-3, 3), (-2, 4), (-1, 5), (0, 5), (1, 4), (2, 3)),
    6: ((-3, 4), (-2, 5), (-1, 6), (0, 6), (1, 5), (2, 4)),
    7: ((-4, 4), (-3, 5), (-2, 6), (-1, 7), (0, 7), (1, 6), (2, 5), (3, 4)),
    8: ((-4, 5), (-3, 6), (-2, 7), (-1, 8), (0, 8), (1, 7), (2, 6), (3, 5)),
}


@pytest.mark.parametrize("n,c", [(50, 9), (128, 15), (200, 19), (242, 21)])
def test_crm_two_center_distance_rows(n, c):
    from mixedgraphs import distances_from

    g = crm(n, c)
    from_zero = distances_from(g, 0)
    from_chord = distances_from(g, (-c) % n)
    layers: dict[int, set[int]] = {}
    for v in range(n):
        layers.setdefault(max(from_zero[v], from_chord[v]), set()).add(v)
    for depth, row in TWO_CENTER_ROWS.items():
        expected = {(a * c + b) % n for a, b in row}
        shifted = {(v + 1) % n for v in layers.get(depth, set())}
        assert shifted == expected, f"depth {depth}"


def test_bdm_order_grows_like_sqrt2_to_the_diameter():
    for n in range(3, 9):
        m, g = bdm_canonical(n)
        k = 2 * n
        assert g.n == 2 ** (n + 1) + 2 ** (n - 1)
        assert 2 ** (k // 2) <= g.n <= 3 * 2 ** (k // 2)


def test_crm_optimal_rows_are_totally_regular_bipartite():
    for k in range(3, 23):
        params = crm_optimal(k)
        g = crm(params.n, params.c)
        profile = validate_and_profile(g)
        assert profile.is_totally_regular(1, 1)
        assert profile.bipartite_ok


def test_crm_optimal_rows_lie_in_the_accepted_range():
    for k in range(3, 121):
        params = crm_optimal(k)  # checks (n, c) as crm does
        assert params.c % 2 == 1 and 3 <= params.c <= params.n - 3, k
