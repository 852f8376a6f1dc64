from __future__ import annotations

import itertools

import pytest

from mixedgraphs import (
    INFINITE,
    UNREACHABLE,
    LiftTemplate,
    MixedGraph,
    bdm,
    bdm5_base,
    converse,
    crm,
    diameter,
    distance_matrix,
    distances_from,
    eccentricity_report,
    four_vertex_template,
    lift_diameter,
    two_vertex_template,
)
from mixedgraphs import metrics
from mixedgraphs.core import ball_rounds
from mixedgraphs.errors import MalformedBaseError, UnsupportedParameterError
from mixedgraphs.families import BdmVertex


def directed_cycle(n: int) -> MixedGraph:
    return MixedGraph.build(n, arcs=[(i, (i + 1) % n) for i in range(n)])


def test_distances_on_directed_cycle():
    assert distances_from(directed_cycle(5), 0) == [0, 1, 2, 3, 4]


def test_distances_on_single_edge():
    g = MixedGraph.build(2, edges=[(0, 1)])
    assert distances_from(g, 0) == [0, 1]
    assert distances_from(g, 1) == [1, 0]


def test_distances_mark_unreachable():
    g = MixedGraph.build(3, arcs=[(0, 1)])
    assert distances_from(g, 0) == [0, 1, UNREACHABLE]


def test_distances_source_range_checked():
    with pytest.raises(UnsupportedParameterError):
        distances_from(directed_cycle(3), 3)


def test_bdm5_worst_case_row():
    m, g = 5, bdm(5)
    row = distances_from(g, BdmVertex(0, 0, 0).index(m))
    assert max(row) == 6


def test_directed_cycle_report():
    report = eccentricity_report(directed_cycle(7))
    assert report.diameter == 6
    assert report.out_radius == report.in_radius == 6
    assert report.out_central == tuple(range(7))


def test_crm_8_3_diameter():
    assert eccentricity_report(crm(8, 3)).diameter == 3


def test_bdm10_diameter():
    assert eccentricity_report(bdm(10)).diameter == 8


def test_unreachable_pair_makes_diameter_infinite():
    g = MixedGraph.build(3, arcs=[(0, 1), (1, 0), (1, 2)])
    report = eccentricity_report(g)
    assert report.diameter == INFINITE
    assert diameter(g) == INFINITE
    assert report.ecc_out[2] == INFINITE  # nothing reachable from the sink


def test_report_agrees_with_distance_matrix():
    for g in (crm(8, 3), bdm(5), directed_cycle(6)):
        assert distance_matrix(g).diameter() == eccentricity_report(g).diameter


def test_triangle_inequality_on_bdm5():
    dm = distance_matrix(bdm(5))
    n = dm.n
    for u in range(n):
        for v in range(n):
            for w in range(0, n, 7):
                assert dm.dist(u, w) <= dm.dist(u, v) + dm.dist(v, w)


def test_radii_swap_under_converse():
    g = crm(18, 5)
    fwd, back = eccentricity_report(g), eccentricity_report(converse(g))
    assert fwd.diameter == back.diameter
    assert fwd.out_radius == back.in_radius
    assert fwd.in_radius == back.out_radius


def test_central_vertices_attain_radius():
    report = eccentricity_report(bdm(10))
    for v in report.out_central:
        assert report.ecc_out[v] == report.out_radius
    for v in report.in_central:
        assert report.ecc_in[v] == report.in_radius


def test_report_runs_the_kernel_once(monkeypatch):
    runs = []

    def counting_ball_rounds(adj, *args):
        runs.append(adj)
        return ball_rounds(adj, *args)

    monkeypatch.setattr(metrics, "ball_rounds", counting_ball_rounds)
    graphs = [
        MixedGraph.build(1),
        MixedGraph.build(3, arcs=[(0, 1), (1, 0), (1, 2)]),  # not strongly connected
        crm(8, 3),
        bdm(10),
    ]
    for count, g in enumerate(graphs, 1):
        eccentricity_report(g)
        assert len(runs) == count
        assert runs[-1] == g.successors()


# ---------------------------------------------------------------------------
# lift_diameter: the cover's diameter from one vertex per fibre
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "template, q",
    [(four_vertex_template(), q) for q in range(1, 6)]
    + [(two_vertex_template(), q) for q in range(1, 12)],
    ids=[f"four-q{q}" for q in range(1, 6)] + [f"two-q{q}" for q in range(1, 12)],
)
def test_lift_diameter_matches_the_built_cover_on_every_assignment(template, q):
    for voltages in itertools.product(range(q), repeat=template.dart_count):
        g = template.cover(q, voltages)
        if g is not None:
            assert lift_diameter(template, q, voltages) == diameter(g), voltages


def test_lift_diameter_of_known_covers():
    assert lift_diameter(*bdm5_base()) == diameter(bdm(5)) == 6
    cycle = LiftTemplate(1, (), ((0, 0),))
    assert lift_diameter(cycle, 6, (1,)) == 5
    assert lift_diameter(cycle, 6, (5,)) == 5  # the same cycle, run backwards
    assert lift_diameter(cycle, 6, (2,)) == INFINITE  # two disjoint 3-cycles
    assert lift_diameter(cycle, 6, (-1,)) == 5  # voltages are taken modulo q
    # over the trivial group the cover is the base: nothing leaves vertex 2
    path = LiftTemplate(3, ((0, 1),), ((1, 2),))
    assert lift_diameter(path, 1, (0, 0)) == INFINITE
    assert lift_diameter(LiftTemplate(1, (), ()), 1, ()) == 0


def test_lift_diameter_rejects_bad_voltage_graphs():
    cycle = LiftTemplate(1, (), ((0, 0),))
    for q, voltages in [(0, (0,)), (-3, (1,)), (5, ()), (5, (1, 1))]:
        with pytest.raises(MalformedBaseError):
            lift_diameter(cycle, q, voltages)


def test_diameter_limit_below_zero_is_refused():
    # the limit's other bad values are in test_errors' table
    with pytest.raises(UnsupportedParameterError):
        diameter(crm(10, 3), limit=-1)
    with pytest.raises(UnsupportedParameterError):
        lift_diameter(four_vertex_template(), 5, (0,) * 6, limit=-1)
