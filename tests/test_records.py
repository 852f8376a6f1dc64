"""The package's nine records: immutable, equal by exact type and fields,
hashed and printed from their fields."""

from __future__ import annotations

import copy
import itertools
import pickle

import pytest

from mixedgraphs import (
    BdmVertex,
    MixedGraph,
    SearchReport,
    bdm5_polynomial_matrix,
    bounds_report,
    crm,
    crm_optimal,
    distance_matrix,
    eccentricity_report,
    validate_and_profile,
)


def graph() -> MixedGraph:
    return MixedGraph.build(
        4, edges=[(0, 1), (2, 3)], arcs=[(0, 3), (1, 2)], labels=["a", "b", "c", "d"]
    )


def report() -> SearchReport:
    witness = MixedGraph.build(2, edges=[(0, 1)])
    return SearchReport("lift", 3, 8, 8, False, (witness,), 12, 0.5, seed=7)


# each builds a fresh record, equal to the one from its previous call
MAKERS = {
    "BoundsReport": lambda: bounds_report(7),
    "MixedGraph": graph,
    "DegreeProfile": lambda: validate_and_profile(graph()),
    "DistanceMatrix": lambda: distance_matrix(crm(8, 3)),
    "EccentricityReport": lambda: eccentricity_report(crm(8, 3)),
    "BdmVertex": lambda: BdmVertex(0, 3, 1),
    "CrmParams": lambda: crm_optimal(10),
    "SearchReport": report,
    "PolynomialMatrix": bdm5_polynomial_matrix,
}


@pytest.mark.parametrize("name", MAKERS)
def test_a_record_refuses_assignment_and_deletion(name):
    record = MAKERS[name]()
    assert type(record).__name__ == name
    field = record.__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


@pytest.mark.parametrize("name", MAKERS)
def test_records_with_equal_fields_are_equal_and_hash_equal(name):
    first, second = MAKERS[name](), MAKERS[name]()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    for again in (pickle.loads(pickle.dumps(first)), copy.copy(first), copy.deepcopy(first)):
        assert type(again) is type(first) and again == first


def test_records_of_different_types_are_never_equal():
    records = [make() for make in MAKERS.values()]
    for a, b in itertools.permutations(records, 2):
        assert a != b
    g = graph()

    class Subgraph(MixedGraph):
        __slots__ = ()

    # the exact type counts, not the fields alone
    twin = Subgraph(g.n, g.edge_partner, g.out_arcs, g.labels)
    assert g != twin and twin != g
    assert g != (g.n, g.edge_partner, g.out_arcs, g.labels)


def test_record_reprs_are_pinned():
    assert repr(graph()) == (
        "MixedGraph(n=4, edge_partner=(1, 0, 3, 2), out_arcs=((3,), (2,), (), ()),"
        " labels=('a', 'b', 'c', 'd'))"
    )
    assert repr(BdmVertex(0, 3, 1)) == "BdmVertex(alpha=0, i=3, beta=1)"
    assert repr(crm_optimal(10)) == "CrmParams(k=10, case='c2', n=44, c=31, ell=5, t=2)"
    assert repr(report()) == (
        "SearchReport(kind='lift', k=3, max_order_tested=8, best_order=8,"
        " exhaustive=False, witnesses=(MixedGraph(n=2, edge_partner=(1, 0),"
        " out_arcs=((), ()), labels=None),), candidates=12, wall_time=0.5, seed=7)"
    )
