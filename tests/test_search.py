from __future__ import annotations

import hashlib
import itertools
import math
import random
import re
import time

import pytest
from hypothesis import given, settings, strategies as st

from mixedgraphs import (
    bdm,
    bipartition,
    cdrm,
    cdrm_scan,
    cdrm_voltage_graph,
    crm,
    crm_voltage_graph,
    diameter,
    exhaustive_max_order,
    four_vertex_template,
    isomorphism_classes,
    lift_diameter,
    lift_search,
    two_vertex_template,
    format_edge_list,
    validate_and_profile,
)
from mixedgraphs import LiftTemplate, MixedGraph, core, search
from mixedgraphs.core import _iso_signatures
from mixedgraphs.errors import UnsupportedParameterError
from mixedgraphs.search import (
    _centraliser,
    _class1_representatives,
    _derangement_type_representatives,
    _general_candidates,
    _matching_graph,
)
from test_properties import (
    assert_lifts_bipartite_matches_the_cover,
    assert_template_matches_reference,
    reference_are_isomorphic,
    reference_class1_backtracking,
    reference_class1_orbit_count,
    reference_class1_permutations,
    reference_class1_representatives,
    reference_matching_graph,
    reference_sample_voltages,
    reference_totally_regular_candidates,
    reference_totally_regular_pairs,
    reference_voltage_class,
)


# ---------------------------------------------------------------------------
# exhaustive search
# ---------------------------------------------------------------------------

def test_diameter3_maximum_is_eight_with_two_classes():
    report = exhaustive_max_order(3, 8)
    assert report.best_order == 8
    assert report.exhaustive
    assert len(report.witnesses) == 2


def test_diameter3_nothing_above_the_moore_bound():
    report = exhaustive_max_order(3, 10)
    assert report.best_order == 8  # nothing on 10 vertices
    assert report.exhaustive


def test_best_orders_respect_the_tightened_bound():
    from mixedgraphs import improved_bound

    for k, n_max in ((3, 8), (4, 12)):
        report = exhaustive_max_order(k, n_max)
        assert report.best_order is not None
        assert report.best_order <= improved_bound(k)


def test_witnesses_revalidate():
    report = exhaustive_max_order(3, 8)
    for witness in report.witnesses:
        assert diameter(witness) <= 3
        assert validate_and_profile(witness).is_totally_regular(1, 1)
        assert bipartition(witness) is not None


def test_budget_clears_exhaustive_flag():
    report = exhaustive_max_order(3, 8, budget=2)
    assert not report.exhaustive
    assert report.candidates == 2


def test_general_mode_small_case():
    report = exhaustive_max_order(3, 6, totally_regular_only=False)
    assert report.best_order == 6
    assert len(report.witnesses) == 2
    assert report.exhaustive
    for witness in report.witnesses:
        assert diameter(witness) <= 3
        assert bipartition(witness) is not None


def reference_general_candidates(n):
    """Reference: the recursive generator the product-and-filter one
    replaced.  Recursion depth grows with n; keep n small."""
    for h0 in range((n + 1) // 2, n):
        class1 = list(range(h0, n))
        for matching in reference_partial_matchings(h0, class1):
            partner = {u: v for u, v in matching}
            partner.update({v: u for u, v in matching})
            heads = [None] * n

            def assign(v):
                if v == n:
                    arcs = [(u, w) for u, w in enumerate(heads) if w is not None]
                    yield MixedGraph.build(n, edges=matching, arcs=arcs)
                    return
                options = [None]
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


def reference_partial_matchings(h0, class1):
    free = list(class1)

    def extend(v):
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


@pytest.mark.parametrize("n", range(2, 6))
def test_general_candidates_match_the_recursive_reference(n):
    ours = list(_general_candidates(n))
    assert ours == list(reference_general_candidates(n))
    assert len(ours) == {2: 4, 3: 14, 4: 193, 5: 1382}[n]


def text_key(q):
    """The text of q's class-1 arc targets, "A 2j+1 2q[j]" in order of j."""
    return tuple(str(2 * v) for v in q)


@pytest.mark.parametrize("h", range(2, 9))
def test_class1_permutations_match_the_filtered_reference(h):
    types = list(_derangement_type_representatives(h))
    assert len(types) == {2: 1, 3: 1, 4: 2, 5: 2, 6: 4, 7: 4, 8: 7}[h]
    for p in types:
        assert list(reference_class1_backtracking(p)) == sorted(
            reference_class1_permutations(p), key=text_key
        )


def brute_force_centraliser(p):
    return [
        s for s in itertools.permutations(range(len(p)))
        if all(s[p[j]] == p[s[j]] for j in range(len(p)))
    ]


def conjugate(s, q):
    """s q s^-1, the class-1 permutation after relabelling j -> s(j)."""
    out = [0] * len(q)
    for j, v in enumerate(q):
        out[s[j]] = s[v]
    return tuple(out)


@pytest.mark.parametrize("h", range(2, 8))
def test_centraliser_matches_brute_force(h):
    for p in _derangement_type_representatives(h):
        centraliser = _centraliser(p)
        assert centraliser[0] == tuple(range(h))
        assert sorted(centraliser) == brute_force_centraliser(p)


@pytest.mark.parametrize("h", range(2, 8))
def test_class1_representatives_are_the_text_least_of_each_orbit(h):
    for p in _derangement_type_representatives(h):
        centraliser = brute_force_centraliser(p)
        least = {
            min((conjugate(s, q) for s in centraliser), key=text_key)
            for q in reference_class1_permutations(p)
        }
        assert list(_class1_representatives(p)) == sorted(least, key=text_key)


@pytest.mark.parametrize("h", range(2, 9))
def test_class1_representatives_match_the_post_filter_reference(h):
    for p in _derangement_type_representatives(h):
        assert list(_class1_representatives(p)) == list(
            reference_class1_representatives(p)
        )


@pytest.mark.parametrize("h", range(2, 10))
def test_class1_representatives_one_per_orbit_by_burnside(h):
    for p in _derangement_type_representatives(h):
        assert sum(1 for _ in _class1_representatives(p)) == (
            reference_class1_orbit_count(p)
        )


def test_class1_representative_counts_are_pinned_and_quick():
    # the orbit check prunes partial permutations; checking every complete
    # permutation after the fact took about 46 s at h = 10
    start = time.perf_counter()
    counts = [
        sum(
            1
            for p in _derangement_type_representatives(h)
            for _ in _class1_representatives(p)
        )
        for h in (7, 8, 9, 10)
    ]
    assert counts == [221, 1854, 16085, 162959]
    assert time.perf_counter() - start < 15


def without_candidates(text):
    return re.sub(r" candidates=\d+ ", " ", text)


@pytest.mark.parametrize("k, n_max", [(3, 8), (3, 10), (4, 12), (5, 14), (5, 16)])
def test_pruned_search_reports_as_the_reference(monkeypatch, k, n_max):
    ours = exhaustive_max_order(k, n_max).serialize()
    monkeypatch.setattr(
        search, "_totally_regular_candidates", reference_totally_regular_pairs
    )
    reference = exhaustive_max_order(k, n_max).serialize()
    assert without_candidates(ours) == without_candidates(reference)


@pytest.mark.parametrize("k, n_max, candidates, digest", [
    (5, 14, 221, "eefd8388d1161f4b70834a941a99d56bdc39e4111a5f258cc849c3208af0f2e6"),
    (4, 12, 49, "5c6d63a2cfefc2f7574b2984872b60a1f467dde0310db2ba54493e7a735136a4"),
    (3, 8, 4, "85210eb111ccb7ca475cb17f6afba41c2351a01455ea72764ecaaf4d56e6cee4"),
])
def test_witness_block_is_pinned(k, n_max, candidates, digest):
    """The witnesses below the header line are those of the unpruned
    search, byte for byte; only the candidate count fell."""
    report = exhaustive_max_order(k, n_max)
    assert report.candidates == candidates
    block = report.serialize().split("\n", 1)[1]
    assert hashlib.sha256(block.encode()).hexdigest() == digest


def test_bounded_judge_matches_the_diameter_of_the_built_graph():
    # every candidate pair at n <= 16 for k = 3..6, and at n = 18 for k = 5
    count = 0
    for n, ks in [*((n, range(3, 7)) for n in range(2, 17, 2)), (18, [5])]:
        h = n // 2
        for p, q in search._totally_regular_candidates(n):
            d = diameter(_matching_graph(h, p, q))
            for k in ks:
                assert search._within(h, p, q, k) == (d <= k), (p, q, k)
            count += 1
    assert count == 1 + 4 + 7 + 49 + 221 + 1854 + 16085  # n = 6, ..., 18


def test_exhaustive_builds_and_walks_only_what_it_keeps(monkeypatch):
    # at k = 5, n = 14: a graph only for the 95 accepted of the 221
    # candidates, and the witnesses' canonical forms walked from one cell
    # of roots each, not from all 14 (1,330 walks)
    built, walks = [], []

    def recording_matching_graph(h, p, q):
        built.append((p, q))
        return matching_graph(h, p, q)

    def recording_walk(partner, heads, root, best):
        walks.append(root)
        return walk(partner, heads, root, best)

    matching_graph, walk = search._matching_graph, core._walk
    monkeypatch.setattr(search, "_matching_graph", recording_matching_graph)
    monkeypatch.setattr(core, "_walk", recording_walk)
    report = exhaustive_max_order(5, 14)
    monkeypatch.undo()
    assert report.candidates == 221 and len(report.witnesses) == 54
    assert len(built) == len(set(built)) == 95
    assert 95 <= len(walks) <= 400


def test_matching_graph_equals_the_built_graph():
    count = 0
    for h in range(1, 7):
        for p in _derangement_type_representatives(h):
            for q in reference_class1_permutations(p):
                assert _matching_graph(h, p, q) == reference_matching_graph(h, p, q)
                count += 1
    assert count == 1 + 6 + 25 + 322  # n = 6, 8, 10, 12


def test_exhaustive_budget_bounds_the_work_at_a_large_order():
    start = time.perf_counter()
    report = exhaustive_max_order(4, 60, budget=10)
    assert report.candidates == 10 and not report.exhaustive
    # the unpruned generator walked 29! permutations before the first one
    assert time.perf_counter() - start < 10


def test_class1_generation_follows_the_orbit_check_order():
    # q is generated in the text order the orbit check compares by; were
    # it generated in numeric order, keeping 10 candidates at n = 40 would
    # take more than a minute
    start = time.perf_counter()
    report = exhaustive_max_order(4, 40, budget=10)
    assert report.candidates == 10 and not report.exhaustive
    assert time.perf_counter() - start < 10


def test_exhaustive_rejects_bad_parameters(monkeypatch):
    monkeypatch.setattr(search, "_within", refuse_evaluation)
    for k, n_max, budget in ((0, 8, None), (3, 7, None), (3, 8, 0), (3, 8, -5)):
        with pytest.raises(UnsupportedParameterError):
            exhaustive_max_order(k, n_max, budget=budget)


def test_report_serialization_layout():
    report = exhaustive_max_order(3, 8)
    text = report.serialize()
    lines = text.splitlines()
    assert lines[0].startswith("searchreport kind=exhaustive k=3")
    assert "best_order=8" in lines[0]
    assert lines[1] == "witnesses 2"
    assert lines[2] == "mixedgraph 8"


def test_bucketed_classes_match_all_pairs_loop():
    rng = random.Random(5)
    bases = [bdm(5), crm(20, 3), crm(20, 5), cdrm(10, 3, "shift"), cdrm(10, 3, "reflect")]
    bases += list(reference_totally_regular_candidates(10))[:40]
    graphs = []
    for g in bases:
        for _ in range(2):
            perm = list(range(g.n))
            rng.shuffle(perm)
            graphs.append(g.relabelled(perm))
    rng.shuffle(graphs)

    reps = []  # the all-pairs loop the buckets replaced
    for g in sorted(graphs, key=format_edge_list):
        if not any(reference_are_isomorphic(g, rep) for rep in reps):
            reps.append(g)
    assert 1 < len(reps) < len(graphs)
    assert isomorphism_classes(graphs) == reps


def test_order14_witnesses_class_as_the_reference_loop():
    found = [g for g in reference_totally_regular_candidates(14) if diameter(g) <= 5]
    assert len(found) == 1139
    reps = []  # all pairs, skipping only pairs the reference itself rejects
    for g in sorted(found, key=format_edge_list):
        sig = sorted(_iso_signatures(g))
        if not any(
            sig == rep_sig and reference_are_isomorphic(g, rep)
            for rep, rep_sig in reps
        ):
            reps.append((g, sig))
    classes = isomorphism_classes(found)
    assert len(classes) == 54
    assert [format_edge_list(g) for g in classes] == [
        format_edge_list(rep) for rep, _ in reps
    ]


# ---------------------------------------------------------------------------
# lift search
# ---------------------------------------------------------------------------

def report_digest(report) -> str:
    return hashlib.sha256(report.serialize().encode("utf-8")).hexdigest()


def test_lift_search_finds_the_order20_lift():
    report = lift_search(6, four_vertex_template(), [5], budget=20000, seed=11)
    assert report.best_order == 20
    assert report.exhaustive
    assert report.candidates == 5**6
    for witness in report.witnesses:
        assert witness.n == 20
        assert diameter(witness) <= 6
        assert bipartition(witness) is not None
    assert report_digest(report) == (
        "2725c9900418b6c8e654c7307aadb124145d4b4f1b23249fcf95deca7a46a711"
    )


def test_lift_search_empty_range_is_empty_report():
    report = lift_search(6, four_vertex_template(), [], budget=10, seed=1)
    assert report.best_order is None
    assert report.witnesses == ()
    assert report.candidates == 0


def test_lift_search_two_vertex_template():
    report = lift_search(4, two_vertex_template(), [4, 5], budget=1000, seed=3)
    assert report.best_order == 10  # order 10 at q=5 with diameter 4
    assert report.exhaustive
    assert report_digest(report) == (
        "4fcc725fefd001445cc6cf2af781649a3d98cf0f0892c5afa978837ca0190d6a"
    )


def test_lift_search_sampled_report_is_pinned():
    # the full q=5 space, then 4,375 seeded q=7 samples
    report = lift_search(6, four_vertex_template(), [5, 7], budget=20000, seed=3)
    assert report.candidates == 20000
    assert len(report.witnesses) == 5
    assert report_digest(report) == (
        "e3f8bcf22a5d869da62a93e183ac815c2792a0a5577d7a34afcb88c5eacec268"
    )


@pytest.mark.parametrize(
    "template, q",
    [(four_vertex_template(), q) for q in range(1, 5)]
    + [(two_vertex_template(), q) for q in range(1, 8)],
    ids=[f"four-q{q}" for q in range(1, 5)] + [f"two-q{q}" for q in range(1, 8)],
)
def test_lift_evaluator_matches_reference_on_every_assignment(template, q):
    for voltages in itertools.product(range(q), repeat=template.dart_count):
        assert_template_matches_reference(template, q, voltages)


def tree_zero_member(template, voltage_class):
    """The member of a voltage class with voltage 0 on the tree."""
    voltages = [0] * template.dart_count
    for (d, _, _), g in zip(template.cotree, voltage_class):
        voltages[d] = g
    return tuple(voltages)


def least_of_each_unit_orbit(q, length):
    """The least member of each orbit of Z_q^length under multiplication by
    the units of Z_q, in increasing order, by brute force."""
    units = [u for u in range(1, q + 1) if math.gcd(u, q) == 1]
    orbits = {
        frozenset(tuple(u * g % q for g in c) for u in units)
        for c in itertools.product(range(q), repeat=length)
    }
    return sorted(min(orbit) for orbit in orbits)


def tree_zero_members(template, q):
    """The least voltage class over Z_q of each orbit of the units of Z_q,
    on its member with voltage 0 on the tree, in order of its cotree
    voltages."""
    return [
        (q, tree_zero_member(template, voltage_class))
        for voltage_class in least_of_each_unit_orbit(q, len(template.cotree))
    ]


def tree_zero_members_of_classes_met(template, q, count, seed):
    """The tree-zero member of each voltage class that count seeded samples
    over Z_q meet, in the order the samples first meet the classes."""
    met = {}
    for i in range(count):
        voltages = reference_sample_voltages(seed, q, i, template.dart_count)
        met.setdefault(template.voltage_class(q, voltages))
    return [(q, tree_zero_member(template, c)) for c in met]


def lift_sweep_judged_members(template):
    """The members on which the lift-sweep search, lift_search(6, template,
    [5, 7], 20000, 1), judges its voltage classes, in order: one class per
    orbit of the units of Z_5 at the fully enumerated q = 5 (32 of the 5^3
    classes), then one per orbit of the units of Z_7 at the sampled q = 7
    (58 of 7^3; the 4,375 samples outnumber the classes), each the least
    of its orbit, on its tree-zero member, in order of its cotree
    voltages."""
    return tree_zero_members(template, 5) + tree_zero_members(template, 7)


def test_lift_search_builds_only_accepted_lifts_at_the_best_order(monkeypatch):
    # the lift-sweep search: each orbit of the units of Z_q is judged once,
    # on the tree-zero member of its least class, at the fully enumerated
    # q = 5 and before any sample is drawn at the sampled q = 7, and a lift
    # is built only for a kept witness, once the search is over
    built, judged = [], []

    def counting_cover(template, q, voltages):
        g = cover(template, q, voltages)
        built.append(format_edge_list(g))
        return g

    def recording_lift_diameter(template, q, voltages, limit=None):
        d = lift_diameter(template, q, voltages, limit)
        judged.append((q, tuple(voltages)))
        return d

    cover, lift_diameter = LiftTemplate.cover, search.lift_diameter
    monkeypatch.setattr(LiftTemplate, "cover", counting_cover)
    monkeypatch.setattr(search, "lift_diameter", recording_lift_diameter)
    template = four_vertex_template()
    report = lift_search(6, template, [5, 7], budget=20000, seed=1)
    monkeypatch.undo()

    # the base is bipartite, so every well-formed class is measured
    assert template.bipartite
    assert judged == [(q, v) for q, v in lift_sweep_judged_members(template)
                      if template.well_formed(q, v)]
    classes = {(q, template.voltage_class(q, v)) for q, v in judged}
    assert len(classes) == len(judged) <= 32 + 58
    # the reference text ranking: the _WITNESS_CAP smallest texts among
    # the accepted lifts at the best order, each candidate judged on its own
    space = [(5, v) for v in itertools.product(range(5), repeat=6)]
    space += [(7, reference_sample_voltages(1, 7, i, 6)) for i in range(20000 - 5**6)]
    texts, best = set(), None
    for q, voltages in space:
        g = template.cover(q, voltages)
        if g is None or lift_diameter(template, q, voltages) > 6:
            continue
        if best is None or 4 * q > best:
            best, texts = 4 * q, set()
        if 4 * q == best:
            texts.add(format_edge_list(g))
    assert best == report.best_order == 20
    assert len(texts) > search._WITNESS_CAP
    # swapped voltages on parallel arcs give one text: compare texts
    assert sorted(built) == sorted(texts)[: search._WITNESS_CAP]


def reference_lift_search(k, template, q_range, budget, seed):
    """Reference: the search that judged every well-formed candidate on
    its own, with no memo of voltage classes."""
    if k < 1:
        raise UnsupportedParameterError(f"diameter must be >= 1, got {k}")
    if budget <= 0:
        raise UnsupportedParameterError(f"budget must be positive, got {budget}")
    orders = [int(q) for q in q_range]
    for q in orders:
        if q < 1:
            raise UnsupportedParameterError(f"group order must be >= 1, got {q}")
    orders = list(dict.fromkeys(orders))
    candidates = 0
    remaining = budget
    exhaustive = True
    best_order = None
    kept = {}
    for q in orders:
        if remaining <= 0:
            exhaustive = False
            break
        order = template.n * q
        space = q**template.dart_count
        if space <= remaining:
            assignments = itertools.product(range(q), repeat=template.dart_count)
        else:
            exhaustive = False
            assignments = (
                reference_sample_voltages(seed, q, counter, template.dart_count)
                for counter in range(remaining)
            )
        for voltages in assignments:
            candidates += 1
            remaining -= 1
            if not template.well_formed(q, voltages):
                continue
            g = None
            if not template.bipartite:
                g = template.cover(q, voltages)
                if bipartition(g) is None:
                    continue
            if search.lift_diameter(template, q, voltages) <= k and (
                best_order is None or order >= best_order
            ):
                if best_order is None or order > best_order:
                    best_order, kept = order, {}
                if g is None:
                    g = template.cover(q, voltages)
                text = format_edge_list(g)
                if text in kept:
                    continue
                if len(kept) == search._WITNESS_CAP:
                    worst = max(kept)
                    if text > worst:
                        continue
                    del kept[worst]
                kept[text] = g
    # vertex (b, x) labelled "(b,x)", as families.lift labels it
    witnesses = isomorphism_classes([
        MixedGraph(g.n, g.edge_partner, g.out_arcs, tuple(
            f"({b},{x})" for b in range(template.n) for x in range(g.n // template.n)
        ))
        for g in kept.values()
    ])
    return search.SearchReport(
        kind="lift",
        k=k,
        max_order_tested=template.n * max(orders) if orders else 0,
        best_order=best_order,
        exhaustive=exhaustive,
        witnesses=tuple(witnesses),
        candidates=candidates,
        wall_time=0.0,
        seed=seed,
    )


TRIANGLE = LiftTemplate(3, (), ((0, 1), (1, 2), (2, 0)))
CDRM_LOOPS = LiftTemplate(2, ((0, 1),), ((0, 0), (1, 1)))
PARALLEL = LiftTemplate(2, ((0, 1),), ((0, 1), (1, 0), (1, 0)))
# two components, so its spanning forest has two trees
FOREST = LiftTemplate(4, ((0, 1), (2, 3)), ((0, 1), (1, 0), (2, 3), (3, 2)))
# one vertex: the tree is empty and every dart is in the cotree
POINT = LiftTemplate(1, (), ((0, 0), (0, 0)))
# fibre 0 has no edge step to a fibre above it, so its "E" block is empty
# and fibre 1's decides the early test of lift_search's ranking
UPPER_EDGE = LiftTemplate(3, ((1, 2),), ((0, 1), (1, 0)))
# budgets below q^|cotree|, so that only the classes the samples meet are
# judged: an accepted class (best order 18), none accepted, an even q on a
# bipartite base (24), and an even q on a base that is not bipartite (24)
MEMO_CASES = (
    [(5, two_vertex_template(), [9], 60, seed) for seed in (1, 2)]
    + [(6, four_vertex_template(), [7], 300, seed) for seed in (1, 2)]
    + [(6, four_vertex_template(), [6], 200, seed) for seed in (1, 2)]
    + [(7, CDRM_LOOPS, [12], 100, seed) for seed in (1, 2)]
)
REFERENCE_CASES = (
    [(6, four_vertex_template(), [q], 10**6, 1) for q in range(1, 7)]
    + [(k, two_vertex_template(), [q], 10**4, 1)
       for q in range(1, 13) for k in range(3, 7)]
    + [(k, TRIANGLE, [2, 3, 4, 6], 10**4, 1) for k in (2, 4, 6)]
    + [(k, CDRM_LOOPS, range(1, 13), 10**4, 1) for k in (3, 5, 8)]
    + [(k, PARALLEL, range(1, 7), 10**4, 1) for k in (3, 4, 6)]
    # budgets below the space: the seeded sampler
    + [(6, four_vertex_template(), [5, 7], 9000, seed) for seed in (1, 2, 3)]
    + [(5, two_vertex_template(), [9, 10, 11], 700, seed) for seed in (4, 5, 6)]
    + [(4, TRIANGLE, [5, 6], 150, seed) for seed in (7, 8)]
    + [(6, FOREST, [2, 3, 4], 10**4, 1), (6, FOREST, [3, 4], 3**6 + 500, 2)]
    + [(k, POINT, range(1, 13), 10**4, 1) for k in (3, 4)]
    # a later q of smaller order than the best: it cannot change the report
    + [(5, two_vertex_template(), [9, 5, 7], 10**4, 1),
       (6, four_vertex_template(), [5, 4], 10**5, 1)]
    # full enumeration, then sampling, partway through the range
    + [(5, two_vertex_template(), [4, 5, 6, 7], 4**3 + 5**3 + 100, 2),
       (5, two_vertex_template(), [9, 5], 9**3 + 50, 2),
       (5, two_vertex_template(), [5, 9, 7], 5**3 + 300, 3)]
    + MEMO_CASES
    # fibre 1's verdicts decide the early test once the cap fills (k = 6)
    + [(k, UPPER_EDGE, range(1, 9), 10**4, 1) for k in (4, 6)]
    # sampled with accepted classes, so the worst kept key keeps moving and
    # the verdicts are emptied often
    + [(7, four_vertex_template(), [7], 4375, seed) for seed in (1, 2)]
)


@pytest.mark.parametrize(
    "template, q_max",
    [(four_vertex_template(), 5), (two_vertex_template(), 12), (TRIANGLE, 6),
     (CDRM_LOOPS, 12), (PARALLEL, 6), (crm_voltage_graph(6, 3)[0], 12)],
    ids=["four", "two", "triangle", "cdrm-loops", "parallel", "crm"],
)
def test_text_key_orders_and_equates_as_the_text(template, q_max):
    # every well-formed assignment: lift_search ranks witnesses by the key
    # in place of format_edge_list(cover)
    for q in range(1, q_max + 1):
        lines = {}
        keys, texts = {}, {}
        for voltages in itertools.product(range(q), repeat=template.dart_count):
            g = template.cover(q, voltages)
            if g is not None:
                keys[voltages] = search._text_key(template, q, voltages, lines)
                texts[voltages] = format_edge_list(g)
        assert sorted(keys, key=keys.__getitem__) == sorted(texts, key=texts.__getitem__)
        # equal keys exactly when equal texts: each determines the other
        pairs = set(zip(keys.values(), texts.values()))
        assert len(pairs) == len(set(keys.values())) == len(set(texts.values())), q


@pytest.mark.parametrize(
    "k, template, q_range, budget, seed", REFERENCE_CASES,
    ids=[f"case{i}" for i in range(len(REFERENCE_CASES))],
)
def test_lift_search_matches_the_per_candidate_reference(k, template, q_range, budget, seed):
    report = lift_search(k, template, q_range, budget, seed)
    expected = reference_lift_search(k, template, q_range, budget, seed)
    assert report.serialize() == expected.serialize()


@pytest.mark.parametrize("seed", [1, 41])
def test_lift_search_ranks_the_sweep_through_the_verdict_tables(monkeypatch, seed):
    # the lift-sweep search: every full key is still made (237), but the
    # early test reads a fibre's "E" block only on a verdict table's miss,
    # where one _block call per accepted member made 7,895 calls
    calls = {"block": 0, "text_key": 0}
    inside = []

    def recording_block(*args):
        if not inside:
            calls["block"] += 1
        return block(*args)

    def recording_text_key(*args):
        calls["text_key"] += 1
        inside.append(True)
        try:
            return text_key(*args)
        finally:
            inside.pop()

    block, text_key = search._block, search._text_key
    monkeypatch.setattr(search, "_block", recording_block)
    monkeypatch.setattr(search, "_text_key", recording_text_key)
    report = lift_search(6, four_vertex_template(), [5, 7], 20000, seed)
    monkeypatch.undo()
    assert report.best_order == 20
    assert calls["text_key"] == 237
    assert calls["block"] <= 400


@pytest.mark.parametrize(
    "k, template, q_range, budget, seed, best_order",
    [case + (best,) for case, best in zip(MEMO_CASES, [18, 18, None, None, 24, 24, 24, 24])],
    ids=[f"memo{i}" for i in range(len(MEMO_CASES))],
)
def test_memo_cases_judge_each_class_met_on_its_tree_zero_member(
    monkeypatch, k, template, q_range, budget, seed, best_order
):
    # the budget is below q^|cotree|: the classes are judged as the samples
    # meet them, not up front, each on its tree-zero member
    (q,) = q_range
    assert budget < q ** len(template.cotree)
    calls = []

    def counting_well_formed(template, q, voltages):
        calls.append((q, tuple(voltages)))
        return well_formed(template, q, voltages)

    well_formed = LiftTemplate.well_formed
    monkeypatch.setattr(LiftTemplate, "well_formed", counting_well_formed)
    report = lift_search(k, template, q_range, budget, seed)
    monkeypatch.undo()

    judged = tree_zero_members_of_classes_met(template, q, budget, seed)
    assert calls[: len(judged)] == judged
    assert len(calls) <= len(judged) + search._WITNESS_CAP
    assert report.best_order == best_order


def record_sampling(monkeypatch):
    """Patch the sampler and LiftTemplate.voltage_class to record the
    arguments of each sampler call and the q of each voltage_class call."""
    drawn, classed = [], []

    def recording_sample_voltages(seed, q, count, ndarts):
        drawn.append((seed, q, count, ndarts))
        return sample_voltages(seed, q, count, ndarts)

    def recording_voltage_class(template, q, voltages):
        classed.append(q)
        return voltage_class(template, q, voltages)

    sample_voltages, voltage_class = search._sample_voltages, LiftTemplate.voltage_class
    monkeypatch.setattr(search, "_sample_voltages", recording_sample_voltages)
    monkeypatch.setattr(LiftTemplate, "voltage_class", recording_voltage_class)
    return drawn, classed


def test_lift_search_draws_no_sample_where_no_class_is_accepted(monkeypatch):
    # the lift-sweep search: no lift of the four-vertex template over Z_7
    # has diameter <= 6, and its 7^3 classes are judged before a sample is
    # drawn, so none of the 4,375 samples is drawn or classed
    drawn, classed = record_sampling(monkeypatch)
    report = lift_search(6, four_vertex_template(), [5, 7], budget=20000, seed=1)
    monkeypatch.undo()
    assert [args for args in drawn if args[1] == 7] == []
    assert 7 not in classed
    assert report.candidates == 20000 and report.best_order == 20


def test_lift_search_streams_every_sample_where_a_class_is_accepted(monkeypatch):
    # 81 classes over Z_9, judged up front, and some accepted: all 700
    # samples are drawn, and each is classed once
    drawn, classed = record_sampling(monkeypatch)
    report = lift_search(5, two_vertex_template(), [9], budget=700, seed=4)
    monkeypatch.undo()
    assert drawn == [(4, 9, 700, 3)]
    assert classed == [9] * 700
    assert report.best_order == 18 and not report.exhaustive


def reference_accepted(template, k, q, count, seed):
    """Reference: the accepted assignments as lift_search took them when a
    sampled q kept a memo of the verdict per class, judged on the first
    sample of the class, whatever the count.  A fully enumerated q is
    walked class by class, each judged on its tree-zero member."""

    def judge(voltages, voltage_class):
        return (
            template.well_formed(q, voltages)
            and template.lifts_bipartite(q, voltage_class)
            and search.lift_diameter(template, q, voltages) <= k
        )

    if count < q**template.dart_count:
        verdicts = {}
        for i in range(count):
            voltages = reference_sample_voltages(seed, q, i, template.dart_count)
            voltage_class = template.voltage_class(q, voltages)
            if voltage_class not in verdicts:
                verdicts[voltage_class] = judge(voltages, voltage_class)
            if verdicts[voltage_class]:
                yield voltages
        return
    tree, cotree = template.tree, template.cotree
    for voltage_class in itertools.product(range(q), repeat=len(cotree)):
        voltages = [0] * template.dart_count
        for (d, _, _), g in zip(cotree, voltage_class):
            voltages[d] = g
        if not judge(voltages, voltage_class):
            continue
        for shifts in itertools.product(range(q), repeat=len(tree)):
            p = [0] * template.n
            for (v, u, d, sign), g in zip(tree, shifts):
                p[v] = p[u] + sign * g
                voltages[d] = g
            for (d, u, v), g in zip(cotree, voltage_class):
                voltages[d] = (g - p[u] + p[v]) % q
            yield tuple(voltages)


ACCEPTED_TEMPLATES = (
    TRIANGLE, PARALLEL, CDRM_LOOPS, FOREST, POINT, two_vertex_template(), four_vertex_template(),
)


@st.composite
def accepted_arguments(draw):
    """A template, a q with at most 16,000 assignments, k, a count of
    assignments on either side of q^|cotree| or the whole space, and a
    seed."""
    template = draw(st.sampled_from(ACCEPTED_TEMPLATES))
    q_max = max(q for q in range(1, 13) if q**template.dart_count <= 16000)
    q = draw(st.integers(1, q_max))
    classes, space = q ** len(template.cotree), q**template.dart_count
    # the whole space, some of it with every class, or fewer than the classes
    counts = [st.just(space), st.integers(classes, space)]
    if classes > 1:
        counts.append(st.integers(1, classes - 1))
    count = draw(st.one_of(counts))
    # a connected lift has diameter < n*q: k runs down from there
    k = template.n * q - draw(st.integers(0, template.n * q - 1))
    seed = draw(st.integers(-(2**70), 2**70))
    return template, k, q, count, seed


@settings(max_examples=300, deadline=None)
@given(accepted_arguments())
def test_accepted_matches_the_per_sample_memo(arguments):
    assert list(search._accepted(*arguments)) == list(reference_accepted(*arguments))


@st.composite
def unit_multiples(draw):
    """A template, q <= 12, a voltage class c over Z_q and a unit u of Z_q."""
    template = draw(st.sampled_from(ACCEPTED_TEMPLATES))
    q = draw(st.integers(1, 12))
    length = len(template.cotree)
    c = draw(st.lists(st.integers(0, q - 1), min_size=length, max_size=length))
    u = draw(st.sampled_from([u for u in range(1, q + 1) if math.gcd(u, q) == 1]))
    return template, q, tuple(c), u


@settings(max_examples=300, deadline=None)
@given(unit_multiples())
def test_unit_multiples_of_a_class_are_judged_alike(arguments):
    # multiplying every voltage by a unit u maps lift vertex (b, x) to
    # (b, u*x), an isomorphism: the up-front pass judges one class per orbit
    template, q, c, u = arguments
    uc = tuple(u * g % q for g in c)
    member, multiple = tree_zero_member(template, c), tree_zero_member(template, uc)
    assert template.well_formed(q, member) == template.well_formed(q, multiple)
    assert template.lifts_bipartite(q, c) == template.lifts_bipartite(q, uc)
    assert lift_diameter(template, q, member) == lift_diameter(template, q, multiple)


@pytest.mark.parametrize(
    "template, q",
    [(template, q) for template in ACCEPTED_TEMPLATES for q in (1, 2, 7, 8, 9, 12)],
    ids=[f"{name}-q{q}" for name in ("triangle", "parallel", "cdrm-loops", "forest",
                                     "point", "two", "four") for q in (1, 2, 7, 8, 9, 12)],
)
def test_up_front_pass_judges_one_class_per_unit_orbit(monkeypatch, template, q):
    # every class is judged up front once the count reaches q^|cotree|:
    # one per orbit, the least, also where a composite q gives some
    # orbits a stabiliser
    calls = []

    def recording_well_formed(template, q, voltages):
        calls.append(tuple(voltages))
        return well_formed(template, q, voltages)

    well_formed = LiftTemplate.well_formed
    monkeypatch.setattr(LiftTemplate, "well_formed", recording_well_formed)
    count = q ** len(template.cotree)
    list(search._accepted(template, 2 * template.n, q, count, seed=1))
    monkeypatch.undo()
    orbits = least_of_each_unit_orbit(q, len(template.cotree))
    assert calls == [tree_zero_member(template, c) for c in orbits]


@st.composite
def agreeing_assignments(draw):
    """A template, q <= 12, a fibre b and two assignments over Z_q that
    agree on the edge darts from b to a fibre above b, and may differ on
    every other dart."""
    template = draw(st.sampled_from(ACCEPTED_TEMPLATES + (UPPER_EDGE,)))
    q = draw(st.integers(1, 12))
    b = draw(st.integers(0, template.n - 1))
    read = {d for d, (u, v) in enumerate(template.edge_darts)
            if (u == b and v > b) or (v == b and u > b)}
    voltages = st.lists(st.integers(0, q - 1), min_size=template.dart_count,
                        max_size=template.dart_count)
    first, second = draw(voltages), draw(voltages)
    second = [first[d] if d in read else g for d, g in enumerate(second)]
    return template, q, b, first, second


@settings(max_examples=300, deadline=None)
@given(agreeing_assignments())
def test_an_edge_block_depends_only_on_the_upward_edge_voltages(arguments):
    # lift_search keeps one verdict per fibre for the voltages of these
    # darts alone, so the fibre's "E" block must be a function of them
    template, q, b, first, second = arguments
    assert (search._block(template, q, first, b, {})[0]
            == search._block(template, q, second, b, {})[0])


ACCEPTED_TEMPLATE_NAMES = ("triangle", "parallel", "cdrm-loops", "forest", "point", "two", "four")


@pytest.mark.parametrize("regime", ["whole", "up-front", "sampled"])
@pytest.mark.parametrize("q", [5, 6])
@pytest.mark.parametrize("template", ACCEPTED_TEMPLATES, ids=ACCEPTED_TEMPLATE_NAMES)
def test_accepted_judges_each_class_once_on_its_tree_zero_member(
    monkeypatch, template, q, regime
):
    # one judge at every count: the whole space, a sampled q with at least
    # one sample per class, and fewer samples than classes.  k is past the
    # diameter of every connected lift, so every well-formed class that
    # lifts bipartite is measured
    classes, space = q ** len(template.cotree), q**template.dart_count
    count = {"whole": space, "up-front": classes, "sampled": classes - 1}[regime]
    well_formed_calls, diameter_calls = [], []

    def recording_well_formed(template, q, voltages):
        well_formed_calls.append(tuple(voltages))
        return well_formed(template, q, voltages)

    def recording_lift_diameter(template, q, voltages, limit=None):
        diameter_calls.append(tuple(voltages))
        return lift_diameter(template, q, voltages, limit)

    well_formed = LiftTemplate.well_formed
    monkeypatch.setattr(LiftTemplate, "well_formed", recording_well_formed)
    monkeypatch.setattr(search, "lift_diameter", recording_lift_diameter)
    list(search._accepted(template, template.n * q, q, count, seed=1))
    monkeypatch.undo()

    assert well_formed_calls and (diameter_calls or not template.bipartite)
    for voltages in well_formed_calls + diameter_calls:
        assert all(voltages[d] == 0 for _, _, d, _ in template.tree), voltages
    judged = [template.voltage_class(q, v) for v in well_formed_calls]
    assert len(set(judged)) == len(judged)
    assert len(set(diameter_calls)) == len(diameter_calls)
    assert set(diameter_calls) <= set(well_formed_calls)
    if count >= classes:
        units = [u for u in range(1, q) if math.gcd(u, q) == 1]
        orbits = {frozenset(tuple(u * g % q for g in c) for u in units) for c in judged}
        assert len(orbits) == len(judged)


@pytest.mark.parametrize(
    "template, q_range, budget",
    [(FOREST, [2, 3, 4], 10**4), (FOREST, [3, 4], 3**6 + 500), (POINT, range(1, 9), 10**4)],
    ids=["forest", "forest-sampled", "point"],
)
def test_lift_search_matches_the_reference_when_every_diameter_passes(
    monkeypatch, template, q_range, budget
):
    # a disconnected lift never passes the diameter test, so only with
    # every lift passing it are the members of a class on a forest (or an
    # empty tree) made and ranked.  lifts_bipartite is exact here although
    # some lifts are disconnected: FOREST is bipartite, and for q <= 8 no
    # well-formed lift of POINT is a bipartite one with an even voltage.
    # At k = 5 no order here (16 at most) passes the bound on the order of
    # a lift of diameter <= k: 1 + 2 + ... + 2^5, two steps out of each
    # base vertex
    monkeypatch.setattr(search, "lift_diameter", lambda *args, **kwargs: 1)
    report = lift_search(5, template, q_range, budget, seed=1)
    expected = reference_lift_search(5, template, q_range, budget, seed=1)
    assert report.witnesses and report.serialize() == expected.serialize()


@pytest.mark.parametrize(
    "k, template, q, budget",
    [(5, TRIANGLE, 2, 100), (6, cdrm_voltage_graph(8, 1)[0], 8, 1000)],
    ids=["triangle", "cdrm-loops"],
)
def test_lift_search_builds_covers_only_for_kept_witnesses(monkeypatch, k, template, q, budget):
    # neither base is bipartite, yet bipartiteness comes from the voltage
    # class: a lift is built only for a kept witness, once the search is over
    built = []

    def counting_cover(template, q, voltages):
        g = cover(template, q, voltages)
        built.append(format_edge_list(g))
        return g

    cover = LiftTemplate.cover
    assert not template.bipartite
    monkeypatch.setattr(LiftTemplate, "cover", counting_cover)
    report = lift_search(k, template, [q], budget, seed=1)
    monkeypatch.undo()
    # the _WITNESS_CAP smallest texts among the lifts that are 2-coloured
    # when built and of diameter <= k
    texts = set()
    for voltages in itertools.product(range(q), repeat=template.dart_count):
        g = template.cover(q, voltages)
        if g is not None and bipartition(g) is not None and lift_diameter(template, q, voltages) <= k:
            texts.add(format_edge_list(g))
    assert texts and sorted(built) == sorted(texts)[: search._WITNESS_CAP]
    assert report.best_order == template.n * q
    assert report.serialize() == reference_lift_search(k, template, [q], budget, 1).serialize()


@pytest.mark.parametrize(
    "k, template, q", [(6, four_vertex_template(), 5), (5, two_vertex_template(), 9)],
    ids=["four", "two"],
)
def test_lift_search_witnesses_carry_the_lift_labels(k, template, q):
    # serialize() drops labels: every witness is labelled as families.lift
    # labels a lift, vertex (b, x) as "(b,x)"
    report = lift_search(k, template, [q], 20000, seed=1)
    labels = tuple(f"({b},{x})" for b in range(template.n) for x in range(q))
    assert report.witnesses
    assert all(g.labels == labels for g in report.witnesses)


def test_one_diameter_per_voltage_class():
    # every assignment of the two templates: a class has one diameter and
    # is well formed or not as a whole, and the classes are the
    # q^(darts - n + 1) voltages of the cotree darts
    for template, q_max in ((four_vertex_template(), 5), (two_vertex_template(), 13)):
        free = template.dart_count - template.n + 1
        assert len(template.cotree) == free
        for q in range(1, q_max + 1):
            verdicts = {}
            for voltages in itertools.product(range(q), repeat=template.dart_count):
                verdict = (
                    lift_diameter(template, q, voltages),
                    template.well_formed(q, voltages),
                )
                key = template.voltage_class(q, voltages)
                assert verdicts.setdefault(key, verdict) == verdict, (q, voltages)
            assert len(verdicts) == q**free


@pytest.mark.parametrize(
    "template", [TRIANGLE, PARALLEL, CDRM_LOOPS, two_vertex_template(), four_vertex_template()],
    ids=["triangle", "parallel", "cdrm-loops", "two", "four"],
)
def test_lifts_bipartite_matches_every_built_cover(template):
    for q in range(1, 7):
        for voltages in itertools.product(range(q), repeat=template.dart_count):
            assert_lifts_bipartite_matches_the_cover(template, q, voltages)


@pytest.mark.parametrize(
    "template, q_max",
    [(four_vertex_template(), 5), (two_vertex_template(), 13), (TRIANGLE, 6),
     (PARALLEL, 6), (CDRM_LOOPS, 6)],
    ids=["four", "two", "triangle", "parallel", "cdrm-loops"],
)
def test_voltage_class_equals_the_symbolic_cycles_on_every_assignment(template, q_max):
    for q in range(1, q_max + 1):
        for voltages in itertools.product(range(q), repeat=template.dart_count):
            expected = reference_voltage_class(template, q, voltages)
            assert template.voltage_class(q, voltages) == expected, (q, voltages)


def test_lift_search_checks_well_formedness_once_per_class(monkeypatch):
    # the lift-sweep search: well_formed runs once per orbit of the units
    # of Z_q, on the member that judges it, then once per kept witness as
    # cover builds it
    calls = []

    def counting_well_formed(template, q, voltages):
        calls.append((q, tuple(voltages)))
        return well_formed(template, q, voltages)

    well_formed = LiftTemplate.well_formed
    monkeypatch.setattr(LiftTemplate, "well_formed", counting_well_formed)
    template = four_vertex_template()
    lift_search(6, template, [5, 7], budget=20000, seed=1)
    monkeypatch.undo()

    judged = lift_sweep_judged_members(template)
    assert calls[: len(judged)] == judged
    assert len(calls) == len(judged) + search._WITNESS_CAP == 32 + 58 + 8


def refuse_evaluation(*args):
    pytest.fail("a candidate was evaluated before the arguments were checked")


@pytest.mark.parametrize("k, q_range", [(0, [5]), (6, [5, 0])], ids=["k0", "q0"])
def test_lift_search_checks_arguments_first(monkeypatch, k, q_range):
    monkeypatch.setattr(LiftTemplate, "cover", refuse_evaluation)
    with pytest.raises(UnsupportedParameterError):
        lift_search(k, four_vertex_template(), q_range, budget=20000, seed=1)


def test_lift_search_reports_are_byte_identical():
    args = dict(budget=300, seed=42)
    a = lift_search(6, four_vertex_template(), [5, 6], **args)
    b = lift_search(6, four_vertex_template(), [5, 6], **args)
    assert a.serialize() == b.serialize()
    assert not a.exhaustive  # budget shorter than either space


def test_lift_search_searches_each_order_once():
    args = dict(budget=1000, seed=1)
    once = lift_search(4, two_vertex_template(), [4, 5], **args)
    repeated = lift_search(4, two_vertex_template(), [4, 5, 4, 5, 5], **args)
    assert repeated.candidates == once.candidates == 4**3 + 5**3
    assert repeated.serialize() == once.serialize()


def test_lift_search_budget_required():
    with pytest.raises(UnsupportedParameterError):
        lift_search(6, four_vertex_template(), [5], budget=0, seed=1)


# ---------------------------------------------------------------------------
# chordal double ring scan
# ---------------------------------------------------------------------------

def test_cdrm_scan_reaches_diameter_six_on_twenty_vertices():
    c, convention, d = cdrm_scan(10)
    assert d == 6
    assert c % 2 == 1
    assert convention == "reflect"


def test_cdrm_scan_smallest_ring():
    # rings of length 2 are digons
    with pytest.raises(UnsupportedParameterError):
        cdrm_scan(2)
    c, convention, d = cdrm_scan(4)
    assert (c, convention, d) == (1, "reflect", 3)
    assert diameter(cdrm(4, c, convention)) == 3


def reference_cdrm_scan(m):
    """Reference: the scan that built every ring and measured its diameter."""
    best = None
    conventions = ("shift", "reflect")
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


def test_cdrm_scan_matches_the_reference_scan():
    for m in range(4, 61, 2):
        assert cdrm_scan(m) == reference_cdrm_scan(m), m
    for m in (-1, 0, 1, 2, 3, 5, 9):
        with pytest.raises(UnsupportedParameterError):
            cdrm_scan(m)


def test_cdrm_scan_order52():
    # the best chordal double ring on 52 vertices is worse than the best
    # single chordal ring of the same order range (compare diameter 10 there)
    c, convention, d = cdrm_scan(26)
    assert d == 14
