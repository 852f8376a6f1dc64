"""Acceptance suite: one test per numbered criterion, each printing a
PASS/FAIL line (run with ``pytest -s`` to see them live).

Checks are accumulated per criterion so the printed line and the assertion
message carry every deviation, not just the first.
"""

from __future__ import annotations

import time

import numpy as np

from mixedgraphs import (
    BdmVertex,
    are_isomorphic,
    bd_digraph,
    bdm,
    bdm5_polynomial_matrix,
    bdm_canonical,
    bdm_star,
    bipartition,
    cdrm,
    cdrm_scan,
    char_poly_eigenvalues,
    contract_edges,
    converse,
    crm,
    crm_optimal,
    crm_upper,
    diameter,
    distance_matrix,
    eccentricity_report,
    evaluate_at_root,
    exhaustive_max_order,
    improved_bound,
    lift_spectrum,
    moore_bipartite,
    validate_and_profile,
    verify_automorphism,
    walk_pattern,
)
from mixedgraphs.errors import MalformedGraphError
from mixedgraphs.families import (
    arc_first_pattern,
    automorphism_permutation,
    double_arc_pattern,
    doubling_parameter,
    edge_first_pattern,
    named_automorphism,
    path_endpoint_formula,
)
from mixedgraphs.metrics import UNREACHABLE


def _finish(cid: str, label: str, failures: list[str], started: float, limit: float):
    elapsed = time.perf_counter() - started
    if elapsed > limit:
        failures.append(f"runtime {elapsed:.2f}s exceeds {limit:.0f}s")
    status = "PASS" if not failures else "FAIL"
    print(f"{cid} {label}: {status} ({elapsed:.2f}s)")
    assert not failures, f"{cid}: " + "; ".join(failures)


# Reference column for criterion 1, frozen as published.  The entries at
# k >= 12 do not satisfy the defining recurrence M(k) = M(k-1) + M(k-2) + 2
# that the earlier entries follow, and the criterion-2 column below is only
# consistent with the recurrence values (752, 1218, 1972, 3192, 5166).  The
# implementation follows the recurrence, so this criterion fails at those
# five entries by construction; the assertion message lists the deltas.
MOORE_COLUMN = [8, 14, 24, 40, 66, 108, 176, 286, 464, 742, 1208, 1952, 3162, 5116]

IMPROVED_COLUMN = [8, 12, 22, 36, 60, 96, 158, 256, 416, 674, 1092, 1766, 2860, 4628]

SPECTRUM_ROWS = {
    0: [0.0, 0.0, -2.0, 2.0],
    1: [-0.8266 - 0.7015j, -0.8266 + 0.7015j, 0.8266 - 0.7015j, 0.8266 + 0.7015j],
    2: [-1.2671 - 0.5445j, -1.2671 + 0.5445j, 1.2671 - 0.5445j, 1.2671 + 0.5445j],
}


def test_c01_moore_column():
    started = time.perf_counter()
    failures = []
    for k, expected in zip(range(3, 17), MOORE_COLUMN):
        got = moore_bipartite(1, 1, k)
        if got != expected:
            failures.append(f"k={k}: computed {got}, column prints {expected}")
    _finish("C01", "unit-degree Moore column", failures, started, 1.0)


def test_c02_improved_bound_column():
    started = time.perf_counter()
    failures = []
    for k, expected in zip(range(3, 17), IMPROVED_COLUMN):
        got = improved_bound(k)
        if got != expected:
            failures.append(f"k={k}: computed {got}, expected {expected}")
    _finish("C02", "tightened bound column", failures, started, 1.0)


def test_c03_bdm_orders_and_diameters():
    started = time.perf_counter()
    failures = []
    expected_orders = {3: 20, 4: 40, 5: 80, 6: 160, 7: 320, 8: 640}
    for n, order in expected_orders.items():
        _, g = bdm_canonical(n)
        if g.n != order:
            failures.append(f"n={n}: order {g.n} != {order}")
        d = diameter(g)
        if d != 2 * n:
            failures.append(f"n={n}: diameter {d} != {2 * n}")
    _finish("C03", "doubled family orders and diameters", failures, started, 30.0)


def test_c04_totally_regular_variant():
    started = time.perf_counter()
    failures = []
    measured = {}
    for n in range(4, 8):
        m = 5 * 2 ** (n - 3)
        try:
            g = bdm_star(m)  # construction asserts the in-neighbour table
        except MalformedGraphError as exc:
            failures.append(f"n={n}: construction failed: {exc}")
            continue
        if not validate_and_profile(g).is_totally_regular(1, 1):
            failures.append(f"n={n}: not totally (1,1)-regular")
        d = diameter(g)
        measured[n] = d
        if d > 2 * n + 1:
            failures.append(f"n={n}: diameter {d} exceeds {2 * n + 1}")
    print(f"C04 measured diameters: {measured}")
    _finish("C04", "totally regular variant", failures, started, 30.0)


def test_c05_chordal_ring_table():
    started = time.perf_counter()
    failures = []
    for k in range(3, 23):
        params = crm_optimal(k)
        d = diameter(crm(params.n, params.c))
        if d != k:
            failures.append(f"k={k}: diameter {d} at (n={params.n}, c={params.c})")
        if k == 16 and params.n != 130:
            failures.append(f"k=16: n={params.n} != 130")
    _finish("C05", "optimal chordal ring rows", failures, started, 10.0)


def test_c06_chordal_ring_bound_sharpness():
    started = time.perf_counter()
    failures = []
    for k in range(3, 9):
        cap = crm_upper(k)
        # every ring crm accepts: n even >= 6, c odd in 3..n-3
        for n in range(6, cap + 5, 2):
            for c in range(3, n - 2, 2):
                g = crm(n, c)
                try:
                    validate_and_profile(g)
                except MalformedGraphError as exc:
                    failures.append(f"({n},{c}) is malformed: {exc}")
                    continue
                if diameter(g) <= k and n > cap:
                    failures.append(f"k={k}: ({n},{c}) beats the bound {cap}")
    _finish("C06", "chordal ring bound sharpness", failures, started, 120.0)


def test_c07_spectrum():
    started = time.perf_counter()
    failures = []
    pm = bdm5_polynomial_matrix()
    for r, want in SPECTRUM_ROWS.items():
        for paired in (r, (pm.group_order - r) % pm.group_order):
            got = char_poly_eigenvalues(evaluate_at_root(pm, paired))
            failures += _multiset_mismatches(got, want, 1e-3, f"row r={paired}")
    dense = _dense_spectrum(bdm(5))
    failures += _multiset_mismatches(
        lift_spectrum(pm), dense, 1e-6, "lift vs dense oracle"
    )
    _finish("C07", "lift spectrum", failures, started, 1.0)


def test_c08_exhaustive_search():
    started = time.perf_counter()
    failures = []
    report3 = exhaustive_max_order(3, 8)
    if report3.best_order != 8:
        failures.append(f"k=3: best order {report3.best_order} != 8")
    if len(report3.witnesses) != 2:
        failures.append(f"k=3: {len(report3.witnesses)} witness classes != 2")
    if not report3.exhaustive:
        failures.append("k=3: search not exhaustive")
    elapsed3 = time.perf_counter() - started
    if elapsed3 > 10.0:
        failures.append(f"k=3 runtime {elapsed3:.2f}s exceeds 10s")
    report4 = exhaustive_max_order(4, 12)
    if report4.best_order != 12:
        failures.append(f"k=4: best order {report4.best_order} != 12")
    if not report4.exhaustive:
        failures.append("k=4: search not exhaustive")
    _finish("C08", "exhaustive maximum orders", failures, started, 600.0)


def test_c09_walk_formulas_and_chain_identities():
    started = time.perf_counter()
    failures = []
    for m in (40, 80):
        steps = doubling_parameter(m)
        g = bdm(m)
        for i in range(m):
            v_start = BdmVertex(0, i, 1).index(m)
            u_start = BdmVertex(1, i, 1).index(m)
            for j in range(2, steps + 1):
                (v_end,) = walk_pattern(g, v_start, edge_first_pattern(j))
                if j % 2 == 0:
                    want = BdmVertex(0, path_endpoint_formula("phi", j, i, m), 0)
                else:
                    want = BdmVertex(
                        1, 2 * path_endpoint_formula("phi", j - 1, i, m) % m, 0
                    )
                if v_end != want.index(m):
                    failures.append(f"m={m} i={i} j={j}: edge-first endpoint off")
                (u_end,) = walk_pattern(g, u_start, edge_first_pattern(j))
                if j % 2 == 1:
                    want = BdmVertex(0, path_endpoint_formula("psi", j, i, m), 0)
                else:
                    want = BdmVertex(
                        1, 2 * path_endpoint_formula("psi", j - 1, i, m) % m, 0
                    )
                if u_end != want.index(m):
                    failures.append(f"m={m} i={i} j={j}: edge-first endpoint off (u)")
            if walk_pattern(g, v_start, edge_first_pattern(steps)) != walk_pattern(
                g, v_start, arc_first_pattern(steps - 1)
            ):
                failures.append(f"m={m} i={i}: first chain identity fails")
            if walk_pattern(g, u_start, edge_first_pattern(steps)) != walk_pattern(
                g, u_start, double_arc_pattern(steps - 3)
            ):
                failures.append(f"m={m} i={i}: second chain identity fails")
    _finish("C09", "endpoint formulas and chain identities", failures, started, 10.0)


def test_c10_automorphisms():
    started = time.perf_counter()
    failures = []
    for m in (5, 10, 20, 40):
        g = bdm(m)
        for name in ("reflect", "shift"):
            if not verify_automorphism(g, automorphism_permutation(name, m)):
                failures.append(f"m={m}: {name} is not an automorphism")
        for idx in range(4 * m):
            v = BdmVertex.from_index(idx, m)
            if named_automorphism("reflect", named_automorphism("reflect", v, m), m) != v:
                failures.append(f"m={m}: reflect^2 != id at {v}")
                break
        order = _shift_order(m)
        if order != 5:
            failures.append(f"m={m}: shift order {order} != 5")
    _finish("C10", "named automorphisms", failures, started, 5.0)


def test_c11_chordal_double_ring():
    started = time.perf_counter()
    failures = []
    c, convention, d = cdrm_scan(10)
    if d != 6:
        failures.append(f"scan diameter {d} != 6")
    g = cdrm(10, c, convention)
    if g.n != 20:
        failures.append(f"witness order {g.n} != 20")
    if diameter(g) != 6:
        failures.append("witness does not re-measure to diameter 6")
    _finish("C11", "chordal double ring scan", failures, started, 5.0)


def test_c12_property_suites():
    started = time.perf_counter()
    failures = []
    for m in (5, 10, 20):
        contracted = contract_edges(bdm(m))
        expected = bd_digraph(m)
        if contracted.arcs() != expected.arcs() or not are_isomorphic(
            contracted, expected
        ):
            failures.append(f"m={m}: contraction is not the doubling digraph")
    family = [bdm(5), bdm(10), bdm_star(10), crm(18, 5), cdrm(10, 7, "reflect")]
    for g in family:
        try:
            validate_and_profile(g)
        except MalformedGraphError as exc:
            failures.append(f"family graph failed validation: {exc}")
    for g in family:
        fwd, back = eccentricity_report(g), eccentricity_report(converse(g))
        if fwd.diameter != back.diameter:
            failures.append("diameter changed under converse")
        if fwd.out_radius != back.in_radius or fwd.in_radius != back.out_radius:
            failures.append("radii did not swap under converse")
    for g in (bdm(5), crm(18, 5)):
        colours = bipartition(g)
        dm = distance_matrix(g)
        if colours is None:
            failures.append("family graph not bipartite")
            continue
        for u in range(g.n):
            for v in range(g.n):
                d = dm.dist(u, v)
                if d != UNREACHABLE and d % 2 != (colours[u] != colours[v]):
                    failures.append(f"distance parity broken at ({u},{v})")
    _finish("C12", "cross-module property suites", failures, started, 30.0)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _multiset_mismatches(got, want, tol, label):
    pool = list(want)
    mismatches = []
    for value in got:
        best = min(pool, key=lambda w: abs(w - value))
        if abs(best - value) > tol:
            mismatches.append(f"{label}: {value} is {abs(best - value):.2e} from {best}")
        pool.remove(best)
    return mismatches


def _dense_spectrum(g):
    a = np.zeros((g.n, g.n))
    for v in range(g.n):
        partner = g.edge_partner[v]
        if partner is not None:
            a[v][partner] = 1.0
        for w in g.out_arcs[v]:
            a[v][w] = 1.0
    return list(np.linalg.eigvals(a))


def _shift_order(m):
    perm = automorphism_permutation("shift", m)
    identity = tuple(range(4 * m))
    current = identity
    for power in range(1, 7):
        current = tuple(perm[v] for v in current)
        if current == identity:
            return power
    return None
