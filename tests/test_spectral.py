from __future__ import annotations

import cmath

import numpy as np
import pytest

from mixedgraphs import (
    LiftTemplate,
    bdm,
    bdm5_polynomial_matrix,
    char_poly_eigenvalues,
    evaluate_at_root,
    four_vertex_template,
    lift_spectrum,
    polynomial_matrix,
)
from mixedgraphs.errors import MalformedBaseError, UnsupportedParameterError

# Printed reference values for the root evaluations (4 decimals).
REFERENCE_ROWS = {
    0: [0.0, 0.0, -2.0, 2.0],
    1: [
        -0.8266 - 0.7015j, -0.8266 + 0.7015j, 0.8266 - 0.7015j, 0.8266 + 0.7015j,
    ],
    2: [
        -1.2671 - 0.5445j, -1.2671 + 0.5445j, 1.2671 - 0.5445j, 1.2671 + 0.5445j,
    ],
}


def match_multisets(got, want, tol):
    """Greedy nearest matching; returns the worst pairing distance."""
    pool = list(want)
    worst = 0.0
    for value in got:
        best = min(pool, key=lambda w: abs(w - value))
        worst = max(worst, abs(best - value))
        assert abs(best - value) <= tol, (value, best)
        pool.remove(best)
    return worst


def dense_associated_spectrum(g):
    a = np.zeros((g.n, g.n))
    for v in range(g.n):
        partner = g.edge_partner[v]
        if partner is not None:
            a[v][partner] = 1.0
        for w in g.out_arcs[v]:
            a[v][w] = 1.0
    return list(np.linalg.eigvals(a))


def test_polynomial_matrix_entries():
    pm = bdm5_polynomial_matrix()
    assert pm.size == 4 and pm.group_order == 5
    assert pm.entry(0, 3) == {2: 1}
    assert pm.entry(3, 0) == {1: 1}
    assert pm.entry(1, 1) == {}
    assert pm.entry(0, 1) == {0: 1}
    rows = [
        [{}, {0: 1}, {}, {2: 1}],
        [{0: 1}, {}, {0: 1}, {}],
        [{}, {2: 1}, {}, {0: 1}],
        [{1: 1}, {}, {0: 1}, {}],
    ]
    for i in range(4):
        for j in range(4):
            assert pm.entry(i, j) == rows[i][j]


def test_evaluate_at_unit_root():
    m = evaluate_at_root(bdm5_polynomial_matrix(), 0)
    for row in m:
        assert sum(row) == pytest.approx(2.0)
    assert m[0][3] == pytest.approx(1.0)
    assert m[1][1] == 0


def test_evaluate_at_primitive_root():
    m = evaluate_at_root(bdm5_polynomial_matrix(), 1)
    zeta_sq = cmath.exp(4j * cmath.pi / 5)
    assert m[0][3] == pytest.approx(zeta_sq)
    assert m[0][3].real == pytest.approx(cmath.cos(4 * cmath.pi / 5))


def test_evaluate_rejects_out_of_range_root():
    with pytest.raises(UnsupportedParameterError):
        evaluate_at_root(bdm5_polynomial_matrix(), 5)


def test_eigenvalues_at_unit_root():
    values = char_poly_eigenvalues(evaluate_at_root(bdm5_polynomial_matrix(), 0))
    match_multisets(values, [-2, 0, 0, 2], 1e-9)


def test_eigenvalues_of_identity():
    values = char_poly_eigenvalues([[1.0 if i == j else 0.0 for j in range(4)] for i in range(4)])
    assert all(abs(v - 1) < 1e-9 for v in values)


def test_eigenvalues_match_reference_rows():
    pm = bdm5_polynomial_matrix()
    for r, want in REFERENCE_ROWS.items():
        got = char_poly_eigenvalues(evaluate_at_root(pm, r))
        match_multisets(got, want, 1e-3)


def test_conjugate_roots_share_spectra():
    pm = bdm5_polynomial_matrix()
    for r in (1, 2):
        a = char_poly_eigenvalues(evaluate_at_root(pm, r))
        b = char_poly_eigenvalues(evaluate_at_root(pm, pm.group_order - r))
        match_multisets(a, b, 1e-9)


def test_eigenvalue_residuals():
    pm = bdm5_polynomial_matrix()
    for r in range(5):
        m = evaluate_at_root(pm, r)
        arr = np.array(m)
        for value in char_poly_eigenvalues(m):
            residual = abs(np.linalg.det(arr - value * np.eye(4)))
            assert residual < 1e-9


def test_lift_spectrum_multiplicities():
    values = lift_spectrum(bdm5_polynomial_matrix())
    assert len(values) == 20
    assert sum(1 for v in values if abs(v - 2) < 1e-8) == 1
    assert sum(1 for v in values if abs(v + 2) < 1e-8) == 1
    assert sum(1 for v in values if abs(v) < 1e-8) == 2


def test_lift_spectrum_matches_dense_oracle():
    ours = lift_spectrum(bdm5_polynomial_matrix())
    dense = dense_associated_spectrum(bdm(5))
    match_multisets(ours, dense, 1e-6)


def test_spectrum_symmetric_under_negation():
    values = lift_spectrum(bdm5_polynomial_matrix())
    match_multisets(values, [-v for v in values], 1e-6)


def test_degenerate_single_copy_spectrum():
    # all voltages zero over the trivial group: spectrum of the base itself
    template = LiftTemplate(2, (), ((0, 1), (1, 0)))
    values = lift_spectrum(polynomial_matrix(template, 1, (0, 0)))
    match_multisets(values, [-1, 1], 1e-9)


@pytest.mark.parametrize(
    "q, voltages",
    [(0, (0, 0, 0, 0, 0, 0)), (5, (0, 0, 2, 1, 0, 5)), (5, (0, 0, 2, 1, 0, -1)),
     (5, (0, 0, 2, 1, 0)), (5, (0, 0, 2, 1, 0, 2, 0))],
    ids=["q0", "voltage-q", "voltage-negative", "too-few", "too-many"],
)
def test_polynomial_matrix_rejects_malformed_voltages(q, voltages):
    with pytest.raises(MalformedBaseError):
        polynomial_matrix(four_vertex_template(), q, voltages)
