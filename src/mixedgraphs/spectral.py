"""Voltage polynomial matrices and the spectra of their lifts.

The polynomial matrix of a voltage graph (template, q, voltages), the
triple ``families.lift`` takes, collects for every ordered vertex pair the
sum of z^voltage over connecting darts (edge darts count in both
directions, with the reverse voltage negated).  It is read off the
template's steps, ``LiftTemplate.steps``, which the cover and
``metrics.lift_diameter`` walk as well.  Evaluating it at the
q-th roots of unity and pooling the eigenvalues gives the spectrum of the
lifted graph's associated digraph.

Eigenvalues are extracted from the characteristic polynomial (coefficients
via the Faddeev-LeVerrier trace recursion) with a fixed-seed simultaneous
root iteration; determinism matters more than speed at these sizes.
"""

from __future__ import annotations

import cmath
from typing import Sequence

from .core import Record, _set
from .errors import NoConvergenceError, check_int, require
from .families import LiftTemplate, bdm5_base

_MAX_ITERATIONS = 500
_STEP_TOLERANCE = 1e-14
_RESIDUAL_TOLERANCE = 1e-9
_CLUSTER_RADIUS = 1e-2

ComplexMatrix = list[list[complex]]


class PolynomialMatrix(Record):
    """Square matrix whose entries are integer polynomials in z modulo z^q.

    ``entries[i][j]`` maps exponent -> coefficient, with exponents reduced
    into 0..q-1.
    """

    __slots__ = ("size", "group_order", "entries")

    def __init__(
        self, size: int, group_order: int,
        entries: tuple[tuple[tuple[tuple[int, int], ...], ...], ...],
    ) -> None:
        _set(self, "size", size)
        _set(self, "group_order", group_order)
        _set(self, "entries", entries)

    def entry(self, i: int, j: int) -> dict[int, int]:
        return dict(self.entries[i][j])


def polynomial_matrix(
    template: LiftTemplate, q: int, voltages: Sequence[int]
) -> PolynomialMatrix:
    """The voltage polynomial matrix of the voltage graph (template, q,
    voltages).  Raises MalformedBaseError unless
    ``template.check_voltages`` accepts (q, voltages)."""
    template.check_voltages(q, voltages)
    cells: list[list[dict[int, int]]] = [
        [dict() for _ in range(template.n)] for _ in range(template.n)
    ]

    def add(i: int, j: int, power: int) -> None:
        power %= q
        cells[i][j][power] = cells[i][j].get(power, 0) + 1

    for tail, steps in enumerate(template.steps_from):
        for head, d, sign in map(template.steps.__getitem__, steps):
            add(tail, head, sign * voltages[d])
    return PolynomialMatrix(
        size=template.n,
        group_order=q,
        entries=tuple(
            tuple(tuple(sorted(cell.items())) for cell in row) for row in cells
        ),
    )


def bdm5_polynomial_matrix() -> PolynomialMatrix:
    """Polynomial matrix of the four-vertex base over Z_5 (rows
    [0,1,0,z^2], [1,0,1,0], [0,z^2,0,1], [z,0,1,0])."""
    return polynomial_matrix(*bdm5_base())


def evaluate_at_root(pm: PolynomialMatrix, r: int) -> ComplexMatrix:
    """Evaluate the polynomial matrix entrywise at z = exp(2*pi*i*r/q).
    Raises UnsupportedParameterError unless r is an int in 0..q-1."""
    check_int(r, "root index", 0, pm.group_order - 1)
    z = cmath.exp(2j * cmath.pi * r / pm.group_order)
    return [
        [sum(coeff * z**power for power, coeff in cell) for cell in row]
        for row in pm.entries
    ]


def char_poly_eigenvalues(matrix: ComplexMatrix) -> list[complex]:
    """All eigenvalues of a small complex matrix, sorted by (real, imag).

    Coefficients of the characteristic polynomial come from the
    Faddeev-LeVerrier trace recursion; the roots from a simultaneous
    (Durand-Kerner) iteration started at fixed points, so results are
    deterministic.  Each returned value has characteristic-polynomial
    residual below 1e-9, else NoConvergenceError is raised.
    """
    size = len(matrix)
    require(all(len(row) == size for row in matrix), "matrix must be square")
    if size == 0:
        return []
    coeffs = _char_poly(matrix)
    roots = _durand_kerner(coeffs)
    for root in roots:
        if abs(_horner(coeffs, root)) > _RESIDUAL_TOLERANCE:
            raise NoConvergenceError(
                f"root {root} has residual above {_RESIDUAL_TOLERANCE}"
            )
    return sorted(_refine_clusters(roots, coeffs), key=_sort_key)


def lift_spectrum(pm: PolynomialMatrix) -> list[complex]:
    """Spectrum of the lift: eigenvalues pooled over all root evaluations.

    Returns size * group_order values sorted by (real, imag).
    """
    values: list[complex] = []
    for r in range(pm.group_order):
        values.extend(char_poly_eigenvalues(evaluate_at_root(pm, r)))
    return sorted(values, key=_sort_key)


def _refine_clusters(roots: list[complex], coeffs: list[complex]) -> list[complex]:
    """Average root clusters that approximate one multiple root.

    Simultaneous iteration resolves an m-fold root only to about eps^(1/m),
    leaving a small symmetric cluster around it whose mean is eps-accurate.
    A cluster is collapsed onto its mean only when that strictly improves the
    residual, so nearby distinct roots are never merged.
    """
    remaining = sorted(roots, key=_sort_key)
    refined: list[complex] = []
    while remaining:
        seed = remaining.pop(0)
        cluster = [seed]
        grown = True
        while grown:
            grown = False
            for other in list(remaining):
                if any(abs(other - member) <= _CLUSTER_RADIUS for member in cluster):
                    cluster.append(other)
                    remaining.remove(other)
                    grown = True
        if len(cluster) == 1:
            refined.append(seed)
            continue
        mean = sum(cluster) / len(cluster)
        polished = _polish_multiple_root(mean, len(cluster), coeffs)
        worst = max(abs(_horner(coeffs, member)) for member in cluster)
        if abs(_horner(coeffs, polished)) <= worst:
            refined.extend([polished] * len(cluster))
        else:
            refined.extend(cluster)
    return refined


def _polish_multiple_root(start: complex, multiplicity: int, coeffs: list[complex]) -> complex:
    """Newton iteration on the (m-1)-st derivative, which has a simple root
    where the polynomial has an m-fold one."""
    deriv = coeffs
    for _ in range(multiplicity - 1):
        deriv = _derivative(deriv)
    deriv2 = _derivative(deriv)
    x = start
    for _ in range(60):
        slope = _horner(deriv2, x)
        if slope == 0:
            break
        step = _horner(deriv, x) / slope
        x -= step
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
    return x


def _derivative(coeffs: list[complex]) -> list[complex]:
    degree = len(coeffs) - 1
    return [c * (degree - i) for i, c in enumerate(coeffs[:-1])]


def _sort_key(value: complex) -> tuple[float, float, float, float]:
    # Round first so that last-ulp noise cannot flip the order of conjugate
    # pairs; the raw parts break remaining ties deterministically.
    return (round(value.real, 9), round(value.imag, 9), value.real, value.imag)


def _char_poly(matrix: ComplexMatrix) -> list[complex]:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn]."""
    size = len(matrix)
    coeffs: list[complex] = [1.0 + 0j]
    aux = [row[:] for row in matrix]
    for j in range(1, size + 1):
        if j > 1:
            shifted = [row[:] for row in aux]
            for d in range(size):
                shifted[d][d] += coeffs[j - 1]
            aux = _mat_mul(matrix, shifted)
        c = -_trace(aux) / j
        coeffs.append(c)
    return coeffs


def _durand_kerner(coeffs: list[complex]) -> list[complex]:
    degree = len(coeffs) - 1
    if degree == 0:
        return []
    seed = 0.4 + 0.9j  # classic fixed starting point, not a root of unity
    roots = [seed**k for k in range(1, degree + 1)]
    scale = max(abs(c) for c in coeffs)
    for _ in range(_MAX_ITERATIONS):
        moved = 0.0
        for i in range(degree):
            denom = 1.0 + 0j
            for j in range(degree):
                if i != j:
                    denom *= roots[i] - roots[j]
            if denom == 0:
                roots[i] += 1e-9 + 1e-9j  # split coincident iterates
                moved = max(moved, 1e-9)
                continue
            step = _horner(coeffs, roots[i]) / denom
            roots[i] -= step
            moved = max(moved, abs(step))
        if moved < _STEP_TOLERANCE * max(1.0, scale):
            break
    return roots


def _horner(coeffs: list[complex], x: complex) -> complex:
    value = 0j
    for c in coeffs:
        value = value * x + c
    return value


def _mat_mul(a: ComplexMatrix, b: ComplexMatrix) -> ComplexMatrix:
    size = len(a)
    return [
        [sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size)]
        for i in range(size)
    ]


def _trace(a: ComplexMatrix) -> complex:
    return sum(a[i][i] for i in range(len(a)))
