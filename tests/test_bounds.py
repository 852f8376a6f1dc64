from __future__ import annotations

import mpmath
import pytest

from mixedgraphs import (
    bounds_report,
    crm_upper,
    eta,
    improved_bound,
    moore_bipartite,
)
from mixedgraphs.errors import UnsupportedParameterError

# Frozen from the defining recurrence M(k) = M(k-1) + M(k-2) + 2, M(1) = 2,
# M(2) = 4; cross-checked below against the closed form at high precision.
MOORE_UNIT = {
    1: 2, 2: 4, 3: 8, 4: 14, 5: 24, 6: 40, 7: 66, 8: 108, 9: 176, 10: 286,
    11: 464, 12: 752, 13: 1218, 14: 1972, 15: 3192, 16: 5166,
}

IMPROVED = {
    3: 8, 4: 12, 5: 22, 6: 36, 7: 60, 8: 96, 9: 158, 10: 256, 11: 416,
    12: 674, 13: 1092, 14: 1766, 15: 2860, 16: 4628,
}

CRM_UPPER = {
    3: 8, 4: 12, 5: 18, 6: 24, 7: 32, 8: 40, 9: 50, 10: 60, 11: 72, 12: 84,
    13: 98, 14: 112, 15: 128, 16: 144, 17: 162, 18: 180, 19: 200, 20: 220,
    21: 242, 22: 264,
}


def closed_form_moore(r: int, z: int, k: int) -> int:
    """High-precision evaluation of the closed form, as an oracle."""
    with mpmath.workdps(60):
        d = r + z
        sqrt_v = mpmath.sqrt((d - 1) ** 2 + 4 * z)
        u1, u2 = (d - 1 - sqrt_v) / 2, (d - 1 + sqrt_v) / 2
        a = (sqrt_v - (d + 1)) / (2 * sqrt_v)
        b = (sqrt_v + (d + 1)) / (2 * sqrt_v)
        value = 2 * (
            a * (u1 ** (k + 1) - u1) / (u1**2 - 1)
            + b * (u2 ** (k + 1) - u2) / (u2**2 - 1)
        )
        rounded = int(mpmath.nint(value))
        assert abs(value - rounded) < mpmath.mpf("1e-30")
        return rounded


def closed_form_eta(t: int) -> int:
    with mpmath.workdps(60):
        sqrt5 = mpmath.sqrt(5)
        value = ((1 + sqrt5) ** (t - 1) - (1 - sqrt5) ** (t - 1)) / (
            2 ** (t - 1) * sqrt5
        )
        rounded = int(mpmath.nint(value))
        assert abs(value - rounded) < mpmath.mpf("1e-30")
        return rounded


def test_moore_unit_degree_values():
    for k, expected in MOORE_UNIT.items():
        assert moore_bipartite(1, 1, k) == expected


def test_moore_recurrence_matches_closed_form():
    for r in range(1, 5):
        for z in range(1, 5):
            for k in range(1, 17):
                assert moore_bipartite(r, z, k) == closed_form_moore(r, z, k)


@pytest.mark.parametrize("r,z,k", [(3, 3, 20), (2, 3, 24), (1, 2, 34)])
def test_moore_exact_where_floats_round_wrong(r, z, k):
    # the values pass 2**53; a double-precision closed form is off by 1 to 3
    exact = closed_form_moore(r, z, k)
    assert moore_bipartite(r, z, k) == exact


def test_moore_rejects_bad_parameters():
    for bad in ((0, 1, 3), (1, 0, 3), (1, 1, 0)):
        with pytest.raises(UnsupportedParameterError):
            moore_bipartite(*bad)


def test_eta_small_values():
    assert [eta(t) for t in range(1, 7)] == [1, 1, 1, 2, 3, 5]


def test_eta_matches_closed_form():
    for t in range(2, 41):
        assert eta(t) == closed_form_eta(t)


def test_eta_fibonacci_recurrence():
    for t in range(3, 41):
        assert eta(t + 1) == eta(t) + eta(t - 1)


def test_eta_rejects_nonpositive():
    with pytest.raises(UnsupportedParameterError):
        eta(0)


def test_improved_bound_values():
    for k, expected in IMPROVED.items():
        assert improved_bound(k) == expected


def reference_improved_bound(k: int) -> int:
    """Reference: the per-level sum that recomputed eta(t) for every t,
    the formula the one-pass Fibonacci running sum replaced."""
    moore = moore_bipartite(1, 1, k)
    if k == 3:
        return moore
    if k % 2 == 0:
        half = k // 2
        defect = -(-half // 3)
        if half >= 3:
            defect += sum(
                eta(2 * t - 1) * -(-(half - t + 1) // 3) for t in range(2, half)
            )
    else:
        half = (k - 1) // 2
        defect = sum(eta(2 * t) * -(-(half - t + 1) // 3) for t in range(1, half))
    return moore - 2 * defect


def test_improved_bound_matches_the_per_level_reference():
    for k in range(3, 301):
        assert improved_bound(k) == reference_improved_bound(k)


def test_moore_lower_bounds_hold():
    # M(k) >= 2 Fib(k) >= phi^(k-1) and M(k) >= 2 (r+z-1)^(k-1), the bounds
    # that let the CLI refuse an unprintable value before computing it
    for r in range(1, 6):
        for z in range(1, 6):
            fib, following = 1, 1  # Fib(k), Fib(k+1)
            for k in range(1, 150):
                moore = moore_bipartite(r, z, k)
                assert moore >= 2 * fib and moore >= 2 * (r + z - 1) ** (k - 1)
                fib, following = following, fib + following


def test_improved_bound_below_moore():
    for k in range(3, 41):
        assert improved_bound(k) <= moore_bipartite(1, 1, k)


def test_improved_bound_rejects_small_k():
    with pytest.raises(UnsupportedParameterError):
        improved_bound(2)


def test_crm_upper_values():
    for k, expected in CRM_UPPER.items():
        assert crm_upper(k) == expected
    assert crm_upper(3) == moore_bipartite(1, 1, 3)


def test_bounds_report_consistency():
    for k in range(3, 23):
        report = bounds_report(k)
        assert report.improved <= report.moore
        assert report.crm_upper <= report.moore
