"""Order bounds for bipartite mixed graphs with unit degrees.

Three bounds are provided: the bipartite Moore bound, a tighter bound that
subtracts forced vertex repetitions counted along chains in the Moore tree,
and the chordal-ring-specific cap.  The Moore values and the chain counts are
computed by exact integer recurrences, so every accepted argument gets an
exact answer.
"""

from __future__ import annotations

from .core import Record, _set
from .errors import check_int


class BoundsReport(Record):
    """All order bounds for unit degrees at one diameter."""

    __slots__ = ("k", "moore", "improved", "crm_upper")

    def __init__(self, k: int, moore: int, improved: int, crm_upper: int) -> None:
        _set(self, "k", k)
        _set(self, "moore", moore)
        _set(self, "improved", improved)
        _set(self, "crm_upper", crm_upper)


def moore_bipartite(r: int, z: int, k: int) -> int:
    """Largest order compatible with the bipartite distance-layer count.

    With d = r + z the layer counts of the Moore tree give the exact integer
    recurrence M(k) = d*M(k-1) - (d-1-z)*M(k-2) - z*M(k-3), whose
    characteristic polynomial is (x^2 - (d-1)x - z)(x - 1), from M(0) = 0,
    M(1) = 2 and M(2) = 2d.  For r = z = 1 it reduces to
    M(k) = M(k-1) + M(k-2) + 2.
    """
    d = check_int(r, "undirected degree", 1) + check_int(z, "directed degree", 1)
    check_int(k, "diameter", 1)
    older, old, cur = 0, 2, 2 * d  # M(0), M(1), M(2)
    if k == 1:
        return old
    for _ in range(k - 2):
        older, old, cur = old, cur, d * cur - (d - 1 - z) * old - z * older
    return cur


def eta(t: int) -> int:
    """Number of maximal chains starting at level t of the Moore tree.

    The sequence runs 1, 1, 1, 2, 3, 5, ... and satisfies the Fibonacci
    recurrence from the fourth term on.  Computed by integer recurrence; the
    square-root closed form is kept out of the code path on purpose.
    """
    check_int(t, "chain level", 1)
    if t <= 3:
        return 1
    prev, cur = 1, 1  # eta(2), eta(3)
    for _ in range(t - 3):
        prev, cur = cur, prev + cur
    return cur


def improved_bound(k: int) -> int:
    """Upper bound on the order of a totally regular bipartite unit-degree
    mixed graph of diameter k, tightening the Moore bound by the forced
    repetitions of each odd- or even-level chain (ceil(t/3) per t-chain).

    Defined for k >= 3; at k = 3 the Moore bound itself is already tight.
    """
    check_int(k, "improved bound's diameter", 3)
    # odd k: the chains at even levels s = 2t, t = 1..half-1; even k: a
    # chain of half levels plus those at odd levels s = 2t-1, t = 2..half-1
    half = k // 2
    defect = _ceil_div(half, 3) if k % 2 == 0 else 0
    chains, following = 1, 1  # eta(s), eta(s+1), from s = 2
    for s in range(2, 2 * half - 1):
        if s % 2 != k % 2:
            defect += chains * _ceil_div(half - (s + 1) // 2 + 1, 3)
        chains, following = following, chains + following
    return moore_bipartite(1, 1, k) - 2 * defect


def crm_upper(k: int) -> int:
    """Largest order a chordal ring mixed graph of diameter k can reach."""
    check_int(k, "diameter", 1)
    if k % 2 == 1:
        return (k + 1) ** 2 // 2
    return k * (k + 2) // 2


def bounds_report(k: int) -> BoundsReport:
    """All three bounds at diameter k (k >= 3)."""
    return BoundsReport(
        k=k,
        moore=moore_bipartite(1, 1, k),
        improved=improved_bound(k),
        crm_upper=crm_upper(k),
    )


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)
