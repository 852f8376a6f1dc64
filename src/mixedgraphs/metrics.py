"""Distances, eccentricities, diameter, and radii of mixed graphs.

Shortest paths are taken in the associated digraph: edges are traversable in
both directions, arcs only forward.  One source's row is the depths of its
breadth-first tree (``core.breadth_first_forest``).  Everything else reads
the rounds of the distance kernel, ``core.ball_rounds``, which grows every
vertex's ball as a bitset, one distance per round: a vertex's eccentricity
is the first round in which its ball is full, and a distance is the round
in which its bit first appears.  A vertex's in-eccentricity is the first
round in which it lies in every ball, so one run on the successor lists
gives both, and ``lift_diameter`` runs the kernel on one vertex per fibre
of a voltage graph's cover.  Unreachable pairs are marked with
``UNREACHABLE`` in distance rows; aggregate quantities over unreachable
pairs become ``INFINITE`` so callers can filter candidates cheaply
instead of handling errors.  A search asks only whether a diameter is at
most k: with ``limit=k`` the kernel stops after round k, and a diameter
past it is INFINITE as well.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from .core import MixedGraph, Record, _set, ball_rounds, breadth_first_forest
from .errors import MalformedBaseError, check_int, require

if TYPE_CHECKING:  # families imports this module
    from .families import LiftTemplate

UNREACHABLE = -1
INFINITE = math.inf

Eccentricity = Union[int, float]


class DistanceMatrix(Record):
    """All-pairs shortest path lengths; UNREACHABLE marks absent paths.

    ``eccentricities[v]`` is the largest entry of row v, or INFINITE if the
    row has an UNREACHABLE entry."""

    __slots__ = ("rows", "eccentricities")

    def __init__(
        self, rows: tuple[tuple[int, ...], ...], eccentricities: tuple[Eccentricity, ...]
    ) -> None:
        _set(self, "rows", rows)
        _set(self, "eccentricities", eccentricities)

    @property
    def n(self) -> int:
        return len(self.rows)

    def dist(self, u: int, v: int) -> int:
        return self.rows[u][v]

    def diameter(self) -> Eccentricity:
        """Largest finite distance, or INFINITE if some pair is unreachable."""
        return max(self.eccentricities, default=0)


class EccentricityReport(Record):
    """Out/in eccentricities with the derived diameter, radii, and centres."""

    __slots__ = (
        "ecc_out", "ecc_in", "diameter", "out_radius", "in_radius", "out_central", "in_central"
    )

    def __init__(
        self, ecc_out: tuple[Eccentricity, ...], ecc_in: tuple[Eccentricity, ...],
        diameter: Eccentricity, out_radius: Eccentricity, in_radius: Eccentricity,
        out_central: tuple[int, ...], in_central: tuple[int, ...],
    ) -> None:
        _set(self, "ecc_out", ecc_out)
        _set(self, "ecc_in", ecc_in)
        _set(self, "diameter", diameter)
        _set(self, "out_radius", out_radius)
        _set(self, "in_radius", in_radius)
        _set(self, "out_central", out_central)
        _set(self, "in_central", in_central)


def distances_from(g: MixedGraph, src: int) -> list[int]:
    """Shortest mixed-path lengths from src to every vertex: the depths of
    the breadth-first tree from src, UNREACHABLE (-1) where it has none."""
    check_int(src, "source", 0, g.n - 1)
    return breadth_first_forest(g.successors(), [src])[2]


def distance_matrix(g: MixedGraph) -> DistanceMatrix:
    """All-pairs distances, read off the rounds of the ball kernel."""
    n = g.n
    full = (1 << n) - 1
    rows = [[UNREACHABLE] * n for _ in range(n)]
    seen = [0] * n
    ecc: list[Eccentricity] = [INFINITE] * n
    for d, (balls, grown) in enumerate(ball_rounds(g.successors())):
        for v in grown:
            ball = balls[v]
            row, bits = rows[v], format(ball & ~seen[v], "b")[::-1]
            u = bits.find("1")
            while u >= 0:
                row[u] = d
                u = bits.find("1", u + 1)
            seen[v] = ball
            if ball == full:
                ecc[v] = d
    return DistanceMatrix(
        rows=tuple(tuple(row) for row in rows), eccentricities=tuple(ecc)
    )


def diameter(g: MixedGraph, limit: Optional[int] = None) -> Eccentricity:
    """Diameter of g; INFINITE when some ordered pair is unreachable, or
    when it exceeds ``limit``, an int >= 0 if given.

    This is the last round of the ball kernel, stopping at the first ball
    that stops growing before it is full, or once round ``limit`` leaves a
    ball unfilled, so asking whether the diameter is <= k costs at most
    k + 1 rounds.  Raises UnsupportedParameterError for a bad limit."""
    return _last_round(ball_rounds(g.successors()), g.n, (1 << g.n) - 1, limit)


def lift_diameter(
    template: "LiftTemplate", q: int, voltages: Sequence[int], limit: Optional[int] = None
) -> Eccentricity:
    """Diameter of the associated digraph of the cover of the voltage graph
    (template, q, voltages), or INFINITE, without building the cover.  Past
    ``limit``, as for ``diameter``, it is INFINITE too.

    The fibres' shifts are automorphisms, so this is the largest
    eccentricity of the n representatives (b, 0), whose balls the kernel
    grows by rotation.  A dart with voltage g steps by g, and an edge dart
    also back by -g.  Voltages are ints taken modulo q; an assignment that
    ``LiftTemplate.cover`` rejects as malformed is measured too.  Raises
    MalformedBaseError unless q is an int >= 1 and there is one int voltage
    per dart, and UnsupportedParameterError for a cover of more than
    sys.maxsize vertices.
    """
    n = template.n
    check_int(q, "group order", 1, error=MalformedBaseError)
    require(n * q <= sys.maxsize, f"a cover of {n * q} vertices exceeds {sys.maxsize}")
    if len(voltages) != template.dart_count:
        raise MalformedBaseError(
            f"{template!r} takes {template.dart_count} voltages, got {len(voltages)}"
        )
    for voltage in voltages:
        check_int(voltage, "voltage", error=MalformedBaseError)
    views = [(head, sign * voltages[i] % q * n) for head, i, sign in template.steps]
    rounds = ball_rounds(template.steps_from, q, views)
    return _last_round(rounds, n, (1 << n * q) - 1, limit)


def _last_round(
    rounds: Iterator[tuple[list[int], list[int]]], count: int, full: int,
    limit: Optional[int] = None,
) -> Eccentricity:
    """The last round of the kernel over ``count`` balls, or INFINITE as
    soon as a ball stops growing before it is ``full``, or is not full
    after round ``limit`` (an int >= 0, or None for no limit)."""
    limit = INFINITE if limit is None else check_int(limit, "diameter limit", 0)
    pending = count  # balls not yet full; each must grow in every round
    d = 0
    for d, (balls, grown) in enumerate(rounds):
        if len(grown) < pending:
            return INFINITE
        pending = count - balls.count(full)
        if pending and d >= limit:
            return INFINITE
    return INFINITE if pending else d


def eccentricity_report(g: MixedGraph) -> EccentricityReport:
    """Exact out/in eccentricities, diameter, radii, and central vertices,
    from one run of the kernel on the successor lists.

    A vertex's out-eccentricity is the first round in which its ball is
    full.  Its in-eccentricity, the largest distance to it, is the first
    round in which it lies in every ball: ``common``, the AND of the balls,
    gains it then.  A ball that stalled before filling stays in the AND,
    so a vertex missing from it keeps INFINITE; full balls change nothing
    and are dropped."""
    n = g.n
    if n == 0:
        return EccentricityReport((), (), 0, 0, 0, (), ())
    full = (1 << n) - 1
    ecc_out: list[Eccentricity] = [INFINITE] * n
    ecc_in: list[Eccentricity] = [INFINITE] * n
    pending = range(n)  # vertices whose ball was not full last round
    common = 0
    for d, (balls, _) in enumerate(ball_rounds(g.successors())):
        now, unfilled = full, []
        for v in pending:
            ball = balls[v]
            if ball == full:
                ecc_out[v] = d
            else:
                now &= ball
                unfilled.append(v)
        pending = unfilled
        bits = format(now & ~common, "b")[::-1]
        v = bits.find("1")
        while v >= 0:
            ecc_in[v] = d
            v = bits.find("1", v + 1)
        common = now
    out_radius = min(ecc_out)
    in_radius = min(ecc_in)
    return EccentricityReport(
        ecc_out=tuple(ecc_out),
        ecc_in=tuple(ecc_in),
        diameter=max(ecc_out),
        out_radius=out_radius,
        in_radius=in_radius,
        out_central=tuple(v for v in range(n) if ecc_out[v] == out_radius),
        in_central=tuple(v for v in range(n) if ecc_in[v] == in_radius),
    )
