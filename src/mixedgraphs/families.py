"""Generators for the concrete graph families and their companion formulas.

The central family is a bipartite mixed graph on 4m vertices built by
splitting each vertex of a doubling-type bipartite digraph into an edge.
Vertices carry coordinates (alpha, i)_beta with alpha, beta binary and
i modulo m; the fixed integer encoding is

    index = 2*m*beta + m*alpha + i

so that exported files are reproducible.  One doubling rule gives the arcs
of this graph, of its totally regular variant and of the arcs-only digraph
they contract to.  Alongside the constructors live the walk-pattern
machinery, the endpoint formulas used to certify diameters, two named
automorphisms, the chordal ring families, and voltage-graph lifts.  A
voltage graph is the triple (template, q, voltages): a ``LiftTemplate``
giving the base shape, the order q of the cyclic group Z_q, and one voltage
per dart, edge darts first (Gross and Tucker, Topological Graph Theory).
"""

from __future__ import annotations

from itertools import accumulate
from typing import Literal, Optional, Sequence

from .core import MixedGraph, Record, _set, breadth_first_forest
from .errors import (
    MalformedBaseError,
    MalformedGraphError,
    NonDivisibleError,
    ParityError,
    UnsupportedParameterError,
    check_int,
    require,
)
from .metrics import lift_diameter as _lift_diameter


class BdmVertex(Record):
    """Coordinate triple (alpha, i)_beta addressing doubled-family vertices."""

    __slots__ = ("alpha", "i", "beta")

    def __init__(self, alpha: int, i: int, beta: int) -> None:
        _set(self, "alpha", alpha)
        _set(self, "i", i)
        _set(self, "beta", beta)

    def index(self, m: int) -> int:
        return 2 * m * self.beta + m * self.alpha + self.i

    @staticmethod
    def from_index(idx: int, m: int) -> "BdmVertex":
        beta, rest = divmod(idx, 2 * m)
        alpha, i = divmod(rest, m)
        return BdmVertex(alpha=alpha, i=i, beta=beta)

    def label(self) -> str:
        return f"({self.alpha},{self.i})_{self.beta}"


def canonical_m(n: int) -> int:
    """The modulus 2^(n-1) + 2^(n-3) = 5 * 2^(n-3); integral only for n >= 3."""
    check_int(n, "doubling parameter", 3)
    return 2 ** (n - 1) + 2 ** (n - 3)


def doubling_parameter(m: int) -> Optional[int]:
    """The n with m = 5 * 2^(n-3), or None if m is not of that form."""
    if check_int(m, "modulus") >= 5 and m % 5 == 0:
        q = m // 5
        if q & (q - 1) == 0:
            return q.bit_length() + 2
    return None


def _doubling_head(alpha: int, i: int, t: int, m: int) -> int:
    """The doubling rule: the index of the head of the arc t in {0, 1} out
    of (alpha, i), which is 2i + t for alpha = 0 and -2i - 1 - t for
    alpha = 1, modulo m.  The head lies on the side 1 - alpha."""
    return (2 * i + t) % m if alpha == 0 else (-2 * i - 1 - t) % m


def _doubled(m: int, swap_from: int) -> MixedGraph:
    """The graph on 4m vertices (alpha, i)_beta with the edges
    (alpha,i)_0 ~ (alpha,i)_1 and one arc out of each vertex, to
    (1-alpha, _doubling_head(alpha, i, t, m))_(1-beta) with t = beta for
    i < swap_from and t = 1 - beta otherwise."""
    edges = [(v, v + 2 * m) for v in range(2 * m)]
    arcs, labels = [], []
    for beta in (0, 1):
        for alpha in (0, 1):
            tail = 2 * m * beta + m * alpha  # (alpha, 0)_beta
            head = 2 * m * (1 - beta) + m * (1 - alpha)  # (1-alpha, 0)_(1-beta)
            for i in range(m):
                t = beta if i < swap_from else 1 - beta
                arcs.append((tail + i, head + _doubling_head(alpha, i, t, m)))
                labels.append(f"({alpha},{i})_{beta}")
    return MixedGraph.build(4 * m, edges=edges, arcs=arcs, labels=labels)


def bdm(m: int) -> MixedGraph:
    """The doubled bipartite mixed graph on 4m vertices.

    Edges join (alpha,i)_0 with (alpha,i)_1; arcs follow the doubling rules
    (0,i)_0 -> (1,2i)_1, (0,i)_1 -> (1,2i+1)_0, (1,i)_0 -> (0,-2i-1)_1 and
    (1,i)_1 -> (0,-2i-2)_0, all modulo m.  Unless 5 divides m an arc and
    the arc back out of its head close a digon (5i = -1, ..., -4 has a
    solution mod m), so m must be a multiple of 5.
    """
    check_int(m, "modulus", 1)
    require(m % 5 == 0, f"modulus must be a multiple of 5, got {m}")
    return _doubled(m, m)


def bdm_canonical(n: int) -> tuple[int, MixedGraph]:
    """The canonical-modulus family member (m, graph) of order 2^(n+1)+2^(n-1).

    Its diameter is exactly 2n; the modulus is integral only for n >= 3.
    """
    m = canonical_m(n)
    return m, bdm(m)


def bdm_star(m: int) -> MixedGraph:
    """The totally regular variant of :func:`bdm` on the same vertex set.

    For i in the lower half of the modulus range the arcs agree with
    :func:`bdm`; for the upper half the target offsets 2i <-> 2i+1 and
    -2i-1 <-> -2i-2 are swapped.  The construction asserts the resulting
    in-neighbour table vertexwise and fails loudly on any mismatch, so a
    successful return is already certified in-degree-1 everywhere.
    """
    n = doubling_parameter(m)
    require(n is not None and n > 3, f"modulus must be 5 * 2^(n-3) with n > 3, got {m}")
    g = _doubled(m, m // 2)
    _assert_star_in_neighbours(g, m)
    return g


def _assert_star_in_neighbours(g: MixedGraph, m: int) -> None:
    # In-neighbour of each vertex class, derived from the arc rules; checking
    # it vertexwise certifies total (1,1)-regularity of the construction.
    for i in range(m):
        odd = i % 2 == 1
        expected = [
            (BdmVertex(0, i, 0), BdmVertex(1, ((-i - 1) // 2 if odd else (-i - 2 - m) // 2) % m, 1)),
            (BdmVertex(0, i, 1), BdmVertex(1, ((-i - 1 - m) // 2 if odd else (-i - 2) // 2) % m, 0)),
            (BdmVertex(1, i, 0), BdmVertex(0, ((i - 1) // 2 if odd else (i + m) // 2) % m, 1)),
            (BdmVertex(1, i, 1), BdmVertex(0, ((i - 1 + m) // 2 if odd else i // 2) % m, 0)),
        ]
        for target, source in expected:
            if target.index(m) not in g.out_arcs[source.index(m)]:
                raise MalformedGraphError(
                    f"in-neighbour check failed: expected arc "
                    f"{source.label()} -> {target.label()}"
                )


def bd_digraph(m: int) -> MixedGraph:
    """The arcs-only doubling digraph on 2m vertices (alpha, i).

    Adjacencies: (0,i) -> (1,2i), (1,2i+1) and (1,i) -> (0,-2i-1), (0,-2i-2),
    modulo m.  Contracting the edges of :func:`bdm` yields exactly this graph
    under the shared index encoding.  Every m >= 2 is accepted: a digraph
    may hold 2-cycles, which it does unless 5 divides m, so for such m
    ``validate_and_profile`` (whose mixed graphs have no digons) rejects it.
    """
    check_int(m, "modulus", 2)
    labels = [f"({alpha},{i})" for alpha in (0, 1) for i in range(m)]
    arcs = [
        (alpha * m + i, (1 - alpha) * m + _doubling_head(alpha, i, t, m))
        for alpha in (0, 1)
        for i in range(m)
        for t in (0, 1)
    ]
    return MixedGraph.build(2 * m, edges=(), arcs=arcs, labels=labels)


# ---------------------------------------------------------------------------
# Walk patterns and endpoint formulas
# ---------------------------------------------------------------------------

def walk_pattern(g: MixedGraph, start: int, pattern: str) -> frozenset[int]:
    """Vertices reachable from start by walks whose step kinds follow pattern.

    Each character must be 'E' (traverse the vertex's edge) or 'A' (follow an
    out-arc).  The empty pattern yields {start}; a walk that cannot continue
    contributes nothing.
    """
    check_int(start, "start", 0, g.n - 1)
    current = {start}
    for step in pattern:
        if step == "E":
            current = {g.edge_partner[v] for v in current if g.edge_partner[v] is not None}
        elif step == "A":
            current = {w for v in current for w in g.out_arcs[v]}
        else:
            raise UnsupportedParameterError(f"pattern step must be E or A, got {step!r}")
    return frozenset(current)


def edge_first_pattern(steps: int) -> str:
    """Alternating walk E(AE)^steps, the longest worst-case route."""
    return "E" + "AE" * check_int(steps, "steps", 0)


def arc_first_pattern(steps: int) -> str:
    """Walk starting with an arc that shortcuts :func:`edge_first_pattern`.

    Alternates A(EA)... for up to five steps and then repeats AE; its
    endpoint from a (0,i)_1 start coincides modulo the canonical modulus with
    the edge-first walk one index higher.
    """
    check_int(steps, "steps", 0)
    return "A" + "EA" * min(steps, 2) + "AE" * max(steps - 2, 0)


def double_arc_pattern(steps: int) -> str:
    """Walk opening with two arcs; from a (1,i)_1 start its endpoint matches
    the edge-first walk three indices higher modulo the canonical modulus."""
    check_int(steps, "steps", 0)
    return "A" if steps == 0 else "AA" + "EA" * (steps - 1) + "E"


def path_endpoint_formula(
    kind: Literal["phi", "psi"], n: int, i: int, m: int
) -> int:
    """Closed-form index of the edge-first walk endpoint, reduced modulo m.

    phi (even n >= 2):  (-1)^(n/2)     * (2^n i + (2^n     - (-1)^(n/2))/5)
    psi (odd n >= 1):   (-1)^((n+1)/2) * (2^n i + (2^(n+1) - (-1)^((n+1)/2))/5)

    Both are evaluated in exact integer arithmetic; the division by 5 is
    always exact for the stated parities and a failure signals a
    transcription bug, not bad input.
    """
    check_int(i, "index")
    check_int(m, "modulus", 1)
    check_int(n, "walk length", error=ParityError)
    if kind == "phi":
        require(n >= 2 and n % 2 == 0, f"phi needs even n >= 2, got {n}", ParityError)
        sign = -1 if (n // 2) % 2 else 1
        numerator = 2**n - sign
    elif kind == "psi":
        require(n >= 1 and n % 2 == 1, f"psi needs odd n >= 1, got {n}", ParityError)
        sign = -1 if ((n + 1) // 2) % 2 else 1
        numerator = 2 ** (n + 1) - sign
    else:
        raise UnsupportedParameterError(f"kind must be 'phi' or 'psi', got {kind!r}")
    if numerator % 5 != 0:
        raise NonDivisibleError(f"{kind}({n}): {numerator} is not divisible by 5")
    return sign * (2**n * i + numerator // 5) % m


# ---------------------------------------------------------------------------
# Named automorphisms
# ---------------------------------------------------------------------------

AutomorphismName = Literal["reflect", "shift"]


def named_automorphism(which: AutomorphismName, v: BdmVertex, m: int) -> BdmVertex:
    """Apply one of the two named automorphisms of :func:`bdm`.

    ``reflect`` sends (alpha,i)_beta to (alpha,-i-1)_(1-beta): an involution
    that swaps the two independent sets.  ``shift`` adds 2^(n-3) to i when
    alpha = 0 and 2^(n-2) when alpha = 1, keeping beta; it has order five and
    requires the canonical modulus.
    """
    check_int(m, "modulus", 1)
    if which == "reflect":
        return BdmVertex(v.alpha, (-v.i - 1) % m, 1 - v.beta)
    if which == "shift":
        n = doubling_parameter(m)
        require(n is not None, f"shift automorphism needs a canonical modulus, got {m}")
        amount = 2 ** (n - 2) if v.alpha == 1 else 2 ** (n - 3)
        return BdmVertex(v.alpha, (v.i + amount) % m, v.beta)
    raise UnsupportedParameterError(f"unknown automorphism {which!r}")


def automorphism_permutation(which: AutomorphismName, m: int) -> tuple[int, ...]:
    """The automorphism as a permutation of the integer vertex encoding."""
    perm = [0] * (4 * check_int(m, "modulus", 1))
    for idx in range(4 * m):
        perm[idx] = named_automorphism(which, BdmVertex.from_index(idx, m), m).index(m)
    return tuple(perm)


# ---------------------------------------------------------------------------
# Chordal ring families
# ---------------------------------------------------------------------------

CrmCase = Literal["a", "b", "c1", "c2"]
CdrmConvention = Literal["shift", "reflect"]


class CrmParams(Record):
    """Optimal chordal-ring parameters for one diameter."""

    __slots__ = ("k", "case", "n", "c", "ell", "t")

    def __init__(
        self, k: int, case: CrmCase, n: int, c: int, ell: int, t: Optional[int]
    ) -> None:
        _set(self, "k", k)
        _set(self, "case", case)
        _set(self, "n", n)
        _set(self, "c", c)
        _set(self, "ell", ell)
        _set(self, "t", t)


def crm(n: int, c: int) -> MixedGraph:
    """Chordal ring mixed graph: a directed n-cycle plus chords.

    Vertices are integers modulo n with arcs i -> i+1; each odd i carries the
    undirected chord {i, i+c}.  Requires n even and c odd so that the chords
    form a perfect matching and the graph is bipartite by parity, and
    3 <= c <= n - 3, so n >= 6: c = 1 and c = n - 1 put an arc along a
    chord, and n = 2 is a digon.
    """
    _check_crm(n, c)
    arcs = [(i, (i + 1) % n) for i in range(n)]
    edges = [(i, (i + c) % n) for i in range(1, n, 2)]
    labels = [str(i) for i in range(n)]
    return MixedGraph.build(n, edges=edges, arcs=arcs, labels=labels)


def _check_crm(n: int, c: int) -> None:
    check_int(n, "ring length")
    check_int(c, "chord length")
    require(n >= 6 and n % 2 == 0, f"ring length must be even >= 6, got {n}")
    require(3 <= c <= n - 3 and c % 2 == 1, f"chord length must be odd in 3..{n - 3}, got {c}")


def crm_optimal(k: int) -> CrmParams:
    """Largest-known chordal ring parameters with diameter exactly k.

    Case a (k odd):        n = (k+1)^2 / 2,     c = k
    Case b (k = 0 mod 4):  n = k^2/2 + 2,       c = (k/2-1)^2 + k/2
    Case c1 (k = 6 mod 8): n = k(k/2-1) + 4,    c = 8t^2 - 8t + 3,  k = 8t-2
    Case c2 (k = 2 mod 8): n = k(k/2-1) + 4,    c = 24t^2 - 44t + 23, k = 8t-6

    The chordal ring's voltage graph is checked to have diameter exactly k
    before the parameters are returned.
    """
    check_int(k, "optimal chordal ring's diameter", 3)
    if k % 2 == 1:
        ell = (k + 1) // 2
        params = CrmParams(k=k, case="a", n=2 * ell * ell, c=k, ell=ell, t=None)
    elif k % 4 == 0:
        t = k // 4
        params = CrmParams(
            k=k, case="b", n=k * k // 2 + 2, c=(k // 2 - 1) ** 2 + k // 2,
            ell=k // 2, t=t,
        )
    elif k % 8 == 6:
        t = (k + 2) // 8
        params = CrmParams(
            k=k, case="c1", n=k * (k // 2 - 1) + 4, c=8 * t * t - 8 * t + 3,
            ell=k // 2, t=t,
        )
    else:  # k = 2 (mod 8)
        t = (k + 6) // 8
        params = CrmParams(
            k=k, case="c2", n=k * (k // 2 - 1) + 4, c=24 * t * t - 44 * t + 23,
            ell=k // 2, t=t,
        )
    measured = _lift_diameter(*crm_voltage_graph(params.n, params.c))
    if measured != k:
        raise MalformedGraphError(
            f"chordal ring ({params.n},{params.c}) has diameter {measured}, wanted {k}"
        )
    return params


def cdrm(m: int, c: int, convention: CdrmConvention = "shift") -> MixedGraph:
    """Chordal double ring: two directed m-cycles joined by a chord matching.

    Vertices (alpha, i) with alpha binary, i modulo m; index = alpha*m + i.
    Arcs run (alpha,i) -> (alpha,i+1) around each ring.  Chords join
    (0,i) ~ (1,i+c) under ``shift`` and (0,i) ~ (1,c-i) under ``reflect``;
    with m even and c odd the graph is bipartite by the parity of i.
    Requires m >= 4: rings of length 2 are digons.  The chord does not
    change the graph up to isomorphism: rotating ring 1 by c - c' maps the
    rings of chord c onto those of chord c' under either convention, and
    every odd c gives ``cdrm_voltage_graph`` one voltage class.
    """
    _check_cdrm(m, c, convention)
    arcs = [(a * m + i, a * m + (i + 1) % m) for a in (0, 1) for i in range(m)]
    if convention == "shift":
        edges = [(i, m + (i + c) % m) for i in range(m)]
    else:
        edges = [(i, m + (c - i) % m) for i in range(m)]
    labels = [f"({a},{i})" for a in (0, 1) for i in range(m)]
    return MixedGraph.build(2 * m, edges=edges, arcs=arcs, labels=labels)


def _check_cdrm(m: int, c: int, convention: str) -> None:
    check_int(m, "ring length")
    check_int(c, "chord length")
    require(m >= 4 and m % 2 == 0, f"ring length must be even >= 4, got {m}")
    require(c % 2 == 1, f"chord length must be odd, got {c}")
    require(convention in ("shift", "reflect"), f"unknown convention {convention!r}")


# ---------------------------------------------------------------------------
# Voltage-graph lifts
# ---------------------------------------------------------------------------

class LiftTemplate:
    """A base-graph shape whose dart voltages are left free: n vertices plus
    edge and arc darts as (tail, head) pairs, with voltages (edge darts'
    first) given per lift.  Lift vertex (b, x) gets index b*q + x.
    Templates of equal shape are equal.

    The darts are walked once, into one link table: every dart at a base
    vertex u as (far end, dart, sign), with sign -1 when u is its head.
    The rest is read off that table, once for every group order.  Whether a
    lift is well formed depends only on congruences of one or two voltages
    (Gross and Tucker, Topological Graph Theory): it is malformed exactly
    when two links at one vertex with one far end join the same lift
    vertices.  The steps that ``cover``, ``metrics.lift_diameter``,
    ``spectral.polynomial_matrix`` and ``search``'s text key walk are the
    links less the backward arc links.  A breadth-first spanning forest
    grown on the links is kept as two tables: ``tree``, its steps (v, u,
    d, sign) from u to a new v, and ``cotree``, every other dart as
    (d, u, v).
    ``cycle_parities`` holds the length parity of each cotree dart's
    fundamental cycle, 1 when (u, v), an arc loop too, joins two vertices
    of equal depth parity.  The base is ``bipartite`` exactly when no such
    cycle is odd, and then so is every lift, as a lift's closed walks
    project to closed walks of the same length.

    ``voltage_class(q, voltages)`` keys a lift up to isomorphism.
    Relabelling lift vertex (b, x) as (b, x - p(b)), for any shifts p, is
    an isomorphism that turns the voltage g of a dart (u, v) into
    g + p(u) - p(v); choosing p along ``tree`` gives every tree dart
    voltage 0 (Gross and Tucker).  What is left, the cotree darts'
    voltages, is the class, so two assignments of one class have
    isomorphic lifts: equally well formed, equally bipartite, and of one
    diameter.
    Raises MalformedBaseError unless n is an int >= 1 and every dart is a
    pair of ints in 0..n-1.
    """

    def __init__(
        self,
        n: int,
        edge_darts: Sequence[tuple[int, int]],
        arc_darts: Sequence[tuple[int, int]],
    ) -> None:
        self.n = check_int(n, "base vertex count", 1, error=MalformedBaseError)
        self.edge_darts = _checked_darts(edge_darts, n)
        self.arc_darts = _checked_darts(arc_darts, n)
        # Lift vertex (u, x) is joined along link (w, d, s) to (w, x + s*g_d).
        darts = (*self.edge_darts, *self.arc_darts)
        links: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
        for d, (u, v) in enumerate(darts):
            links[u].append((v, d, 1))
            links[v].append((u, d, -1))
        # An edge loop, or two edge darts at one base vertex, gives every
        # lift vertex over it two edges or a loop, whatever the voltages.
        ends = [v for dart in self.edge_darts for v in dart]
        self.always_malformed = len(set(ends)) < len(ends)
        # Otherwise links (w, d, s) and (w, e, t) at one vertex give a
        # repeated arc, a digon or an arc along an edge (from an arc loop's
        # two ends, a loop or a digon) when (g_d - s*t*g_e) % q == 0.
        self.rules = {
            (d, e, -s * t)
            for at in links
            for i, (w, d, s) in enumerate(at)
            for x, e, t in at[i + 1 :]
            if x == w
        }
        # steps_from[b] indexes b's steps as (head, dart, sign).
        n_edges = len(self.edge_darts)
        out = [[step for step in at if step[2] == 1 or step[1] < n_edges] for at in links]
        self.steps = tuple(step for steps in out for step in steps)
        ends = list(accumulate(map(len, out)))
        self.steps_from = [range(end - len(steps), end) for steps, end in zip(out, ends)]
        # A spanning forest over the links' far ends, from the least
        # unreached vertex: tree holds its steps (v, u, d, sign), from u to
        # a new v, in the order they reach v, and cotree every other dart as
        # (d, u, v), in dart order.
        far_ends = [[w for w, _, _ in at] for at in links]
        order, parent, depth = breadth_first_forest(far_ends, range(n))
        reached = [(v, *parent[v]) for v in order if parent[v]]  # (v, u, i): v is links[u][i]
        self.tree = tuple((v, u, *links[u][i][1:]) for v, u, i in reached)
        in_tree = {d for _, _, d, _ in self.tree}
        self.cotree = tuple(
            (d, u, v) for d, (u, v) in enumerate(darts) if d not in in_tree
        )
        # A cotree dart's fundamental cycle has depth(u) + depth(v) + 1 darts
        # less twice the meeting vertex's depth; an arc loop's has one.
        self.cycle_parities = tuple((depth[u] + depth[v] + 1) % 2 for _, u, v in self.cotree)
        self.bipartite = not any(self.cycle_parities)

    def __repr__(self) -> str:
        return f"LiftTemplate({self.n}, {self.edge_darts}, {self.arc_darts})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LiftTemplate):
            return NotImplemented
        return self._shape() == other._shape()

    def __hash__(self) -> int:
        return hash(self._shape())

    def _shape(self) -> tuple:
        return self.n, self.edge_darts, self.arc_darts

    @property
    def dart_count(self) -> int:
        return len(self.edge_darts) + len(self.arc_darts)

    def check_voltages(self, q: int, voltages: Sequence[int]) -> None:
        """Raise MalformedBaseError unless q is an int >= 1 and voltages
        holds one int in 0..q-1 per dart, edge darts first."""
        check_int(q, "group order", 1, error=MalformedBaseError)
        if len(voltages) != self.dart_count:
            raise MalformedBaseError(
                f"{self!r} takes {self.dart_count} voltages, got {len(voltages)}"
            )
        for voltage in voltages:
            check_int(voltage, "voltage", 0, q - 1, MalformedBaseError)

    def well_formed(self, q: int, voltages: Sequence[int]) -> bool:
        """Whether the lift over Z_q is a well-formed mixed graph, decided
        from the congruence rules without building it.  Voltages are taken
        modulo q."""
        if self.always_malformed:
            return False
        return all((voltages[i] + sign * voltages[j]) % q for i, j, sign in self.rules)

    def voltage_class(self, q: int, voltages: Sequence[int]) -> tuple[int, ...]:
        """The voltages, modulo q, of the cotree darts once a relabelling
        has set every tree dart's voltage to 0: with potentials p(v) =
        p(u) + sign*g_d along the tree steps, dart d = (u, v) keeps
        g_d + p(u) - p(v).  Equal classes give isomorphic lifts over Z_q.
        Voltages are taken modulo q."""
        p = [0] * self.n
        for v, u, d, sign in self.tree:
            p[v] = p[u] + sign * voltages[d]
        return tuple((voltages[d] + p[u] - p[v]) % q for d, u, v in self.cotree)

    def lifts_bipartite(self, q: int, voltage_class: Sequence[int]) -> bool:
        """Whether the lifts over Z_q of a voltage class are bipartite: the
        base is, or q is even and every class voltage has its cycle's
        parity, so that (b, x) may take colour depth(b) + x once the tree
        darts carry voltage 0.  The converse holds for a connected lift,
        whose one 2-colouring the fibre shift x -> x + 1 keeps (so the base
        is bipartite) or swaps (so q is even and the colouring is that)."""
        parities = zip(voltage_class, self.cycle_parities)
        return self.bipartite or (q % 2 == 0 and all(g % 2 == odd for g, odd in parities))

    def cover(self, q: int, voltages: Sequence[int]) -> Optional[MixedGraph]:
        """The unlabelled lift over Z_q, or None when it is not a
        well-formed mixed graph.  Voltages are taken modulo q."""
        if not self.well_formed(q, voltages):
            return None
        volts = [voltage % q for voltage in voltages]

        def fibre(b: int, s: int) -> tuple[int, ...]:
            # the indices of lift vertices (b, x + s) for x = 0..q-1
            return (*range(b * q + s, b * q + q), *range(b * q, b * q + s))

        n_edges = len(self.edge_darts)
        partner: list[Optional[int]] = [None] * (self.n * q)
        out_arcs: list[tuple[int, ...]] = []
        for b, steps in enumerate(self.steps_from):
            heads = []
            for head, d, sign in map(self.steps.__getitem__, steps):
                ends = fibre(head, sign * volts[d] % q)
                if d < n_edges:
                    partner[b * q : b * q + q] = ends
                else:
                    heads.append(ends)
            out_arcs.extend(zip(*heads) if heads else [()] * q)
        return MixedGraph(
            n=self.n * q, edge_partner=tuple(partner), out_arcs=tuple(out_arcs)
        )


def _checked_darts(darts: Sequence[tuple[int, int]], n: int) -> tuple[tuple[int, int], ...]:
    pairs = []
    for dart in darts:
        try:
            u, v = dart
        except (TypeError, ValueError):
            raise MalformedBaseError(f"dart {dart!r} is not a (tail, head) pair") from None
        for end in (u, v):
            check_int(end, f"endpoint of dart {dart!r}", 0, n - 1, MalformedBaseError)
        pairs.append((u, v))
    return tuple(pairs)


def two_vertex_template() -> LiftTemplate:
    """One edge plus opposite arcs between two base vertices (order 2q lifts)."""
    return LiftTemplate(n=2, edge_darts=((0, 1),), arc_darts=((0, 1), (1, 0)))


def four_vertex_template() -> LiftTemplate:
    """Two edges and a four-arc circuit on four base vertices (order 4q lifts);
    with q = 5 the assignment realizing bdm(5) lies in this space."""
    return LiftTemplate(
        n=4,
        edge_darts=((0, 1), (2, 3)),
        arc_darts=((0, 3), (3, 0), (1, 2), (2, 1)),
    )


def lift(template: LiftTemplate, q: int, voltages: Sequence[int]) -> MixedGraph:
    """The covering graph of the voltage graph (template, q, voltages).

    The one builder of a labelled lift, ``lift_search``'s witnesses too.
    Vertex (b, x) gets index b*q + x and the label "(b,x)".  An edge dart
    (u, v) with voltage g produces the edges {(u,x), (v,x+g)} for every x;
    an arc dart produces the arcs (u,x) -> (v,x+g).  The order is n*q.

    Raises MalformedBaseError unless ``template.check_voltages`` accepts
    (q, voltages), and for every lift that ``validate_and_profile`` would
    reject: one with a loop, two edges at a vertex, a repeated edge or arc,
    a digon (opposite arc darts whose voltages sum to 0, or an arc loop with
    2g = 0) or an arc along an edge.
    """
    template.check_voltages(q, voltages)
    g = template.cover(q, voltages)
    if g is None:
        raise MalformedBaseError(
            f"lift over Z_{q} is not a valid mixed graph: it has a loop, two"
            " edges at a vertex, a repeated arc, a digon or an arc along an edge"
        )
    labels = tuple(f"({b},{x})" for b in range(template.n) for x in range(q))
    return MixedGraph(g.n, g.edge_partner, g.out_arcs, labels)


def bdm5_base() -> tuple[LiftTemplate, int, tuple[int, ...]]:
    """The voltage graph (template, q, voltages) over Z_5 whose lift is
    isomorphic to bdm(5): the four-vertex template with edge voltages 0, 0
    and arc voltages 2, 1, 0, 2."""
    return four_vertex_template(), 5, (0, 0, 2, 1, 0, 2)


def crm_voltage_graph(n: int, c: int) -> tuple[LiftTemplate, int, tuple[int, ...]]:
    """The voltage graph over Z_{n/2} whose cover is crm(n, c), ring vertex
    2x + b being lift vertex (b, x): arcs 0 -> 1 and 1 -> 0 with voltages
    0 and 1, and the edge dart (1, 0) with voltage (c+1)/2."""
    _check_crm(n, c)
    q = n // 2
    template = LiftTemplate(2, edge_darts=((1, 0),), arc_darts=((0, 1), (1, 0)))
    return template, q, ((c + 1) // 2 % q, 0, 1 % q)


def cdrm_voltage_graph(
    m: int, c: int, convention: CdrmConvention = "shift"
) -> tuple[LiftTemplate, int, tuple[int, ...]]:
    """The voltage graph over Z_m whose cover is cdrm(m, c, convention): the
    edge dart (0, 1) and an arc loop on each vertex.  Under ``shift`` their
    voltages are c, 1, 1, and ring vertex alpha*m + i is lift vertex
    (alpha, i).  Under ``reflect`` they are 0, 1, m - 1; ring vertex i is
    (0, i), and ring vertex m + (c - x) mod m is (1, x)."""
    _check_cdrm(m, c, convention)
    template = LiftTemplate(2, edge_darts=((0, 1),), arc_darts=((0, 0), (1, 1)))
    if convention == "shift":
        return template, m, (c % m, 1, 1)
    return template, m, (0, 1, m - 1)
