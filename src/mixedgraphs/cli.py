"""Command-line front end.

Subcommands: ``bounds``, ``construct``, ``analyze``, ``search``, ``spectrum``,
``table``, and ``verify``.  Graphs are written in the canonical edge-list
format by default; ``--format dot`` and ``--format json`` select the other
exports.  The JSON form re-parses; DOT is write-only.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import NoReturn, Optional, Sequence

from . import bounds as bounds_mod
from . import families, metrics, search as search_mod, spectral
from .core import (
    MixedGraph,
    format_edge_list,
    parse_edge_list,
    validate_and_profile,
    verify_automorphism,
)
from .errors import MalformedGraphError, MixedGraphError, UnsupportedParameterError
from .errors import check_int, require
from .families import BdmVertex, edge_first_pattern, path_endpoint_formula


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return args.handler(args)
    except MixedGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors, in every subcommand, raise
    UnsupportedParameterError, so ``main`` reports them as it reports every
    other error: one line and exit code 1, not usage lines and code 2."""

    def error(self, message: str) -> NoReturn:
        raise UnsupportedParameterError(message)


@functools.cache  # parse_args keeps no state, so one parser serves every call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="mixedgraphs",
        description="Bipartite unit-degree mixed graphs: constructions, "
        "bounds, spectra, and extremal search.",
    )
    sub = parser.add_subparsers(required=True)

    p = sub.add_parser("bounds", help="order bounds at a given diameter")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--r", type=int, default=1)
    p.add_argument("--z", type=int, default=1)
    p.set_defaults(handler=_cmd_bounds)

    p = sub.add_parser("construct", help="build a family graph and export it")
    p.add_argument("family", choices=list(_CONSTRUCT_OPTIONS))
    p.add_argument("--m", type=int, help="modulus / ring length")
    p.add_argument("--n", type=int, help="doubling parameter or ring length")
    p.add_argument("--c", type=int, help="chord length")
    p.add_argument("--convention", choices=["shift", "reflect"],
                   help="cdrm chord attachment (default shift)")
    p.add_argument("--format", choices=["edges", "dot", "json"], default="edges")
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("analyze", help="profile a graph file (edges or json)")
    p.add_argument("path")
    p.set_defaults(handler=_cmd_analyze)

    p = sub.add_parser("search", help="run one of the searches")
    ssub = p.add_subparsers(required=True)

    q = ssub.add_parser("exhaustive", help="exact maximum order for small k")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n-max", type=int, required=True)
    q.add_argument("--general", action="store_true", help="allow degrees < 1")
    q.add_argument("--budget", type=int)
    q.set_defaults(handler=_cmd_search_exhaustive)

    q = ssub.add_parser("lift", help="voltage-assignment search on a template")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--template", type=int, choices=[2, 4], default=4)
    q.add_argument("--q", type=int, action="append", required=True,
                   help="group order (repeatable)")
    q.add_argument("--budget", type=int, required=True)
    q.add_argument("--seed", type=int, required=True)
    q.set_defaults(handler=_cmd_search_lift)

    q = ssub.add_parser("cdrm-scan", help="best chordal double ring for one m")
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(handler=_cmd_search_cdrm)

    p = sub.add_parser("spectrum", help="eigenvalues of a named base matrix")
    p.add_argument("which", choices=["bdm5"])
    p.set_defaults(handler=_cmd_spectrum)

    p = sub.add_parser("table", help="print a computed summary table")
    p.add_argument("which", choices=["1", "6"])
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("verify", help="run a named property suite")
    p.add_argument(
        "suite",
        choices=["bdm-diameter", "automorphisms", "tables34", "crm-table6"],
    )
    p.set_defaults(handler=_cmd_verify)

    return parser


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------

_LOG10_PHI = 0.2089  # log10 of the golden ratio, 0.20898..., rounded down


def _cmd_bounds(args: argparse.Namespace) -> int:
    # With d = r + z >= 2, D(k) = M(k) - M(k-1) obeys D(k) = (d-1) D(k-1) +
    # z D(k-2) from D(1) = 2 and D(2) = 2(d-1), so D(k) >= D(k-1) + D(k-2)
    # and D(k) >= (d-1) D(k-1): M(k) >= D(k) >= 2 Fib(k) >= phi^(k-1) and
    # M(k) >= 2 (d-1)^(k-1), the 2 covering the float rounding of log10.
    # Once that lower bound has more digits than the interpreter prints,
    # refuse before the O(k^2) recurrence; values near the limit are left
    # to ``_decimal``.
    limit = sys.get_int_max_str_digits()
    if limit and min(args.r, args.z) >= 1:
        digits_per_level = max(_LOG10_PHI, math.log10(args.r + args.z - 1))
        if args.k - 1 >= limit / digits_per_level:  # no float of a huge k
            raise _too_long(limit)
    print(f"moore({args.r},{args.z},{args.k}) = "
          f"{_decimal(bounds_mod.moore_bipartite(args.r, args.z, args.k))}")
    if args.r == 1 and args.z == 1:
        if args.k >= 3:
            print(f"improved(k={args.k}) = {_decimal(bounds_mod.improved_bound(args.k))}")
        print(f"crm_upper(k={args.k}) = {_decimal(bounds_mod.crm_upper(args.k))}")
    return 0


def _decimal(value: int) -> str:
    """``str(value)``, or UnsupportedParameterError for an int of more
    digits than the interpreter converts to text.  The limit is left as it
    is: library callers share the interpreter."""
    try:
        return str(value)
    except ValueError as exc:
        raise _too_long(sys.get_int_max_str_digits()) from exc


def _too_long(limit: int) -> UnsupportedParameterError:
    return UnsupportedParameterError(
        f"a bound of more than {limit} digits is too long to print"
    )


def _cmd_construct(args: argparse.Namespace) -> int:
    g = _construct_graph(args)
    text = _render(g, args.format)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
                handle.write(text)
        except OSError as exc:
            raise MixedGraphError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 0


# the options each construct family takes; giving it another is an error
_CONSTRUCT_OPTIONS = {
    "bdm": ("m", "n"), "bdm-star": ("m",), "bd": ("m",), "crm": ("n", "c"),
    "cdrm": ("m", "c", "convention"), "lift": (),
}


def _construct_graph(args: argparse.Namespace) -> MixedGraph:
    family = args.family
    for option in ("m", "n", "c", "convention"):
        given = getattr(args, option) is not None
        require(not given or option in _CONSTRUCT_OPTIONS[family],
                f"{family} does not take --{option}")
    if family == "bdm":
        require((args.m is None) != (args.n is None), "bdm needs one of --m and --n")
        if args.m is not None:
            return families.bdm(args.m)
        return families.bdm_canonical(args.n)[1]
    if family == "bdm-star":
        require(args.m is not None, "bdm-star needs --m")
        return families.bdm_star(args.m)
    if family == "bd":
        require(args.m is not None, "bd needs --m")
        return families.bd_digraph(args.m)
    if family == "crm":
        require(args.n is not None and args.c is not None, "crm needs --n and --c")
        return families.crm(args.n, args.c)
    if family == "cdrm":
        require(args.m is not None and args.c is not None, "cdrm needs --m and --c")
        return families.cdrm(args.m, args.c, args.convention or "shift")
    return families.lift(*families.bdm5_base())


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        with open(args.path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MixedGraphError(f"cannot read {args.path}: {exc}") from exc
    # JSON text opens with "{" or "[", an edge list with its "mixedgraph" header
    g = graph_from_json(text) if text.lstrip()[:1] in ("{", "[") else parse_edge_list(text)
    profile = validate_and_profile(g)
    report = metrics.eccentricity_report(g)
    print(f"vertices: {g.n}")
    print(f"edges:    {g.num_edges()}")
    print(f"arcs:     {g.num_arcs()}")
    regularity = profile.regularity
    print(f"totally regular: "
          f"{'no' if regularity is None else '(%d,%d)' % regularity}")
    print(f"bipartite: {'yes' if profile.bipartite_ok else 'no'}")
    print(f"diameter: {_fmt_ecc(report.diameter)}")
    print(f"out-radius: {_fmt_ecc(report.out_radius)}  "
          f"in-radius: {_fmt_ecc(report.in_radius)}")
    print(f"out-central: {list(report.out_central)}")
    print(f"in-central:  {list(report.in_central)}")
    return 0


def _cmd_search_exhaustive(args: argparse.Namespace) -> int:
    report = search_mod.exhaustive_max_order(
        args.k, args.n_max,
        totally_regular_only=not args.general,
        budget=args.budget,
    )
    sys.stdout.write(report.serialize())
    return 0


def _cmd_search_lift(args: argparse.Namespace) -> int:
    template = (
        families.two_vertex_template()
        if args.template == 2
        else families.four_vertex_template()
    )
    report = search_mod.lift_search(
        args.k, template, args.q, budget=args.budget, seed=args.seed
    )
    sys.stdout.write(report.serialize())
    return 0


def _cmd_search_cdrm(args: argparse.Namespace) -> int:
    c, convention, d = search_mod.cdrm_scan(args.m)
    print(f"cdrm m={args.m} order={2 * args.m} best_c={c} "
          f"convention={convention} diameter={_fmt_ecc(d)}")
    return 0


def _cmd_spectrum(args: argparse.Namespace) -> int:
    pm = spectral.bdm5_polynomial_matrix()
    for r in range(pm.group_order):
        values = spectral.char_poly_eigenvalues(spectral.evaluate_at_root(pm, r))
        row = "  ".join(_fmt_complex(v) for v in values)
        print(f"z = zeta^{r}: {row}")
    return 0


def _cmd_table(args: argparse.Namespace) -> int:
    if args.which == "1":
        print(f"{'k':>3} {'moore':>6} {'improved':>9} {'bdm':>5}")
        for k in range(3, 17):
            bdm_order = ""
            if k % 2 == 0 and k >= 6:
                bdm_order = str(4 * families.canonical_m(k // 2))
            print(f"{k:>3} {bounds_mod.moore_bipartite(1, 1, k):>6} "
                  f"{bounds_mod.improved_bound(k):>9} {bdm_order:>5}")
    else:
        print(f"{'k':>3} {'n':>4} {'c':>4} {'case':>4} {'diam':>5} "
              f"{'max':>4} {'improved':>9}")
        for k in range(3, 23):
            params = families.crm_optimal(k)  # certifies diameter == k
            print(f"{k:>3} {params.n:>4} {params.c:>4} {params.case:>4} "
                  f"{params.k:>5} {bounds_mod.crm_upper(k):>4} "
                  f"{bounds_mod.improved_bound(k):>9}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = {
        "bdm-diameter": _verify_bdm_diameter,
        "automorphisms": _verify_automorphisms,
        "tables34": _verify_walk_formulas,
        "crm-table6": _verify_crm_table,
    }
    failures = checks[args.suite]()
    return 1 if failures else 0


def _verify_bdm_diameter() -> int:
    failures = 0
    for n in range(3, 9):
        m, g = families.bdm_canonical(n)
        d = metrics.diameter(g)
        failures += _report(f"bdm n={n} (m={m}) diameter {d} == {2 * n}", d == 2 * n)
    return failures


def _verify_automorphisms() -> int:
    failures = 0
    for m in (5, 10, 20, 40):
        g = families.bdm(m)
        for name in ("reflect", "shift"):
            perm = families.automorphism_permutation(name, m)
            failures += _report(
                f"{name} is an automorphism of bdm({m})",
                verify_automorphism(g, perm),
            )
    return failures


def _verify_walk_formulas() -> int:
    failures = 0
    for m in (40, 80):
        steps = families.doubling_parameter(m)
        g = families.bdm(m)
        ok = True
        for i in range(m):
            ok &= _walk_rows_match(g, m, i, steps)
        failures += _report(f"walk endpoint formulas hold for m={m}", ok)
    return failures


def _walk_rows_match(g: MixedGraph, m: int, i: int, steps: int) -> bool:
    # one walk E(AE)^steps from (0,i)_1, checked at the end of each AE
    (endpoint,) = families.walk_pattern(g, BdmVertex(0, i, 1).index(m), edge_first_pattern(1))
    for j in range(2, steps + 1):
        (endpoint,) = families.walk_pattern(g, endpoint, "AE")
        if j % 2 == 0:
            want = BdmVertex(0, path_endpoint_formula("phi", j, i, m), 0)
        else:
            want = BdmVertex(1, 2 * path_endpoint_formula("phi", j - 1, i, m) % m, 0)
        if endpoint != want.index(m):
            return False
    return True


def _verify_crm_table() -> int:
    failures = 0
    for k in range(3, 23):
        try:
            params = families.crm_optimal(k)  # raises unless diameter == k
        except MalformedGraphError as exc:
            failures += _report(f"crm k={k}: {exc}", False)
            continue
        # crm_upper bounds every chordal ring of diameter k, whatever
        # crm_optimal's formulas say
        failures += _report(
            f"crm k={k} (n={params.n}, c={params.c}) diameter {params.k}",
            params.k == k and params.n <= bounds_mod.crm_upper(k),
        )
    return failures


def _report(label: str, ok: bool) -> int:
    print(f"{'PASS' if ok else 'FAIL'}  {label}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Export formats
# ---------------------------------------------------------------------------

def _render(g: MixedGraph, fmt: str) -> str:
    if fmt == "edges":
        return format_edge_list(g)
    if fmt == "json":
        return graph_to_json(g)
    return graph_to_dot(g)


def graph_to_json(g: MixedGraph) -> str:
    """JSON export: keys n, edges, arcs, labels in stable order, LF endings."""
    payload = {
        "n": g.n,
        "edges": [list(e) for e in g.edges()],
        "arcs": [list(a) for a in g.arcs()],
        "labels": {} if g.labels is None else {
            str(v): label for v, label in enumerate(g.labels)
        },
    }
    return json.dumps(payload, indent=2) + "\n"


def graph_from_json(text: str) -> MixedGraph:
    """Parse the JSON export; bad JSON or ill-typed keys raise
    MalformedGraphError.  ``labels``, when present, maps each vertex id,
    as a string, and no other key, to a string."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        raise MalformedGraphError(f"invalid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise MalformedGraphError("JSON graph must be an object")
    n = check_int(payload.get("n"), "JSON key 'n'", error=MalformedGraphError)
    pairs = {key: _json_pairs(payload, key) for key in ("edges", "arcs")}
    labels = payload.get("labels")
    if labels in (None, {}):  # graph_to_json writes {} for an unlabelled graph
        labels = None
    elif (
        not isinstance(labels, dict)
        or len(labels) != n
        or any(type(labels.get(str(v))) is not str for v in range(n))
    ):
        raise MalformedGraphError("JSON key 'labels' must map exactly the vertex ids to strings")
    else:
        labels = [labels[str(v)] for v in range(n)]
    return MixedGraph.build(n, edges=pairs["edges"], arcs=pairs["arcs"], labels=labels)


def _json_pairs(payload: dict, key: str) -> list[tuple]:
    pairs = payload.get(key)
    if not isinstance(pairs, list) or not all(
        isinstance(p, list) and len(p) == 2 for p in pairs
    ):
        raise MalformedGraphError(f"JSON key {key!r} must be a list of [u, v] pairs")
    return [tuple(p) for p in pairs]


def graph_to_dot(g: MixedGraph) -> str:
    """DOT export: edges as dir=none arrows, arcs as plain directed arrows.
    A label's backslashes and double quotes are escaped."""
    lines = ["digraph mixedgraph {"]
    for v in range(g.n):
        if g.labels is not None:
            label = g.labels[v].replace("\\", "\\\\").replace('"', '\\"')
            lines.append(f'  {v} [label="{label}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges():
        lines.append(f"  {u} -> {v} [dir=none];")
    for u, v in g.arcs():
        lines.append(f"  {u} -> {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fmt_ecc(value: float) -> str:
    return "inf" if value == metrics.INFINITE else str(int(value))


def _fmt_complex(value: complex) -> str:
    return f"{value.real:+.4f}{value.imag:+.4f}i"


if __name__ == "__main__":
    sys.exit(main())
