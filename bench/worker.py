"""One pass of a benchmark workload, run in a fresh process.

    python3 bench/worker.py --workload NAME --seed N [--spans PATH | --setup-only]

The pass imports ``mixedgraphs`` from the checkout's ``src`` directory and
generates the workload's inputs from the seed (the set-up, timed as
``setup_s``).  It then runs the workload's ops back to back on one thread
(the timed phase, ``wall_s``) and afterwards checks every op's output.  The
last line of stdout is one JSON object with the pass's measurements.  With
``--spans`` the layer functions are wrapped (see ``tracing.py``) after set-up,
the per-layer metrics derived from the spans are added to the result, and the
spans are written to PATH.  With ``--setup-only`` the pass ends after set-up
and reports only ``setup_s``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))

LIFT_K = 6
LIFT_ARGS = ["search", "lift", "--k", str(LIFT_K), "--template", "4",
             "--q", "5", "--q", "7", "--budget", "20000"]
EXHAUSTIVE_K = 5
EXHAUSTIVE_ARGS = ["search", "exhaustive", "--k", str(EXHAUSTIVE_K), "--n-max", "14"]
# Output checked against the reference digest; verify suites must also
# print PASS on every line.
DIGEST_OPS = [
    ("table", ["table", "6"]),
    ("verify", ["verify", "bdm-diameter"]),
    ("verify", ["verify", "automorphisms"]),
    ("verify", ["verify", "tables34"]),
    ("verify", ["verify", "crm-table6"]),
    ("search_cdrm-scan", ["search", "cdrm-scan", "--m", "100"]),
    ("spectrum", ["spectrum", "bdm5"]),
    ("table", ["table", "1"]),
]
BDM_N = 9  # bdm_canonical(9): 1280 vertices, diameter 18
CRM_K = 41  # crm_optimal(41): 882 vertices, diameter 41
CRM_OPTIMAL_KS = range(23, 42)
MOORE_DEGREES = (1, 2, 3)
MOORE_KS = range(1, 41)
MOORE_WRONG = {tuple(triple) for triple in REFERENCE["moore_bipartite_wrong"]}

Check = Callable[[Any], Optional[str]]
# n, edges, arcs
Graph = tuple[int, list[tuple[int, int]], list[tuple[int, int]]]


@dataclass
class Op:
    """One operation of the timed phase.

    ``check`` returns None when the output is right and a message otherwise.
    ``search_k`` marks a candidate search with its diameter bound.
    ``known_defect`` marks a Moore-bound triple that the float closed form
    got wrong at the reference commit (``moore_bipartite_wrong`` in
    ``reference.json``): a wrong output there still counts as failed, but
    does not make the run incorrect.
    """

    name: str
    run: Callable[[], Any]
    check: Check
    search_k: Optional[int] = None
    known_defect: bool = False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--spans", help="trace the pass and write its spans to this file")
    mode.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import mixedgraphs.cli  # noqa: F401  (loads every layer module)

    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - start
        result = {} if args.setup_only else run_pass(ops, args.spans)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["setup_s"] = setup_s
    print(json.dumps(result))
    return 0


def run_pass(ops: list[Op], spans_path: Optional[str]) -> dict:
    tracer = None
    if spans_path:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    outputs: list[Any] = []
    ranges: list[tuple[int, int]] = []
    start = time.perf_counter()
    for op in ops:
        first = len(tracer.spans) if tracer else 0
        with tracer.span(op.name) if tracer else nullcontext():
            try:
                outputs.append(op.run())
            except (Exception, SystemExit) as exc:
                outputs.append(exc)
        ranges.append((first, len(tracer.spans) if tracer else 0))
    wall_s = time.perf_counter() - start
    # Taken before the checks, whose own graphs would otherwise count.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures, unexpected = [], 0
    for op, output in zip(ops, outputs):
        if isinstance(output, BaseException):
            problem: Optional[str] = f"raised {type(output).__name__}: {output}"
        else:
            try:
                problem = op.check(output)
            except Exception as exc:  # output the check cannot read is wrong
                problem = f"unreadable output ({type(exc).__name__}: {exc})"
        if problem is not None:
            failures.append(f"{op.name}: {problem}")
            unexpected += not op.known_defect
    result = {
        "wall_s": wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(ops),
        "failed": len(failures),
        "unexpected_failures": unexpected,
        "failures": failures,
    }
    if tracer:
        from tracing import layer_metrics

        searches = [
            (first, last, op.search_k, _candidates(output))
            for op, output, (first, last) in zip(ops, outputs, ranges)
            if op.search_k is not None
        ]
        result["layers"] = layer_metrics(tracer.spans, searches)
        result["absent"] = tracer.absent
        tracer.write(spans_path)
    return result


# ---------------------------------------------------------------------------
# Workloads: each builds its inputs from the seed and returns its ops.
# ---------------------------------------------------------------------------

def lift_sweep(seed: int, workdir: Path) -> list[Op]:
    argv = LIFT_ARGS + ["--seed", str(seed)]
    return [cli_op("search_lift", argv, lift_report_check(seed), search_k=LIFT_K)]


def exhaustive_k5(seed: int, workdir: Path) -> list[Op]:
    return [cli_op("search_exhaustive", EXHAUSTIVE_ARGS, exhaustive_check,
                   search_k=EXHAUSTIVE_K)]


def large_graphs(seed: int, workdir: Path) -> list[Op]:
    from mixedgraphs import cli, core, families

    rng = random.Random(seed)
    m, bdm_graph = families.bdm_canonical(BDM_N)
    bdm_path = workdir / "bdm.edges"
    bdm_text = core.format_edge_list(_shuffled(bdm_graph, rng))
    bdm_path.write_text(bdm_text, encoding="utf-8")
    _, crm_n, crm_c = crm_params(CRM_K)
    crm_path = workdir / "crm.json"
    crm_text = cli.graph_to_json(families.crm(crm_n, crm_c))
    crm_path.write_text(crm_text, encoding="utf-8")
    small = families.bdm(5)
    small_relabelled = _shuffled(small, rng)

    ops = [
        cli_op("analyze", ["analyze", str(bdm_path)],
               analyze_check(lambda: _graph_blocks(bdm_text.splitlines())[0],
                             n=4 * m, edges=2 * m, arcs=4 * m, diameter=2 * BDM_N)),
        cli_op("analyze", ["analyze", str(crm_path)],
               analyze_check(lambda: _json_graph(crm_text),
                             n=crm_n, edges=crm_n // 2, arcs=crm_n, diameter=CRM_K)),
    ]
    for sub, argv in DIGEST_OPS:
        ops.append(cli_op(sub, argv, digest_check(" ".join(argv), sub == "verify")))
    for k in CRM_OPTIMAL_KS:
        ops.append(lib_op("families", "crm_optimal", (k,), crm_check(k)))
    ops.append(lib_op("core", "are_isomorphic", (small, small_relabelled),
                      lambda same: None if same is True else f"returned {same!r}"))
    for r in MOORE_DEGREES:
        for z in MOORE_DEGREES:
            exact = moore_exact(r, z, max(MOORE_KS))
            for k in MOORE_KS:
                ops.append(lib_op(
                    "bounds", "moore_bipartite", (r, z, k),
                    _equals(exact[k], f"moore({r},{z},{k})"),
                    known_defect=(r, z, k) in MOORE_WRONG,
                ))
    return ops


WORKLOADS: dict[str, Callable[[int, Path], list[Op]]] = {
    "lift-sweep": lift_sweep,
    "exhaustive-k5": exhaustive_k5,
    "large-graphs": large_graphs,
}


def cli_op(sub: str, argv: list[str], check: Check, search_k: Optional[int] = None) -> Op:
    main = _module("cli").main

    def run() -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue()

    return Op(f"cli.{sub}", run, check, search_k=search_k)


def _module(layer: str) -> Any:
    return sys.modules[f"mixedgraphs.{layer}"]


def lib_op(layer: str, name: str, args: tuple, check: Check,
           known_defect: bool = False) -> Op:
    module = _module(layer)
    # Looked up at call time, so a traced pass calls the wrapped function.
    return Op(f"op.{name}", lambda: getattr(module, name)(*args), check,
              known_defect=known_defect)


def _shuffled(g: Any, rng: random.Random) -> Any:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return g.relabelled(perm)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _exit_ok(output: tuple[int, str]) -> Optional[str]:
    code, _ = output
    return None if code == 0 else f"exit code {code}"


def lift_report_check(seed: int) -> Check:
    """Byte-identical to the reference report.  No lift of the four-vertex
    template over Z_7 has diameter <= 6 (all 7^6 assignments were checked),
    so the report depends on the seed only through its seed field."""

    def check(output: tuple[int, str]) -> Optional[str]:
        problem = _exit_ok(output)
        if problem:
            return problem
        head, sep, rest = output[1].partition("\n")
        field = f" seed={seed}"
        if not head.endswith(field):
            return f"header does not end with{field}"
        normal = head[: -len(field)] + " seed=SEED" + sep + rest
        if _sha(normal) != REFERENCE["lift-sweep"]["sha256"]:
            return "report differs from the reference"
        return None

    return check


def exhaustive_check(output: tuple[int, str]) -> Optional[str]:
    """Only what a correct pruning change cannot alter: the best order, the
    exhaustive flag, the number of witness classes, and each witness's
    order, total regularity, bipartiteness and diameter."""
    problem = _exit_ok(output)
    if problem:
        return problem
    want = REFERENCE["exhaustive-k5"]
    lines = output[1].splitlines()
    fields = dict(part.split("=", 1) for part in lines[0].split()[1:])
    if fields.get("best_order") != str(want["best_order"]):
        return f"best_order={fields.get('best_order')}"
    if fields.get("exhaustive") != "true":
        return "exhaustive flag not set"
    witnesses = _graph_blocks(lines[2:])
    count = want["witness_classes"]
    if lines[1] != f"witnesses {count}" or len(witnesses) != count:
        return f"{len(witnesses)} witness classes"
    for index, (n, edges, arcs) in enumerate(witnesses):
        if n != want["best_order"]:
            return f"witness {index} has order {n}"
        if not _totally_regular(n, edges, arcs):
            return f"witness {index} is not totally regular"
        if not _bipartite(n, edges, arcs):
            return f"witness {index} is not bipartite"
        ecc = _eccentricities(_adjacency(n, edges, arcs)[0])
        d = None if None in ecc else max(ecc)
        if d is None or d > EXHAUSTIVE_K:
            return f"witness {index} has diameter {d}"
    return None


# "key: value" fields of the analyze report; a value is one token or a list.
_REPORT_FIELD = re.compile(r"([a-z][a-z -]*?):\s+(\[[^\]]*\]|\S+)")


def analyze_check(graph: Callable[[], Graph], n: int, edges: int, arcs: int, diameter: int) -> Check:
    """The counts, bipartiteness and the family's known diameter, then the
    radii and central vertices against the harness's own BFS of the graph
    file it wrote.  ``graph`` parses that file; it runs only when the check
    does, after the timed phase."""
    want = {"vertices": str(n), "edges": str(edges), "arcs": str(arcs),
            "bipartite": "yes", "diameter": str(diameter)}

    def check(output: tuple[int, str]) -> Optional[str]:
        problem = _exit_ok(output)
        if problem:
            return problem
        got = dict(_REPORT_FIELD.findall(output[1]))
        expected = dict(want)
        succ, pred = _adjacency(*graph())
        for side, adj in (("out", succ), ("in", pred)):
            ecc = _eccentricities(adj)
            if None in ecc:
                return "the input graph is not strongly connected"
            radius = min(ecc)
            expected[f"{side}-radius"] = str(radius)
            expected[f"{side}-central"] = str([v for v, e in enumerate(ecc) if e == radius])
        wrong = [f"{key}: {got.get(key)}" for key, value in expected.items()
                 if got.get(key) != value]
        return ", ".join(wrong)[:200] or None

    return check


def digest_check(command: str, all_pass: bool) -> Check:
    digest = REFERENCE["digests"][command]

    def check(output: tuple[int, str]) -> Optional[str]:
        problem = _exit_ok(output)
        if problem:
            return problem
        text = output[1]
        if all_pass and not all(line.startswith("PASS") for line in text.splitlines()):
            return "a suite line does not say PASS"
        return None if _sha(text) == digest else "output differs from the reference"

    return check


def crm_params(k: int) -> tuple[str, int, int]:
    """(case, n, c) of the paper's four optimal chordal-ring cases."""
    if k % 2 == 1:
        return "a", (k + 1) ** 2 // 2, k
    if k % 4 == 0:
        return "b", k * k // 2 + 2, (k // 2 - 1) ** 2 + k // 2
    if k % 8 == 6:
        t = (k + 2) // 8
        return "c1", k * (k // 2 - 1) + 4, 8 * t * t - 8 * t + 3
    t = (k + 6) // 8
    return "c2", k * (k // 2 - 1) + 4, 24 * t * t - 44 * t + 23


def crm_check(k: int) -> Check:
    want = crm_params(k)

    def check(params: Any) -> Optional[str]:
        got = (params.case, params.n, params.c)
        return None if params.k == k and got == want else f"k={k}: {got} != {want}"

    return check


def moore_exact(r: int, z: int, k_max: int) -> list[int]:
    """Exact bipartite Moore bounds M(0..k_max) for degrees (r, z).

    With d = r + z the layer counts of the Moore tree give M(0) = 0,
    M(1) = 2 and M(2) = 2d; after that
    M(k) = d*M(k-1) - (d-1-z)*M(k-2) - z*M(k-3), whose characteristic
    polynomial is (x^2 - (d-1)x - z)(x - 1).
    """
    d = r + z
    values = [0, 2, 2 * d]
    while len(values) <= k_max:
        values.append(d * values[-1] - (d - 1 - z) * values[-2] - z * values[-3])
    return values


def _equals(want: Any, label: str) -> Check:
    return lambda got: None if got == want else f"{label} = {got!r}, exact {want}"


def _candidates(output: Any) -> Optional[int]:
    if isinstance(output, tuple):
        for field in output[1].partition("\n")[0].split():
            if field.startswith("candidates="):
                return int(field.split("=", 1)[1])
    return None


# Independent graph checks on the canonical edge-list text, so that a
# witness is not judged by the code that found it.

def _graph_blocks(lines: list[str]) -> list[Graph]:
    graphs: list[Graph] = []
    for line in lines:
        kind, *rest = line.split()
        if kind == "mixedgraph":
            graphs.append((int(rest[0]), [], []))
        else:
            pair = (int(rest[0]), int(rest[1]))
            graphs[-1][1 if kind == "E" else 2].append(pair)
    return graphs


def _json_graph(text: str) -> Graph:
    payload = json.loads(text)
    return payload["n"], payload["edges"], payload["arcs"]


def _totally_regular(n: int, edges: list, arcs: list) -> bool:
    degree, out, into = [0] * n, [0] * n, [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    for u, v in arcs:
        out[u] += 1
        into[v] += 1
    return all(d == 1 for d in degree + out + into)


def _bipartite(n: int, edges: list, arcs: list) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges + arcs:
        adj[u].append(v)
        adj[v].append(u)
    colour = [-1] * n
    for root in range(n):
        if colour[root] >= 0:
            continue
        colour[root], stack = 0, [root]
        while stack:
            u = stack.pop()
            for v in adj[u]:
                if colour[v] < 0:
                    colour[v] = 1 - colour[u]
                    stack.append(v)
                elif colour[v] == colour[u]:
                    return False
    return True


def _adjacency(n: int, edges: list, arcs: list) -> tuple[list[list[int]], list[list[int]]]:
    """Successor and predecessor lists of the associated digraph."""
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        succ[u].append(v)
        succ[v].append(u)
        pred[u].append(v)
        pred[v].append(u)
    for u, v in arcs:
        succ[u].append(v)
        pred[v].append(u)
    return succ, pred


def _eccentricities(adj: list[list[int]]) -> list[Optional[int]]:
    """Each vertex's largest BFS distance along ``adj``, None where some
    vertex is unreachable."""
    n = len(adj)
    out: list[Optional[int]] = []
    for source in range(n):
        seen = bytearray(n)
        seen[source] = 1
        frontier, depth, reached = [source], 0, 1
        while True:
            nxt = []
            for u in frontier:
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = 1
                        nxt.append(v)
            if not nxt:
                break
            frontier, depth, reached = nxt, depth + 1, reached + len(nxt)
        out.append(depth if reached == n else None)
    return out


if __name__ == "__main__":
    sys.exit(main())
