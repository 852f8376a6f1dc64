"""Every bad input raises its own MixedGraphError subclass, and the module
entry point turns one into a single error line and exit code 1."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import mixedgraphs
from mixedgraphs import (
    LiftTemplate,
    MixedGraph,
    arc_first_pattern,
    automorphism_permutation,
    bd_digraph,
    bdm,
    bdm5_polynomial_matrix,
    bdm_canonical,
    bdm_star,
    bounds_report,
    canonical_m,
    cdrm,
    cdrm_scan,
    cdrm_voltage_graph,
    char_poly_eigenvalues,
    crm,
    crm_optimal,
    crm_upper,
    crm_voltage_graph,
    diameter,
    distances_from,
    double_arc_pattern,
    doubling_parameter,
    edge_first_pattern,
    eta,
    evaluate_at_root,
    exhaustive_max_order,
    four_vertex_template,
    improved_bound,
    lift,
    lift_diameter,
    lift_search,
    moore_bipartite,
    named_automorphism,
    parse_edge_list,
    path_endpoint_formula,
    polynomial_matrix,
    validate_and_profile,
    verify_automorphism,
    walk_pattern,
)
from mixedgraphs.cli import graph_from_json
from mixedgraphs.errors import (
    BadPermutationError,
    MalformedBaseError,
    MalformedGraphError,
    MixedGraphError,
    ParityError,
    UnsupportedParameterError,
)
from mixedgraphs.families import BdmVertex

# past sys.maxsize on a 64-bit build: refused before anything is allocated
HUGE = 2**70

CASES = [
    (lambda: MixedGraph.build(-1), MalformedGraphError),
    (lambda: MixedGraph.build(HUGE), MalformedGraphError),
    (lambda: MixedGraph.build(2, labels=["a"]), MalformedGraphError),
    (lambda: validate_and_profile(MixedGraph(1, (0,), ((),))), MalformedGraphError),
    (lambda: validate_and_profile(MixedGraph(1, (None,), ((0,),))), MalformedGraphError),
    (lambda: parse_edge_list("mixedgraph x"), MalformedGraphError),
    (lambda: parse_edge_list("mixedgraph 3 7"), MalformedGraphError),
    # every integer in the text is plain ASCII decimal, as str() writes it
    (lambda: parse_edge_list("mixedgraph 1_1"), MalformedGraphError),
    (lambda: parse_edge_list("mixedgraph 2\nE +0 1\n"), MalformedGraphError),
    (lambda: parse_edge_list("mixedgraph 2\nE \u0661 0\n"), MalformedGraphError),
    (lambda: graph_from_json("[]"), MalformedGraphError),
    (lambda: graph_from_json('{"n": 2.0, "edges": [], "arcs": []}'), MalformedGraphError),
    (lambda: bd_digraph(1), UnsupportedParameterError),
    (lambda: walk_pattern(bdm(5), 20, "EA"), UnsupportedParameterError),
    (lambda: path_endpoint_formula("phi", 2, 0, 0), UnsupportedParameterError),
    (lambda: named_automorphism("rotate", BdmVertex(0, 0, 0), 5), UnsupportedParameterError),
    (lambda: char_poly_eigenvalues([[1, 2]]), UnsupportedParameterError),
    (lambda: lift_diameter(four_vertex_template(), HUGE, (0,) * 6), UnsupportedParameterError),
]
IDS = [
    "build-negative-n", "build-huge-n", "build-labels-length", "self-loop-edge",
    "self-loop-arc", "bad-header", "header-extra-field", "header-underscore",
    "signed-zero-id", "arabic-indic-digit-id", "json-not-an-object", "json-float-n",
    "bd-digraph-m1", "walk-start-out-of-range", "endpoint-modulus-0",
    "unknown-automorphism", "non-square-matrix", "huge-cover",
]


@pytest.mark.parametrize("call, error", CASES, ids=IDS)
def test_bad_input_raises_its_error_class(call, error):
    with pytest.raises(error):
        call()


T = four_vertex_template()
VOLTAGES = (0, 0, 2, 1, 0, 2)

# (function, valid arguments, path to one int among them, error class): the
# path's first index picks the argument, any further ones an item inside it
INT_PARAMETERS = [
    (moore_bipartite, (1, 1, 5), (0,), UnsupportedParameterError),
    (moore_bipartite, (1, 1, 5), (1,), UnsupportedParameterError),
    (moore_bipartite, (1, 1, 5), (2,), UnsupportedParameterError),
    (eta, (4,), (0,), UnsupportedParameterError),
    (improved_bound, (5,), (0,), UnsupportedParameterError),
    (crm_upper, (5,), (0,), UnsupportedParameterError),
    (bounds_report, (5,), (0,), UnsupportedParameterError),
    (MixedGraph.build, (3,), (0,), MalformedGraphError),
    (verify_automorphism, (bdm(5), tuple(range(20))), (1, 0), BadPermutationError),
    (canonical_m, (3,), (0,), UnsupportedParameterError),
    (doubling_parameter, (40,), (0,), UnsupportedParameterError),
    (bdm, (5,), (0,), UnsupportedParameterError),
    (bdm_canonical, (3,), (0,), UnsupportedParameterError),
    (bdm_star, (20,), (0,), UnsupportedParameterError),
    (bd_digraph, (4,), (0,), UnsupportedParameterError),
    (walk_pattern, (bdm(5), 0, "EA"), (1,), UnsupportedParameterError),
    (edge_first_pattern, (2,), (0,), UnsupportedParameterError),
    (arc_first_pattern, (2,), (0,), UnsupportedParameterError),
    (double_arc_pattern, (2,), (0,), UnsupportedParameterError),
    (path_endpoint_formula, ("phi", 2, 1, 5), (1,), ParityError),
    (path_endpoint_formula, ("phi", 2, 1, 5), (2,), UnsupportedParameterError),
    (path_endpoint_formula, ("phi", 2, 1, 5), (3,), UnsupportedParameterError),
    (named_automorphism, ("reflect", BdmVertex(0, 0, 0), 5), (2,), UnsupportedParameterError),
    (automorphism_permutation, ("reflect", 5), (1,), UnsupportedParameterError),
    (crm, (8, 3), (0,), UnsupportedParameterError),
    (crm, (8, 3), (1,), UnsupportedParameterError),
    (crm_optimal, (5,), (0,), UnsupportedParameterError),
    (cdrm, (4, 1), (0,), UnsupportedParameterError),
    (cdrm, (4, 1), (1,), UnsupportedParameterError),
    (crm_voltage_graph, (8, 3), (0,), UnsupportedParameterError),
    (crm_voltage_graph, (8, 3), (1,), UnsupportedParameterError),
    (cdrm_voltage_graph, (4, 1), (0,), UnsupportedParameterError),
    (cdrm_voltage_graph, (4, 1), (1,), UnsupportedParameterError),
    (LiftTemplate, (2, ((0, 1),), ((0, 1), (1, 0))), (0,), MalformedBaseError),
    (LiftTemplate, (2, ((0, 1),), ((0, 1), (1, 0))), (1, 0, 1), MalformedBaseError),
    (lift, (T, 5, VOLTAGES), (1,), MalformedBaseError),
    (lift, (T, 5, VOLTAGES), (2, 5), MalformedBaseError),
    (distances_from, (bdm(5), 0), (1,), UnsupportedParameterError),
    (lift_diameter, (T, 5, VOLTAGES), (1,), MalformedBaseError),
    (lift_diameter, (T, 5, VOLTAGES), (2, 5), MalformedBaseError),
    (lift_diameter, (T, 5, VOLTAGES, 4), (3,), UnsupportedParameterError),
    (diameter, (bdm(5), 4), (1,), UnsupportedParameterError),
    (exhaustive_max_order, (3, 8, True, 10), (0,), UnsupportedParameterError),
    (exhaustive_max_order, (3, 8, True, 10), (1,), UnsupportedParameterError),
    (exhaustive_max_order, (3, 8, True, 10), (3,), UnsupportedParameterError),
    (lift_search, (6, T, (5,), 100, 1), (0,), UnsupportedParameterError),
    (lift_search, (6, T, (5,), 100, 1), (2, 0), UnsupportedParameterError),
    (lift_search, (6, T, (5,), 100, 1), (3,), UnsupportedParameterError),
    (lift_search, (6, T, (5,), 100, 1), (4,), UnsupportedParameterError),
    (cdrm_scan, (4,), (0,), UnsupportedParameterError),
    (evaluate_at_root, (bdm5_polynomial_matrix(), 0), (1,), UnsupportedParameterError),
    (polynomial_matrix, (T, 5, VOLTAGES), (1,), MalformedBaseError),
    (polynomial_matrix, (T, 5, VOLTAGES), (2, 5), MalformedBaseError),
]


def _put(value, path, item):
    """value with the item at path replaced, sequences rebuilt as tuples."""
    if not path:
        return item
    items = list(value)
    items[path[0]] = _put(items[path[0]], path[1:], item)
    return tuple(items)


@pytest.mark.parametrize(
    "function, args, path, error",
    INT_PARAMETERS,
    ids=["-".join([row[0].__qualname__, *map(str, row[2])]) for row in INT_PARAMETERS],
)
def test_an_int_parameter_refuses_other_types(function, args, path, error):
    function(*args)  # the valid call is accepted
    for bad in (1.5, True, "3"):
        with pytest.raises(MixedGraphError) as info:
            function(*_put(args, path, bad))
        assert type(info.value) is error, (bad, info.value)


def test_every_int_parameter_of_the_public_api_is_in_the_table():
    # hints resolve against the package, which holds the names some modules
    # import only for type checking
    covered = {(row[0], row[2][0]) for row in INT_PARAMETERS}
    missing = []
    for name in mixedgraphs.__all__:
        function = getattr(mixedgraphs, name)
        if not inspect.isfunction(function):
            continue
        hints = typing.get_type_hints(function, localns=vars(mixedgraphs))
        for i, parameter in enumerate(inspect.signature(function).parameters):
            if hints.get(parameter) in (int, typing.Optional[int]) and (function, i) not in covered:
                missing.append(f"{name}({parameter})")
    assert not missing


def run_module(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(mixedgraphs.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src if not path else os.pathsep.join([src, path])}
    return subprocess.run(
        [sys.executable, "-m", "mixedgraphs", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def test_module_entry_point():
    done = run_module("bounds", "--k", "9")
    assert (done.returncode, done.stderr) == (0, "")
    assert "moore(1,1,9) = 176" in done.stdout
    done = run_module("search", "cdrm-scan", "--m", str(HUGE))
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1
