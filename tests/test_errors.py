"""Every bad input raises its own MixedGraphError subclass, and the module
entry point turns one into a single error line and exit code 1."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixedgraphs
from mixedgraphs import (
    MixedGraph,
    bd_digraph,
    bdm,
    char_poly_eigenvalues,
    four_vertex_template,
    lift_diameter,
    named_automorphism,
    parse_edge_list,
    path_endpoint_formula,
    validate_and_profile,
    walk_pattern,
)
from mixedgraphs.cli import graph_from_json
from mixedgraphs.errors import MalformedGraphError, UnsupportedParameterError
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
    (lambda: graph_from_json("[]"), MalformedGraphError),
    (lambda: bd_digraph(1), UnsupportedParameterError),
    (lambda: walk_pattern(bdm(5), 20, "EA"), UnsupportedParameterError),
    (lambda: path_endpoint_formula("phi", 2, 0, 0), UnsupportedParameterError),
    (lambda: named_automorphism("rotate", BdmVertex(0, 0, 0), 5), UnsupportedParameterError),
    (lambda: char_poly_eigenvalues([[1, 2]]), UnsupportedParameterError),
    (lambda: lift_diameter(four_vertex_template(), HUGE, (0,) * 6), UnsupportedParameterError),
]
IDS = [
    "build-negative-n", "build-huge-n", "build-labels-length", "self-loop-edge",
    "self-loop-arc", "bad-header", "header-extra-field", "json-not-an-object",
    "bd-digraph-m1", "walk-start-out-of-range", "endpoint-modulus-0",
    "unknown-automorphism", "non-square-matrix", "huge-cover",
]


@pytest.mark.parametrize("call, error", CASES, ids=IDS)
def test_bad_input_raises_its_error_class(call, error):
    with pytest.raises(error):
        call()


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
