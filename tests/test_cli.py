from __future__ import annotations

import hashlib
import itertools
import json
import sys
import time
from pathlib import Path

import pytest

from mixedgraphs import (
    MixedGraph, bdm, cli, diameter, families, format_edge_list, moore_bipartite, parse_edge_list,
    search,
)
from mixedgraphs.cli import graph_from_json, graph_to_dot, graph_to_json, main
from mixedgraphs.errors import MalformedGraphError
from test_search import refuse_evaluation


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_command(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--k", "9")
    assert code == 0
    assert "moore(1,1,9) = 176" in out
    assert "improved(k=9) = 158" in out
    assert "crm_upper(k=9) = 50" in out


def test_bounds_too_long_to_print_is_one_error_line(capsys):
    # moore(1,1,100000) has about 20,900 digits, beyond the interpreter's
    # default limit of 4,300 for int-to-text conversion
    code, out, err = run_cli(capsys, "bounds", "--k", "100000")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def too_long_line():
    limit = sys.get_int_max_str_digits()
    return f"error: a bound of more than {limit} digits is too long to print\n"


@pytest.mark.parametrize("argv", [
    ("--k", "1000000"),
    ("--r", "1000000000", "--z", "1000000000", "--k", "20000"),
    ("--k", "1" + "0" * 400),
])
def test_bounds_refuses_before_computing(capsys, argv):
    # the recurrence alone takes seconds on the first two, forever on the last
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", too_long_line())


@pytest.mark.parametrize("r, z", list(itertools.product((1, 2, 3), repeat=2)))
def test_bounds_prints_up_to_the_largest_printable_k(capsys, r, z):
    cap = 10 ** sys.get_int_max_str_digits()  # the least unprintable value
    printable, unprintable = 1, 2
    while moore_bipartite(r, z, unprintable) < cap:
        printable, unprintable = unprintable, 2 * unprintable
    while unprintable - printable > 1:
        mid = (printable + unprintable) // 2
        if moore_bipartite(r, z, mid) < cap:
            printable = mid
        else:
            unprintable = mid
    code, out, _ = run_cli(capsys, "bounds", "--r", str(r), "--z", str(z), "--k", str(printable))
    assert code == 0
    assert out.startswith(f"moore({r},{z},{printable}) = {moore_bipartite(r, z, printable)}\n")
    code, out, err = run_cli(capsys, "bounds", "--r", str(r), "--z", str(z), "--k", str(unprintable))
    assert (code, out, err) == (1, "", too_long_line())


def test_construct_and_analyze_round_trip(tmp_path, capsys):
    path = tmp_path / "graph.edges"
    code, _, _ = run_cli(capsys, "construct", "bdm", "--m", "5", "--out", str(path))
    assert code == 0
    assert parse_edge_list(path.read_text()) is not None

    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "vertices: 20" in out
    assert "diameter: 6" in out
    assert "totally regular: (1,1)" in out
    assert "bipartite: yes" in out


def test_construct_json_round_trip(tmp_path, capsys):
    path = tmp_path / "graph.json"
    code, _, _ = run_cli(
        capsys, "construct", "crm", "--n", "18", "--c", "5",
        "--format", "json", "--out", str(path),
    )
    assert code == 0
    payload = json.loads(path.read_text())
    assert list(payload) == ["n", "edges", "arcs", "labels"]
    code, out, _ = run_cli(capsys, "analyze", str(path))
    assert code == 0
    assert "vertices: 18" in out
    assert "diameter: 5" in out


def test_construct_to_stdout(capsys):
    code, out, _ = run_cli(capsys, "construct", "bd", "--m", "2")
    assert code == 0
    assert out.startswith("mixedgraph 4\n")


def test_construct_canonical_parameter(capsys):
    code, out, _ = run_cli(capsys, "construct", "bdm", "--n", "4")
    assert code == 0
    assert out.startswith("mixedgraph 40\n")


def test_construct_bdm_rejects_both_parameters(capsys):
    assert_one_line_error(*run_cli(capsys, "construct", "bdm", "--m", "5", "--n", "3"))


@pytest.mark.parametrize("m", ["7", "12"])
def test_construct_bdm_rejects_a_modulus_5_does_not_divide(capsys, m):
    code, out, err = run_cli(capsys, "construct", "bdm", "--m", m)
    assert_one_line_error(code, out, err)
    assert err == f"error: modulus must be a multiple of 5, got {m}\n"


@pytest.mark.parametrize(
    "argv, option",
    [
        ("bd --m 4 --n 3", "--n"),
        ("bdm-star --m 20 --n 3", "--n"),
        ("crm --n 8 --c 3 --m 5", "--m"),
        ("cdrm --m 4 --c 1 --n 9", "--n"),
        ("lift --m 3", "--m"),
        ("crm --n 8 --c 3 --convention reflect", "--convention"),
    ],
)
def test_construct_rejects_options_its_family_does_not_take(capsys, argv, option):
    family = argv.split()[0]
    code, out, err = run_cli(capsys, "construct", *argv.split())
    assert_one_line_error(code, out, err)
    assert err == f"error: {family} does not take {option}\n"


@pytest.mark.parametrize(
    "argv, graph, render",
    [
        (["bdm-star", "--m", "20"], lambda: families.bdm_star(20), format_edge_list),
        (["cdrm", "--m", "10", "--c", "3", "--convention", "reflect"],
         lambda: families.cdrm(10, 3, "reflect"), format_edge_list),
        (["cdrm", "--m", "10", "--c", "3"],
         lambda: families.cdrm(10, 3, "shift"), format_edge_list),
        (["lift"], lambda: families.lift(*families.bdm5_base()), format_edge_list),
        (["lift", "--format", "json"],
         lambda: families.lift(*families.bdm5_base()), graph_to_json),
        (["bd", "--m", "4", "--format", "dot"],
         lambda: families.bd_digraph(4), graph_to_dot),
    ],
    ids=["bdm-star", "cdrm-reflect", "cdrm-default", "lift", "lift-json", "bd-dot"],
)
def test_construct_prints_the_library_rendering(capsys, argv, graph, render):
    code, out, err = run_cli(capsys, "construct", *argv)
    assert (code, err) == (0, "")
    assert out == render(graph())


def test_dot_export_shape():
    g = bdm(5)
    dot = graph_to_dot(g)
    assert dot.startswith("digraph mixedgraph {")
    assert "[dir=none];" in dot
    assert 'label="(0,0)_0"' in dot


def test_dot_export_escapes_quotes_and_backslashes_in_labels():
    # graph_from_json accepts any string label, so a round trip can carry these
    g = graph_from_json(graph_to_json(MixedGraph.build(2, edges=[(0, 1)], labels=['a"b', "c\\"])))
    dot = graph_to_dot(g)
    assert '  0 [label="a\\"b"];\n' in dot
    assert '  1 [label="c\\\\"];\n' in dot


def test_json_helpers_round_trip():
    g = bdm(5)
    again = graph_from_json(graph_to_json(g))
    assert again == g


def test_cli_reports_errors_via_exit_code(capsys):
    code, _, err = run_cli(capsys, "construct", "crm", "--n", "9", "--c", "3")
    assert code == 1
    assert err.startswith("error:")


def test_search_exhaustive_command(capsys):
    code, out, _ = run_cli(
        capsys, "search", "exhaustive", "--k", "3", "--n-max", "8"
    )
    assert code == 0
    assert out.startswith("searchreport kind=exhaustive k=3")
    assert "best_order=8" in out


def test_search_lift_command(capsys):
    code, out, _ = run_cli(
        capsys, "search", "lift", "--k", "6", "--template", "4",
        "--q", "5", "--budget", "20000", "--seed", "7",
    )
    assert code == 0
    assert "best_order=20" in out
    assert "seed=7" in out


@pytest.mark.parametrize("budget", ["0", "-5"])
def test_search_exhaustive_bad_budget_is_an_error(capsys, budget):
    assert_one_line_error(*run_cli(
        capsys, "search", "exhaustive", "--k", "3", "--n-max", "8", "--budget", budget
    ))


def test_search_exhaustive_general_past_the_recursion_limit(capsys):
    code, out, err = run_cli(
        capsys, "search", "exhaustive", "--general", "--k", "4",
        "--n-max", "2000", "--budget", "10",
    )
    assert code == 0
    assert err == ""
    assert " candidates=10 " in out


def test_search_lift_searches_a_repeated_order_once(capsys):
    argv = ["search", "lift", "--k", "4", "--template", "2", "--budget", "1000",
            "--seed", "1"]
    code, once, _ = run_cli(capsys, *argv, "--q", "2")
    assert code == 0
    assert "candidates=8 " in once
    code, twice, _ = run_cli(capsys, *argv, "--q", "2", "--q", "2")
    assert code == 0
    assert twice == once


def test_lift_sweep_report_matches_the_benchmark_reference(capsys):
    # the benchmark's lift-sweep op at seed 1 against its "lift-sweep"
    # sha256 in bench/reference.json, taken with the header's seed field
    # written as seed=SEED
    reference = Path(__file__).resolve().parent.parent / "bench" / "reference.json"
    digest = json.loads(reference.read_text())["lift-sweep"]["sha256"]
    code, out, err = run_cli(
        capsys, "search", "lift", "--k", "6", "--template", "4",
        "--q", "5", "--q", "7", "--budget", "20000", "--seed", "1",
    )
    assert (code, err) == (0, "")
    head, sep, rest = out.partition("\n")
    assert head.endswith(" seed=1")
    normal = head[: -len(" seed=1")] + " seed=SEED" + sep + rest
    assert hashlib.sha256(normal.encode("utf-8")).hexdigest() == digest


def test_search_cdrm_command(capsys):
    code, out, _ = run_cli(capsys, "search", "cdrm-scan", "--m", "10")
    assert code == 0
    assert "diameter=6" in out


@pytest.mark.parametrize(
    "argv",
    [["search", "cdrm-scan", "--m", "2"], ["construct", "cdrm", "--m", "2", "--c", "1"]],
    ids=["scan", "construct"],
)
def test_rings_of_length_two_are_refused(capsys, argv):
    # each would be a digon
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "ring length must be even >= 4" in err


def test_construct_refuses_a_chord_along_an_arc(capsys):
    # crm(8, 1) would put the arc 1 -> 2 along the chord {1, 2}
    code, out, err = run_cli(capsys, "construct", "crm", "--n", "8", "--c", "1")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and "chord length must be odd in 3..5" in err


def test_spectrum_command(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "bdm5")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("z = zeta^0:")
    assert "+2.0000+0.0000i" in lines[0]
    assert "-0.8266" in lines[1]


def test_table_1(capsys):
    code, out, _ = run_cli(capsys, "table", "1")
    assert code == 0
    rows = {int(line.split()[0]): line.split() for line in out.splitlines()[1:]}
    assert rows[9][1] == "176" and rows[9][2] == "158"
    assert rows[14][3] == "320"
    assert rows[6][3] == "20"


def test_table_6(capsys):
    code, out, _ = run_cli(capsys, "table", "6")
    assert code == 0
    rows = {int(line.split()[0]): line.split() for line in out.splitlines()[1:]}
    assert rows[18][1:3] == ["148", "107"]
    assert rows[18][5] == "180"
    assert rows[16][1] == "130"


@pytest.mark.parametrize(
    "suite", ["bdm-diameter", "automorphisms", "tables34", "crm-table6"]
)
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run_cli(capsys, "verify", suite)
    assert code == 0
    assert "FAIL" not in out
    assert "PASS" in out


def test_verify_tables34_fails_where_one_length_is_wrong(monkeypatch, capsys):
    # the walk endpoint formula of length 6 is off by one: it is the last
    # length checked for m=40 (6 steps) and is read twice for m=80 (7 steps)
    real = cli.path_endpoint_formula

    def path_endpoint_formula(kind, n, i, m):
        return (real(kind, n, i, m) + (n == 6)) % m

    monkeypatch.setattr(cli, "path_endpoint_formula", path_endpoint_formula)
    code, out, err = run_cli(capsys, "verify", "tables34")
    assert code == 1
    assert err == ""
    assert out.splitlines() == [
        "FAIL  walk endpoint formulas hold for m=40",
        "FAIL  walk endpoint formulas hold for m=80",
    ]


def test_verify_crm_table6_reports_a_failing_row(monkeypatch, capsys):
    real = families.crm_optimal

    def crm_optimal(k):
        if k == 7:
            raise MalformedGraphError("chordal ring (20,3) has diameter 8, wanted 7")
        return real(k)

    monkeypatch.setattr(families, "crm_optimal", crm_optimal)
    code, out, err = run_cli(capsys, "verify", "crm-table6")
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 20  # one line per k = 3..22; the suite goes on
    assert lines[4] == "FAIL  crm k=7: chordal ring (20,3) has diameter 8, wanted 7"
    assert all(line.startswith("PASS  crm k=") for line in lines[:4] + lines[5:])


def test_verify_crm_table6_fails_a_row_above_the_order_bound(monkeypatch, capsys):
    real = families.crm_optimal

    def crm_optimal(k):
        params = real(k)
        if k == 9:  # crm_upper(9) = 50
            return families.CrmParams(params.k, params.case, 52, params.c, params.ell, params.t)
        return params

    monkeypatch.setattr(families, "crm_optimal", crm_optimal)
    code, out, err = run_cli(capsys, "verify", "crm-table6")
    assert code == 1
    assert err == ""
    lines = out.splitlines()
    assert len(lines) == 20
    assert lines[6] == "FAIL  crm k=9 (n=52, c=9) diameter 9"
    assert all(line.startswith("PASS  crm k=") for line in lines[:6] + lines[7:])


def test_analyze_matches_construction_claims(tmp_path, capsys):
    # construct -> file -> analyze agrees with direct measurement
    path = tmp_path / "crm.edges"
    run_cli(capsys, "construct", "crm", "--n", "32", "--c", "7", "--out", str(path))
    g = parse_edge_list(path.read_text())
    assert g.n == 32
    assert diameter(g) == 7
    assert format_edge_list(g) == path.read_text()


def assert_one_line_error(code, out, err):
    assert code == 1
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1


LIFT_ARGV = ["search", "lift", "--k", "5", "--q", "3", "--budget", "5"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (LIFT_ARGV + ["--seed", "1", "--template", "3"], "argument --template: invalid choice"),
        (LIFT_ARGV, "the following arguments are required: --seed"),
        (LIFT_ARGV + ["--seed", "1", "--k", "x"], "argument --k: invalid int value: 'x'"),
        (LIFT_ARGV + ["--seed", "1", "--extra"], "unrecognized arguments: --extra"),
        (["search"], "the following arguments are required"),
        (["bogus"], "invalid choice: 'bogus'"),
    ],
    ids=["bad-choice", "missing-option", "bad-int", "unknown-option", "no-subcommand",
         "bad-command"],
)
def test_usage_errors_are_one_line_errors(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert_one_line_error(code, out, err)
    assert message in err


LIFT_Q_ARGV = ["search", "lift", "--k", "6", "--template", "4", "--budget", "2000",
               "--seed", "1"]


def test_one_parser_serves_every_call(capsys):
    # the reports of fresh parsers, as separate processes would build
    fresh = {}
    for qs in (("5", "7"), ("5",)):
        cli._build_parser.cache_clear()
        fresh[qs] = run_cli(capsys, *LIFT_Q_ARGV, *[x for q in qs for x in ("--q", q)])
    assert fresh[("5", "7")] != fresh[("5",)]
    # one parser in turn: the --q list of one call does not leak into the next
    assert cli._build_parser() is cli._build_parser()
    assert run_cli(capsys, *LIFT_Q_ARGV, "--q", "5", "--q", "7") == fresh[("5", "7")]
    assert run_cli(capsys, *LIFT_Q_ARGV, "--q", "5") == fresh[("5",)]
    # a usage error leaves the parser fit for the next command
    assert_one_line_error(*run_cli(capsys, *LIFT_Q_ARGV, "--q", "x"))
    code, out, err = run_cli(capsys, "bounds", "--k", "9")
    assert (code, err) == (0, "")
    assert "moore(1,1,9) = 176" in out


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["search", "lift", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: ")


def test_analyze_missing_file_is_an_error(tmp_path, capsys):
    assert_one_line_error(*run_cli(capsys, "analyze", str(tmp_path / "absent.edges")))


@pytest.mark.parametrize(
    "payload",
    [
        "{}",
        '{"n": 2, "edges": []}',
        '{"n": "2", "edges": [], "arcs": []}',
        '{"n": 2, "edges": [[0]], "arcs": []}',
        '{"n": 2, "edges": 5, "arcs": []}',
        '{"n": 2, "edges": [], "arcs": [], "labels": {"0": "a"}}',
        '{"n": 2, "edges": [[0, 1]], "arcs": [], "labels": {"0": 5, "1": [1]}}',
        '{"n": 2, "edges": [], "arcs": [], "labels": []}',
        '{"n": 2, "edges": [], "arcs": [], "labels": {"0": "a", "1": "b", "7": 3}}',
        "{not json",
    ],
)
def test_analyze_bad_json_keys_are_errors(tmp_path, capsys, payload):
    path = tmp_path / "graph.json"
    path.write_text(payload)
    assert_one_line_error(*run_cli(capsys, "analyze", str(path)))


@pytest.mark.parametrize(
    "payload",
    [
        '{"n": 2, "edges": [[false, true]], "arcs": []}',
        '{"n": 2, "edges": [], "arcs": [[0, true]]}',
        '{"n": true, "edges": [], "arcs": []}',
    ],
)
def test_analyze_rejects_json_booleans_as_ids(tmp_path, capsys, payload):
    path = tmp_path / "graph.json"
    path.write_text(payload)
    assert_one_line_error(*run_cli(capsys, "analyze", str(path)))


def test_analyze_sends_a_json_array_to_the_json_reader(tmp_path, capsys):
    # an edge list opens with "mixedgraph", so "[" can only start JSON
    path = tmp_path / "graph.json"
    path.write_text(" \n[1, 2]\n")
    assert run_cli(capsys, "analyze", str(path)) == (
        1, "", "error: JSON graph must be an object\n"
    )


def test_analyze_rejects_a_header_with_more_than_the_order(tmp_path, capsys):
    path = tmp_path / "graph.edges"
    path.write_text("mixedgraph 3 7\nA 0 1\n")
    assert_one_line_error(*run_cli(capsys, "analyze", str(path)))


@pytest.mark.parametrize(
    "argv",
    [["--k", "0", "--q", "5"], ["--k", "6", "--q", "5", "--q", "0"]],
    ids=["k0", "q0"],
)
def test_search_lift_bad_arguments_are_errors(monkeypatch, capsys, argv):
    monkeypatch.setattr(families.LiftTemplate, "cover", refuse_evaluation)
    assert_one_line_error(*run_cli(
        capsys, "search", "lift", *argv, "--budget", "20000", "--seed", "1"
    ))


def test_construct_unwritable_out_is_an_error(tmp_path, capsys):
    # a directory, then a file in a missing directory
    for out in (tmp_path, tmp_path / "missing" / "ring.edges"):
        assert_one_line_error(*run_cli(
            capsys, "construct", "crm", "--n", "8", "--c", "3", "--out", str(out)
        ))


HUGE = str(2**70)  # past sys.maxsize: refused before anything is allocated


@pytest.mark.parametrize(
    "text",
    [f"mixedgraph {HUGE}\n", f'{{"n": {HUGE}, "edges": [], "arcs": []}}'],
    ids=["edges", "json"],
)
def test_analyze_too_many_vertices_is_an_error(tmp_path, capsys, text):
    path = tmp_path / "graph.txt"
    path.write_text(text)
    assert_one_line_error(*run_cli(capsys, "analyze", str(path)))


@pytest.mark.parametrize(
    "argv",
    [["lift", "--k", "6", "--q", HUGE, "--budget", "3", "--seed", "1"],
     ["cdrm-scan", "--m", HUGE]],
    ids=["lift", "cdrm-scan"],
)
def test_search_on_a_cover_too_large_is_an_error(capsys, argv):
    assert_one_line_error(*run_cli(capsys, "search", *argv))


@pytest.mark.parametrize("q", ["100000000", "10000000000"])
def test_search_lift_counts_an_order_too_large_for_k_without_judging_it(
    monkeypatch, capsys, q
):
    # a lift of diameter <= 6 of the four-vertex template, two steps out of
    # each base vertex, has at most 127 vertices: the q is counted, and no
    # class of it is measured
    monkeypatch.setattr(search, "lift_diameter", refuse_evaluation)
    code, out, err = run_cli(
        capsys, "search", "lift", "--k", "6", "--q", q, "--budget", "3", "--seed", "1"
    )
    assert (code, err) == (0, "")
    assert out == (
        f"searchreport kind=lift k=6 max_order_tested={4 * int(q)} best_order=-"
        " exhaustive=false candidates=3 seed=1\nwitnesses 0\n"
    )
