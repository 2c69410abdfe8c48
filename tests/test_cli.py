import functools
import hashlib
import io
import json
import os
import random
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from helpers import attach_leaf, chord_graph, insert_bigon, manhattan_grid, random_plabic_network, reweight
from oracles import argparse_cli
from positroid.cli import COMMANDS, _parse, main
from positroid.lediagram import LeTableau
from positroid.permutations import DecoratedPermutation
from positroid.plabic import _graph_of, apply_reduction, graph_from_perm


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_count_table(capsys):
    code, out, _ = run(capsys, "count", "--n", "4")
    assert code == 0
    assert out.splitlines()[-1].split() == ["1", "15", "33", "15", "1"]


def test_count_check_all(capsys):
    code, out, _ = run(capsys, "count", "--n", "5", "--check-all")
    assert code == 0 and "all checks passed" in out


def test_count_csv_q(capsys):
    code, out, _ = run(capsys, "count", "--n", "2", "--q", "--csv")
    assert code == 0
    assert "1,2,2,1" in out.splitlines()  # N_{1,2}(q) = 2 + q


def test_invert_identity(capsys, tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("2 4\n1 0 0 0\n0 1 0 0\n")
    code, out, _ = run(capsys, "invert", str(f))
    assert code == 0
    assert out.splitlines()[0] == "2 4"


def test_invert_non_tnn_exit_2(capsys, tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("2 2\n1 0\n0 -1\n")
    code, out, err = run(capsys, "invert", str(f))
    assert code == 2
    assert "Delta" in err


def test_invert_witness_text_exit_2(capsys, tmp_path):
    f = tmp_path / "m.txt"
    f.write_text("2 3\n1 0 1\n0 1 -2\n")
    code, out, err = run(capsys, "invert", str(f))
    assert (code, out) == (2, "")
    assert err == "precondition failed: minor Delta_{1,3} = -2 < 0\n"
    f.write_text("2 3\n1 2 3\n2 4 6\n")
    code, _, err = run(capsys, "invert", str(f))
    assert (code, err) == (2, "precondition failed: matrix has rank 1 < 2\n")


def test_invert_k0_keeps_the_width(capsys, tmp_path):
    # a matrix with no rows still has n columns: the one cell of Gr(0, 3)
    f = tmp_path / "m.txt"
    f.write_text("0 3\n")
    code, out, err = run(capsys, "invert", str(f))
    assert (code, out, err) == (0, "0 3\n", "")


def test_k0_tableau_round_trips_through_its_measurement(capsys, tmp_path):
    # le2net | measure --matrix | invert on the one cell of Gr(0, 3)
    f = tmp_path / "t.txt"
    f.write_text("0 3\n")
    for command in ("le2net", "measure", "invert"):
        code, out, err = run(capsys, command, str(f), *(["--matrix"] if command == "measure" else []))
        assert (code, err) == (0, "")
        assert not [line for line in out.splitlines() if line.endswith(" ")], out
        f.write_text(out)
    assert out == "0 3\n"


def test_measure_k0_writes_the_empty_subset_as_a_dash(capsys, tmp_path):
    # the one Plucker coordinate of Gr(0, 3) is Delta_{} = 1, written as necklace text writes {}
    f = tmp_path / "t.txt"
    f.write_text("0 3\n")
    _, net, _ = run(capsys, "le2net", str(f))
    f.write_text(net)
    assert run(capsys, "measure", str(f)) == (0, "- 1\n", "")
    code, out, _ = run(capsys, "measure", str(f), "--json")
    assert (code, json.loads(out)["coords"]) == (0, {"-": "1"})


@pytest.mark.parametrize("entry", ["1/0", "x", "1e9", "--1", "nan"])
def test_invert_bad_entry_exit_1(capsys, tmp_path, entry):
    f = tmp_path / "m.txt"
    f.write_text(f"2 2\n1 0\n{entry} 1\n")
    code, out, err = run(capsys, "invert", str(f))
    assert (code, out) == (1, "")
    assert err == f"error: row 2, column 1: {entry!r} is not a rational number\n"


def test_bad_file_exit_1(capsys, tmp_path):
    code, _, err = run(capsys, "invert", str(tmp_path / "missing.txt"))
    assert code == 1


def test_perm_le_roundtrip_via_cli(capsys, tmp_path):
    code, out, _ = run(capsys, "perm2le", "4 3 1 2")
    assert code == 0
    f = tmp_path / "le.txt"
    f.write_text(out)
    code, out2, _ = run(capsys, "le2perm", str(f))
    assert code == 0
    assert out2.strip() == "4 3 1 2"


def test_measure_matrix_of_tableau(capsys, tmp_path):
    T = LeTableau(1, 2, (1,), [[5]])
    code, out, _ = run(capsys, "le2net", "-")
    # stdin not wired in this harness; write the network from the library
    from positroid.lediagram import gamma_network
    net = gamma_network(T)
    f = tmp_path / "net.txt"
    f.write_text(net.to_text())
    code, out, _ = run(capsys, "measure", str(f), "--matrix")
    assert code == 0
    assert out.splitlines()[-1].split() == ["1", "5"]


def test_measure_plucker_json(capsys, tmp_path):
    T = LeTableau(1, 2, (1,), [[5]])
    from positroid.lediagram import gamma_network
    f = tmp_path / "net.txt"
    f.write_text(gamma_network(T).to_text())
    code, out, _ = run(capsys, "measure", str(f), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["coords"] == {"1": "1", "2": "5"}


# `measure --matrix` of a cyclic 2 x 2 Manhattan grid (one block is a directed cycle)
CYCLIC_GRID_MATRIX = """4 8
1 63/46 0 -98/23 0 49/828 0 -196/207
0 7/23 1 14/23 0 -7/828 0 28/207
0 -63/115 0 196/115 1 7/460 0 -28/115
0 135/46 0 -210/23 0 35/276 1 30/23
"""


def test_measure_matrix_text_and_json_are_pinned(capsys, tmp_path):
    net = manhattan_grid(random.Random(5), 2, 2, (True, False), (False, True))
    assert not net.is_acyclic()
    f = tmp_path / "net.txt"
    f.write_text(net.to_text())
    code, out, _ = run(capsys, "measure", str(f), "--matrix")
    assert (code, out) == (0, CYCLIC_GRID_MATRIX)
    code, out, _ = run(capsys, "measure", str(f), "--matrix", "--json")
    matrix = [line.split() for line in CYCLIC_GRID_MATRIX.splitlines()[1:]]
    assert code == 0
    assert out == json.dumps({"matrix": matrix, "text": CYCLIC_GRID_MATRIX}, indent=2) + "\n"


def test_trips_and_matroid(capsys, tmp_path):
    pi = DecoratedPermutation((4, 3, 1, 2))
    G = graph_from_perm(pi)
    f = tmp_path / "g.txt"
    f.write_text(G.to_text())
    code, out, _ = run(capsys, "trips", str(f))
    assert code == 0 and out.strip() == "4 3 1 2"
    code, out, _ = run(capsys, "matroid", str(f))
    assert code == 0
    assert out.splitlines()[0] == "2 4"
    assert len(out.splitlines()) == 6  # header + five bases


def test_matroid_text_is_the_matroid_text_on_every_small_cell(capsys, monkeypatch):
    # the bases are written as Oh's listing yields them, with no Matroid built
    import io
    from positroid.permutations import all_decorated_permutations
    from positroid.plabic import matroid
    ranks = set()
    for n in range(7):
        for pi in all_decorated_permutations(n):
            G = graph_from_perm(pi)
            text = matroid(G).to_text()
            k, n_ = map(int, text.split("\n", 1)[0].split())
            # _emit prints the text without its trailing newlines, then one
            for flags, expected in (([], text.rstrip("\n") + "\n"),
                                    (["--json"], json.dumps({"k": k, "n": n_, "bases": text.splitlines()[1:],
                                                             "text": text}, indent=2) + "\n")):
                monkeypatch.setattr("sys.stdin", io.StringIO(G.to_text()))   # the graph file "-"
                assert run(capsys, "matroid", "-", *flags) == (0, expected, "")
            ranks.add((k == 0, k == n))
    assert ranks == {(False, False), (True, False), (False, True), (True, True)}


def test_perm2graph_roundtrip(capsys, tmp_path):
    code, out, _ = run(capsys, "perm2graph", "3 1 5 4B 2 6W")
    assert code == 0
    f = tmp_path / "g.txt"
    f.write_text(out + "\n")
    code, out2, _ = run(capsys, "trips", str(f))
    assert code == 0 and out2.strip() == "3 1 5 4B 2 6W"


def test_leq_and_poset(capsys):
    code, out, _ = run(capsys, "leq", "1W 2B", "2 1")
    assert code == 0 and out.strip() == "true"
    code, out, _ = run(capsys, "poset", "--covers", "2 1")
    assert code == 0
    assert set(out.splitlines()) == {"1W 2B", "1B 2W"}


def test_poset_covers_of_the_empty_permutation(capsys):
    # the empty permutation is the one cell of n = 0, and nothing lies below it
    assert run(capsys, "poset", "--covers", "") == (0, "(none)\n", "")


def test_leq_of_two_types_exit_2(capsys):
    assert run(capsys, "leq", "1W 2B", "2 1 3B") == (
        2, "", "precondition failed: types differ: (1, 2) vs (1, 3)\n")


@pytest.mark.parametrize("argv, pos, entry", [
    (["perm2le", "3 x 1"], 2, "x"),
    (["perm2graph", "2 1 B"], 3, "B"),
    (["leq", "1b2", "1 2"], 1, "1b2"),
    (["leq", "2 1", "2 1x"], 2, "1x"),
], ids=["perm2le", "perm2graph", "leq-first", "leq-second"])
def test_bad_permutation_entry_exit_1(capsys, argv, pos, entry):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == (f"error: permutation entry {pos}: expected an integer with an "
                   f"optional B/W suffix, not {entry!r}\n")


@pytest.mark.parametrize("argv, message", [
    (["perm2graph", "1"], "fixed point 1 needs a colour: 1B or 1W"),
    (["poset", "--covers", "2B 1"], "entry 1 is not a fixed point, so it takes no B/W"),
    (["perm2le", "1 3B 2"], "entry 2 is not a fixed point, so it takes no B/W"),
], ids=["uncoloured-loop", "coloured-non-loop", "coloured-non-loop-2"])
def test_bad_colour_names_position_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: {message}\n"


def test_reduce_cli(capsys, tmp_path):
    import sys
    sys.path.insert(0, "tests")
    from helpers import insert_bigon
    rng = random.Random(5)
    from positroid.plabic import contracted
    G = contracted(graph_from_perm(DecoratedPermutation((3, 4, 1, 2))))
    inner = [e for e, (u, w) in sorted(G.edges.items())
             if not (isinstance(u, int) and u <= 4) and not (isinstance(w, int) and w <= 4)]
    G2, _ = insert_bigon(G, inner[0], rng)
    f = tmp_path / "g.txt"
    f.write_text(G2.to_text())
    code, out, _ = run(capsys, "reduce", str(f), "--json")
    assert code == 0
    data = json.loads(out)
    assert data["singletons"] == 0
    assert any(step[0] == "R1" for step in data["trace"])


def test_export_dot(capsys, tmp_path):
    G = graph_from_perm(DecoratedPermutation((2, 1)))
    f = tmp_path / "g.txt"
    f.write_text(G.to_text())
    code, out, _ = run(capsys, "export-dot", str(f))
    assert code == 0 and out.startswith("graph plabic")


def test_selfcheck_small(capsys):
    code, out, _ = run(capsys, "selfcheck", "--n", "3")
    assert code == 0
    assert "[FAIL]" not in out


def test_selfcheck_empty_disk(capsys):
    # n = 0: one cell, the empty permutation, whose necklace is empty with k = 0
    code, out, _ = run(capsys, "selfcheck", "--n", "0")
    assert code == 0
    assert "[FAIL]" not in out


@pytest.mark.parametrize("argv", [["count", "--n", "-1"], ["poset", "--n", "-2"],
                                  ["selfcheck", "--n", "-1"]], ids=["count", "poset", "selfcheck"])
def test_negative_size_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err == f"error: --n must be at least 0, not {argv[-1]}\n"


def _readme_examples():
    """The argument lists of README's command line examples, one per pipeline stage."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line\n", 1)[1].split("```", 2)[1]
    return [shlex.split(stage, comments=True)[1:] for line in block.splitlines()
            if line.startswith("positroid ") for stage in line.split(" | ")]


def _least_argv(name):
    """Subcommand `name` with each positional and required option given once."""
    _, positionals, options = COMMANDS[name]
    required = [[flag, "3"] for flag, (_, default) in options.items() if default is ...]
    return [name, *("x" for _ in positionals), *sum(required, [])]


# the argument lists the benchmark sends, options before positionals, --opt=value,
# values that start with -, and the defaults of selfcheck and poset
PARITY_ARGV = [
    ["measure", "F", "--matrix"], ["measure", "-", "--matrix"], ["le2net", "F"], ["invert", "-"],
    ["perm2graph", "3 1 5 4B 2 6W"], ["trips", "-"], ["matroid", "-"], ["poset", "--covers", "3 4 1 2"],
    ["reduce", "F", "--json"], ["measure", "--matrix", "--json", "F"], ["move", "--site", "M1 4 1", "F"],
    ["leq", "--json", "1W 2B", "2 1"], ["count", "--csv", "--n", "5", "--q"], ["count", "--n=3"],
    ["move", "F", "--site=M2 7"], ["poset", "--covers=2 1", "--json"], ["selfcheck", "--seed=5"],
    ["count", "--n", "-1"], ["poset", "--n", "-1", "--k", "-2"], ["selfcheck", "--n", "-1"],
    ["poset", "--covers", ""], ["perm2le", "-"], ["count", "--n", "2", "--n", "4", "--check-all"],
    ["selfcheck"], ["poset"],
]


@pytest.mark.parametrize("argv", _readme_examples() + PARITY_ARGV + [_least_argv(c) for c in COMMANDS],
                         ids=" ".join)
def test_parse_fills_the_fields_of_the_argparse_parser(argv):
    assert vars(_parse(argv)) == vars(argparse_cli().parse_args(argv))


def test_readme_examples_cover_every_subcommand():
    assert {argv[0] for argv in _readme_examples()} == set(COMMANDS)


@pytest.mark.parametrize("argv, message", [
    ([], "no command given; positroid --help lists the commands"),
    (["frob"], "unknown command 'frob'; positroid --help lists the commands"),
    (["--json", "measure"], "unknown command '--json'; positroid --help lists the commands"),
    (["measure"], "measure takes 1 argument(s), not 0; positroid measure --help shows the usage"),
    (["leq", "2 1", "1 2", "x"], "leq takes 2 argument(s), not 3; positroid leq --help shows the usage"),
    (["count"], "--n is required; positroid count --help shows the usage"),
    (["move", "F", "--json"], "--site is required; positroid move --help shows the usage"),
    (["count", "--n"], "--n needs a value"),
    (["count", "--n", "x"], "--n needs an integer, not 'x'"),
    (["selfcheck", "--seed=1.5"], "--seed needs an integer, not '1.5'"),
    (["measure", "F", "--json=yes"], "--json takes no value"),
    (["measure", "F", "--mat"], "measure has no option --mat; positroid measure --help lists them"),
    (["count", "--n", "3", "-q"], "count has no option -q; positroid count --help lists them"),
    (["export-dot", "F", "--json"], "export-dot has no option --json; positroid export-dot --help lists them"),
])
def test_usage_errors_are_one_line_exit_1(capsys, argv, message):
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("argv, message", [
    (["perm2graph", "\u0662 \u0661"],
     "permutation entry 1: expected an integer with an optional B/W suffix, not '\u0662'"),
    (["leq", "2 1", "2_1 1"], "permutation entry 1: expected an integer with an optional B/W suffix, not '2_1'"),
    (["count", "--n", "1_0"], "--n needs an integer, not '1_0'"),
    (["poset", "--n", "\uff13"], "--n needs an integer, not '\uff13'"),
    (["selfcheck", "--n", " 3"], "--n needs an integer, not ' 3'"),
], ids=["arabic-indic-perm", "underscore-perm", "underscore-option", "full-width-option", "spaced-option"])
def test_integers_are_a_sign_and_ascii_digits_exit_1(capsys, argv, message):
    # int() reads each of these values; the one integer rule of the formats does not
    assert run(capsys, *argv) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("command, text, message", [
    (["trips"], "n 1_0\n", "plabic text line 1: expected ASCII text without '_': 'n 1_0'"),
    (["measure"], "n 2\nsources 1\nedge 1 : 1 \uff13 1\nedge 2 : 3 2 1\n",
     "network text line 3: expected ASCII text without '_': 'edge 1 : 1 \uff13 1'"),
    (["le2net"], "\uff12 \uff13\n1\n1\n", "tableau text needs a 'k n' header with 0 <= k <= n"),
    (["le2net"], "-0 3\n1\n1\n", "tableau text needs a 'k n' header with 0 <= k <= n"),
    (["le2net"], "1 3\n1_0\n1\n", "tableau text line 2, entry 1: '1_0' is not a nonnegative integer"),
    (["invert"], "\uff11 2\n1 1\n", "matrix text needs a 'k n' header of nonnegative integers"),
    (["move", "--site", "M2 2_3"], "n 1\nedge 1 : 1 2\nvertex 2 black : 1\n",
     "bad site 'M2 2_3': ids and indices must be integers"),
], ids=["plabic-n", "network-edge-end", "tableau-header", "tableau-signed-header", "tableau-part", "matrix-header", "site-id"])
def test_integers_in_text_are_a_sign_and_ascii_digits_exit_1(capsys, tmp_path, command, text, message):
    assert _one_line_error(capsys, tmp_path, text, *command) == f"error: {message}\n"


def test_a_graph_text_comment_may_hold_any_text(capsys, tmp_path):
    f = tmp_path / "in.txt"
    f.write_text("n 2  # \u00e9t\u00e9 1_0\nvertex 3 black : 1 2\nedge 1 : 1 3\nedge 2 : 3 2\n")
    assert run(capsys, "trips", str(f)) == (0, "2 1\n", "")


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["count", "-h"], ["measure", "F", "--help"],
                                  ["move", "--site", "M1 4 1", "-h"]])
def test_help_lists_the_commands_and_exits_0(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    names = COMMANDS if len(argv) == 1 else [argv[0]]
    assert [line.split()[1] for line in out.splitlines()[::2]] == list(names)


def test_an_option_value_may_start_with_a_dash(capsys, tmp_path):
    # --site takes -h as its value, so it is a bad site, not a help request
    text = graph_from_perm(DecoratedPermutation.parse("3 4 1 2")).to_text()
    err = _one_line_error(capsys, tmp_path, text, "move", "--site", "-h")
    assert "-h" in err


def test_perfect_cli(capsys, tmp_path):
    # the two-vertex cycle network is already perfect and trivalent
    text = ("n 2\nsources 1\nvertex 3 internal : 1 2 3\nvertex 4 internal : 2 4 3\n"
            "edge 1 : 1 3 1\nedge 2 : 3 4 1\nedge 3 : 4 3 1\nedge 4 : 4 2 1\n")
    f = tmp_path / "net.txt"
    f.write_text(text)
    code, out, _ = run(capsys, "perfect", str(f))
    assert code == 0
    from positroid.network import PlanarDirectedNetwork, is_perfect, measure
    perf = PlanarDirectedNetwork.from_text(out + "\n")
    assert is_perfect(perf)
    orig = PlanarDirectedNetwork.from_text(text)
    assert measure(perf).projectively_equal(measure(orig))


# The cascade removing internal sources and sinks cuts the cycle 4 -> 5 ->
# 10 -> 9 -> 4 off the boundary; it must be dropped before degree-2 merging.
FLOATING_CYCLE = """n 3
sources 1 2
vertex 3 boundary : 10 9
vertex 4 internal : 2 1
vertex 5 internal : 3 2
vertex 6 internal : 4
vertex 7 internal : 5 4
vertex 8 internal : 5
vertex 9 internal : 1 6
vertex 10 internal : 3 7 6
vertex 11 internal : 7 8
vertex 12 internal : 9 8
edge 1 : 9 4 11/20
edge 2 : 4 5 16/17
edge 3 : 5 10 6/31
edge 4 : 6 7 9
edge 5 : 7 8 27
edge 6 : 10 9 21/16
edge 7 : 11 10 17/21
edge 8 : 11 12 39/23
edge 9 : 12 3 25
edge 10 : 2 3 16/31
"""

# Vertex 9 runs in, out, in, out; erasing a loop there need not flip the
# winding parity.
ALTERNATING_VERTEX = """n 5
sources 1 2 3
vertex 1 boundary : 10 11
vertex 3 boundary : 5 9
vertex 6 internal : 2 1
vertex 7 internal : 4 3 2
vertex 8 internal : 1 6 5
vertex 9 internal : 3 8 7 6
vertex 10 internal : 7 10 9
vertex 11 internal : 11
edge 1 : 8 6 18/7
edge 2 : 6 7 7/26
edge 3 : 7 9 28/5
edge 4 : 7 4 4/7
edge 5 : 3 8 2
edge 6 : 9 8 38/27
edge 7 : 10 9 10/17
edge 8 : 9 5 5/3
edge 9 : 3 10 35/9
edge 10 : 1 10 9/13
edge 11 : 1 11 2/19
"""


def test_perfect_drops_a_cycle_cut_off_by_the_cascade(capsys, tmp_path):
    f = tmp_path / "net.txt"
    f.write_text(FLOATING_CYCLE)
    code, out, err = run(capsys, "perfect", str(f))
    assert (code, err) == (0, "")
    f.write_text(out)
    assert run(capsys, "measure", str(f)) == (0, "12 1\n13 16/31\n", "")


def test_alternating_vertex_matrix_is_tnn(capsys, tmp_path):
    from itertools import combinations
    from positroid.exactmath import RationalMatrix, maximal_minor
    f = tmp_path / "net.txt"
    f.write_text(ALTERNATING_VERTEX)
    code, matrix, _ = run(capsys, "measure", str(f), "--matrix")
    assert code == 0
    A = RationalMatrix.from_text(matrix)
    assert all(maximal_minor(A, J) >= 0 for J in combinations(range(1, 6), 3))
    m = tmp_path / "m.txt"
    m.write_text(matrix)
    code, _, err = run(capsys, "invert", str(m))
    assert (code, err) == (0, "")
    code, perf, _ = run(capsys, "perfect", str(f))
    f.write_text(perf)
    assert run(capsys, "measure", str(f), "--matrix") == (0, matrix, "")


def test_moves_list_cli(capsys, tmp_path):
    from positroid.plabic import contracted
    from positroid.permutations import top_permutation
    from positroid.plabic import graph_from_perm
    G = contracted(graph_from_perm(top_permutation(2, 4)))
    f = tmp_path / "g.txt"
    f.write_text(G.to_text())
    code, out, _ = run(capsys, "moves", str(f))
    assert code == 0 and out.startswith("M1:")


def test_move_cli_roundtrip(capsys, tmp_path):
    import sys
    sys.path.insert(0, "tests")
    from helpers import reweight
    from positroid.plabic import contracted, graph_from_perm, square_faces
    from positroid.permutations import top_permutation
    rng2 = random.Random(3)
    N = reweight(contracted(graph_from_perm(top_permutation(2, 4))), rng2)
    f = tmp_path / "n.txt"
    f.write_text(N.to_text())
    (key,) = square_faces(N.graph)
    code, out, _ = run(capsys, "move", str(f), "--site", f"M1 {key[0]} {key[1]}")
    assert code == 0 and "faces" in out


# -- total text parsers: each malformed input exits 1 with one line ---------------------


# plabic networks, the faces block left open, with an isolated black-white
# edge or an isolated 2-cycle beside the boundary edge 1
ISOLATED_EDGE = "n 2\nvertex 3 black : 3\nvertex 4 white : 3\nedge 1 : 1 2\nedge 3 : 3 4\nfaces\n"
ISOLATED_2_CYCLE = ("n 2\nvertex 3 black : 3 4\nvertex 4 white : 4 3\nedge 1 : 1 2\nedge 3 : 3 4\nedge 4 : 4 3\n"
                    "faces\n")


def _one_line_error(capsys, tmp_path, text, *argv):
    f = tmp_path / "in.txt"
    f.write_text(text)
    code, out, err = run(capsys, *argv[:1], str(f), *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    return err


@pytest.mark.parametrize("command, text, message", [
    ("measure", "sources 1\nedge 1 : 1 2 1\n", "network text needs an 'n <count>' line"),
    ("measure", "n x\n", "network text line 1: invalid literal for int() with base 10: 'x': 'n x'"),
    ("measure", "n 2 3\n", "network text line 1: expected 'n <count>' with a count >= 0: 'n 2 3'"),
    ("measure", "n -1\n", "network text line 1: expected 'n <count>' with a count >= 0: 'n -1'"),
    ("measure", "n 2\nsources 1\nfoo 1\n", "network text line 3: unrecognized line: 'foo 1'"),
    ("measure", "n 2\nsources x\n",
     "network text line 2: invalid literal for int() with base 10: 'x': 'sources x'"),
    ("measure", "n 2\nsources 1\nvertex : 1\nedge 1 : 1 2 1\n",
     "network text line 3: a vertex line needs an id: 'vertex : 1'"),
    ("measure", "n 2\nsources 1\nvertex a : 1\nedge 1 : 1 2 1\n",
     "network text line 3: invalid literal for int() with base 10: 'a': 'vertex a : 1'"),
    ("measure", "n 2\nsources 1\nvertex 3 internal : 1 z\nedge 1 : 1 2 1\n",
     "network text line 3: invalid literal for int() with base 10: 'z': 'vertex 3 internal : 1 z'"),
    ("measure", "n 2\nsources 1\nvertex 3 : : 1\nedge 1 : 1 2 1\n",
     "network text line 3: invalid literal for int() with base 10: ':': 'vertex 3 : : 1'"),
    ("measure", "n 2\nsources 1\nvertex 1 boundary internal : 1\nedge 1 : 1 2 1\n",
     "network text line 3: expected 'vertex v [kind] : edge ids': 'vertex 1 boundary internal : 1'"),
    ("trips", "n 2\nvertex 3 green : 1 2\nedge 1 : 1 3\nedge 2 : 3 2\n",
     "plabic text line 2: expected 'vertex v black|white : edge ids': 'vertex 3 green : 1 2'"),
    ("measure", "n 2\nsources 1\nedge 1 : 1 2\n",
     "network text line 3: expected 'edge e : u w weight': 'edge 1 : 1 2'"),
    ("measure", "n 2\nsources 1\nedge 1 : 1 2 1 1\n",
     "network text line 3: expected 'edge e : u w weight': 'edge 1 : 1 2 1 1'"),
    ("measure", "n 2\nsources 1\nedge : 1 2 1\n", "network text line 3: expected 'edge e : u w ...': 'edge : 1 2 1'"),
    ("measure", "n 2\nsources 1\nedge : : 1 2 1\n",
     "network text line 3: expected 'edge e : u w ...': 'edge : : 1 2 1'"),
    ("measure", "n 2\nsources 1\nedge 1 2 : 1 2 1\n",
     "network text line 3: expected 'edge e : u w ...': 'edge 1 2 : 1 2 1'"),
    ("measure", "n 2\nsources 1\nedge x : 1 2 1\n",
     "network text line 3: invalid literal for int() with base 10: 'x': 'edge x : 1 2 1'"),
    ("measure", "n 2\nsources 1\nedge 1 : 1 y 1\n",
     "network text line 3: invalid literal for int() with base 10: 'y': 'edge 1 : 1 y 1'"),
    ("trips", "n 2\nedge 1 : 1\n", "plabic text line 2: expected 'edge e : u w ...': 'edge 1 : 1'"),
    ("trips", "n 2\nedge 1 : 1 2 3\n", "plabic text line 2: expected 'edge e : u w': 'edge 1 : 1 2 3'"),
    ("reduce", "n 2\nedge 1 : 1 2\nfaces\n1.0 : x\n", "plabic text line 4: 'x' is not a rational number: '1.0 : x'"),
    ("reduce", "n 2\nedge 1 : 1 2\nfaces\n1.0 : 1 2\n", "plabic text line 4: expected 'name : weight': '1.0 : 1 2'"),
    ("measure", "n 2\nsources 1\nedge 1 : 1 2 x\n",
     "network text line 3: 'x' is not a rational number: 'edge 1 : 1 2 x'"),
    ("trips", "n 1\nvertex 1 black : 1\nvertex 2 white : 1\nedge 1 : 1 2\n", "boundary vertices are not colored"),
    ("trips", "n 2\nedge 1 : 1 3\nedge 2 : 3 2\n", "internal vertex 3 has no color"),
    ("trips", "n 1\n", "boundary vertex 1 has degree 0, need 1"),
    ("reduce", "n 2\nedge 1 : 1 2\nfaces\n1.0 : 0\n1.1 : 1\n", "face weights must be positive"),
    ("reduce", "n 2\nedge 1 : 1 2\nfaces\n1.0 : 2\n1.1 : 1\n", "face weights multiply to 2, not 1"),
    ("reduce", ISOLATED_EDGE + "1.0 : 1\n1.1 : 1/2\n3.0 : 2\n", "isolated tree component must carry face weight 1"),
    ("reduce", ISOLATED_2_CYCLE + "1.0 : 1\n1.1 : 1\n3.0 : 1\n3.1 : 1\n",
     "isolated component with a cycle: containment is ambiguous"),
], ids=["no-n", "n-word", "n-two-counts", "n-negative", "unknown-line", "sources-word", "vertex-no-id",
        "vertex-word-id", "vertex-word-edge", "vertex-two-colons", "vertex-two-kinds", "bad-colour", "short-edge",
        "long-edge", "edge-no-id", "edge-two-colons", "edge-two-ids", "edge-word-id", "edge-word-end", "plabic-short-edge",
        "plabic-long-edge", "bad-face-weight", "long-face-line", "bad-edge-weight", "coloured-boundary",
        "uncoloured-vertex", "boundary-degree-0", "zero-face-weight", "face-product-2", "weighted-isolated-tree",
        "isolated-2-cycle"])
def test_graph_text_errors_are_pinned(capsys, tmp_path, command, text, message):
    assert _one_line_error(capsys, tmp_path, text, command) == f"error: {message}\n"


@pytest.mark.parametrize("command, text, message", [
    ("trips", "n 1\nvertex 2 white : 1\nvertex 2 black : 1\nedge 1 : 1 2\n",
     "plabic text line 3: vertex 2 is given twice: 'vertex 2 black : 1'"),
    ("measure", "n 2\nsources 1\nedge 1 : 1 3 1\nedge 2 : 3 2 5\nedge 2 : 3 2 7\n",
     "network text line 5: edge 2 is given twice: 'edge 2 : 3 2 7'"),
    ("trips", "n 3\nn 2\nedge 1 : 1 2\n", "plabic text line 2: a second 'n' line: 'n 2'"),
    ("measure", "n 2\nsources 1\nsources 2\nedge 1 : 1 3 1\nedge 2 : 3 2 1\n",
     "network text line 3: a second 'sources' line: 'sources 2'"),
    ("measure", "n 2\nsources 1 1\nedge 1 : 1 3 1\nedge 2 : 3 2 1\n",
     "network text line 2: source 1 is listed twice: 'sources 1 1'"),
    ("reduce", "n 2\nedge 1 : 1 2\nfaces\n1.0 : 1\nfaces\n1.1 : 1\n",
     "plabic text line 5: a second 'faces' header: 'faces'"),
], ids=["vertex-twice", "edge-twice", "n-twice", "sources-twice", "source-listed-twice", "faces-twice"])
def test_a_repeated_definition_line_exit_1(capsys, tmp_path, command, text, message):
    # each of these inputs was read with the last definition winning
    assert _one_line_error(capsys, tmp_path, text, command) == f"error: {message}\n"


def test_colons_and_comments_do_not_change_the_graph():
    from positroid.network import PlanarDirectedNetwork
    from positroid.plabic import PlabicNetwork, face_weight_keys

    def loose(text):        # colons dropped, a comment after every line, blank lines between
        return "".join(line.replace(" :", "") + "  # note: 1 2\n\n" for line in text.splitlines())

    N = manhattan_grid(random.Random(5), 2, 3, (True, False), (False, True, True))
    G = graph_from_perm(DecoratedPermutation.parse("3 4 1 2"))
    W = PlabicNetwork(G, dict(zip(sorted(face_weight_keys(G)), ["2", "1/2", "3/4", "4/3", "1"])))
    for parse, obj in ((PlanarDirectedNetwork.from_text, N), (G.from_text, G), (G.from_text, W)):
        text = obj.to_text()
        assert " : " in text and parse(loose(text)).to_text() == text


def test_short_edge_line_exit_1(capsys, tmp_path):
    err = _one_line_error(capsys, tmp_path, "n 2\nsources 1\nedge 1 : 1 2\n", "measure")
    assert err == "error: network text line 3: expected 'edge e : u w weight': 'edge 1 : 1 2'\n"
    err = _one_line_error(capsys, tmp_path, "n 2\nedge 1 : 1\n", "reduce")
    assert "plabic text line 2" in err


def test_network_weight_1_over_0_exit_1(capsys, tmp_path):
    text = "n 2\nsources 1\nedge 1 : 1 3 1/0\nedge 2 : 3 2 1\n"
    err = _one_line_error(capsys, tmp_path, text, "measure")
    assert err == "error: network text line 3: '1/0' is not a rational number: 'edge 1 : 1 3 1/0'\n"


def test_face_weight_1_over_0_exit_1(capsys, tmp_path):
    from positroid.plabic import PlabicNetwork, contracted, face_weight_keys
    from positroid.permutations import top_permutation
    G = contracted(graph_from_perm(top_permutation(2, 4)))
    text = PlabicNetwork(G, dict.fromkeys(face_weight_keys(G), 1)).to_text()
    head, faces = text.split("faces\n")
    text = head + "faces\n" + faces.replace(": 1\n", ": 1/0\n", 1)
    err = _one_line_error(capsys, tmp_path, text, "reduce", "--json")
    assert "'1/0' is not a rational number" in err


@pytest.mark.parametrize("damage, given", [
    (lambda lines: lines[::-1], "4.0"),
    (lambda lines: ["zzz : " + line.split(" : ")[1] for line in lines], "zzz"),
], ids=["reversed", "renamed"])
def test_face_lines_are_matched_by_name(capsys, tmp_path, damage, given):
    # perm2graph "3 4 1 2" weighted 2, 1/2, 1, 1, 1; its first face line is line 17
    from positroid.plabic import PlabicNetwork, face_weight_keys
    G = graph_from_perm(DecoratedPermutation.parse("3 4 1 2"))
    keys = sorted(face_weight_keys(G))
    text = PlabicNetwork(G, dict(zip(keys, ["2", "1/2", "1", "1", "1"]))).to_text()
    head, faces = text.split("faces\n")
    text = head + "faces\n" + "\n".join(damage(faces.splitlines())) + "\n"
    err = _one_line_error(capsys, tmp_path, text, "reduce")
    assert err == f"error: plabic text line 17: expected face '1.0', not '{given}'\n"


def test_a_faces_header_without_weight_lines_is_a_network(capsys, tmp_path):
    text = "n 2\nvertex 3 black : 1 2\nedge 1 : 1 3\nedge 2 : 3 2\nfaces\n"
    assert _one_line_error(capsys, tmp_path, text, "reduce") == "error: 0 face weights for 2 faces\n"
    f = tmp_path / "empty.txt"
    f.write_text("n 0\nvertex 5 black : \nfaces\n")      # a network without inner faces
    code, out, _ = run(capsys, "reduce", str(f), "--json")
    assert (code, json.loads(out)["text"], json.loads(out)["singletons"]) == (0, "n 0\nfaces\n", 1)


def test_tableau_entry_1_over_0_exit_1(capsys, tmp_path):
    err = _one_line_error(capsys, tmp_path, "1 2\n1\n1/0\n", "le2net")
    assert "'1/0' is not a rational number" in err


@pytest.mark.parametrize("text, message", [
    ("1 3\n2\n1 1/0\n", "line 3, entry 2: '1/0' is not a rational number"),
    ("2 4\n2 2\n1 1\n1 x\n", "line 4, entry 2: 'x' is not a rational number"),
    ("1 2\nx\n1\n", "line 2, entry 1: 'x' is not a nonnegative integer"),
    ("2 4\n2 -1\n1 1\n", "line 2, entry 2: '-1' is not a nonnegative integer"),
], ids=["fraction-entry", "word-entry", "word-part", "negative-part"])
def test_tableau_error_names_line_and_entry(capsys, tmp_path, text, message):
    err = _one_line_error(capsys, tmp_path, text, "le2net")
    assert err == f"error: tableau text {message}\n"


@pytest.mark.parametrize("text, message", [
    ("1 3\n1\n-1\n", "tableau entries must be nonnegative"),
    ("1 3\n5\n1 1 1 1 1\n", "(5,) does not fit in a 1 x 2 box"),
    ("2 4\n1 2\n1\n1 1\n", "(1, 2) is not a partition with at most 2 parts"),
], ids=["negative-entry", "shape-too-wide", "shape-not-a-partition"])
def test_tableau_validation_errors_exit_1(capsys, tmp_path, text, message):
    assert _one_line_error(capsys, tmp_path, text, "le2net") == f"error: {message}\n"


@pytest.mark.parametrize("text, message", [
    ("2 4\n2 2\n1 1\n1 0\n", "filling violates the Le-property"),
    ("1 3\n2\n1\n", "tableau rows do not match the shape"),
], ids=["le-property", "row-too-short"])
def test_tableau_support_errors_exit_1(capsys, tmp_path, text, message):
    assert _one_line_error(capsys, tmp_path, text, "le2net") == f"error: {message}\n"


def test_sources_outside_boundary_exit_1(capsys, tmp_path):
    text = "n 2\nsources 1 7\nedge 1 : 1 3 1\nedge 2 : 3 2 1\n"
    err = _one_line_error(capsys, tmp_path, text, "measure")
    assert "boundary vertices 1..2" in err


@pytest.mark.parametrize("text, message", [
    ("n 2\nsources 1\nvertex 1 : 1 1 2\nedge 1 : 1 1 1\nedge 2 : 1 2 1\n",
     "loop at boundary vertex 1"),
    ("n 2\nsources 1\nedge 1 : 3 1 1\nedge 2 : 3 2 1\n", "source b_1 has incoming edge 1"),
    ("n 2\nsources 1\nedge 1 : 1 3 1\nedge 2 : 2 3 1\n", "sink b_2 has outgoing edge 2"),
], ids=["boundary-loop", "source-in-edge", "sink-out-edge"])
def test_network_boundary_flag_errors_exit_1(capsys, tmp_path, text, message):
    err = _one_line_error(capsys, tmp_path, text, "measure")
    assert err == f"error: {message}\n"


def test_vertex_without_color_exit_1(capsys, tmp_path):
    text = "n 2\nvertex 3 : 1 2\nedge 1 : 1 3\nedge 2 : 3 2\n"
    err = _one_line_error(capsys, tmp_path, text, "trips")
    assert "plabic text line 2" in err and "black|white" in err


def test_poset_without_n_exit_1(capsys):
    code, out, err = run(capsys, "poset", "--k", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: poset needs") and err.count("\n") == 1


@pytest.mark.parametrize("n, k", [(3, 9), (3, -1), (0, 1), (3, 4)])
def test_poset_k_outside_0_to_n_exit_1(capsys, n, k):
    code, out, err = run(capsys, "poset", "--n", str(n), "--k", str(k))
    assert (code, out) == (1, "")
    assert err == f"error: --k must lie in 0..{n}, not {k}\n"


@pytest.mark.parametrize("option", [["--n", "3"], ["--k", "2"], ["--n", "4", "--k", "2"]])
def test_poset_covers_with_n_or_k_exit_1(capsys, option):
    # --n and --k would be ignored beside --covers
    code, out, err = run(capsys, "poset", "--covers", "3 4 1 2", *option)
    assert (code, out) == (1, "")
    assert err == "error: poset takes --covers PERM or --n N (with an optional --k K), not both\n"


@pytest.mark.parametrize("option", ["--q", "--csv"])
def test_count_check_all_with_q_or_csv_exit_1(capsys, option):
    # --q and --csv would be ignored beside --check-all
    code, out, err = run(capsys, "count", "--n", "3", option, "--check-all")
    assert (code, out) == (1, "")
    assert err == "error: count takes --check-all or --q/--csv, not both\n"


def test_poset_k_at_the_ends_of_0_to_n(capsys):
    for k, count in ((0, 1), (3, 1)):
        code, out, _ = run(capsys, "poset", "--n", "3", "--k", str(k), "--json")
        assert code == 0 and json.loads(out)["count"] == count


def test_network_degree_two_vertex_needs_no_vertex_line(capsys, tmp_path):
    f = tmp_path / "net.txt"
    f.write_text("n 2\nsources 1\nedge 1 : 1 3 2\nedge 2 : 3 2 3/4\n")
    code, out, _ = run(capsys, "measure", str(f), "--matrix")
    assert (code, out) == (0, "1 2\n1 3/2\n")
    # at a boundary vertex the boundary arcs order the edge ends linearly
    text = "n 2\nsources 1\nedge 1 : 1 3 1\nedge 2 : 1 4 2\nedge 3 : 3 2 1\nedge 4 : 4 2 1\n"
    err = _one_line_error(capsys, tmp_path, text, "measure")
    assert err == "error: vertex 1 has degree 2; give its rotation explicitly\n"


@pytest.mark.parametrize("site", ["M1 4", "M3 5", "R1 2", "", "X 1", "construct 1"])
def test_move_bad_site_exit_1(capsys, tmp_path, site):
    f = tmp_path / "g.txt"
    f.write_text(graph_from_perm(DecoratedPermutation((2, 1))).to_text())
    code, out, err = run(capsys, "move", str(f), "--site", site)
    assert (code, out) == (1, "")
    assert err.startswith("error: bad site") and err.count("\n") == 1


def test_move_m2u_slice_outside_rotation_exit_1(capsys, tmp_path):
    text = graph_from_perm(DecoratedPermutation.parse("3 4 1 2")).to_text()
    err = _one_line_error(capsys, tmp_path, text, "move", "--site", "M2u 5 0 9")
    assert err == ("error: bad M2u site (5, 0, 9): vertex 5 has degree 2, "
                   "so i and j must lie in 0..1\n")


@pytest.mark.parametrize("site, message", [
    ("M3r 99", "bad M3r site (99): no vertex 99"),
    ("M2 99", "bad M2 site (99): no edge 99"),
    ("M3 99 black", "bad M3 site (99, 1): no edge 99"),
    ("R2 99", "bad R2 site (99): no vertex 99"),
    ("Rloop 99", "bad Rloop site (99): no edge 99"),
    ("M2u 1 0 0", "bad M2u site (1, 0, 0): 1 is a boundary vertex"),
    ("M3r x", "bad site 'M3r x': ids and indices must be integers"),
])
def test_move_unknown_or_boundary_id_exit_1(capsys, tmp_path, site, message):
    text = graph_from_perm(DecoratedPermutation.parse("3 4 1 2")).to_text()
    err = _one_line_error(capsys, tmp_path, text, "move", "--site", site)
    assert err == f"error: {message}\n"


TOP_2_4 = graph_from_perm(DecoratedPermutation.parse("3 4 1 2")).to_text()
BOUNDARY_LOLLIPOP = "n 1\nvertex 2 black : 1 2 2\nedge 1 : 1 2\nedge 2 : 2 2\n"
LOOSE_LOOP = "n 1\nvertex 2 white : 1\nvertex 3 black : 2 2\nedge 1 : 1 2\nedge 2 : 3 3\n"
BLACK_LOLLIPOP = ("n 2\nvertex 3 black : 1 3 2\nvertex 4 black : 3 4 4\n"
                  "edge 1 : 1 3\nedge 2 : 2 3\nedge 3 : 3 4\nedge 4 : 4 4\n")
WHITE_LEAF = "n 2\nvertex 3 white : 1 3 2\nvertex 4 white : 3\nedge 1 : 1 3\nedge 2 : 2 3\nedge 3 : 3 4\n"


# one site per rejection of the rules of plabic.SITE_RULES, beyond the id checks
SITE_REJECTIONS = [
    (BOUNDARY_LOLLIPOP, "M2 2", "cannot contract a loop"),
    (TOP_2_4, "M2 1", "cannot contract into the boundary"),
    (TOP_2_4, "M2 7", "edge 7 is not unicolored"),
    (TOP_2_4, "M3r 7", "7 is not an internal degree-2 vertex"),
    (LOOSE_LOOP, "M3r 3", "vertex carries a loop; remove the loop instead"),
    (TOP_2_4, "R1 4 7", "edges 4, 7 are not an R1 site"),
    (TOP_2_4, "R2 7", "7 is not an internal leaf"),
    (LOOSE_LOOP, "R2 2", "boundary leaves cannot be reduced"),
    (WHITE_LEAF, "R2 4", "leaf reduction does not apply at 4"),
    (TOP_2_4, "R3 7", "7 is not in a bicolored dipole"),
    (TOP_2_4, "Rloop 7", "edge 7 is not a loop"),
    (LOOSE_LOOP, "Rloop 2", "loop vertex 3 is not trivalent"),
    (BLACK_LOLLIPOP, "Rloop 4", "lollipop neighbor has the same color; insert a middle vertex first"),
    (TOP_2_4 + "vertex 9 black :\n", "singleton 7", "vertex 7 is not a singleton"),
]


@pytest.mark.parametrize("text, site, message", SITE_REJECTIONS, ids=[site for _, site, _ in SITE_REJECTIONS])
def test_move_rejects_a_site_that_does_not_apply(capsys, tmp_path, text, site, message):
    err = _one_line_error(capsys, tmp_path, text, "move", "--site", site)
    assert err == f"error: {message}\n"


def test_apply_reduction_rejects_an_unknown_kind():
    # parse_site knows every kind the command line can name, so only a caller gets here
    with pytest.raises(ValueError, match=r"^unknown reduction \('R9', 1\)$"):
        apply_reduction(graph_from_perm(DecoratedPermutation.parse("3 4 1 2")), ("R9", 1))


# the argument letters of each site kind, as parse_site reads them: e an edge, v a
# vertex, i a rotation index, c a colour, f a face key (two integers)
FUZZ_KINDS = {"M1": "f", "M2": "e", "M2u": "vii", "M3": "ec", "M3r": "v", "R1": "ee", "R2": "v",
              "R3": "v", "Rloop": "e", "singleton": "v", "construct": ""}


@functools.cache
def _fuzz_objects():
    """Chord graphs, weighted scrambles and a graph with no perfect orientation,
    as text with the graph's edge and vertex ids."""
    objects = [_lollipop_graph(2)]
    for seed in range(4):
        r = random.Random(seed)
        objects += [chord_graph(r, r.randint(5, 8), r.randint(1, 3)),
                    random_plabic_network(r, nmax=6, scrambles=10)]
    return [(x.to_text(), sorted(_graph_of(x).edges), sorted(_graph_of(x).rot)) for x in objects]


def _fuzz_token(data, what, edges, vertices):
    small = st.integers(-3, 40)
    if what == "c":
        return data.draw(st.sampled_from(["black", "white", "White"]))
    if what == "i":
        return str(data.draw(st.integers(-2, 6)))
    if what == "f":
        return f"{data.draw(st.sampled_from(edges) | small)} {data.draw(st.integers(-1, 1))}"
    return str(data.draw(st.sampled_from(edges if what == "e" else vertices) | small))


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_move_site_fuzz_has_a_total_contract(capsys, tmp_path, data):
    # any kind at ids of the graph or small integers: exit 0, 1 or 2, one line on stderr
    text, edges, vertices = data.draw(st.sampled_from(_fuzz_objects()))
    kind = data.draw(st.sampled_from(sorted(FUZZ_KINDS)))
    site = " ".join([kind, *(_fuzz_token(data, what, edges, vertices) for what in FUZZ_KINDS[kind])])
    f = tmp_path / "g.txt"
    f.write_text(text)
    code, out, err = run(capsys, "move", str(f), "--site", site)
    assert code in (0, 1, 2), site
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (site, err)
    else:
        assert err == "" and out, site


@functools.cache
def _fuzz_texts():
    """A tableau, its network and matrix, a plabic graph, one with no perfect
    orientation, and junk: small inputs of every kind the subcommands read."""
    from positroid.lediagram import diagram_to_tableau, gamma_network
    from positroid.network import boundary_measurement_matrix
    from positroid.permutations import le_from_perm
    pi = DecoratedPermutation.parse("3 4 1 2")
    T = diagram_to_tableau(le_from_perm(pi))
    net = gamma_network(T)
    return [T.to_text(), net.to_text(), boundary_measurement_matrix(net).to_text(),
            graph_from_perm(pi).to_text(), _lollipop_graph(2).to_text(), "n 2\njunk\n"]


FUZZ_PERMS = ["3 4 1 2", "2 1", "1W 2B", "3 1 5 4B 2 6W", "", "-", "2 2", "x"]
FUZZ_VALUES = {int: [str(i) for i in range(-2, 5)] * 2 + ["x", "", "1.5", "-h"],
               str: FUZZ_PERMS + ["M1 4 1", "M2 7", "R1 2 3", "R2 5", "-h", "--json"]}


def _fuzz_option(data, flag, kind):
    """The tokens of one option: --flag, --flag value, --flag=value, or a value left out."""
    if kind is bool:
        return data.draw(st.sampled_from([[flag]] * 9 + [[f"{flag}=1"]]))
    value = data.draw(st.sampled_from(FUZZ_VALUES[kind]))
    return data.draw(st.sampled_from([[flag, value]] * 3 + [[f"{flag}={value}"], [flag]]))


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_argv_fuzz_has_a_total_contract(capsys, tmp_path, monkeypatch, data):
    # names, options and values of the table, junk, missing values and extra positionals
    paths = [str(tmp_path / f"in{i}.txt") for i in range(len(_fuzz_texts()))]
    for path, text in zip(paths, _fuzz_texts()):
        Path(path).write_text(text)
    words = {"file": paths * 2 + ["-", "-", str(tmp_path / "missing.txt"), "x"], "perm": FUZZ_PERMS}
    name = data.draw(st.sampled_from(sorted(COMMANDS) * 2 + ["frob", "", "-h", "--n"]))
    # a junk command name still gets a positional and an option after it
    _, positionals, options = COMMANDS.get(name, ("", ("file",), {"--n": (int, None)}))
    pools = [words[p.rstrip("12")] for p in positionals] + [words["file"] + words["perm"]]
    count = data.draw(st.sampled_from([len(positionals)] * 6 + [len(positionals) + 1, len(positionals) - 1]))
    groups = [[data.draw(st.sampled_from(pool))] for pool in pools[:max(count, 0)]]
    required = [flag for flag, (_, default) in options.items() if default is ...]
    flags = data.draw(st.sampled_from([required] * 4 + [[]]))
    flags += data.draw(st.lists(st.sampled_from(list(options)), max_size=3)) if options else []
    for flag in flags + data.draw(st.sampled_from([[]] * 8 + [["--frob"], ["--mat"]])):
        groups.append(_fuzz_option(data, flag, options.get(flag, (str,))[0]))
    argv = [name, *sum(data.draw(st.permutations(groups)), [])]
    argv = data.draw(st.sampled_from([argv] * 20 + [[]]))
    monkeypatch.setattr(sys, "stdin", io.StringIO(data.draw(st.sampled_from(_fuzz_texts()))))
    code, out, err = run(capsys, *argv)
    assert code in (0, 1, 2), argv
    if code:
        assert out == "" and err.count("\n") == 1 and err.endswith("\n"), (argv, err)
    else:
        assert err == "" and out, argv


@pytest.mark.parametrize("colour", ["purple", "b", "w", "blue"])
def test_move_m3_colour_must_be_black_or_white(capsys, tmp_path, colour):
    text = graph_from_perm(DecoratedPermutation.parse("3 4 1 2")).to_text()
    err = _one_line_error(capsys, tmp_path, text, "move", "--site", f"M3 2 {colour}")
    assert err == f"error: bad site 'M3 2 {colour}': the colour must be black, white, 1 (black) or -1 (white)\n"


def test_move_m3_inserts_the_named_colour(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text(graph_from_perm(DecoratedPermutation.parse("3 4 1 2")).to_text())
    # 1 and -1 are the colours as reduce's trace writes them
    for colour, name in (("black", "black"), ("White", "white"), ("1", "black"), ("-1", "white")):
        code, out, _ = run(capsys, "move", str(f), "--site", f"M3 2 {colour}")
        # the inserted vertex has the largest id, so its line is the last vertex line
        last = [line for line in out.splitlines() if line.startswith("vertex")][-1]
        assert code == 0 and last.split()[2] == name


def test_reduce_json_trace_replays_through_move(capsys, tmp_path):
    # each step of a trace, its fields joined by spaces, is a `move --site` on
    # the file the step before wrote (an M3 colour is traced as 1 or -1), and
    # the last file is reduce's text: on chord graphs of the test corpus,
    # bare and weighted, whose traces hold every kind of site reduce takes
    f, kinds = tmp_path / "g.txt", set()
    for seed in (1, 3, 40):
        r = random.Random(seed)
        G = chord_graph(r, r.randint(5, 8), r.randint(1, 3))
        for x in (G, reweight(G, r)):
            f.write_text(x.to_text())
            code, out, _ = run(capsys, "reduce", str(f), "--json")
            data = json.loads(out)
            for step in data["trace"]:
                kinds.add(step[0])
                code, out, err = run(capsys, "move", str(f), "--site", " ".join(step))
                assert (code, err) == (0, ""), (seed, step)
                f.write_text(out)
            assert out == data["text"], seed
    assert kinds == {"M2", "M2u", "M3", "M3r", "R1", "R2", "Rloop", "construct"}


# -- reduce always ends: reduced output, or exit 2 when there is no perfect orientation --

LOOP_AT_FAT_VERTEX = """n 5
vertex 11 white : 3 8 4
vertex 17 black : 13 11 4 7 14 13
edge 3 : 3 11
edge 4 : 11 17
edge 7 : 17 5
edge 8 : 11 4
edge 11 : 2 17
edge 13 : 17 17
edge 14 : 1 17
"""

LOOP_FROM_CONTRACTIONS = """n 5
vertex 7 black : 19 20
vertex 9 black : 2 3
vertex 11 black : 12
vertex 13 black : 13 17 18
vertex 15 black : 21 17 16
vertex 18 black : 18 19 22
vertex 20 black : 20 21 22
edge 2 : 4 9
edge 3 : 9 5
edge 12 : 11 1
edge 13 : 2 13
edge 16 : 15 3
edge 17 : 13 15
edge 18 : 13 18
edge 19 : 18 7
edge 20 : 7 20
edge 21 : 20 15
edge 22 : 18 20
"""

NO_SQUARE_EXPOSES_A_SITE = """n 6
vertex 8 black : 2 8
vertex 9 white : 24 10 2
vertex 12 black : 10 3 11
vertex 13 black : 22 7
vertex 14 black : 8 5 18
vertex 15 black : 11 4 20
vertex 17 white : 18 9 21
vertex 19 white : 20 12 5
vertex 21 black : 21 22 25
vertex 23 black : 23 24 25
edge 2 : 9 8
edge 3 : 2 12
edge 4 : 3 15
edge 5 : 19 14
edge 7 : 13 6
edge 8 : 8 14
edge 9 : 17 5
edge 10 : 9 12
edge 11 : 12 15
edge 12 : 19 4
edge 18 : 14 17
edge 20 : 15 19
edge 21 : 17 21
edge 22 : 21 13
edge 23 : 1 23
edge 24 : 23 9
edge 25 : 21 23
"""


@pytest.mark.parametrize("text, edges", [(LOOP_AT_FAT_VERTEX, 4)], ids=["loop-at-fat-vertex"])
def test_reduce_removes_loops(capsys, tmp_path, text, edges):
    from positroid.plabic import PlabicGraph, is_reduced, matroid
    f = tmp_path / "g.txt"
    f.write_text(text)
    code, out, _ = run(capsys, "reduce", str(f))
    red, G = PlabicGraph.from_text(out), PlabicGraph.from_text(text)
    assert code == 0 and is_reduced(red) and len(red.edges) == edges
    assert matroid(red) == matroid(G)


def test_reduce_ends_in_one_construct_step(capsys, tmp_path):
    # no rewrite applies and a bad double crossing of the trips from b_5, b_6 is left:
    # the trace ends in construct, which `move --site construct` replays
    from positroid.permutations import perm_from_necklace
    from positroid.plabic import (PlabicGraph, apply_site, is_reduced, measure_plabic, necklace,
                                  trip_permutation)
    G = PlabicGraph.from_text(NO_SQUARE_EXPOSES_A_SITE)
    for x in (G, reweight(G, random.Random(4))):
        f = tmp_path / "g.txt"
        f.write_text(x.to_text())
        code, out, err = run(capsys, "reduce", str(f), "--json")
        data = json.loads(out)
        red = PlabicGraph.from_text(data["text"])
        R = red if x is G else red.graph
        assert (code, err, data["trace"].count(["construct"]), data["trace"][-1]) == (0, "", 1, ["construct"])
        assert is_reduced(R) and trip_permutation(R) == perm_from_necklace(necklace(G))
        assert (len(G.edges), len(R.edges)) == (17, 14)
        if x is not G:
            assert measure_plabic(red).projectively_equal(measure_plabic(x))
        cur = x
        for step in data["trace"][:-1]:
            cur = apply_site(cur, (step[0], *map(int, step[1:])))
        f.write_text(cur.to_text())
        assert run(capsys, "move", str(f), "--site", "construct") == (0, data["text"], "")


def _lollipop_graph(seed):
    """A scrambled plabic graph with a stick to a new vertex carrying a loop."""
    from positroid.plabic import PlabicGraph
    r = random.Random(seed)
    G = random_plabic_network(r, nmax=7, scrambles=20).graph
    G, leaf = attach_leaf(G, r.choice(sorted(G.internal_vertices(), key=str)), r.choice((1, -1)))
    e = max(G.edges) + 1
    return PlabicGraph(G.n, G.col, {**G.edges, e: (leaf, leaf)},
                       rot={**G.rot, leaf: G.rot[leaf] + ((e, 0), (e, 1))})


@pytest.mark.parametrize("case", [2, 10, 14, 18, 21, "loop-from-contractions"])
def test_reduce_without_perfect_orientation_exit_2(capsys, tmp_path, case):
    # a lollipop on a scrambled network of each seed, and a graph that rewrites
    # would take from type (4,5) to (3,5)
    from positroid.plabic import PlabicGraph, perfect_orientation
    if case == "loop-from-contractions":
        G = PlabicGraph.from_text(LOOP_FROM_CONTRACTIONS)
    else:
        G = _lollipop_graph(case)
    assert perfect_orientation(G) is None
    f = tmp_path / "g.txt"
    for x in (G, reweight(G, random.Random(case))):
        f.write_text(x.to_text())
        for argv in (["reduce", str(f)], ["move", str(f), "--site", "construct"]):
            assert run(capsys, *argv) == (
                2, "", "precondition failed: graph is not perfectly orientable\n")


def test_matroid_without_perfect_orientation_exit_2(capsys, tmp_path):
    f = tmp_path / "g.txt"
    f.write_text(_lollipop_graph(2).to_text())
    for flags in ([], ["--json"]):
        assert run(capsys, "matroid", str(f), *flags) == (
            2, "", "precondition failed: graph is not perfectly orientable\n")


def test_trips_of_a_boundary_lollipop_exit_2(capsys, tmp_path):
    # the trip at b_1 runs round the loop back to b_1, whose edge ends in no
    # leaf to colour the fixed point; reduce leaves that leaf, and the
    # matroid needs no colour
    f = tmp_path / "g.txt"
    f.write_text("n 1\nvertex 2 white : 1 2 2\nedge 1 : 1 2\nedge 2 : 2 2\n")
    for flags in ([], ["--json"]):
        assert run(capsys, "trips", str(f), *flags) == (
            2, "", "precondition failed: trip at b_1 is a fixed point without a boundary leaf\n")
    assert run(capsys, "matroid", str(f)) == (0, "0 1\n", "")
    assert run(capsys, "reduce", str(f)) == (0, "n 1\nvertex 3 black : 3\nedge 3 : 1 3\n", "")


@pytest.mark.parametrize("seed", [2, 10])
def test_reduce_without_perfect_orientation_exit_2_under_optimize(capsys, tmp_path, seed):
    """python -O drops assert statements; the check that stops reduce here is not one."""
    import positroid
    f = tmp_path / "g.txt"
    f.write_text(_lollipop_graph(seed).to_text())
    _, _, err = run(capsys, "reduce", str(f))
    env = {**os.environ, "PYTHONPATH": str(Path(positroid.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-O", "-m", "positroid.cli", "reduce", str(f)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", err)


def test_reduce_reraises_a_failed_step_on_an_orientable_graph(monkeypatch, tmp_path):
    import positroid.plabic as plabic

    def broken(x):
        raise AssertionError("step did not shrink")

    monkeypatch.setattr(plabic, "reduce_graph", broken)
    f = tmp_path / "g.txt"
    f.write_text(graph_from_perm(DecoratedPermutation.parse("3 4 1 2")).to_text())
    with pytest.raises(AssertionError, match="step did not shrink"):
        main(["reduce", str(f)])


@pytest.mark.parametrize("command", ["reduce", "moves"])
def test_empty_disk_n_0(capsys, tmp_path, command):
    f = tmp_path / "g.txt"
    f.write_text("n 0\n")
    code, out, _ = run(capsys, command, str(f), "--json")
    data = json.loads(out)
    assert code == 0
    if command == "reduce":
        assert data == {"singletons": 0, "trace": [], "text": "n 0\n"}
    else:
        assert data["sites"] == {"M1": [], "M2": [], "M3r": [], "R1": []}


def test_move_removes_a_singleton(capsys, tmp_path):
    text = graph_from_perm(DecoratedPermutation((2, 1))).to_text()
    f = tmp_path / "g.txt"
    f.write_text(text + "vertex 9 black :\n")
    code, out, _ = run(capsys, "move", str(f), "--site", "singleton 9")
    assert (code, out) == (0, text)


# sha256 prefixes of `reduce --json` on the scrambled networks of
# _scrambled(seed): the output must not depend on how a rewrite finds the
# faces it changed
REDUCE_JSON_DIGESTS = ["d825aeb13876ea7d", "3dcbfb7c212bf07b", "174896c36afa37ad",
                       "21966b63fa352873", "c4ee1e7528d90521", "1a329c5fa87861df"]


def _scrambled(seed):
    """A weighted plabic network scrambled by 30 or 90 moves, with two bigons."""
    r = random.Random(seed)
    G = random_plabic_network(r, nmax=8, scrambles=30 if seed < 3 else 90).graph
    for _ in range(2):
        inner = [e for e, uw in sorted(G.edges.items()) if not set(uw) & set(G.boundary)]
        if inner:
            G, _ = insert_bigon(G, r.choice(inner), r)
    return reweight(G, r)


@pytest.mark.parametrize("seed", range(len(REDUCE_JSON_DIGESTS)))
def test_reduce_json_is_pinned(capsys, tmp_path, seed):
    path = tmp_path / "net.txt"
    path.write_text(_scrambled(seed).to_text())
    code, out, _ = run(capsys, "reduce", str(path), "--json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest()[:16] == REDUCE_JSON_DIGESTS[seed]
