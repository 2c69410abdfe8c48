"""Total text parsers: a damaged text parses or raises ValueError, nothing else.

Valid texts of the seven formats (network, plabic with faces, matrix,
tableau, permutation, necklace, matroid) get a few token deletions or
replacements; the parser must return an object, whose text then round-trips,
or raise ValueError.  The network, plabic, tableau and matrix readers must
also do what the reference readers of tests/oracles.py do on each text:
return an equal object, or raise ValueError with the same message.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from oracles import (reference_matrix_from_text, reference_network_from_text, reference_plabic_from_text,
                     reference_tableau_from_text)

from positroid.exactmath import Matroid, RationalMatrix
from positroid.lediagram import LeTableau
from positroid.network import PlanarDirectedNetwork
from positroid.permutations import (DecoratedPermutation, GrassmannNecklace,
                                    necklace_from_perm, top_permutation)
from positroid.plabic import (PlabicGraph, PlabicNetwork, contracted, face_weight_keys, graph_from_perm,
                              matroid)


def _plabic_with_faces():
    G = contracted(graph_from_perm(top_permutation(2, 4)))
    keys = sorted(face_weight_keys(G))
    weights = {key: Fraction(i + 2, i + 1) for i, key in enumerate(keys[:-1])}
    weights[keys[-1]] = Fraction(1, len(keys))
    return PlabicNetwork(G, weights).to_text()


FORMATS = {
    "network": (PlanarDirectedNetwork.from_text, lambda x: x.to_text(), [
        "n 2\nsources 1\nvertex 3 internal : 1 2 3\nvertex 4 internal : 2 4 3\n"
        "edge 1 : 1 3 1\nedge 2 : 3 4 2/3\nedge 3 : 4 3 1\nedge 4 : 4 2 5\n",
        "n 2\nsources 1\nedge 1 : 1 3 1/2\nedge 2 : 3 4 1\nedge 3 : 4 2 7\n",
    ]),
    "plabic": (PlabicGraph.from_text, lambda x: x.to_text(), [
        _plabic_with_faces(),
        graph_from_perm(DecoratedPermutation.parse("3 1 5 4B 2 6W")).to_text(),
    ]),
    "matrix": (RationalMatrix.from_text, lambda x: x.to_text(), [
        "2 4\n1 0 -1/2 -3\n0 1 1 2/5\n",
        "0 3\n",          # k = 0: no rows, still three columns
    ]),
    "tableau": (LeTableau.from_text, lambda x: x.to_text(), [
        "2 5\n3 2\n1 0 2/3\n4 1\n",
    ]),
    "permutation": (DecoratedPermutation.parse, lambda x: x.format(), [
        "3 1 5 4B 2 6W",
    ]),
    "necklace": (GrassmannNecklace.from_text, lambda x: x.to_text(), [
        necklace_from_perm(DecoratedPermutation.parse("3 1 5 4B 2 6W")).to_text(),
        "1 2\n2 4\n3 4\n1 4\n",
        "-\n-\n-\n",       # k = 0
    ]),
    "matroid": (Matroid.from_text, lambda x: x.to_text(), [
        matroid(graph_from_perm(top_permutation(2, 4))).to_text(),
        "0 3\n",          # rank 0: two tokens, fewer than the edits _damage may draw
    ]),
}

REPLACEMENTS = ["1/0", "x", "-1", "0", "99", ":", "1.5", "1e9", "black", "n", "edge"]


def _damage(data, text):
    lines = [line.split() for line in text.splitlines()]
    for _ in range(data.draw(st.integers(1, 3))):
        spots = [(i, j) for i, toks in enumerate(lines) for j in range(len(toks))]
        if not spots:           # a short text can run out of tokens
            break
        i, j = data.draw(st.sampled_from(spots))
        if data.draw(st.booleans()):
            del lines[i][j]
        else:
            lines[i][j] = data.draw(st.sampled_from(REPLACEMENTS))
    return "\n".join(" ".join(toks) for toks in lines) + "\n"


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_valid_texts_round_trip(fmt):
    parse, unparse, texts = FORMATS[fmt]
    for text in texts:
        out = unparse(parse(text))
        assert unparse(parse(out)) == out


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_damaged_texts_parse_or_raise_value_error(fmt, data):
    parse, unparse, texts = FORMATS[fmt]
    text = _damage(data, data.draw(st.sampled_from(texts)))
    try:
        obj = parse(text)
    except ValueError:
        return
    out = unparse(obj)
    assert unparse(parse(out)) == out


@pytest.mark.parametrize("text", ["", "2", "a b", "2 4\n1 x", "2 4\n1 5", "2 4"])
def test_matroid_text_errors_name_the_line(text):
    with pytest.raises(ValueError, match=r"^matroid text line \d+: "):
        Matroid.from_text(text)


def test_rank_zero_matroid_text_round_trips():
    # the one base of a rank-0 matroid is the empty set, an empty line that readers skip
    M = matroid(graph_from_perm(DecoratedPermutation.parse("1B 2B 3B")))
    assert (M.k, M.n, M.bases) == (0, 3, {frozenset()})
    assert Matroid.from_text(M.to_text()) == Matroid.from_text("0 3\n") == M


# format -> (the library's reader, the reference reader it must agree with)
READERS = {
    "network": (PlanarDirectedNetwork.from_text, reference_network_from_text),
    "plabic": (PlabicGraph.from_text, reference_plabic_from_text),
    "matrix": (RationalMatrix.from_text, reference_matrix_from_text),
    "tableau": (LeTableau.from_text, reference_tableau_from_text),
}


def _fields(x):
    """An object read from text, as what equality should compare: a graph's fields."""
    if isinstance(x, PlabicNetwork):
        return _fields(x.graph), x.weights
    if isinstance(x, (PlanarDirectedNetwork, PlabicGraph)):
        return type(x), {name: getattr(x, name) for name in x._fields}
    return x


def _outcome(parse, text):
    """What parse makes of text: the object's fields, or the error's class and message."""
    try:
        return _fields(parse(text))
    except ValueError as ex:
        return type(ex), str(ex)


@pytest.mark.parametrize("fmt", sorted(READERS))
def test_valid_texts_read_as_the_reference_reads_them(fmt):
    read, reference = READERS[fmt]
    for text in FORMATS[fmt][2]:
        assert _outcome(read, text) == _outcome(reference, text)


@pytest.mark.parametrize("fmt", sorted(READERS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_damaged_texts_read_as_the_reference_reads_them(fmt, data):
    read, reference = READERS[fmt]
    text = _damage(data, data.draw(st.sampled_from(FORMATS[fmt][2])))
    assert _outcome(read, text) == _outcome(reference, text)
