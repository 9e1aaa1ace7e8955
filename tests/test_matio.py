import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vietamat import rational
from vietamat.matio import (
    load_nodes_file,
    matrix_to_csv,
    matrix_to_json,
    parse_nodes_text,
    serialize_nodes,
)
from vietamat.rational import InputError, RationalParseError
from vietamat.structmat import ExactMatrix, build_vieta
from vietamat.sympoly import NodeSet

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)


def test_parse_nodes_text():
    ns = parse_nodes_text("1,2,-3/4")
    assert ns == (1, 2, Fraction(-3, 4))
    assert parse_nodes_text("7") == (7,)


def test_parse_nodes_text_error_position_is_absolute():
    with pytest.raises(RationalParseError) as excinfo:
        parse_nodes_text("1,2,x")
    assert excinfo.value.position == 4
    with pytest.raises(RationalParseError) as excinfo:
        parse_nodes_text("1,,2")
    assert excinfo.value.position == 2


def test_load_nodes_file(tmp_path):
    path = tmp_path / "nodes.json"
    path.write_text('{"nodes": ["1", "-3/4", "2/5"]}')
    assert load_nodes_file(path) == (1, Fraction(-3, 4), Fraction(2, 5))


@pytest.mark.parametrize(
    "content",
    [
        "not json",
        "[1, 2]",
        '{"values": ["1"]}',
        '{"nodes": []}',
        '{"nodes": [1, 2]}',
        '{"nodes": "1,2"}',
        pytest.param("[" * 100_000, id="deep"),  # the decoder raises RecursionError here
    ],
)
def test_load_nodes_file_schema_errors(tmp_path, content):
    path = tmp_path / "nodes.json"
    path.write_text(content)
    with pytest.raises(InputError, match="node file .*nodes.json"):
        load_nodes_file(path)


def test_load_nodes_file_missing(tmp_path):
    with pytest.raises(InputError, match="cannot read node file .*absent.json"):
        load_nodes_file(tmp_path / "absent.json")


def test_load_nodes_file_undecodable_names_the_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff{"nodes": ["1"]}')
    with pytest.raises(InputError, match="cannot read node file .*bad.json"):
        load_nodes_file(path)


def test_serialize_nodes():
    assert serialize_nodes(NodeSet((1, Fraction(-3, 4)))) == ("1", "-3/4")


def test_matrix_json_shape():
    m = build_vieta(NodeSet((1, 2, 3)))
    data = json.loads(matrix_to_json(m))
    assert data == [["1", "1", "1"], ["5", "4", "3"], ["6", "3", "2"]]


def test_matrix_csv_shape():
    m = build_vieta(NodeSet((1, 2, 3)))
    assert matrix_to_csv(m) == "1,1,1\n5,4,3\n6,3,2\n"


def test_matrix_csv_fractions():
    m = ExactMatrix.from_rows([[Fraction(1, 2), Fraction(-3)], [0, Fraction(7, 5)]])
    assert matrix_to_csv(m) == "1/2,-3\n0,7/5\n"


def test_render_takes_one_gcd_per_entry_and_no_fraction(monkeypatch):
    """The render is most of a large build's time; a second gcd per entry
    would cost about 40 % of it, and a Fraction per entry more."""
    m = ExactMatrix.from_rows([[Fraction(i - j, i + 2 * j + 1) for j in range(6)] for i in range(6)])
    calls = []

    def count(*args):
        calls.append(args)
        return math.gcd(*args)

    def refuse(*args):
        raise AssertionError("the render made a Fraction")

    monkeypatch.setattr(rational, "gcd", count)
    monkeypatch.setattr(rational, "Fraction", refuse)
    for render in (matrix_to_json, matrix_to_csv):
        calls.clear()
        render(m)
        assert len(calls) == 36, render.__name__


def _read_wire(rows):
    """Rows of wire text as Fractions, each text checked to be canonical:
    an independent reader, not the library's."""
    values = [[Fraction(e) for e in row] for row in rows]
    assert [[str(x) for x in row] for row in values] == rows
    return values


square_matrices = st.integers(min_value=1, max_value=5).flatmap(
    lambda n: st.lists(st.lists(rationals, min_size=n, max_size=n), min_size=n, max_size=n)
)


@given(entries=square_matrices)
@example(entries=[[Fraction(1, 2), Fraction(-3)], [0, Fraction(7, 5)]])
def test_cross_format_roundtrip(entries):
    """JSON and CSV renderings parse back to the identical matrix."""
    m = ExactMatrix.from_rows(entries)
    from_json = _read_wire(json.loads(matrix_to_json(m)))
    from_csv = _read_wire([line.split(",") for line in matrix_to_csv(m).splitlines()])
    assert ExactMatrix.from_rows(from_json) == m
    assert ExactMatrix.from_rows(from_csv) == m
    assert from_json == from_csv
