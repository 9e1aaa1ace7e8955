import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from vietamat.matio import (
    MatrixFormatError,
    NodesFileError,
    load_nodes_file,
    matrix_from_csv,
    matrix_from_json,
    matrix_to_csv,
    matrix_to_json,
    parse_nodes_text,
    serialize_nodes,
)
from vietamat.rational import RationalParseError
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
    with pytest.raises(NodesFileError):
        load_nodes_file(path)


def test_load_nodes_file_missing(tmp_path):
    with pytest.raises(NodesFileError):
        load_nodes_file(tmp_path / "absent.json")


def test_load_nodes_file_undecodable_names_the_path(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b'\xff{"nodes": ["1"]}')
    with pytest.raises(NodesFileError, match="cannot read node file .*bad.json"):
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


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "nonsense",
        '{"a": 1}',
        "[[1, 2]]",
        '[["1", "2"]]',
        '[["1", "2"], ["3", "4", "5"]]',
        pytest.param("[" * 100_000, id="deep"),
    ],
)
def test_matrix_from_json_errors(bad):
    with pytest.raises(MatrixFormatError):
        matrix_from_json(bad)


def test_matrix_from_csv_errors():
    with pytest.raises(MatrixFormatError):
        matrix_from_csv("")
    with pytest.raises(MatrixFormatError):
        matrix_from_csv("1,x\n")
    with pytest.raises(MatrixFormatError):
        matrix_from_csv("1,2\n3\n")
    with pytest.raises(MatrixFormatError):
        matrix_from_csv("1,2\n3,4,5\n")
    with pytest.raises(MatrixFormatError):
        matrix_from_csv("1,2\n")


@given(n=st.integers(min_value=1, max_value=5), data=st.data())
def test_cross_format_roundtrip(n, data):
    """JSON and CSV renderings parse back to the identical matrix."""
    entries = data.draw(
        st.lists(
            st.lists(rationals, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    m = ExactMatrix.from_rows(entries)
    assert matrix_from_json(matrix_to_json(m)) == m
    assert matrix_from_csv(matrix_to_csv(m)) == m
    assert matrix_from_json(matrix_to_json(m)) == matrix_from_csv(matrix_to_csv(m))
