import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from vietamat import rational
from vietamat.rational import RationalParseError, as_fraction, parse_rational, render_ratio, render_rational
from vietamat.structmat import ExactMatrix
from vietamat.sympoly import NodeSet
from vietamat.verify import IDENTITIES

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)


def test_parse_canonicalizes():
    assert parse_rational("3/6") == Fraction(1, 2)
    assert parse_rational("-4/2") == Fraction(-2)
    assert parse_rational("0/7") == Fraction(0)


def test_parse_accepts_signs_and_integers():
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("+3") == Fraction(3)
    assert parse_rational("17") == Fraction(17)


def test_zero_is_unique():
    z = parse_rational("0/7")
    assert z.numerator == 0 and z.denominator == 1


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("abc", 0),
        ("1.5", 1),
        ("1/2/3", 3),
        ("1/-2", 1),
        (" 1", 0),
        ("1 ", 1),
        ("2/a", 1),
    ],
)
def test_parse_syntax_errors_report_position(text, position):
    with pytest.raises(RationalParseError) as excinfo:
        parse_rational(text)
    assert excinfo.value.position == position


def test_parse_hands_fraction_only_ints(monkeypatch):
    """Each digit string is converted once, and Fraction gets ints, never
    the text to parse a second time."""

    def ints_only(*args):
        assert all(type(a) is int for a in args), f"Fraction got {args!r}"
        return Fraction(*args)

    monkeypatch.setattr(rational, "Fraction", ints_only)
    for text, value in (("-3", -3), ("+3", 3), ("0/7", 0), ("3/6", Fraction(1, 2)), ("-007/014", Fraction(-1, 2))):
        assert parse_rational(text) == value


def test_parse_zero_denominator():
    with pytest.raises(RationalParseError) as excinfo:
        parse_rational("3/0")
    assert excinfo.value.position == 2
    assert "zero" in str(excinfo.value)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int str-digit limit")
def test_parse_over_the_digit_limit_names_the_denominator_first():
    # A SizeGuardError, not a RationalParseError: the CLI exits 3 with int's text.
    with pytest.raises(ValueError, match="value has 4500 digits") as excinfo:
        parse_rational("7" * 4400 + "/" + "3" * 4500)
    assert not isinstance(excinfo.value, RationalParseError)
    with pytest.raises(ValueError, match="value has 4400 digits"):
        parse_rational("-" + "7" * 4400 + "/3")


def test_render_format():
    assert render_rational(Fraction(-2)) == "-2"
    assert render_rational(Fraction(1, 2)) == "1/2"
    assert render_rational(Fraction(0)) == "0"


@example(r=Fraction(10**60 + 1, 10**45 + 3))
@given(r=rationals)
def test_roundtrip(r):
    assert IDENTITIES["roundtrip"].holds([r]) is None


@given(numerator=st.integers(-(10**30), 10**30), denominator=st.integers(1, 10**30))
def test_render_ratio_matches_render_rational(numerator, denominator):
    assert render_ratio(numerator, denominator) == render_rational(Fraction(numerator, denominator))


def test_render_ratio_reduces():
    assert render_ratio(6, 4) == "3/2"
    assert render_ratio(-8, 4) == "-2"
    assert render_ratio(0, 9) == "0"
    assert render_rational(7) == "7"


def test_as_fraction_is_the_wire_grammar():
    """Fractions pass as they stand, ints convert exactly, text parses as
    the CLI parses it, and nothing else is a rational: a bool is no int
    here, as in the integer constructors."""
    half = Fraction(1, 2)
    assert as_fraction(half) is half
    assert as_fraction(-7) == -7 and type(as_fraction(-7)) is Fraction
    assert as_fraction("-6/4") == Fraction(-3, 2)
    for text in ("1.5", " 2 ", "1_0", "1e3", ""):
        with pytest.raises(RationalParseError):
            as_fraction(text)
    for value in (0.1, Decimal("2"), None, b"1", True, False):
        with pytest.raises(TypeError, match=type(value).__name__):
            as_fraction(value)


@pytest.mark.parametrize(
    "make",
    [NodeSet, lambda values: ExactMatrix.from_rows([values])],
    ids=["NodeSet", "ExactMatrix.from_rows"],
)
def test_value_constructors_read_rationals_through_as_fraction(make):
    """Each value constructor takes text in the CLI's grammar, and no float
    or bool."""
    assert make(["-6/4"]) == make([Fraction(-3, 2)])
    for text in ("1.5", " 2 ", "1_0", "1e3"):
        with pytest.raises(RationalParseError):
            make([text])
    for value in (0.1, True, False):
        with pytest.raises(TypeError, match=type(value).__name__):
            make([value])
