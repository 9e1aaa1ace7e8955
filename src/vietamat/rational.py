"""Exact rational scalars and their text wire format.

Every scalar in this library is a ``fractions.Fraction``: arbitrary
precision, always in lowest terms with a positive denominator, and with
zero represented uniquely as 0/1.  Equality is therefore structural and
exact; no float ever enters an identity computation: the value
constructors take Fractions, ints and wire text only, through
`as_fraction`.

Wire syntax (used by the CLI, JSON node files, and CSV matrices):
an optional sign followed by digits, optionally followed by ``/`` and an
unsigned nonzero denominator.  No whitespace.  Rendering emits ``n`` when
the denominator is 1 and ``n/d`` otherwise, so parse/render round-trips
bit-exactly.  `InputError` and `SizeGuardError`, both `ValueError`s, are
the CLI's exits 2 and 3.
"""

import re
from fractions import Fraction
from math import gcd

_WIRE_RE = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


class InputError(ValueError):
    """The user's input is malformed or out of range: CLI exit 2."""


class SizeGuardError(ValueError):
    """A valid input past a size limit of this build: CLI exit 3."""


class RationalParseError(InputError):
    """Text does not denote a rational in wire syntax."""

    def __init__(self, text: str, position: int, reason: str):
        super().__init__(f"invalid rational {text!r} at position {position}: {reason}")
        self.position = position
        self.reason = reason


def parse_rational(text: str) -> Fraction:
    """Parse wire-syntax text ("-3", "5/6") into a canonical rational.

    Raises RationalParseError, carrying the offending position, on bad
    syntax or a zero denominator.
    """
    match = _WIRE_RE.match(text)
    if match is None or match.end() != len(text):
        position = match.end() if match is not None else 0
        raise RationalParseError(text, position, "expected integer or numerator/denominator")
    # The denominator first, so a zero one is an input error at any length,
    # and the limit's text names its digits when both parts are too long.
    try:
        denominator = int(match.group(2) or 1)
        numerator = int(match.group(1)) if denominator else 0
    except ValueError as exc:  # the regex has checked the digits: this is the limit
        raise SizeGuardError(str(exc)) from None
    if denominator == 0:
        raise RationalParseError(text, match.start(2), "denominator is zero")
    return Fraction(numerator, denominator)


def as_fraction(value: Fraction | int | str) -> Fraction:
    """`value` as a Fraction: a Fraction as it stands, an int exactly, and
    a str through `parse_rational`, so text has the CLI's one grammar.
    Anything else, a float or a bool included, raises TypeError."""
    if isinstance(value, Fraction):
        return value
    if type(value) is int:
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"a rational must be a Fraction, an int or wire text, not {type(value).__name__}")


def render_rational(value: Fraction) -> str:
    """Canonical wire text: "n" for integers, "n/d" otherwise.

    `value` is a Fraction or an int, so it is already in lowest terms and
    no gcd is taken again.
    """
    return _wire(value.numerator, value.denominator)


def render_ratio(numerator: int, denominator: int) -> str:
    """Canonical wire text of numerator / denominator, for ints with
    denominator >= 1: one gcd, then the text render_rational gives for the
    same value, without making a Fraction."""
    g = gcd(numerator, denominator)
    return _wire(numerator // g, denominator // g)


def _wire(numerator: int, denominator: int) -> str:
    try:
        return str(numerator) if denominator == 1 else f"{numerator}/{denominator}"
    except ValueError as exc:  # an int past the str-digit limit
        raise SizeGuardError(str(exc)) from None

