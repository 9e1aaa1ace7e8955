"""Wire formats: node lists are read, matrices are written.

Rationals always travel as canonical strings, never as binary floats.

- inline nodes:  "1,2,-3/4"
- node file:     {"nodes": ["1", "-3/4", "2/5"]}  (JSON)
- matrix JSON:   array of arrays of rational strings
- matrix CSV:    one row per line, comma-separated, newline "\\n"

Node parse errors report the offending position.  The JSON and CSV
renderings of a matrix carry the same canonical entries, so any reader
of the wire syntax parses both back to identical values.
"""

from pathlib import Path

from .rational import InputError, RationalParseError, parse_rational, render_ratio, render_rational
from .structmat import ExactMatrix
from .sympoly import NodeSet


def parse_nodes_text(text: str) -> NodeSet:
    """Parse comma-separated inline nodes, e.g. "1,2,-3/4".

    Parse errors carry the position within the full inline string.
    """
    nodes = []
    offset = 0
    for piece in text.split(","):
        try:
            nodes.append(parse_rational(piece))
        except RationalParseError as exc:
            raise RationalParseError(text, offset + exc.position, exc.reason) from None
        offset += len(piece) + 1
    return NodeSet(nodes)


def load_nodes_file(path: str | Path) -> NodeSet:
    """Load a JSON node file with schema {"nodes": [rational strings]}.

    A file that cannot be read, is not JSON or is off-schema is an
    InputError whose message names the path."""
    # Imported here, its only user, so that a command given inline nodes
    # does not load it.
    import json

    path = Path(path)
    try:
        raw = path.read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read node file {path}: {exc}") from None
    try:
        data = json.loads(raw)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError, or a number past the str-digit limit
        raise InputError(f"cannot parse node file {path} as JSON: {exc}") from None
    if not isinstance(data, dict) or "nodes" not in data:
        raise InputError(f'node file {path} must be an object with a "nodes" key')
    values = data["nodes"]
    if not isinstance(values, list) or not values:
        raise InputError(f'node file {path}: "nodes" must be a non-empty array')
    if not all(isinstance(v, str) for v in values):
        raise InputError(f'node file {path}: nodes must be rational strings, not numbers')
    return NodeSet(values)


def serialize_nodes(ns: NodeSet) -> tuple[str, ...]:
    """Node set as canonical rational strings, for reports and files."""
    return tuple(render_rational(a) for a in ns)


def matrix_to_json(m: ExactMatrix) -> str:
    """Matrix as a JSON array of arrays of rational strings.

    Joined by hand: every entry is `[-0-9/]` only, so no character needs
    escaping and the text is what `json.dumps` would give.
    """
    return "[" + ", ".join('["' + '", "'.join(row) + '"]' for row in rendered_rows(m)) + "]"


def matrix_to_csv(m: ExactMatrix) -> str:
    """Matrix as CSV: one row per line, no trailing comma."""
    return "".join(",".join(row) + "\n" for row in rendered_rows(m))


def rendered_rows(m: ExactMatrix) -> list[list[str]]:
    """The entries' wire text in rows, from the stored ints: one gcd per entry, no Fraction."""
    denominators = m.denominators
    return [[render_ratio(e, d) for e, d in zip(row, denominators)] for row in m.numerators]
