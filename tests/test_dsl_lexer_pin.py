"""The DSL tokenizer's output, pinned on every shipped specification.

Each shipped spec must tokenize to the same stream of (kind, text, line,
column) tokens, and damaged copies of it (a stray character, an open
string or comment inserted at evenly spaced offsets) must tokenize the
same way or fail with the same :class:`DslSyntaxError` message and
position.  The digests below were recorded with the character-by-
character scanner the regular-expression tokenizer replaced; a streams
digest is SHA-256 over one ``kind<TAB>repr(text)<TAB>line<TAB>column``
line per token.
"""

import hashlib
from pathlib import Path

import pytest

from repro.errors import DslSyntaxError
from repro.optimizers.oodb import PRAIRIE_SPEC
from repro.prairie.dsl import TokenKind, tokenize

SPEC_DIR = Path(__file__).resolve().parents[1] / "examples" / "specs"

SPECS = {
    "oodb.prairie": lambda: (SPEC_DIR / "oodb.prairie").read_text(),
    "relational.prairie": lambda: (SPEC_DIR / "relational.prairie").read_text(),
    "oodb.PRAIRIE_SPEC": lambda: PRAIRIE_SPEC,
}

#: What each damaged copy inserts; ``£`` is a non-ASCII stray character.
DAMAGE = ("@", '"', "/*", "\\", "1.", "{", "}", "£", "#", "\t", "?x")
#: Damaged copies per insert and spec, at evenly spaced offsets.
DAMAGE_OFFSETS = 48


def _lines(tokens) -> "list[str]":
    return [f"{t.kind.name}\t{t.text!r}\t{t.line}\t{t.column}" for t in tokens]


def _digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _outcome(source: str) -> str:
    try:
        return _digest(_lines(tokenize(source)))
    except DslSyntaxError as exc:
        return f"error {exc.args[0]}"


def stream_record(source: str) -> "tuple[int, str]":
    tokens = tokenize(source)
    return len(tokens), _digest(_lines(tokens))


def damage_record(source: str) -> "tuple[int, str]":
    """(number of damaged copies that fail, digest of every outcome)."""
    step = max(1, len(source) // DAMAGE_OFFSETS)
    outcomes = [
        _outcome(source[:offset] + insert + source[offset:])
        for insert in DAMAGE
        for offset in range(0, len(source) + 1, step)
    ]
    failures = sum(outcome.startswith("error ") for outcome in outcomes)
    return failures, _digest(outcomes)


STREAMS = {
    "oodb.prairie": (3369, "23ab38cf90d5ca5f"),
    "relational.prairie": (983, "9901c7d38d2d8b8d"),
    "oodb.PRAIRIE_SPEC": (3369, "0aeeafb7070810b2"),
}

DAMAGED = {
    "oodb.prairie": (248, "8af7e4fbcc3b1e43"),
    "relational.prairie": (328, "7f66831484692ee9"),
    "oodb.PRAIRIE_SPEC": (248, "4575c7b29a91e1ba"),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_shipped_spec_token_stream_is_pinned(name):
    assert stream_record(SPECS[name]()) == STREAMS[name]


@pytest.mark.parametrize("name", sorted(SPECS))
def test_damaged_spec_outcomes_are_pinned(name):
    assert damage_record(SPECS[name]()) == DAMAGED[name]


@pytest.mark.parametrize(
    "source,message,line,column",
    [
        ('ab\n  "open', "unterminated string literal", 2, 3),
        ('x "a\nb"', "unterminated string literal", 1, 3),
        ("a\n\n /* never closed", "unterminated block comment", 3, 2),
        ("/* a\n b */ @", "unexpected character '@'", 2, 7),
        ("a {b", "unexpected character '{'", 1, 3),
        ('"a\\', "unterminated string literal", 1, 1),
    ],
)
def test_error_positions(source, message, line, column):
    with pytest.raises(DslSyntaxError) as info:
        tokenize(source)
    assert (info.value.line, info.value.column) == (line, column)
    assert info.value.args[0].startswith(message)


def test_line_comment_at_end_keeps_eof_column():
    # The end-of-input token sits where the trailing comment began.
    eof = tokenize("a // tail")[-1]
    assert (eof.kind, eof.line, eof.column) == (TokenKind.EOF, 1, 3)


def test_escaped_newline_in_string_advances_columns_only():
    tokens = tokenize('"a\\\nb" c')
    assert tokens[0].text == "a\nb"
    assert (tokens[1].text, tokens[1].line, tokens[1].column) == ("c", 1, 8)


def test_non_decimal_digit_is_a_syntax_error():
    # The character scanner took ``²`` for a number, which the parser's
    # int() then rejected with a bare ValueError.
    with pytest.raises(DslSyntaxError) as info:
        tokenize("a = ²;")
    assert (info.value.line, info.value.column) == (1, 5)
