"""Tokenizer for the Prairie specification language.

One compiled master regular expression (the paper used flex): each
alternative is one token class, tried in a fixed order at the current
offset, so the first alternative that matches decides the token, as the
rule order of a flex scanner does.  Produces a flat token stream with
line/column positions for error reporting.  Notable choices:

* ``{{`` and ``}}`` are single tokens (action-block delimiters, as in the
  paper's figures); single braces are not used by the grammar.
* Comments: ``//`` and ``#`` to end of line, ``/* … */`` block comments.
* Keywords are recognized case-sensitively; ``TRUE``, ``FALSE`` and
  ``DONT_CARE`` are literal tokens.
* Names start with a letter or ``_`` and continue with letters, digits
  and ``_``; numbers are decimal digits with at most one ``.`` followed
  by a digit.  Both follow Python's Unicode character classes.
* Only newlines between tokens and inside block comments start a new
  line; a backslash-escaped newline inside a string literal advances the
  column, and a line comment leaves the column where it started.
"""

from __future__ import annotations

import enum
import re
from typing import NamedTuple

from repro.errors import DslSyntaxError


class TokenKind(enum.Enum):
    NAME = "name"
    NUMBER = "number"
    STRING = "string"
    KEYWORD = "keyword"
    TRUE = "TRUE"
    FALSE = "FALSE"
    DONT_CARE = "DONT_CARE"
    LBRACE2 = "{{"
    RBRACE2 = "}}"
    LPAREN = "("
    RPAREN = ")"
    COMMA = ","
    SEMI = ";"
    COLON = ":"
    DOT = "."
    QMARK = "?"
    ARROW = "=>"
    ASSIGN = "="
    OP = "op"          # arithmetic / comparison / boolean operator
    EOF = "eof"


KEYWORDS = frozenset(
    {
        "operator",
        "algorithm",
        "property",
        "trule",
        "irule",
        "stream",
        "file",
        "helper",
    }
)

_PUNCTUATION = {
    "{{": TokenKind.LBRACE2,
    "}}": TokenKind.RBRACE2,
    "=>": TokenKind.ARROW,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ";": TokenKind.SEMI,
    ":": TokenKind.COLON,
    ".": TokenKind.DOT,
    "?": TokenKind.QMARK,
    "=": TokenKind.ASSIGN,
}

_WORDS = {
    "TRUE": TokenKind.TRUE,
    "FALSE": TokenKind.FALSE,
    "DONT_CARE": TokenKind.DONT_CARE,
    **{word: TokenKind.KEYWORD for word in KEYWORDS},
}

# Alternatives in priority order.  Operators sit between the two-character
# delimiters and the single-character punctuation, so ``=>`` beats ``==``
# beats ``=``, and multi-character operators come first (maximal munch).
_MASTER = re.compile(
    r"""
      (?P<newline>   \n )
    | (?P<space>     [ \t\r]+ )
    | (?P<comment>   (?: \# | // ) [^\n]* )
    | (?P<block>     /\* .*? \*/ )
    | (?P<open_block> /\* )
    | (?P<punct2>    \{\{ | \}\} | => )
    | (?P<op>        == | != | <= | >= | && | \|\| | [<>+\-*/%!] )
    | (?P<punct>     [(),;:.?=] )
    | (?P<string>    " (?: [^"\\\n] | \\. )* " )
    | (?P<open_string> " )
    | (?P<number>    \d+ (?: \.\d+ )? )
    | (?P<word>      (?!\d)\w+ )
    """,
    re.VERBOSE | re.DOTALL,
)
_ESCAPE = re.compile(r"\\(.)", re.DOTALL)


class Token(NamedTuple):
    """One token; a named tuple because a spec holds thousands of them."""

    kind: TokenKind
    text: str
    line: int
    column: int

    def __str__(self) -> str:
        return f"{self.kind.name}({self.text!r})@{self.line}:{self.column}"


def tokenize(source: str) -> list[Token]:
    """Scan ``source`` into a token list ending with an EOF token."""
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    name_kind = TokenKind.NAME
    words = _WORDS
    i = 0
    line = 1
    col = 1
    n = len(source)
    while i < n:
        m = match(source, i)
        group = m.lastgroup if m is not None else None
        if group is None or (
            group == "word" and not (source[i].isalpha() or source[i] == "_")
        ):
            raise DslSyntaxError(f"unexpected character {source[i]!r}", line, col)
        text = m.group()
        i = m.end()
        if group == "word":
            append(Token(words.get(text, name_kind), text, line, col))
        elif group == "space":
            pass
        elif group == "newline":
            line += 1
            col = 1
            continue
        elif group == "punct" or group == "punct2":
            append(Token(_PUNCTUATION[text], text, line, col))
        elif group == "op":
            append(Token(TokenKind.OP, text, line, col))
        elif group == "number":
            append(Token(TokenKind.NUMBER, text, line, col))
        elif group == "string":
            body = text[1:-1]
            if "\\" in body:
                body = _ESCAPE.sub(r"\1", body)
            append(Token(TokenKind.STRING, body, line, col))
        elif group == "comment":
            continue
        elif group == "block":
            newlines = text.count("\n")
            if newlines:
                line += newlines
                col = len(text) - text.rfind("\n")
                continue
        elif group == "open_block":
            raise DslSyntaxError("unterminated block comment", line, col)
        else:  # open_string
            raise DslSyntaxError("unterminated string literal", line, col)
        col += len(text)

    tokens.append(Token(TokenKind.EOF, "", line, col))
    return tokens
