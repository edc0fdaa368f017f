"""Text format for coefficient files.

A coefficient file is UTF-8 with LF line endings (every line, the last one
included, ends in LF; CR is rejected anywhere) and tokens separated by
single ASCII spaces, with no space at either end of a line.  ``#`` starts a
comment, which may follow a line's tokens after any number of spaces or
fill the line; empty lines are skipped.  The canonical layout is

    rcforms 1
    kind jacobi            (or: kind siegel)
    weight 4
    index 1                (jacobi only)
    trunc 8
    coeff 0 0 1/1          (jacobi: n r value; siegel: n r m value)
    ...
    END

Coefficient records are sorted ascending lexicographically by key, omitted
coefficients are zero, and every value is a reduced fraction printed as
num/den with den >= 1.  Integers (header values, keys, numerators) match
``0|-?[1-9][0-9]*`` and denominators ``[1-9][0-9]*``, ASCII digits only,
of any length.  Import enforces all of that, so every accepted file without
comments or empty lines re-exports byte-identically.
"""

from __future__ import annotations

import os
import re
from decimal import Decimal
from fractions import Fraction
from math import gcd

from .series import JacobiSeries, _key_text, _text
from .siegel import SiegelSeries

FORMAT_TAG = "rcforms"
FORMAT_VERSION = 1

_FRACTION_ARG = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_INTEGER = re.compile(r"0|-?[1-9][0-9]*")
_DENOMINATOR = re.compile(r"[1-9][0-9]*")


class ParseError(ValueError):
    """Malformed coefficient file, with the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


# Ints come from text through Decimal, exact at any length, as they go to text
# (series._text): int(str) stops at the interpreter-wide int/str digit limit.
def _int(text: str) -> int:
    return int(Decimal(text))


def format_rational(x: Fraction) -> str:
    return f"{_text(x.numerator)}/{_text(x.denominator)}"


def parse_rational_token(token: str, line: int) -> Fraction:
    """Strict num/den record value: reduced, positive denominator, nonzero."""
    parts = token.split("/")
    if len(parts) != 2 or not _INTEGER.fullmatch(parts[0]):
        raise ParseError(line, f"coefficient value must be num/den, got {token!r}")
    if not _DENOMINATOR.fullmatch(parts[1]):
        raise ParseError(line, f"denominator must be a positive integer, got {parts[1]!r}")
    num, den = _int(parts[0]), _int(parts[1])
    if gcd(num, den) != 1:
        raise ParseError(line, f"fraction {token} is not reduced")
    if num == 0:
        raise ParseError(line, "zero coefficients must be omitted")
    return Fraction(num, den)


def parse_fraction_arg(text: str) -> Fraction:
    """Exact fraction from a command-line string; decimal input is rejected.

    Its integers are read as a coefficient file's are, at any length."""
    text = text.strip().replace("−", "-")
    if not _FRACTION_ARG.fullmatch(text):
        raise ValueError(f"not an exact fraction: {text!r} (use forms like 3, -2, -1/2)")
    num, _, den = text.partition("/")
    den = _int(den or "1")
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return Fraction(_int(num), den)


# kind -> (class, key width); the header tags are the class's _TAGS, then trunc
KINDS = {
    "jacobi": (JacobiSeries, 2),
    "siegel": (SiegelSeries, 3),
}


def export_series(obj: JacobiSeries | SiegelSeries) -> str:
    kind = next((name for name, (cls, _) in KINDS.items() if isinstance(obj, cls)), None)
    if kind is None:
        raise TypeError(f"cannot export {type(obj).__name__}")
    lines = [f"{FORMAT_TAG} {FORMAT_VERSION}", f"kind {kind}"]
    lines += [f"{tag} {_text(getattr(obj, tag))}" for tag in (*obj._TAGS, "trunc")]
    lines += [f"coeff {' '.join(map(_text, key))} {format_rational(v)}" for key, v in obj.items()]
    lines.append("END")
    return "\n".join(lines) + "\n"


class _Reader:
    def __init__(self, text: str):
        if "\r" in text:
            line = text.count("\n", 0, text.index("\r")) + 1
            raise ParseError(line, "line endings must be LF, found CR")
        lines = text.split("\n")
        if lines[-1]:
            raise ParseError(len(lines), "last line does not end in LF")
        self.rows = []
        for number, raw in enumerate(lines[:-1], start=1):
            content, comment, _ = raw.partition("#")
            if comment:
                content = content.rstrip(" ")
            if not content:
                continue
            tokens = content.split(" ")
            if "" in tokens:
                raise ParseError(number, "tokens must be separated by single spaces, none at either end")
            self.rows.append((number, tokens))
        self.cursor = 0
        self.last_line = len(lines) - 1

    def peek(self):
        """The next (line, tokens); past the last record, (the file's last line, None)."""
        return self.rows[self.cursor] if self.cursor < len(self.rows) else (self.last_line, None)

    def take(self, expected_key: str, count: int) -> tuple[int, list[str]]:
        line, tokens = self.peek()
        if tokens is None:
            raise ParseError(line, f"unexpected end of file, expected {expected_key!r}")
        if tokens[0] != expected_key or len(tokens) != count:
            raise ParseError(line, f"expected {expected_key!r} with {count - 1} value(s), got {' '.join(tokens)!r}")
        self.cursor += 1
        return line, tokens


def _int_token(token: str, line: int, what: str) -> int:
    if not _INTEGER.fullmatch(token):
        raise ParseError(line, f"{what} must be an integer (0 or -?[1-9][0-9]*), got {token!r}")
    return _int(token)


def import_series(text: str) -> JacobiSeries | SiegelSeries:
    """Parse a coefficient file; rejects anything outside the canonical shape."""
    reader = _Reader(text)
    line, tokens = reader.peek()
    if tokens is None:
        raise ParseError(1, "empty file")
    if tokens != [FORMAT_TAG, str(FORMAT_VERSION)]:
        raise ParseError(line, f"expected header {FORMAT_TAG!r} {FORMAT_VERSION}, got {' '.join(tokens)!r}")
    reader.cursor += 1

    line, tokens = reader.take("kind", 2)
    if tokens[1] not in KINDS:
        raise ParseError(line, f"unknown kind {tokens[1]!r}")
    cls, key_width = KINDS[tokens[1]]
    header = []
    for tag in (*cls._TAGS, "trunc"):
        line, tokens = reader.take(tag, 2)
        value = _int_token(tokens[1], line, tag)
        if value < 0 and tag != "weight":
            raise ParseError(line, f"{tag} must be non-negative, got {tokens[1]}")
        header.append(value)
    trunc = header[-1]

    coeffs = {}
    last_key = None
    while True:
        line, tokens = reader.peek()
        if tokens is None:
            raise ParseError(line, "missing END terminator")
        if tokens[0] != "coeff":
            break
        if len(tokens) != key_width + 2:
            raise ParseError(line, f"coeff record needs {key_width} key integers and a value")
        key = tuple(_int_token(t, line, "coefficient key") for t in tokens[1 : 1 + key_width])
        if not cls._fits(key, trunc):
            raise ParseError(line, f"key {_key_text(key)} outside truncation {_text(trunc)}")
        if last_key is not None and key <= last_key:
            raise ParseError(line, f"records out of order: {_key_text(key)} after {_key_text(last_key)}")
        last_key = key
        coeffs[key] = parse_rational_token(tokens[1 + key_width], line)
        reader.cursor += 1

    reader.take("END", 1)
    line, tokens = reader.peek()
    if tokens is not None:
        raise ParseError(line, f"content after END: {' '.join(tokens)!r}")

    return cls(*header, coeffs)


def write_series(path: str | os.PathLike, obj: JacobiSeries | SiegelSeries) -> None:
    with open(path, "wb") as out:
        out.write(export_series(obj).encode("utf-8"))


def read_series(path: str | os.PathLike) -> JacobiSeries | SiegelSeries:
    # a text-mode read would translate CRLF to LF; the format accepts LF only
    with open(path, "rb") as source:
        return import_series(source.read().decode("utf-8"))
