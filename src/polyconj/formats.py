"""Line-oriented text format for instances, certificates, and solutions.

Layout: whitespace-separated decimal integers, one logical row per line,
the kind tag on line 1 and the size n on line 2.  Full-line '#' comments
and blank lines are ignored; serialization is canonical so
parse(serialize(x)) == x.  An integer may have at most as many digits as
Python converts between int and str (``sys.get_int_max_str_digits()``,
4300 by default); past that, parsing raises ``InstanceParseError`` and
serializing ``InvalidParameterError``.

    ssp / sspp / tssp:   kind, n, n coefficients, target
    conj:                "conj", n, 2n+1 exponents of u, 2n+1 exponents of v
    cert:                "cert", n, 2n+1 exponents of the conjugator
    sol:                 "sol",  n, n values in {-1, 0, 1}
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from .conjugacy import Certificate
from .errors import InstanceParseError, InvalidParameterError
from .group import GroupContext, make_context
from .reductions import CHAIN, ConjugacyInstance, SspInstance, SspPrimeInstance
from .tssp import TsspInstance

_TOKEN = re.compile(r"\S+")
_INT = re.compile(r"[+-]?\d+\Z", re.ASCII)  # \d alone also matches non-ASCII digits


@dataclass(frozen=True)
class CertificateFile:
    """A conjugator witness together with the context it lives in."""

    ctx: GroupContext
    certificate: Certificate


@dataclass(frozen=True)
class SolutionFile:
    """A witness vector for ssp (bits), sspp (signs), or tssp (bits)."""

    values: tuple[int, ...]


ParsedFile = (
    SspInstance
    | SspPrimeInstance
    | TsspInstance
    | ConjugacyInstance
    | CertificateFile
    | SolutionFile
)

# The kind tag on line 1 of a file -> the class it parses to.
KINDS = {
    "ssp": SspInstance,
    "sspp": SspPrimeInstance,
    "tssp": TsspInstance,
    "conj": ConjugacyInstance,
    "cert": CertificateFile,
    "sol": SolutionFile,
}
_TAGS = {cls: tag for tag, cls in KINDS.items()}


def _located(line: int, raw: str) -> list[tuple[int, int, str]]:
    """The tokens of one row with their 1-based columns, for error reports."""
    return [(line, m.start() + 1, m.group()) for m in _TOKEN.finditer(raw)]


class _Cursor:
    """The content rows of a document as ``(lineno, raw)``; tokens are located on demand."""

    def __init__(self, text: str):
        self.rows: list[tuple[int, str]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.lstrip()
            if stripped and not stripped.startswith("#"):
                self.rows.append((lineno, raw))
        self.pos = 0
        self.last_line = self.rows[-1][0] if self.rows else 1

    def take_row(self, arity: int, what: str) -> tuple[int, str, list[str]]:
        """The next row's line, text and tokens; ``str.split`` cuts where ``\\S+`` does."""
        if self.pos >= len(self.rows):
            raise InstanceParseError(f"missing {what}", self.last_line + 1, 1)
        line, raw = self.rows[self.pos]
        self.pos += 1
        tokens = raw.split()
        if len(tokens) != arity:
            located = _located(line, raw)
            try:
                expected = str(arity)
            except ValueError:  # 2n + 1 of a size n at the digit limit
                expected = f"at least 10^{sys.get_int_max_str_digits()}"
            message = f"{what}: expected {expected} values, found {len(tokens)}"
            if len(tokens) < arity:
                _, col, tok = located[-1]
                raise InstanceParseError(message, line, col + len(tok))
            raise InstanceParseError(message, line, located[arity][1])
        return line, raw, tokens

    def take_token(self, what: str) -> tuple[int, int, str]:
        """The next row's single token with its position."""
        line, raw, _ = self.take_row(1, what)
        return _located(line, raw)[0]

    def finish(self) -> None:
        if self.pos < len(self.rows):
            line, col, _ = _located(*self.rows[self.pos])[0]
            raise InstanceParseError("unexpected extra content", line, col)


def _to_int(token: tuple[int, int, str]) -> int:
    line, col, text = token
    if not _INT.match(text):
        raise InstanceParseError(f"expected an integer, found {text!r}", line, col)
    try:
        return int(text)
    except ValueError:
        raise InstanceParseError(
            f"integer has more than {sys.get_int_max_str_digits()} digits", line, col
        ) from None


_SIGNS = frozenset((-1, 0, 1))


def _int_row(cursor: _Cursor, arity: int, what: str, signs: bool = False) -> tuple[int, ...]:
    """One row of ints; ``signs`` also holds each value to {-1, 0, 1}.

    On an ASCII row without '_', ``int`` accepts a token exactly when ``_INT``
    matches it, so one ``map`` reads the row.  Any other row, and any row with
    a bad token, is scanned token by token, which returns the same values or
    raises the first token's error with its line and column.
    """
    line, raw, tokens = cursor.take_row(arity, what)
    if raw.isascii() and "_" not in raw:
        try:
            values = tuple(map(int, tokens))
        except ValueError:
            pass
        else:
            if not signs or _SIGNS.issuperset(values):
                return values
    values = []
    for tok in _located(line, raw):
        value = _to_int(tok)
        if signs and value not in _SIGNS:
            raise InstanceParseError(
                f"solution entries must be -1, 0, or 1, found {value}", tok[0], tok[1]
            )
        values.append(value)
    return tuple(values)


def parse_instance(text: str) -> ParsedFile:
    """Parse one instance/certificate/solution document."""
    cursor = _Cursor(text)
    line, col, kind = cursor.take_token("kind tag")
    if kind not in KINDS:
        raise InstanceParseError(
            f"unknown kind {kind!r}, expected one of {', '.join(KINDS)}", line, col
        )
    ntok = cursor.take_token("size n")
    n = _to_int(ntok)
    if n < 1:
        raise InstanceParseError(f"size n must be >= 1, got {n}", ntok[0], ntok[1])

    if kind in CHAIN[:-1]:
        coeffs = _int_row(cursor, n, "coefficient row")
        target = _int_row(cursor, 1, "target row")[0]
        cursor.finish()
        return KINDS[kind](coefficients=coeffs, target=target)

    ctx = make_context(n)
    if kind == "conj":
        u = _int_row(cursor, ctx.hirsch, "exponent row for u")
        v = _int_row(cursor, ctx.hirsch, "exponent row for v")
        cursor.finish()
        return ConjugacyInstance(ctx=ctx, u=u, v=v)
    if kind == "cert":
        w = _int_row(cursor, ctx.hirsch, "exponent row for the conjugator")
        cursor.finish()
        return CertificateFile(ctx=ctx, certificate=Certificate(w=w))

    values = _int_row(cursor, n, "solution row", signs=True)
    cursor.finish()
    return SolutionFile(values=values)


def _ints(values) -> str:
    try:
        return " ".join(map(str, values))
    except ValueError:
        raise InvalidParameterError(
            f"cannot write an integer of more than {sys.get_int_max_str_digits()} digits"
        ) from None


def serialize_instance(obj: ParsedFile) -> str:
    """Canonical text for any parsed object; inverse of parse_instance."""
    kind = _TAGS.get(type(obj))
    if kind is None:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    if kind == "conj":
        n, rows = obj.ctx.n, (obj.u, obj.v)
    elif kind == "cert":
        n, rows = obj.ctx.n, (obj.certificate.w,)
    elif kind == "sol":
        n, rows = len(obj.values), (obj.values,)
        if n < 1 or not {"-1", "0", "1"}.issuperset(map(str, obj.values)):  # what parses back
            raise InvalidParameterError("a solution needs one or more entries, each -1, 0, or 1")
    else:
        n, rows = obj.n, (obj.coefficients, (obj.target,))
    return "\n".join((kind, str(n), *map(_ints, rows))) + "\n"
