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
from .reductions import ConjugacyInstance, SspInstance, SspPrimeInstance
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


class _Cursor:
    def __init__(self, text: str):
        self.rows: list[list[tuple[int, int, str]]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            stripped = raw.lstrip()
            if not stripped or stripped.startswith("#"):
                continue
            row = [(lineno, m.start() + 1, m.group()) for m in _TOKEN.finditer(raw)]
            self.rows.append(row)
        self.pos = 0
        self.last_line = self.rows[-1][0][0] if self.rows else 1

    def take_row(self, arity: int, what: str) -> list[tuple[int, int, str]]:
        if self.pos >= len(self.rows):
            raise InstanceParseError(f"missing {what}", self.last_line + 1, 1)
        row = self.rows[self.pos]
        self.pos += 1
        if len(row) < arity:
            line, col, tok = row[-1]
            raise InstanceParseError(
                f"{what}: expected {arity} values, found {len(row)}",
                line,
                col + len(tok),
            )
        if len(row) > arity:
            line, col, _ = row[arity]
            raise InstanceParseError(
                f"{what}: expected {arity} values, found {len(row)}", line, col
            )
        return row

    def finish(self) -> None:
        if self.pos < len(self.rows):
            line, col, _ = self.rows[self.pos][0]
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


def _int_row(cursor: _Cursor, arity: int, what: str) -> tuple[int, ...]:
    return tuple(_to_int(tok) for tok in cursor.take_row(arity, what))


def parse_instance(text: str) -> ParsedFile:
    """Parse one instance/certificate/solution document."""
    cursor = _Cursor(text)
    line, col, kind = cursor.take_row(1, "kind tag")[0]
    if kind not in KINDS:
        raise InstanceParseError(
            f"unknown kind {kind!r}, expected one of {', '.join(KINDS)}", line, col
        )
    ntok = cursor.take_row(1, "size n")[0]
    n = _to_int(ntok)
    if n < 1:
        raise InstanceParseError(f"size n must be >= 1, got {n}", ntok[0], ntok[1])

    if kind in ("ssp", "sspp", "tssp"):
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

    row = cursor.take_row(n, "solution row")
    values = []
    for tok in row:
        value = _to_int(tok)
        if value not in (-1, 0, 1):
            raise InstanceParseError(
                f"solution entries must be -1, 0, or 1, found {value}", tok[0], tok[1]
            )
        values.append(value)
    cursor.finish()
    return SolutionFile(values=tuple(values))


def _ints(values) -> str:
    try:
        return " ".join(str(v) for v in values)
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
    else:
        n, rows = obj.n, (obj.coefficients, (obj.target,))
    return "\n".join((kind, str(n), *map(_ints, rows))) + "\n"
