import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconj import (
    CertificateFile,
    ConjugacyInstance,
    GenSpec,
    InstanceParseError,
    InvalidParameterError,
    SolutionFile,
    SspInstance,
    TsspInstance,
    generate,
    make_context,
    parse_instance,
    serialize_instance,
)
from polyconj.conjugacy import Certificate
from polyconj.formats import _Cursor, _int_row


class TestParse:
    def test_ssp(self):
        assert parse_instance("ssp\n3\n3 5 7\n8\n") == SspInstance((3, 5, 7), 8)

    def test_conj(self):
        parsed = parse_instance("conj\n1\n0 0 5\n-5 0 5\n")
        assert parsed == ConjugacyInstance(make_context(1), (0, 0, 5), (-5, 0, 5))

    def test_cert_and_sol(self):
        parsed = parse_instance("cert\n2\n0 1 0 1 0\n")
        assert parsed == CertificateFile(make_context(2), Certificate((0, 1, 0, 1, 0)))
        assert parse_instance("sol\n3\n1 0 -1\n") == SolutionFile((1, 0, -1))

    def test_comments_and_blank_lines(self):
        text = "# header\n\nssp\n# size\n2\n  3   5\n8\n\n# trailing\n"
        assert parse_instance(text) == SspInstance((3, 5), 8)

    def test_arbitrary_precision(self):
        big = 10**40
        parsed = parse_instance(f"tssp\n2\n{big} -{big}\n{big}\n")
        assert parsed == TsspInstance((big, -big), big)


class TestParseErrors:
    def test_missing_target_row(self):
        with pytest.raises(InstanceParseError) as err:
            parse_instance("ssp\n2\n3 5\n")
        assert "target" in str(err.value)

    def test_unknown_kind(self):
        with pytest.raises(InstanceParseError) as err:
            parse_instance("knapsack\n2\n3 5\n8\n")
        assert err.value.line == 1 and err.value.column == 1

    def test_non_integer_token_location(self):
        with pytest.raises(InstanceParseError) as err:
            parse_instance("ssp\n2\n3 x\n8\n")
        assert err.value.line == 3 and err.value.column == 3

    def test_wrong_arity(self):
        with pytest.raises(InstanceParseError):
            parse_instance("ssp\n3\n3 5\n8\n")
        with pytest.raises(InstanceParseError):
            parse_instance("ssp\n1\n3 5\n8\n")

    def test_extra_content(self):
        with pytest.raises(InstanceParseError):
            parse_instance("ssp\n2\n3 5\n8\n9\n")

    def test_bad_size(self):
        with pytest.raises(InstanceParseError):
            parse_instance("ssp\n0\n\n0\n")

    def test_sol_domain(self):
        with pytest.raises(InstanceParseError):
            parse_instance("sol\n2\n1 2\n")

    def test_underscores_rejected(self):
        with pytest.raises(InstanceParseError):
            parse_instance("ssp\n1\n1_0\n8\n")

    def test_empty_document(self):
        with pytest.raises(InstanceParseError):
            parse_instance("")


class TestRoundTrip:
    def test_generated_corpus(self):
        # parse(serialize(x)) == x across a generated corpus of every kind
        for kind in ("ssp", "sspp", "tssp", "conj"):
            for seed in range(1000):
                inst = generate(
                    GenSpec(kind=kind, n=1 + seed % 7, bound=50, seed=seed, solvable=seed % 2 == 0)
                )
                assert parse_instance(serialize_instance(inst)) == inst

    def test_cert_and_sol_round_trip(self):
        for n in (1, 2, 5):
            ctx = make_context(n)
            w = tuple(range(-n, n + 1))
            doc = CertificateFile(ctx, Certificate(w))
            assert parse_instance(serialize_instance(doc)) == doc
        sol = SolutionFile((1, 0, -1, 1))
        assert parse_instance(serialize_instance(sol)) == sol

    def test_serializer_rejects_unknown(self):
        with pytest.raises(TypeError):
            serialize_instance({"kind": "ssp"})

    @pytest.mark.parametrize("values", [(), (1, 2), (0, -2), (1, 0, 5), (True, 0), (1.0,)])
    def test_serializer_rejects_a_solution_that_would_not_parse(self, values):
        # an empty row reads back as "size n must be >= 1", an entry outside
        # {-1, 0, 1} as a domain error, and "True" or "1.0" as no integer,
        # so none of them is written
        with pytest.raises(InvalidParameterError):
            serialize_instance(SolutionFile(values))


def _reference_row(text: str, signs: bool):
    """Per-token model of one row: the first content line of ``text``, its
    \\S+ tokens at 1-based columns, [+-]?[0-9]+ then int() on each.
    Returns the token count, the values, and the first bad token's
    (message, line, column) or None."""
    line, raw = next((i, s) for i, s in enumerate(text.splitlines(), start=1) if s.strip())
    tokens = [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", raw)]
    values = []
    for token, col in tokens:
        if not re.fullmatch(r"[+-]?[0-9]+", token):
            return len(tokens), None, (f"expected an integer, found {token!r}", line, col)
        try:
            value = int(token)
        except ValueError:
            limit = sys.get_int_max_str_digits()
            return len(tokens), None, (f"integer has more than {limit} digits", line, col)
        if signs and value not in (-1, 0, 1):
            message = f"solution entries must be -1, 0, or 1, found {value}"
            return len(tokens), None, (message, line, col)
        values.append(value)
    return len(tokens), tuple(values), None


_padded_int = st.builds(
    lambda sign, zeros, k: sign + "0" * zeros + str(k),
    st.sampled_from(["", "", "+", "-"]), st.integers(0, 3), st.integers(0, 10**30),
)
_row_token = st.one_of(
    _padded_int,
    st.sampled_from(["-1", "0", "1", "1_0", "_1", "1_", "١", "١٢", "1３", "３", "+", "-", "x",
                     "9" * 4301]),
)


@given(
    tokens=st.lists(_row_token, min_size=1, max_size=8),
    seps=st.lists(st.sampled_from([" ", "\t", "\u3000", "\x1c", "  "]), min_size=9, max_size=9),
    signs=st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_row_parser_matches_a_per_token_reference(tokens, seps, signs):
    # one split and one int map per row must read exactly what a positioned
    # per-token scan reads, and fail on the same token with the same message
    text = seps[0] + "".join(tok + sep for tok, sep in zip(tokens, seps[1:]))
    arity, values, error = _reference_row(text, signs)
    if error is None:
        assert _int_row(_Cursor(text), arity, "row", signs=signs) == values
        return
    with pytest.raises(InstanceParseError) as err:
        _int_row(_Cursor(text), arity, "row", signs=signs)
    message, line, col = error
    assert (str(err.value), err.value.line, err.value.column) == (
        f"line {line}, column {col}: {message}", line, col)
