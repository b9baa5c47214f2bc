"""The split scan behind the brute referees against a plain product loop."""

from itertools import product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconj import signed_sum, subset_sum, twisted_sum
from polyconj import _search

# each alphabet with the exact evaluator of its problem and its value set
PROBLEMS = {
    "SUBSET": (_search.SUBSET, subset_sum, (0, 1), 14),
    "SIGNED": (_search.SIGNED, signed_sum, (-1, 0, 1), 9),
    "TWISTED": (_search.TWISTED, twisted_sum, (0, 1), 14),
}


def first_by_product(coefficients, target, evaluate, values):
    for candidate in product(values, repeat=len(coefficients)):
        if evaluate(coefficients, candidate) == target:
            return candidate
    return None


def scan(coefficients, target, name):
    alphabet, evaluate, _, _ = PROBLEMS[name]
    return _search.first_match(
        coefficients, target, alphabet, lambda c: evaluate(coefficients, c)
    )


@st.composite
def cases(draw, name):
    _, evaluate, values, max_n = PROBLEMS[name]
    # few distinct magnitudes, so zero and repeated coefficients are common
    coefficients = tuple(draw(st.lists(
        st.sampled_from((0, 1, -1, 3, -3, 10, -10, 1000, -1000)), min_size=1, max_size=max_n,
    )))
    if draw(st.booleans()):
        image = draw(st.tuples(*[st.sampled_from(values) for _ in coefficients]))
        target = evaluate(coefficients, image)
    else:
        target = draw(st.integers(-20, 20))
    return coefficients, target


# a table of 1 entry leaves every coordinate to the prefix loop; the others
# put the split at every depth the cases reach
SMALL_TABLES = (1, 2, 3, 4, 8, 9, 27, 64)


@pytest.mark.parametrize("tables", [(_search._TABLE,), SMALL_TABLES], ids=["shipped", "small"])
@pytest.mark.parametrize("name", sorted(PROBLEMS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_first_match_is_the_first_product_hit(tables, name, data):
    coefficients, target = data.draw(cases(name))
    table = data.draw(st.sampled_from(tables))
    _, evaluate, values, _ = PROBLEMS[name]
    with mock.patch.object(_search, "_TABLE", table):
        found = scan(coefficients, target, name)
    assert found == first_by_product(coefficients, target, evaluate, values)


def test_prefix_loop_at_the_shipped_size():
    # n = 20 bits put 10 coordinates in the table and 10 in the prefix loop;
    # powers of two make (1, 1, 0, ..., 0) the only witness, in the last
    # quarter of the prefixes
    coefficients = tuple(1 << i for i in range(20))
    assert scan(coefficients, 3, "SUBSET") == (1, 1) + (0,) * 18
    # an odd target over even coefficients is unreached after all 2^20
    assert scan(tuple(2 * k for k in coefficients), 7, "SUBSET") is None


def test_suffix_table_holds_at_most_half_the_coordinates(monkeypatch):
    # n = 20 bits: the table could hold 2^16 suffixes, but a table over more
    # than half the coordinates only costs memory, so it holds 2^10 sums
    sizes = []

    def recording(pairs):
        table = dict(pairs)
        sizes.append(len(table))
        return table

    monkeypatch.setattr(_search, "dict", recording, raising=False)
    coefficients = tuple(1 << i for i in range(20))
    assert scan(coefficients, 3, "SUBSET") == (1, 1) + (0,) * 18
    assert sizes == [2**10]


def test_signed_prefix_loop_at_the_shipped_size():
    # n = 11 signed puts 6 coordinates in the table and 5 in the prefix loop
    coefficients = (7, 0, 3, -3, 5, 5, 1000, -1, 2, 9, 4)
    for target in (1, -1018, 1039, 1040):
        assert scan(coefficients, target, "SIGNED") == first_by_product(
            coefficients, target, signed_sum, (-1, 0, 1)
        )


@pytest.mark.parametrize("name", sorted(PROBLEMS))
@pytest.mark.parametrize("high", [1 << 61, (1 << 61) + 1], ids=["int64", "python"])
def test_each_side_of_the_int64_fallback(name, high):
    # sum|k| is 2^62 - 1 or 2^62, each side of where sums leave int64; (1, 1)
    # is the only witness and the last candidate, and on both sides only the
    # hit is re-checked
    alphabet, evaluate, values, _ = PROBLEMS[name]
    coefficients = (high, (1 << 61) - 1)
    target = evaluate(coefficients, (1, 1))
    seen = []

    def recording(candidate):
        seen.append(candidate)
        return evaluate(coefficients, candidate)

    assert _search.first_match(coefficients, target, alphabet, recording) == (1, 1)
    assert seen == [(1, 1)]
    # sums near 2^200 that collide: every reachable target and a missed one
    wide = ((1 << 200) + 3, -(1 << 200), 3, (1 << 200) + 6, -(1 << 199))
    for target in {evaluate(wide, image) for image in product(values, repeat=len(wide))} | {1}:
        assert scan(wide, target, name) == first_by_product(wide, target, evaluate, values)
