import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconj import (
    InvalidParameterError,
    OracleTooLargeError,
    collect,
    conjugate,
    element_to_word,
    identity,
    inverse_word,
    make_context,
)
from support import exhaustive_words, fold_word, random_element, random_word


class TestCollect:
    def test_known_words(self):
        ctx = make_context(1)
        assert collect(ctx, [(3, 1), (2, 1)]) == (1, 1, 1)
        assert collect(ctx, [(2, 1), (1, 1)]) == (-1, 1, 0)
        assert collect(ctx, []) == identity(ctx)

    def test_rejects_bad_letters(self):
        ctx = make_context(1)
        with pytest.raises(InvalidParameterError):
            collect(ctx, [(4, 1)])
        with pytest.raises(InvalidParameterError):
            collect(ctx, [(2, 2)])
        with pytest.raises(InvalidParameterError):
            collect(ctx, [(2, 1)], strategy="middle")
        for letter in ((1,), (1, 1, 1), 5, None):
            with pytest.raises(InvalidParameterError, match="letter 1 is not an .index, sign. pair"):
                collect(ctx, [(2, 1), letter])

    def test_matches_multiply_fold_random(self):
        # group_core and the letter-level oracle implement the same collection
        rng = random.Random(11)
        for n in (1, 2, 3):
            ctx = make_context(n)
            for _ in range(1500):
                word = random_word(rng, ctx, 10)
                assert collect(ctx, word) == fold_word(ctx, word)

    def test_multiply_agrees_with_concatenated_words(self):
        from polyconj import multiply

        rng = random.Random(13)
        for _ in range(400):
            n = rng.randint(1, 3)
            ctx = make_context(n)
            a = random_element(rng, ctx, 5)
            b = random_element(rng, ctx, 5)
            word = element_to_word(ctx, a) + element_to_word(ctx, b)
            assert collect(ctx, word) == multiply(ctx, a, b)

    def test_confluent_for_n1(self):
        ctx = make_context(1)
        for word in exhaustive_words(ctx, 4):
            assert collect(ctx, word) == collect(ctx, word, strategy="rightmost")

    def test_non_confluence_witness_for_n2(self):
        # rewriting order matters once n >= 2: the rule families are not
        # consistent group relations (see polyconj.group)
        ctx = make_context(2)
        word = [(4, 1), (3, 1), (2, 1)]
        assert collect(ctx, word) == (1, 1, 1, 1, 0)
        assert collect(ctx, word, strategy="rightmost") == (-1, 1, 1, 1, 0)


class TestElementToWord:
    def test_known_expansions(self):
        ctx = make_context(1)
        assert element_to_word(ctx, (0, 0, 5)) == ((3, 1),) * 5
        assert element_to_word(ctx, (-1, 1, 0)) == ((1, -1), (2, 1))
        assert element_to_word(ctx, identity(ctx)) == ()

    def test_expansion_limit(self):
        ctx = make_context(1)
        with pytest.raises(OracleTooLargeError):
            element_to_word(ctx, (0, 0, 10**5))
        element_to_word(ctx, (0, 0, 10**5), max_letters=10**5)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_round_trip(self, n, data):
        ctx = make_context(n)
        a = tuple(
            data.draw(st.integers(-8, 8)) for _ in range(ctx.hirsch)
        )
        assert collect(ctx, element_to_word(ctx, a)) == a


class TestConjugationReferee:
    def test_collect_conjugation_matches_closed_forms(self):
        # w u w^{-1} spelled out in letters (free inverse word), collected
        # leftmost-first, reproduces the iterated closed-form conjugation for
        # arbitrary conjugators
        rng = random.Random(12)
        for _ in range(800):
            n = rng.randint(1, 3)
            ctx = make_context(n)
            u = random_element(rng, ctx, 4)
            w = random_element(rng, ctx, 4)
            wu = element_to_word(ctx, w) + element_to_word(ctx, u) + inverse_word(
                element_to_word(ctx, w)
            )
            assert collect(ctx, wu) == conjugate(ctx, w, u)
