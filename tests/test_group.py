import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconj import (
    Certificate,
    ConjugacyInstance,
    GroupContext,
    InvalidElementError,
    InvalidParameterError,
    bit_length,
    conjugate,
    conjugate_by_syllable,
    conjugator_to_assignment,
    decide_conjugate,
    element_to_word,
    identity,
    inverse,
    make_context,
    make_element,
    multiply,
    reachable_g1_values,
    search_conjugator,
    verify_certificate,
)
from support import random_element


def ctx_n(n):
    return make_context(n)


class TestContext:
    def test_generator_counts(self):
        assert ctx_n(1).hirsch == 3
        assert ctx_n(3).hirsch == 7

    @pytest.mark.parametrize("bad", [0, -2, 1.5, "3", True])
    def test_rejects_bad_n(self, bad):
        with pytest.raises(InvalidParameterError):
            make_context(bad)
        with pytest.raises(InvalidParameterError):
            GroupContext(bad)

    def test_make_element_validates_length(self):
        ctx = ctx_n(1)
        assert make_element(ctx, [1, 2, 3]) == (1, 2, 3)
        with pytest.raises(InvalidElementError):
            make_element(ctx, [1, 2])

    def test_constructor_derives_hirsch(self):
        assert GroupContext(4) == make_context(4)
        assert GroupContext(4).hirsch == 9
        with pytest.raises(TypeError):  # h is not an argument, so it cannot contradict n
            GroupContext(2, 5)


# Every function that takes an element of G(1), each handed one of length 2
# in one argument; the others are the identity.
_SHORT = (1, 2)
_E = (0, 0, 0)
_TAKES_AN_ELEMENT = {
    "make_element": lambda ctx: make_element(ctx, _SHORT),
    "multiply-left": lambda ctx: multiply(ctx, _SHORT, _E),
    "multiply-right": lambda ctx: multiply(ctx, _E, _SHORT),
    "inverse": lambda ctx: inverse(ctx, _SHORT),
    "conjugate-w": lambda ctx: conjugate(ctx, _SHORT, _E),
    "conjugate-u": lambda ctx: conjugate(ctx, _E, _SHORT),
    "conjugate_by_syllable": lambda ctx: conjugate_by_syllable(ctx, 2, 1, _SHORT),
    "bit_length": lambda ctx: bit_length(ctx, _SHORT),
    "ConjugacyInstance-u": lambda ctx: ConjugacyInstance(ctx, _SHORT, _E),
    "ConjugacyInstance-v": lambda ctx: ConjugacyInstance(ctx, _E, _SHORT),
    "conjugator_to_assignment": lambda ctx: conjugator_to_assignment(ctx, _SHORT),
    "element_to_word": lambda ctx: element_to_word(ctx, _SHORT),
    "verify_certificate-u": lambda ctx: verify_certificate(ctx, _SHORT, _E, Certificate(_E)),
    "verify_certificate-v": lambda ctx: verify_certificate(ctx, _E, _SHORT, Certificate(_E)),
    "verify_certificate-w": lambda ctx: verify_certificate(ctx, _E, _E, Certificate(_SHORT)),
    "decide_conjugate": lambda ctx: decide_conjugate(ctx, _E, _SHORT),
    "search_conjugator": lambda ctx: search_conjugator(ctx, _SHORT, _E),
    "reachable_g1_values": lambda ctx: reachable_g1_values(ctx, _SHORT),
}


@pytest.mark.parametrize("call", list(_TAKES_AN_ELEMENT.values()), ids=list(_TAKES_AN_ELEMENT))
def test_a_wrong_length_is_one_error_everywhere(call):
    message = "element of length 2 does not belong to G(1) (expected 3 exponents)"
    with pytest.raises(InvalidElementError) as caught:
        call(ctx_n(1))
    assert str(caught.value) == message


class TestMultiply:
    def test_known_products(self):
        ctx = ctx_n(1)
        assert multiply(ctx, (1, 1, 0), (1, 0, 0)) == (0, 1, 0)
        assert multiply(ctx, (1, 0, 0), (1, 1, 0)) == (2, 1, 0)

    def test_identity_laws(self):
        ctx = ctx_n(2)
        rng = random.Random(1)
        e = identity(ctx)
        for _ in range(50):
            a = random_element(rng, ctx, 30)
            assert multiply(ctx, a, e) == a
            assert multiply(ctx, e, a) == a

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidElementError):
            multiply(ctx_n(1), (1, 0, 0), (1, 0, 0, 0, 0))


class TestInverse:
    def test_known_inverses(self):
        ctx = ctx_n(1)
        assert inverse(ctx, (1, 1, 0)) == (1, -1, 0)
        assert inverse(ctx, (0, 0, 5)) == (0, 0, -5)
        assert inverse(ctx, identity(ctx)) == identity(ctx)

    def test_left_inverse_law_always(self):
        rng = random.Random(2)
        for n in (1, 2, 3):
            ctx = ctx_n(n)
            for _ in range(400):
                a = random_element(rng, ctx, 40)
                assert multiply(ctx, inverse(ctx, a), a) == identity(ctx)

    def test_two_sided_for_n1(self):
        rng = random.Random(3)
        ctx = ctx_n(1)
        for _ in range(400):
            a = random_element(rng, ctx, 40)
            assert multiply(ctx, a, inverse(ctx, a)) == identity(ctx)


class TestConjugateBySyllable:
    def test_known_values(self):
        ctx = ctx_n(1)
        assert conjugate_by_syllable(ctx, 2, 1, (0, 0, 5)) == (-5, 0, 5)
        assert conjugate_by_syllable(ctx, 1, 1, (0, 1, 0)) == (2, 1, 0)
        assert conjugate_by_syllable(ctx, 3, 1, (0, 1, 0)) == (1, 1, 0)

    def test_index_out_of_range(self):
        with pytest.raises(InvalidParameterError):
            conjugate_by_syllable(ctx_n(1), 4, 1, (0, 0, 0))
        with pytest.raises(InvalidParameterError):
            conjugate_by_syllable(ctx_n(1), 0, 1, (0, 0, 0))

    @pytest.mark.parametrize("k", [0.5, 1.5, 2.0, "1", None])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_non_integer_exponent_is_refused(self, i, k):
        # a float would slip into the g_1 exponent, and all arithmetic is
        # exact only in Python ints
        with pytest.raises(InvalidParameterError):
            conjugate_by_syllable(ctx_n(2), i, k, (0, 1, 5, 0, 7))

    @pytest.mark.parametrize("k", [False, True])
    def test_bool_exponent_is_zero_or_one(self, k):
        ctx = ctx_n(2)
        u = (0, 1, 5, 0, 7)
        for i in range(1, ctx.hirsch + 1):
            got = conjugate_by_syllable(ctx, i, k, u)
            assert got == conjugate_by_syllable(ctx, i, int(k), u)
            assert all(type(x) is int for x in got)

    def test_matches_definitional_form(self):
        # the closed forms equal w*u*w^{-1} computed through multiply/inverse
        rng = random.Random(4)
        for _ in range(3000):
            n = rng.randint(1, 3)
            ctx = ctx_n(n)
            u = random_element(rng, ctx, 60)
            i = rng.randint(1, ctx.hirsch)
            k = rng.randint(-40, 40)
            s = [0] * ctx.hirsch
            s[i - 1] = k
            s = tuple(s)
            expected = multiply(ctx, multiply(ctx, s, u), inverse(ctx, s))
            assert conjugate_by_syllable(ctx, i, k, u) == expected

    def test_preserves_upper_coordinates(self):
        rng = random.Random(5)
        ctx = ctx_n(3)
        for _ in range(500):
            u = random_element(rng, ctx, 50)
            i = rng.randint(1, ctx.hirsch)
            k = rng.randint(-30, 30)
            assert conjugate_by_syllable(ctx, i, k, u)[1:] == u[1:]


class TestConjugate:
    def test_known_values(self):
        ctx = ctx_n(1)
        assert conjugate(ctx, (0, 1, 0), (0, 0, 5)) == (-5, 0, 5)
        ctx2 = ctx_n(2)
        assert conjugate(ctx2, (0, 1, 0, 1, 0), (0, 0, 3, 0, 5)) == (2, 0, 3, 0, 5)

    def test_identity_conjugator(self):
        rng = random.Random(6)
        ctx = ctx_n(2)
        for _ in range(100):
            u = random_element(rng, ctx, 30)
            assert conjugate(ctx, identity(ctx), u) == u

    def test_exponent_preservation(self):
        rng = random.Random(7)
        for n in (1, 2, 3):
            ctx = ctx_n(n)
            for _ in range(500):
                w = random_element(rng, ctx, 20)
                u = random_element(rng, ctx, 20)
                assert conjugate(ctx, w, u)[1:] == u[1:]

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidElementError):
            conjugate(ctx_n(2), (0, 1, 0), (0, 0, 1, 0, 0))


class TestBitLength:
    def test_known_values(self):
        ctx = ctx_n(1)
        assert bit_length(ctx, (0, 0, 0)) == 6
        assert bit_length(ctx, (5, 0, 0)) == 8

    def test_squaring_at_most_doubles(self):
        rng = random.Random(8)
        ctx = ctx_n(2)
        for _ in range(300):
            a = random_element(rng, ctx, 10**6)
            squared = tuple(k * k for k in a)
            assert bit_length(ctx, squared) <= 2 * bit_length(ctx, a)


@st.composite
def n1_elements(draw, count):
    return tuple(
        tuple(draw(st.integers(-60, 60)) for _ in range(3)) for _ in range(count)
    )


class TestGroupLawsHoldForN1:
    """For n = 1 the rewrite rules present a genuine group, so every group
    law must hold there."""

    @settings(max_examples=200, deadline=None)
    @given(n1_elements(3))
    def test_associativity(self, elems):
        ctx = ctx_n(1)
        a, b, c = elems
        assert multiply(ctx, multiply(ctx, a, b), c) == multiply(ctx, a, multiply(ctx, b, c))

    def test_laws_at_word_size_exponents(self):
        # exponents spanning +-2^64: arithmetic must stay exact far past
        # machine-word width
        rng = random.Random(9)
        ctx = ctx_n(1)
        big = 2**64
        for _ in range(10_000):
            a, b, c = (
                tuple(rng.randint(-big, big) for _ in range(3)) for _ in range(3)
            )
            assert multiply(ctx, multiply(ctx, a, b), c) == multiply(
                ctx, a, multiply(ctx, b, c)
            )
            assert multiply(ctx, a, inverse(ctx, a)) == identity(ctx)
            assert multiply(ctx, inverse(ctx, a), a) == identity(ctx)

    @settings(max_examples=200, deadline=None)
    @given(n1_elements(2))
    def test_conjugation_is_definitional(self, elems):
        ctx = ctx_n(1)
        w, u = elems
        assert conjugate(ctx, w, u) == multiply(ctx, multiply(ctx, w, u), inverse(ctx, w))

    @settings(max_examples=200, deadline=None)
    @given(n1_elements(3))
    def test_conjugation_homomorphisms(self, elems):
        ctx = ctx_n(1)
        w, u, v = elems
        assert conjugate(ctx, w, multiply(ctx, u, v)) == multiply(
            ctx, conjugate(ctx, w, u), conjugate(ctx, w, v)
        )
        assert conjugate(ctx, multiply(ctx, u, v), w) == conjugate(
            ctx, u, conjugate(ctx, v, w)
        )


class TestConventionIsNotAGroup:
    """The rule families are inconsistent as group relations once n >= 2:
    g_4 commutes with g_2 and g_3, hence with g_1 = [g_3, g_2], yet inverts
    g_1, which would force g_1^2 = 1.  These tests pin the resulting
    behaviour of the deterministic collection convention."""

    def test_collapse_argument(self):
        ctx = ctx_n(2)
        g2, g3 = (0, 1, 0, 0, 0), (0, 0, 1, 0, 0)
        commutator = multiply(
            ctx,
            multiply(ctx, multiply(ctx, g3, g2), inverse(ctx, g3)),
            inverse(ctx, g2),
        )
        assert commutator == (1, 0, 0, 0, 0)  # [g_3, g_2] = g_1
        # conjugation by g_4 fixes g_2 and g_3 but inverts g_1
        assert conjugate_by_syllable(ctx, 4, 1, g2) == g2
        assert conjugate_by_syllable(ctx, 4, 1, g3) == g3
        assert conjugate_by_syllable(ctx, 4, 1, (1, 0, 0, 0, 0)) == (-1, 0, 0, 0, 0)

    def test_associativity_witness(self):
        ctx = ctx_n(2)
        g4, g3, g2 = (0, 0, 0, 1, 0), (0, 0, 1, 0, 0), (0, 1, 0, 0, 0)
        left = multiply(ctx, multiply(ctx, g4, g3), g2)
        right = multiply(ctx, g4, multiply(ctx, g3, g2))
        assert left == (1, 1, 1, 1, 0)
        assert right == (-1, 1, 1, 1, 0)
        assert left != right

    def test_right_inverse_witness(self):
        ctx = ctx_n(2)
        a = (0, 1, 0, 1, 1)  # g_2 g_4 g_5
        assert multiply(ctx, inverse(ctx, a), a) == identity(ctx)
        assert multiply(ctx, a, inverse(ctx, a)) == (-2, 0, 0, 0, 0)


# Reference copies of the original O(h^2) operations, which rescan the even
# prefix for every syllable; the O(h) operations must agree with them exactly.
def _ref_even_parity(exps, upto):
    p = 0
    for t in range(1, upto, 2):
        p ^= exps[t] & 1
    return p


def _ref_append_syllable(e, i, c, hirsch):
    if c == 0:
        return
    if i == 1:
        e[0] += c if _ref_even_parity(e, hirsch) == 0 else -c
    elif i % 2 == 0:
        if c & 1:
            t = e[i]
            if t:
                e[0] += t if _ref_even_parity(e, i) == 0 else -t
        e[i - 1] += c
    else:
        e[i - 1] += c


def _ref_multiply(h, a, b):
    e = list(a)
    for idx in range(h):
        _ref_append_syllable(e, idx + 1, b[idx], h)
    return tuple(e)


def _ref_inverse(h, a):
    e = [0] * h
    for idx in range(h - 1, -1, -1):
        _ref_append_syllable(e, idx + 1, -a[idx], h)
    return tuple(e)


def _ref_conjugate_syllable(e, i, k, hirsch):
    if k == 0:
        return
    if i == 1:
        if _ref_even_parity(e, hirsch):
            e[0] += 2 * k
    elif i % 2 == 0:
        s = e[0] if k % 2 == 0 else -e[0]
        if k & 1:
            t = e[i]
            if t:
                s += -t if ((_ref_even_parity(e, i) + k) & 1) else t
        e[0] = s
    else:
        if e[i - 2] & 1:
            e[0] += -k if _ref_even_parity(e, i - 2) else k


def _ref_conjugate(h, w, u):
    e = list(u)
    for idx in range(h - 1, -1, -1):
        _ref_conjugate_syllable(e, idx + 1, w[idx], h)
    return tuple(e)


# zeros and small odd/even exponents exercise every branch of the closed
# forms; the wide ones keep the arithmetic exact past 64 bits
_exponent = st.one_of(
    st.just(0), st.integers(-3, 3), st.integers(-(2**70), 2**70)
)


@st.composite
def _elements(draw, count):
    n = draw(st.integers(1, 60))
    h = 2 * n + 1
    return ctx_n(n), [tuple(draw(_exponent) for _ in range(h)) for _ in range(count)]


class TestLinearTimeOperations:
    @settings(max_examples=200, deadline=None)
    @given(_elements(2), st.data())
    def test_match_the_quadratic_reference(self, drawn, data):
        ctx, (a, b) = drawn
        h = ctx.hirsch
        assert multiply(ctx, a, b) == _ref_multiply(h, a, b)
        assert inverse(ctx, a) == _ref_inverse(h, a)
        assert conjugate(ctx, a, b) == _ref_conjugate(h, a, b)
        i = data.draw(st.integers(1, h))
        e = list(b)
        _ref_conjugate_syllable(e, i, a[0], h)
        assert conjugate_by_syllable(ctx, i, a[0], b) == tuple(e)
