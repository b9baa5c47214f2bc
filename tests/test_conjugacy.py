import math
import random

import pytest

from polyconj import (
    Certificate,
    InvalidElementError,
    InvalidParameterError,
    NotAllEvenError,
    StateLimitError,
    TsspInstance,
    assignment_to_conjugator,
    bit_length,
    conjugate,
    conjugator_to_assignment,
    decide_conjugate,
    identity,
    make_context,
    pullback_conjugacy_to_tssp,
    reachable_g1_values,
    search_conjugator,
    solve_tssp_brute,
    solve_tssp_dp,
    tssp_to_conjugacy,
    twisted_sum,
    verify_certificate,
)
from polyconj._sweep import trace
from support import brute_conjugacy_map, conjugator_bound, random_element


def random_all_even(rng, n, bound):
    """A G(n) element whose even coordinates are all even."""
    ctx = make_context(n)
    u = list(random_element(rng, ctx, bound))
    for t in range(1, ctx.hirsch, 2):
        u[t] *= 2
    return ctx, tuple(u)


class TestDecide:
    def test_known_instances(self):
        ctx = make_context(1)
        assert decide_conjugate(ctx, (0, 0, 5), (-5, 0, 5)) is True
        assert decide_conjugate(ctx, (0, 0, 5), (-4, 0, 5)) is False
        assert decide_conjugate(ctx, (0, 1, 0), (3, 1, 0)) is True

    def test_tail_mismatch_is_no(self):
        ctx = make_context(2)
        assert decide_conjugate(ctx, (0, 0, 1, 0, 0), (0, 0, 2, 0, 0)) is False

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidElementError):
            decide_conjugate(make_context(1), (0, 0, 0), (0, 0, 0, 0, 0))


class TestReachable:
    def test_known_sets(self):
        ctx = make_context(1)
        assert set(reachable_g1_values(ctx, (0, 0, 5))[-1]) == {0, -5}
        ctx2 = make_context(2)
        assert set(reachable_g1_values(ctx2, (1, 0, 2, 0, 3))[-1]) == {1, -3, -4, 2}
        assert set(reachable_g1_values(ctx2, (9, 0, 0, 0, 0))[-1]) == {9, -9}

    def test_zero_odd_tail_keeps_start_only_up_to_sign(self):
        # with no odd-coordinate weights the only moves are sign flips
        ctx = make_context(2)
        assert set(reachable_g1_values(ctx, (0, 2, 0, -4, 0))[-1]) == {0}

    def test_requires_even_coordinates(self):
        ctx = make_context(1)
        with pytest.raises(NotAllEvenError):
            reachable_g1_values(ctx, (0, 1, 0))

    def test_values_respect_magnitude_bound(self):
        rng = random.Random(41)
        for _ in range(300):
            n = rng.randint(1, 4)
            ctx = make_context(n)
            u = [rng.randint(-6, 6) for _ in range(ctx.hirsch)]
            for t in range(1, ctx.hirsch, 2):
                u[t] *= 2
            u = tuple(u)
            bound = abs(u[0]) + sum(abs(k) for k in u[2::2])
            for stage in reachable_g1_values(ctx, u):
                assert all(abs(s) <= bound for s in stage)

    def test_matches_exhaustive_bit_conjugators(self):
        import itertools

        from polyconj import assignment_to_conjugator

        rng = random.Random(42)
        for _ in range(200):
            n = rng.randint(1, 3)
            ctx = make_context(n)
            u = [rng.randint(-4, 4) for _ in range(ctx.hirsch)]
            for t in range(1, ctx.hirsch, 2):
                u[t] *= 2
            u = tuple(u)
            expected = {
                conjugate(ctx, assignment_to_conjugator(ctx, bits), u)[0]
                for bits in itertools.product((0, 1), repeat=n)
            }
            assert set(reachable_g1_values(ctx, u)[-1]) == expected

    def test_state_limit(self):
        ctx = make_context(3)
        u = (0, 0, 11, 0, 23, 0, 47)
        with pytest.raises(StateLimitError):
            reachable_g1_values(ctx, u, max_states=3)


@pytest.mark.parametrize("max_states", [0, -5])
@pytest.mark.parametrize("entry", [decide_conjugate, search_conjugator])
@pytest.mark.parametrize(
    "u, v",
    [
        ((0, 0, 5), (0, 0, 6)),  # upper coordinates differ: no sweep runs
        ((0, 1, 0), (3, 1, 0)),  # an odd even coordinate: the fast path
        ((0, 0, 5), (-5, 0, 5)),  # all evens even: the sweep
    ],
)
def test_a_cap_below_one_is_refused_in_every_regime(entry, u, v, max_states):
    with pytest.raises(InvalidParameterError):
        entry(make_context(1), u, v, max_states=max_states)


def test_reachable_checks_the_cap_before_the_coordinates():
    with pytest.raises(InvalidParameterError):
        reachable_g1_values(make_context(1), (0, 1, 0), max_states=0)


class TestSearchAndVerify:
    def test_known_certificates(self):
        ctx = make_context(1)
        cert = search_conjugator(ctx, (0, 0, 5), (-5, 0, 5))
        assert cert == Certificate(w=(0, 1, 0))
        cert = search_conjugator(ctx, (0, 1, 0), (3, 1, 0))
        assert cert == Certificate(w=(0, 0, 3))
        assert search_conjugator(ctx, (1, 2, 3), (1, 2, 3)) is not None

    def test_identity_for_equal_pair(self):
        ctx = make_context(2)
        u = (3, 2, 4, -2, 7)
        cert = search_conjugator(ctx, u, u)
        assert cert == Certificate(identity(ctx))
        assert verify_certificate(ctx, u, u, cert)

    def test_none_exactly_when_not_conjugate(self):
        ctx = make_context(1)
        assert search_conjugator(ctx, (0, 0, 5), (-4, 0, 5)) is None
        assert search_conjugator(ctx, (0, 0, 5), (0, 1, 5)) is None

    def test_verify_known(self):
        ctx = make_context(1)
        assert verify_certificate(ctx, (0, 0, 5), (-5, 0, 5), Certificate((0, 1, 0)))
        u = (4, 1, -2)
        assert verify_certificate(ctx, u, u, Certificate(identity(ctx)))
        assert not verify_certificate(
            ctx, (0, 0, 5), (-5, 0, 5), Certificate(identity(ctx))
        )

    @pytest.mark.parametrize("entry", [0.5, 1.0, "1", None])
    def test_verify_refuses_a_non_integer_entry(self, entry):
        with pytest.raises(InvalidParameterError, match="expected an integer"):
            verify_certificate(make_context(1), (0, 2, 3), (0, 2, 3), Certificate(w=(entry, 0, 0)))

    def test_verify_reads_bool_and_numpy_entries_as_integers(self):
        np = pytest.importorskip("numpy")
        ctx = make_context(1)
        for one in (True, np.int64(1)):
            assert verify_certificate(ctx, (0, 0, 5), (-5, 0, 5), Certificate((0, one, 0)))
            assert not verify_certificate(ctx, (0, 0, 5), (-5, 0, 5), Certificate((one, 0, 0)))
            assert not verify_certificate(ctx, (4, 1, -2), (4, 1, -2), Certificate((one, 0, 0)))

    def test_fast_path_formula_is_exact(self):
        rng = random.Random(43)
        for _ in range(500):
            n = rng.randint(1, 4)
            ctx = make_context(n)
            u = list(random_element(rng, ctx, 9))
            pos = 2 * rng.randint(1, n) - 1
            u[pos] = 2 * rng.randint(-4, 4) + 1  # force one odd even-coordinate
            u = tuple(u)
            v = list(u)
            v[0] = rng.randint(-50, 50)
            v = tuple(v)
            cert = search_conjugator(ctx, u, v)
            assert cert is not None
            assert conjugate(ctx, cert.w, u) == v
            nonzero = [i for i, k in enumerate(cert.w) if k]
            assert len(nonzero) <= 1  # a single odd-generator syllable

    def test_certificates_always_verify(self):
        rng = random.Random(44)
        done = 0
        while done < 400:
            n = rng.randint(1, 3)
            ctx = make_context(n)
            u = random_element(rng, ctx, 5)
            w = random_element(rng, ctx, 3)
            v = conjugate(ctx, w, u)
            cert = search_conjugator(ctx, u, v)
            assert cert is not None and verify_certificate(ctx, u, v, cert)
            done += 1


class TestAgainstBruteForce:
    def test_agreement_and_certificate_length(self):
        rng = random.Random(45)
        c_fixed = 7
        for _ in range(150):
            n = rng.randint(1, 3)
            ctx = make_context(n)
            u = list(random_element(rng, ctx, 4))
            if rng.random() < 0.5:  # force the all-even regime half the time
                for t in range(1, ctx.hirsch, 2):
                    u[t] = 2 * rng.randint(-2, 2)
            u = tuple(u)
            partners = []
            for _ in range(4):
                kind = rng.random()
                if kind < 0.4:
                    v = list(u)
                    v[0] = rng.randint(-4, 4)
                    partners.append(tuple(v))
                elif kind < 0.7:
                    w = random_element(rng, ctx, 2)
                    partners.append(conjugate(ctx, w, u))
                else:
                    partners.append(random_element(rng, ctx, 4))
            bound = conjugator_bound(u, [v[0] for v in partners])
            reachable = brute_conjugacy_map(ctx, u, bound)
            total = abs(u[0]) + sum(abs(k) for k in u[2::2])
            for v in partners:
                expected = v in reachable
                assert decide_conjugate(ctx, u, v) == expected
                cert = search_conjugator(ctx, u, v)
                assert (cert is not None) == expected
                if cert is not None:
                    assert verify_certificate(ctx, u, v, cert)
                    limit = math.log2(abs(v[0]) + total + 1) + c_fixed * n
                    assert bit_length(ctx, cert.w) <= limit


class TestTsspCompleteness:
    def test_decide_matches_dp_and_certificates_pull_back(self):
        rng = random.Random(46)
        for _ in range(800):
            n = rng.randint(1, 10)
            coeffs = tuple(rng.randint(-15, 15) for _ in range(n))
            if rng.random() < 0.5:
                bits = tuple(rng.randint(0, 1) for _ in range(n))
                target = twisted_sum(coeffs, bits)
            else:
                s = sum(abs(k) for k in coeffs)
                target = rng.randint(-s, s) if s else 0
            inst = TsspInstance(coeffs, target)
            solvable = solve_tssp_dp(inst) is not None
            conj = tssp_to_conjugacy(inst)
            assert decide_conjugate(conj.ctx, conj.u, conj.v) == solvable
            cert = search_conjugator(conj.ctx, conj.u, conj.v)
            assert (cert is not None) == solvable
            if cert is not None:
                assignment = conjugator_to_assignment(conj.ctx, cert.w)
                assert twisted_sum(coeffs, assignment) == target


@pytest.mark.parametrize("n, bits", [(24, 24), (28, 28), (30, 32)])
def test_meet_matches_the_brute_referee_in_the_exponential_regime(n, bits):
    # coefficients of about n bits spread the 2^n assignments apart, so the
    # sweep's stages are sparse sets; the hash-join referee decides each
    # image's TSSP instance on its own
    rng = random.Random(50 + n)
    answers = []
    for solvable in (True, False, True, False):
        coeffs = tuple(rng.randint(-(2**bits), 2**bits) for _ in range(n))
        if solvable:
            target = twisted_sum(coeffs, tuple(rng.randint(0, 1) for _ in range(n)))
        else:
            target = rng.randint(-sum(map(abs, coeffs)), sum(map(abs, coeffs)))
        inst = TsspInstance(coeffs, target)
        expected = solve_tssp_brute(inst, max_n=32) is not None
        conj = tssp_to_conjugacy(inst)
        assert decide_conjugate(conj.ctx, conj.u, conj.v) == expected
        cert = search_conjugator(conj.ctx, conj.u, conj.v)
        assert (cert is not None) == expected
        if cert is not None:
            assert verify_certificate(conj.ctx, conj.u, conj.v, cert)
            assert twisted_sum(coeffs, pullback_conjugacy_to_tssp(inst, cert.w)) == target
        answers.append(expected)
    assert answers == [True, False, True, False]


class TestMeetAgainstFullSweep:
    """decide/search meet in the middle; the full sweep of
    reachable_g1_values is the reference they must reproduce exactly."""

    def test_decide_and_search_match_the_full_sweep(self):
        rng = random.Random(47)
        for _ in range(400):
            ctx, u = random_all_even(rng, rng.randint(1, 6), 9)
            stages = reachable_g1_values(ctx, u)
            finals = set(stages[-1])
            for f1 in (rng.choice(sorted(finals)), rng.randint(-60, 60)):
                v = (f1,) + u[1:]
                assert decide_conjugate(ctx, u, v) == (f1 in finals)
                choices = trace(stages, f1)
                expected = None
                if choices is not None:
                    expected = Certificate(w=assignment_to_conjugator(ctx, choices[::-1]))
                assert search_conjugator(ctx, u, v) == expected

    def test_identity_for_equal_all_even_pairs(self):
        rng = random.Random(49)
        for _ in range(300):
            ctx, u = random_all_even(rng, rng.randint(1, 6), 20)
            assert search_conjugator(ctx, u, u) == Certificate(identity(ctx))


@pytest.mark.parametrize("u, v", [([0, 1, 0], (0, 1, 0)), ((0, 1, 0), [0, 1, 0]),
                                  ([4, 2, 3], [4, 2, 3])],
                         ids=["list-tuple", "tuple-list", "list-list"])
def test_lists_and_tuples_compare_by_value(u, v):
    # u ~ v by the identity whichever sequence type holds them
    ctx = make_context(1)
    assert decide_conjugate(ctx, u, v)
    assert search_conjugator(ctx, u, v) == Certificate(identity(ctx))
    assert verify_certificate(ctx, u, v, Certificate(identity(ctx)))
