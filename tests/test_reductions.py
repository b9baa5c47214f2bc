import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconj import (
    ConjugacyInstance,
    InvalidParameterError,
    InvalidPromiseError,
    OracleTooLargeError,
    SoundnessError,
    SspInstance,
    SspPrimeInstance,
    TsspInstance,
    assignment_to_conjugator,
    conjugate,
    conjugator_to_assignment,
    decide_conjugate,
    make_context,
    pullback_conjugacy_to_tssp,
    pullback_sspprime_to_ssp,
    pullback_tssp_to_sspprime,
    push_ssp_solution_to_sspprime,
    push_sspprime_solution_to_tssp,
    signed_sum,
    solve_ssp_brute,
    solve_ssp_dp,
    solve_sspprime_brute,
    solve_sspprime_dp,
    solve_tssp_brute,
    ssp_search_via_decision,
    ssp_to_sspprime,
    sspprime_to_tssp,
    subset_sum,
    tssp_to_conjugacy,
    twisted_sum,
)
from polyconj import reductions
from polyconj.formats import KINDS
from polyconj.reductions import CHAIN, HOPS


class TestBruteSolvers:
    def test_ssp_known(self):
        assert solve_ssp_brute(SspInstance((3, 5, 7), 8)) == (1, 1, 0)
        assert solve_ssp_brute(SspInstance((3, 5, 7), 0)) == (0, 0, 0)
        assert solve_ssp_brute(SspInstance((3, 5, 7), 6)) is None

    def test_ssp_reachable_set(self):
        sums = {
            subset_sum((3, 5, 7), bits)
            for bits in itertools.product((0, 1), repeat=3)
        }
        assert sums == {0, 3, 5, 7, 8, 10, 12, 15}

    def test_sspprime_known(self):
        assert solve_sspprime_brute(SspPrimeInstance((4,), -4)) == (-1,)
        assert solve_sspprime_brute(SspPrimeInstance((4,), 0)) == (0,)
        assert solve_sspprime_brute(SspPrimeInstance((3, 5), 2)) == (-1, 1)

    def test_size_caps(self):
        with pytest.raises(OracleTooLargeError):
            solve_ssp_brute(SspInstance((1,) * 26, 0))
        with pytest.raises(OracleTooLargeError):
            solve_sspprime_brute(SspPrimeInstance((1,) * 17, 0))

    def test_big_integer_fallback(self):
        big = 10**25
        assert solve_ssp_brute(SspInstance((big, 2 * big), 3 * big)) == (1, 1)
        assert solve_sspprime_brute(SspPrimeInstance((big, 3 * big), 2 * big)) == (-1, 1)


class TestSweepSolvers:
    def test_known_instances(self):
        assert solve_ssp_dp(SspInstance((3, 5, 7), 8)) == (1, 1, 0)
        assert solve_ssp_dp(SspInstance((3, 5, 7), 6)) is None
        assert solve_sspprime_dp(SspPrimeInstance((3, 5), 2)) == (-1, 1)
        assert solve_sspprime_dp(SspPrimeInstance((3, 5), 1)) is None

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=10), st.integers(-80, 80))
    def test_ssp_agrees_with_brute_force(self, coeffs, target):
        inst = SspInstance(tuple(coeffs), target)
        dp = solve_ssp_dp(inst)
        assert (dp is None) == (solve_ssp_brute(inst) is None)
        if dp is not None:
            assert subset_sum(inst.coefficients, dp) == target

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-20, 20), min_size=1, max_size=7), st.integers(-80, 80))
    def test_sspprime_agrees_with_brute_force(self, coeffs, target):
        inst = SspPrimeInstance(tuple(coeffs), target)
        dp = solve_sspprime_dp(inst)
        assert (dp is None) == (solve_sspprime_brute(inst) is None)
        if dp is not None:
            assert signed_sum(inst.coefficients, dp) == target


@pytest.mark.parametrize("cls", [SspInstance, SspPrimeInstance, TsspInstance])
def test_empty_coefficient_list_rejected(cls):
    with pytest.raises(InvalidParameterError):
        cls((), 0)


def fold_round_by_round(inst):
    """ssp_to_sspprime as n folds of x_i + y_i = 1 into 4 * LHS, one round
    at a time, rescaling every coefficient each round."""
    n = inst.n
    cx = list(inst.coefficients)
    cy = [0] * n
    target = inst.target
    for i in range(n):
        cx = [4 * c for c in cx]
        cy = [4 * c for c in cy]
        cx[i] += 1
        cy[i] += 1
        target = 4 * target + 1
    return SspPrimeInstance(coefficients=tuple(cx) + tuple(cy), target=target)


class TestSspToSspPrime:
    def test_single_coefficient(self):
        out = ssp_to_sspprime(SspInstance((7,), 7))
        assert out.coefficients == (29, 1)
        assert out.target == 29

    def test_two_coefficients(self):
        out = ssp_to_sspprime(SspInstance((1, 2), 3))
        assert out.coefficients == (20, 33, 4, 1)
        assert out.target == 53
        assert signed_sum(out.coefficients, (1, 1, 0, 0)) == 53

    def test_closed_form_coefficients(self):
        rng = random.Random(31)
        for _ in range(60):
            n = rng.randint(1, 7)
            inst = SspInstance(
                tuple(rng.randint(-30, 30) for _ in range(n)), rng.randint(-60, 60)
            )
            out = ssp_to_sspprime(inst)
            four_n = 4**n
            for i in range(n):
                assert out.coefficients[i] == 4 ** (n - 1 - i) + four_n * inst.coefficients[i]
                assert out.coefficients[n + i] == 4 ** (n - 1 - i)
            assert out.target == four_n * inst.target + (four_n - 1) // 3

    @settings(max_examples=300, deadline=None)
    @given(
        coefficients=st.lists(st.integers(-(10**30), 10**30), min_size=1, max_size=40),
        target=st.integers(-(10**31), 10**31),
    )
    def test_closed_form_equals_the_round_by_round_fold(self, coefficients, target):
        inst = SspInstance(tuple(coefficients), target)
        assert ssp_to_sspprime(inst) == fold_round_by_round(inst)

    def test_full_subset_is_always_mapped_solvable(self):
        rng = random.Random(32)
        for _ in range(40):
            n = rng.randint(1, 6)
            coeffs = tuple(rng.randint(-20, 20) for _ in range(n))
            inst = SspInstance(coeffs, sum(coeffs))
            out = ssp_to_sspprime(inst)
            assert signed_sum(out.coefficients, (1,) * n + (0,) * n) == out.target

    def test_forward_witness_map(self):
        rng = random.Random(33)
        for _ in range(200):
            n = rng.randint(1, 6)
            coeffs = tuple(rng.randint(-10, 10) for _ in range(n))
            bits = tuple(rng.randint(0, 1) for _ in range(n))
            inst = SspInstance(coeffs, subset_sum(coeffs, bits))
            out = ssp_to_sspprime(inst)
            values = push_ssp_solution_to_sspprime(bits)
            assert signed_sum(out.coefficients, values) == out.target


class TestPullbackSspPrime:
    def test_known_values(self):
        assert pullback_sspprime_to_ssp(SspInstance((7,), 7), (1, 0)) == (1,)
        assert pullback_sspprime_to_ssp(SspInstance((1, 2), 3), (1, 1, 0, 0)) == (1, 1)
        assert pullback_sspprime_to_ssp(SspInstance((5,), 0), (0, 1)) == (0,)

    def test_rejects_negative_x_half(self):
        with pytest.raises(SoundnessError):
            pullback_sspprime_to_ssp(SspInstance((7,), -7), (-1, 1))

    def test_rejects_non_solving(self):
        with pytest.raises(SoundnessError):
            pullback_sspprime_to_ssp(SspInstance((7,), 7), (0, 1))


class TestSspPrimeToTssp:
    def test_interleaves_zeros(self):
        out = sspprime_to_tssp(SspPrimeInstance((4,), -4))
        assert out.coefficients == (0, 4)
        assert out.target == -4
        assert twisted_sum(out.coefficients, (1, 1)) == -4

    def test_known_witnesses(self):
        assert twisted_sum((0, 4), (0, 1)) == 4
        assert push_sspprime_solution_to_tssp((-1,)) == (1, 1)
        assert push_sspprime_solution_to_tssp((1,)) == (0, 1)
        assert push_sspprime_solution_to_tssp((0, 0)) == (0, 0, 0, 0)
        with pytest.raises(InvalidParameterError, match="values must be in"):
            push_sspprime_solution_to_tssp((2,))

    def test_forward_witness_map(self):
        rng = random.Random(34)
        for _ in range(300):
            n = rng.randint(1, 6)
            coeffs = tuple(rng.randint(-15, 15) for _ in range(n))
            values = tuple(rng.randint(-1, 1) for _ in range(n))
            inst = SspPrimeInstance(coeffs, signed_sum(coeffs, values))
            out = sspprime_to_tssp(inst)
            assign = push_sspprime_solution_to_tssp(values)
            assert twisted_sum(out.coefficients, assign) == out.target

    def test_pullback(self):
        inst = SspPrimeInstance((4,), -4)
        assert pullback_tssp_to_sspprime(inst, (1, 1)) == (-1,)
        assert pullback_tssp_to_sspprime(SspPrimeInstance((4,), 4), (0, 1)) == (1,)
        assert pullback_tssp_to_sspprime(SspPrimeInstance((4,), 0), (0, 0)) == (0,)
        with pytest.raises(SoundnessError):
            pullback_tssp_to_sspprime(inst, (0, 1))

    def test_pullback_refuses_an_assignment_of_the_wrong_length(self):
        with pytest.raises(SoundnessError, match=r"^assignment has length 3, expected 2$"):
            pullback_tssp_to_sspprime(SspPrimeInstance((3,), 3), (0, 1, 0))

    def test_pullback_round_trip(self):
        rng = random.Random(35)
        for _ in range(300):
            n = rng.randint(1, 5)
            coeffs = tuple(rng.randint(-12, 12) for _ in range(n))
            values = tuple(rng.randint(-1, 1) for _ in range(n))
            inst = SspPrimeInstance(coeffs, signed_sum(coeffs, values))
            assign = push_sspprime_solution_to_tssp(values)
            assert pullback_tssp_to_sspprime(inst, assign) == values


class TestTsspToConjugacy:
    def test_known_instances(self):
        out = tssp_to_conjugacy(TsspInstance((5,), 5))
        assert out.u == (0, 0, 5)
        assert out.v == (-5, 0, 5)
        out = tssp_to_conjugacy(TsspInstance((3, 5), -2))
        assert out.u == (0, 0, 3, 0, 5)
        assert out.v == (2, 0, 3, 0, 5)
        assert conjugate(out.ctx, (0, 1, 0, 1, 0), out.u) == out.v

    def test_zero_target_conjugate_by_identity(self):
        out = tssp_to_conjugacy(TsspInstance((9,), 0))
        assert out.u == out.v

    def test_conjugator_mapping(self):
        ctx = make_context(1)
        assert assignment_to_conjugator(ctx, (1,)) == (0, 1, 0)
        ctx2 = make_context(2)
        assert assignment_to_conjugator(ctx2, (1, 1)) == (0, 1, 0, 1, 0)
        assert assignment_to_conjugator(ctx2, (0, 0)) == (0, 0, 0, 0, 0)
        with pytest.raises(InvalidParameterError, match="assignment has length 2, expected 1"):
            assignment_to_conjugator(ctx, (1, 0))

    @pytest.mark.parametrize("x", [0.5, 1.0, "1", None])
    def test_conjugator_mapping_refuses_non_integer_entries(self, x):
        # read with int(), 0.5 would truncate to 0 and "1" parse to g_4's exponent 1
        with pytest.raises(InvalidParameterError, match="expected an integer"):
            assignment_to_conjugator(make_context(2), (1, x))

    def test_conjugator_mapping_keeps_bools_and_numpy_ints(self):
        np = pytest.importorskip("numpy")
        ctx = make_context(2)
        assert assignment_to_conjugator(ctx, (True, False)) == (0, 1, 0, 0, 0)
        w = assignment_to_conjugator(ctx, (np.int64(1), np.int8(1)))
        assert w == (0, 1, 0, 1, 0) and all(type(k) is int for k in w)

    def test_instance_holds_checked_tuples(self):
        ctx = make_context(1)
        inst = ConjugacyInstance(ctx, [0, 0, 5], [-5, 0, 5])
        assert inst.u == (0, 0, 5) and type(inst.u) is tuple and type(inst.v) is tuple
        u = (0, 0, 5)
        assert ConjugacyInstance(ctx, u, u).u is u  # an exact tuple is not copied

    def test_assignment_extraction(self):
        ctx = make_context(1)
        assert conjugator_to_assignment(ctx, (0, 1, 0)) == (1,)
        ctx2 = make_context(2)
        assert conjugator_to_assignment(ctx2, (7, 2, 4, 3, 9)) == (0, 1)
        assert conjugator_to_assignment(ctx2, (0, 0, 0, 0, 0)) == (0, 0)

    def test_round_trip(self):
        rng = random.Random(36)
        for _ in range(200):
            n = rng.randint(1, 6)
            ctx = make_context(n)
            bits = tuple(rng.randint(0, 1) for _ in range(n))
            assert conjugator_to_assignment(ctx, assignment_to_conjugator(ctx, bits)) == bits


    def test_pullback_from_conjugator(self):
        # even exponents count mod 2; g_1 and the odd syllables are ignored
        assert pullback_conjugacy_to_tssp(TsspInstance((3, 5), -2), (4, 3, 7, 1, 9)) == (1, 1)

    @pytest.mark.parametrize("w", [(0, 1, 0), (0, 1, 0, 1, 0, 0, 0), (0, 1, 0, 0, 0)])
    def test_pullback_rejects_bad_conjugator(self, w):
        # the first two live in G(1) and G(3); the last solves nothing
        with pytest.raises(SoundnessError):
            pullback_conjugacy_to_tssp(TsspInstance((3, 5), -2), w)


class TestHopTable:
    @given(
        st.lists(st.integers(-9, 9), min_size=1, max_size=4),
        st.lists(st.integers(0, 1), min_size=4, max_size=4),
    )
    @settings(max_examples=100, deadline=None)
    def test_hops_map_kind_to_kind_and_pull_back_pushed_witnesses(self, coeffs, bits):
        bits = tuple(bits[: len(coeffs)])
        inst = SspInstance(tuple(coeffs), subset_sum(coeffs, bits))
        prime = ssp_to_sspprime(inst)
        twisted = sspprime_to_tssp(prime)
        conj = tssp_to_conjugacy(twisted)
        images = (inst, prime, twisted, conj)
        values = push_ssp_solution_to_sspprime(bits)
        assign = push_sspprime_solution_to_tssp(values)
        witnesses = (bits, values, assign, assignment_to_conjugator(conj.ctx, assign))
        for i, (forward, pullback) in enumerate(HOPS):
            assert isinstance(images[i], KINDS[CHAIN[i]])
            assert getattr(reductions, forward)(images[i]) == images[i + 1]
            assert getattr(reductions, pullback)(images[i], witnesses[i + 1]) == witnesses[i]
        assert isinstance(conj, KINDS[CHAIN[-1]])


class TestSearchViaDecision:
    @staticmethod
    def counting_decider():
        calls = [0]

        def decider(inst):
            calls[0] += 1
            return solve_ssp_brute(inst) is not None

        return decider, calls

    def test_known_search(self):
        decider, calls = self.counting_decider()
        inst = SspInstance((3, 5, 7), 8)
        assert ssp_search_via_decision(decider, inst) == (1, 1, 0)
        assert calls[0] <= 2

    def test_single_element_needs_no_calls(self):
        decider, calls = self.counting_decider()
        assert ssp_search_via_decision(decider, SspInstance((5,), 5)) == (1,)
        assert calls[0] == 0

    def test_full_sum(self):
        decider, _ = self.counting_decider()
        assert ssp_search_via_decision(decider, SspInstance((3, 5, 7), 15)) == (1, 1, 1)

    def test_call_budget(self):
        rng = random.Random(37)
        for _ in range(100):
            n = rng.randint(1, 8)
            coeffs = tuple(rng.randint(-9, 9) for _ in range(n))
            bits = tuple(rng.randint(0, 1) for _ in range(n))
            inst = SspInstance(coeffs, subset_sum(coeffs, bits))
            decider, calls = self.counting_decider()
            found = ssp_search_via_decision(decider, inst)
            assert subset_sum(coeffs, found) == inst.target
            assert calls[0] <= n - 1 if n > 1 else calls[0] == 0

    def test_promise_violation(self):
        decider, _ = self.counting_decider()
        with pytest.raises(InvalidPromiseError):
            ssp_search_via_decision(decider, SspInstance((2, 4), 3))


class TestChainSoundness:
    def test_random_hops(self):
        # light version of the acceptance sweep: solvability is invariant
        # across each hop and pullbacks verify
        rng = random.Random(38)
        for _ in range(500):
            n = rng.randint(1, 4)
            coeffs = tuple(rng.randint(-10, 10) for _ in range(n))
            s = sum(abs(k) for k in coeffs)
            target = rng.randint(-s, s) if s else 0
            inst = SspInstance(coeffs, target)
            prime = ssp_to_sspprime(inst)
            twisted = sspprime_to_tssp(prime)
            conj = tssp_to_conjugacy(twisted)

            a = solve_ssp_brute(inst)
            b = solve_sspprime_brute(prime)
            c = solve_tssp_brute(twisted)
            d = decide_conjugate(conj.ctx, conj.u, conj.v)
            assert (a is None) == (b is None) == (c is None) == (not d)
            if c is not None:
                values = pullback_tssp_to_sspprime(prime, c)
                bits = pullback_sspprime_to_ssp(inst, values)
                assert subset_sum(coeffs, bits) == target

    def test_exhaustive_end_to_end(self):
        # solvable iff the composed conjugacy instance is a yes-instance,
        # for every coefficient vector with |k_i| <= 3 and every target in
        # range (n <= 4 exhaustive)
        for n in (1, 2, 3, 4):
            for coeffs in itertools.product(range(-3, 4), repeat=n):
                s = sum(abs(k) for k in coeffs)
                reachable = {
                    subset_sum(coeffs, bits)
                    for bits in itertools.product((0, 1), repeat=n)
                }
                for target in range(-s, s + 1):
                    inst = SspInstance(coeffs, target)
                    conj = tssp_to_conjugacy(
                        sspprime_to_tssp(ssp_to_sspprime(inst))
                    )
                    assert decide_conjugate(conj.ctx, conj.u, conj.v) == (
                        target in reachable
                    )

    def test_reduced_instances_stay_polynomially_sized(self):
        def bits_of(inst):
            total = (abs(inst.target).bit_length() or 1) + 1
            for k in inst.coefficients:
                total += (abs(k).bit_length() or 1) + 1
            return total

        rng = random.Random(39)
        for _ in range(200):
            n = rng.randint(1, 8)
            inst = SspInstance(
                tuple(rng.randint(-10**6, 10**6) for _ in range(n)),
                rng.randint(-10**7, 10**7),
            )
            budget = 8 * (bits_of(inst) + n * n)
            prime = ssp_to_sspprime(inst)
            twisted = sspprime_to_tssp(prime)
            assert bits_of(prime) <= budget
            assert bits_of(twisted) <= budget
