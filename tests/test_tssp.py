import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconj import (
    InvalidParameterError,
    OracleTooLargeError,
    SoundnessError,
    StateLimitError,
    TsspInstance,
    solve_tssp_brute,
    solve_tssp_dp,
    twisted_sum,
)
from polyconj import _search
from polyconj._sweep import trace
from polyconj.tssp import residual_sweep


class TestTwistedSum:
    def test_known_values(self):
        assert twisted_sum((3, 5), (0, 0)) == 0
        assert twisted_sum((3, 5), (1, 0)) == 3
        assert twisted_sum((3, 5), (1, 1)) == -2

    def test_enumerated_reachable_values(self):
        values = {twisted_sum((3, 5), bits) for bits in itertools.product((0, 1), repeat=2)}
        assert values == {0, 3, 5, -2}

    def test_validation(self):
        with pytest.raises(InvalidParameterError):
            twisted_sum((3, 5), (1,))
        with pytest.raises(InvalidParameterError):
            twisted_sum((3, 5), (1, 2))


class TestBruteForce:
    def test_known_instances(self):
        assert solve_tssp_brute(TsspInstance((3, 5), -2)) == (1, 1)
        assert solve_tssp_brute(TsspInstance((5,), 0)) == (0,)
        assert solve_tssp_brute(TsspInstance((3, 5), 4)) is None

    def test_size_cap(self):
        inst = TsspInstance((1,) * 26, 0)
        with pytest.raises(OracleTooLargeError):
            solve_tssp_brute(inst)

    def test_lexicographic_choice(self):
        # (0,0) and (1,1) both hit 0 for coefficients (1,1); lex-first wins
        assert solve_tssp_brute(TsspInstance((1, 1), 0)) == (0, 0)

    def test_big_integer_fallback(self):
        big = 10**30
        inst = TsspInstance((big, 3 * big), -2 * big)
        assert solve_tssp_brute(inst) == (1, 1)


    @pytest.mark.parametrize("alphabet", ["SUBSET", "SIGNED", "TWISTED"])
    def test_vectorized_hit_is_rechecked(self, alphabet):
        # an exact evaluator that disagrees with the vectorized sum is a bug
        with pytest.raises(SoundnessError):
            _search.first_match((1, 2), 2, getattr(_search, alphabet), lambda candidate: 0)


class TestResidualSweep:
    def test_rows_for_3_5(self):
        stages = residual_sweep(TsspInstance((3, 5), 0))
        assert stages[0] == {0: (0, 0), 3: (0, 1)}
        assert stages[1] == {0: (0, 0), 3: (3, 0), 5: (0, 1), 2: (3, 1)}

    def test_zero_coefficient_merges_branches(self):
        # both bits leave residual 0 in place; the bit-0 pointer wins
        assert residual_sweep(TsspInstance((0,), 0)) == [{0: (0, 0)}]
        assert residual_sweep(TsspInstance((0,), 4)) == [{4: (4, 0), -4: (4, 1)}]

    def test_base_row(self):
        assert residual_sweep(TsspInstance((7,), 0)) == [{0: (0, 0), 7: (0, 1)}]

    def test_state_cap(self):
        # two huge coefficients touch four states, however large S is
        inst = TsspInstance((10**9, 10**9), 0)
        with pytest.raises(StateLimitError):
            residual_sweep(inst, max_states=3)
        assert sum(len(stage) for stage in residual_sweep(inst, max_states=4)) == 4
        assert solve_tssp_dp(inst, max_states=4) == (0, 0)
        with pytest.raises(InvalidParameterError):
            solve_tssp_dp(inst, max_states=0)

    def test_mark_semantics_exhaustive(self):
        # after i coefficients the residuals are exactly the values
        # (-1)^(parity) * (M - prefix twisted sum) over all prefix bits
        rng = random.Random(21)
        for _ in range(120):
            n = rng.randint(1, 3)
            coeffs = tuple(rng.randint(-4, 4) for _ in range(n))
            target = rng.randint(-6, 6)
            inst = TsspInstance(coeffs, target)
            stages = residual_sweep(inst)
            for i in range(1, n + 1):
                seen = {
                    (-1) ** sum(bits) * (target - twisted_sum(coeffs[:i], bits))
                    for bits in itertools.product((0, 1), repeat=i)
                }
                assert set(stages[i - 1]) == seen
                assert all(abs(r) <= abs(target) + inst.abs_sum for r in stages[i - 1])


class TestSolveDp:
    def test_known_instances(self):
        found = solve_tssp_dp(TsspInstance((3, 5), -2))
        assert found is not None and twisted_sum((3, 5), found) == -2
        assert solve_tssp_dp(TsspInstance((5,), 0)) == (0,)
        assert solve_tssp_dp(TsspInstance((3, 5), 4)) is None

    def test_reconstruction_prefers_zero_bits(self):
        assert solve_tssp_dp(TsspInstance((1, 1), 0)) == (0, 0)
        # both (1,0) and (0,1) hit 7; the final step keeps the carried bit 0
        assert solve_tssp_dp(TsspInstance((7, 7), 7)) == (1, 0)

    def test_extract_from_prebuilt_table(self):
        inst = TsspInstance((3, 5), -2)
        stages = residual_sweep(inst)
        assert trace(stages, 0) == solve_tssp_dp(inst)
        assert trace(residual_sweep(TsspInstance((3, 5), 4)), 0) is None
        assert trace(stages, 10**9) is None

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(st.integers(-20, 20), min_size=1, max_size=10),
        st.integers(-60, 60),
    )
    def test_agrees_with_brute_force(self, coeffs, target):
        inst = TsspInstance(tuple(coeffs), target)
        brute = solve_tssp_brute(inst)
        dp = solve_tssp_dp(inst)
        assert (dp is None) == (brute is None)
        if dp is not None:
            assert twisted_sum(inst.coefficients, dp) == target

    def test_exhaustive_small(self):
        for n in (1, 2):
            for coeffs in itertools.product(range(-3, 4), repeat=n):
                s = sum(abs(k) for k in coeffs)
                for target in range(-s, s + 1):
                    inst = TsspInstance(coeffs, target)
                    assert (solve_tssp_dp(inst) is None) == (
                        solve_tssp_brute(inst) is None
                    )
