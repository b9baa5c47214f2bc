"""The three subset-sum variants against definitions written out here: the
sums as closed forms, the sweep solvers as the forward partial-sum sweep,
and the bound |M| <= sum|k_i| that every solvable target obeys."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconj import (
    InvalidParameterError,
    SspInstance,
    SspPrimeInstance,
    StateLimitError,
    TsspInstance,
    make_context,
    make_element,
    signed_sum,
    solve_ssp_brute,
    solve_ssp_dp,
    solve_sspprime_brute,
    solve_sspprime_dp,
    solve_tssp_brute,
    solve_tssp_dp,
    subset_sum,
    twisted_sum,
)
from polyconj._sweep import sweep, trace
from polyconj.generate import GenSpec, generate


def twisted_by_parity(coefficients, bits):
    total, parity = 0, 0
    for k, x in zip(coefficients, bits):
        if x:
            total += -k if parity else k
        parity ^= x
    return total


# each sum with its closed form and the entries it accepts
SUMS = {
    "subset": (subset_sum, lambda ks, xs: sum(k * x for k, x in zip(ks, xs)), (0, 1)),
    "signed": (signed_sum, lambda ks, xs: sum(k * x for k, x in zip(ks, xs)), (-1, 0, 1)),
    "twisted": (twisted_sum, twisted_by_parity, (0, 1)),
}


@pytest.mark.parametrize("name", sorted(SUMS))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_sums_equal_their_closed_forms(name, data):
    evaluate, closed_form, allowed = SUMS[name]
    coefficients = data.draw(st.lists(st.integers(-10**20, 10**20), min_size=1, max_size=12))
    n = len(coefficients)
    entries = data.draw(st.lists(st.sampled_from(allowed), min_size=n, max_size=n))
    assert evaluate(coefficients, entries) == closed_form(coefficients, entries)

    bad = data.draw(st.integers(-3, 3).filter(lambda x: x not in allowed))
    at = data.draw(st.integers(0, n - 1))
    with pytest.raises(InvalidParameterError):
        evaluate(coefficients, entries[:at] + [bad] + entries[at + 1:])
    with pytest.raises(InvalidParameterError):
        evaluate(coefficients, entries + [allowed[0]])


# each sweep solver with the forward sweep over partial sums from 0 that it
# must reproduce: branch (1, w) adds w * k_i, and w is the entry picked
FORWARD = {
    "ssp": (SspInstance, solve_ssp_dp, ((1, 0), (1, 1))),
    "sspp": (SspPrimeInstance, solve_sspprime_dp, ((1, 0), (1, -1), (1, 1))),
}


@st.composite
def reachable_cases(draw, kind):
    _, _, branches = FORWARD[kind]
    if draw(st.booleans()):  # few distinct magnitudes: sparse dict stages
        coefficients = draw(st.lists(
            st.sampled_from((0, 1, -1, 3, -3, 10, -10, 1000, -1000, 10**12)),
            min_size=1, max_size=8,
        ))
    else:  # small magnitudes: dense row stages
        coefficients = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=60))
    s = sum(abs(k) for k in coefficients)
    if draw(st.booleans()):
        picks = draw(st.lists(st.sampled_from(branches), min_size=len(coefficients),
                              max_size=len(coefficients)))
        target = sum(w * k for (_, w), k in zip(picks, coefficients))
    else:
        target = draw(st.integers(-s, s))
    cap = draw(st.one_of(st.integers(1, 400), st.just(10**7)))
    return coefficients, target, cap


@pytest.mark.parametrize("kind", sorted(FORWARD))
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_residual_sweep_solvers_match_the_forward_sweep(kind, data):
    cls, solve, branches = FORWARD[kind]
    coefficients, target, cap = data.draw(reachable_cases(kind))
    inst = cls(tuple(coefficients), target)
    try:
        choices = trace(sweep(0, coefficients, branches, cap), target)
    except StateLimitError as expected:
        with pytest.raises(StateLimitError) as caught:
            solve(inst, cap)
        assert str(caught.value) == str(expected)
        return
    want = None if choices is None else tuple(branches[c][1] for c in choices)
    assert solve(inst, cap) == want


SOLVERS = {"ssp": (SspInstance, solve_ssp_dp), "sspp": (SspPrimeInstance, solve_sspprime_dp),
           "tssp": (TsspInstance, solve_tssp_dp)}


@pytest.mark.parametrize("kind", sorted(SOLVERS))
def test_target_past_the_coefficient_sum_is_refused_before_the_sweep(kind):
    # every weighted sum lies within +-sum|k|; past it no stage is swept, so
    # even a cap of one state is not reached
    cls, solve = SOLVERS[kind]
    coefficients = tuple((-1) ** i * (i % 11) for i in range(40))
    s = sum(abs(k) for k in coefficients)
    for target in (s + 1, -s - 1, 10**6, -(10**3999)):
        assert solve(cls(coefficients, target), max_states=1) is None
    with pytest.raises(StateLimitError):
        solve(cls(coefficients, s), max_states=1)
    with pytest.raises(InvalidParameterError):
        solve(cls(coefficients, s + 1), max_states=0)


# each variant's sweep solver, brute referee and sum
REFEREED = {
    "ssp": (solve_ssp_dp, solve_ssp_brute, subset_sum),
    "sspp": (solve_sspprime_dp, solve_sspprime_brute, signed_sum),
    "tssp": (solve_tssp_dp, solve_tssp_brute, twisted_sum),
}


@pytest.mark.parametrize(
    "kind, n, bound, unsolved_seed",
    [
        ("ssp", 24, 100, 3), ("ssp", 28, 1000, 3), ("ssp", 32, 10**4, 3),
        ("sspp", 16, 100, 26), ("sspp", 18, 1000, 24), ("sspp", 20, 10**4, 30),
        ("tssp", 24, 100, 2), ("tssp", 28, 1000, 2), ("tssp", 32, 10**4, 3),
    ],
)
def test_sweep_solvers_match_the_brute_referee_around_its_size_cap(kind, n, bound, unsolved_seed):
    # n around the referee's default cap (25, and 16 for sspp), passed with
    # max_n; coefficients small enough that most stages are rows; the
    # solvable seed 1 and the unbiased unsolved seed pin both answers, and
    # every sweep witness is re-evaluated here
    solve_dp, solve_brute, evaluate = REFEREED[kind]
    for seed, solvable in ((1, True), (unsolved_seed, False)):
        inst = generate(GenSpec(kind, n, bound, seed, solvable))
        found = solve_dp(inst)
        assert (found is not None) == (solve_brute(inst, max_n=32) is not None) == solvable
        if found is not None:
            assert evaluate(inst.coefficients, found) == inst.target


@pytest.mark.parametrize("bad", [1.5, 2.0, "3", None, 1 + 0j])
def test_non_integers_are_refused_not_truncated(bad):
    for cls in (SspInstance, SspPrimeInstance, TsspInstance):
        with pytest.raises(InvalidParameterError):
            cls((bad, 2), 3)
        with pytest.raises(InvalidParameterError):
            cls((1, 2), bad)
    with pytest.raises(InvalidParameterError):
        make_element(make_context(1), (0, bad, 0))


def test_numpy_integers_and_bools_become_plain_ints():
    inst = SspInstance((np.int64(3), True, np.int8(-2)), np.int32(4))
    assert inst == SspInstance((3, 1, -2), 4)
    assert all(type(k) is int for k in (*inst.coefficients, inst.target))
    element = make_element(make_context(1), (np.int64(5), False, np.uint16(7)))
    assert element == (5, 0, 7) and all(type(k) is int for k in element)
