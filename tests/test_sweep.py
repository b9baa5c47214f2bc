import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconj import InvalidParameterError, StateLimitError
from polyconj._sweep import meet, sweep, trace

# The branch tables of the four solvers: conjugacy, TSSP residuals, signed
# and plain subset sum.
BRANCH_TABLES = {
    "conj": ((1, 0), (-1, -1)),
    "tssp": ((1, 0), (-1, 1)),
    "sspp": ((1, 0), (1, -1), (1, 1)),
    "ssp": ((1, 0), (1, 1)),
}


def apply(branch, s, e):
    sign, weight = branch
    return sign * s + weight * e


def brute_stage_sets(start, addends, branches):
    """Values reachable after each stage, by enumerating every choice list."""
    sets = []
    for i in range(1, len(addends) + 1):
        reached = set()
        for choices in itertools.product(range(len(branches)), repeat=i):
            s = start
            for c, e in zip(choices, addends):
                s = apply(branches[c], s, e)
            reached.add(s)
        sets.append(reached)
    return sets


@pytest.mark.parametrize("kind", sorted(BRANCH_TABLES))
def test_stage_sets_match_brute_enumeration(kind):
    branches = BRANCH_TABLES[kind]
    rng = random.Random(31)
    for _ in range(150):
        addends = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        start = rng.randint(-5, 5)
        stages = sweep(start, addends, branches)
        assert [set(stage) for stage in stages] == brute_stage_sets(start, addends, branches)


@pytest.mark.parametrize("kind", sorted(BRANCH_TABLES))
def test_back_pointers_replay_and_prefer_low_branches(kind):
    branches = BRANCH_TABLES[kind]
    rng = random.Random(32)
    for _ in range(150):
        addends = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        start = rng.randint(-5, 5)
        stages = sweep(start, addends, branches)
        previous = {start}
        for stage, e in zip(stages, addends):
            for t, (s, choice) in stage.items():
                assert s in previous and apply(branches[choice], s, e) == t
                # no lower branch reaches t from any value of the stage before
                assert not any(
                    apply(branches[c], p, e) == t for c in range(choice) for p in previous
                )
            previous = set(stage)
        for final in stages[-1]:
            s = start
            for c, e in zip(trace(stages, final), addends):
                s = apply(branches[c], s, e)
            assert s == final


def test_trace_of_unreached_value_is_none():
    stages = sweep(0, [3, 5], BRANCH_TABLES["ssp"])
    assert trace(stages, 8) == (1, 1)
    assert trace(stages, 4) is None


def test_state_cap_counts_every_stage():
    addends = [1, 10, 100]
    assert [len(stage) for stage in sweep(0, addends, BRANCH_TABLES["ssp"])] == [2, 4, 8]
    sweep(0, addends, BRANCH_TABLES["ssp"], max_states=14)
    with pytest.raises(StateLimitError):
        sweep(0, addends, BRANCH_TABLES["ssp"], max_states=13)
    for bad in (0, -5):
        with pytest.raises(InvalidParameterError):
            sweep(0, addends, BRANCH_TABLES["ssp"], max_states=bad)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(sorted(BRANCH_TABLES)),
    addends=st.lists(
        st.one_of(st.sampled_from((0, 1, -1, 3)), st.integers(-40, 40)), min_size=1, max_size=10
    ),
    start=st.integers(-20, 20),
    data=st.data(),
)
def test_meet_is_the_full_sweeps_trace(kind, addends, start, data):
    # zero and repeated addends make branches collide; a free final is
    # usually unreachable, a replayed one always reachable
    branches = BRANCH_TABLES[kind]
    if data.draw(st.booleans()):
        final = data.draw(st.integers(-100, 100))
    else:
        final = start
        for e in addends:
            final = apply(branches[data.draw(st.integers(0, len(branches) - 1))], final, e)
    expected = trace(sweep(start, addends, branches), final)
    assert meet(start, final, addends, branches) == expected


def test_meet_state_cap_counts_both_halves():
    # one forward stage (2 values) and two backward layers (2 and 4 values)
    addends = [1, 10, 100]
    assert meet(0, 110, addends, BRANCH_TABLES["ssp"], max_states=8) == (0, 1, 1)
    with pytest.raises(StateLimitError):
        meet(0, 110, addends, BRANCH_TABLES["ssp"], max_states=7)
    for bad in (0, -5):
        with pytest.raises(InvalidParameterError):
            meet(0, 110, addends, BRANCH_TABLES["ssp"], max_states=bad)
        with pytest.raises(InvalidParameterError):  # empty forward half
            meet(0, 1, [1], BRANCH_TABLES["ssp"], max_states=bad)
