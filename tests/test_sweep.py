import itertools
import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyconj import InvalidParameterError, StateLimitError
from polyconj import _sweep
from polyconj._sweep import meet, reach, sweep, trace
from polyconj.generate import GenSpec, generate
from polyconj.tssp import _residual_branches

# The branch tables of the four solvers: conjugacy, TSSP residuals, signed
# and plain subset sum.
BRANCH_TABLES = {
    "conj": ((1, 0), (-1, -1)),
    "tssp": ((1, 0), (-1, 1)),
    "sspp": ((1, 0), (1, -1), (1, 1)),
    "ssp": ((1, 0), (1, 1)),
}
# Tables whose first branch is not the identity (1, 0), so the dict step's
# other first-branch forms run too.  The representation tests keep to
# BRANCH_TABLES, whose row and set patterns they pin.
FIRST_BRANCH_TABLES = {
    "flip-first": ((-1, 1), (1, 0)),
    "shift-first": ((1, 2), (-1, 0)),
}
ALL_TABLES = {**BRANCH_TABLES, **FIRST_BRANCH_TABLES}


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


@pytest.mark.parametrize("kind", sorted(ALL_TABLES))
def test_stage_sets_match_brute_enumeration(kind):
    branches = ALL_TABLES[kind]
    rng = random.Random(31)
    for _ in range(150):
        addends = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))]
        start = rng.randint(-5, 5)
        stages = sweep(start, addends, branches)
        assert [set(stage) for stage in stages] == brute_stage_sets(start, addends, branches)


@pytest.mark.parametrize("kind", sorted(ALL_TABLES))
def test_back_pointers_replay_and_prefer_low_branches(kind):
    branches = ALL_TABLES[kind]
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
    kind=st.sampled_from(sorted(ALL_TABLES)),
    addends=st.lists(
        st.one_of(st.sampled_from((0, 1, -1, 3)), st.integers(-40, 40)), min_size=1, max_size=10
    ),
    start=st.integers(-20, 20),
    data=st.data(),
)
def test_meet_is_the_full_sweeps_trace(kind, addends, start, data):
    # zero and repeated addends make branches collide; a free final is
    # usually unreachable, a replayed one always reachable
    branches = ALL_TABLES[kind]
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


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(sorted(ALL_TABLES)),
    addends=st.lists(
        st.one_of(st.sampled_from((0, 1, -1, 3)), st.integers(-40, 40)), min_size=1, max_size=14
    ),
    # one huge addend spreads the values apart, so the stages after it are
    # dicts until they fill back in
    spike=st.one_of(st.none(), st.tuples(st.integers(0, 13), st.integers(-(10**12), 10**12))),
    start=st.one_of(st.integers(-20, 20), st.integers(-(10**20), 10**20)),
    data=st.data(),
)
def test_reach_is_the_full_sweeps_trace(kind, addends, spike, start, data):
    branches = ALL_TABLES[kind]
    if spike is not None:
        addends[spike[0] % len(addends)] = spike[1]
    if data.draw(st.booleans()):
        final = data.draw(st.integers(-100, 100))
    else:
        final = start
        for e in addends:
            final = apply(branches[data.draw(st.integers(0, len(branches) - 1))], final, e)
    assert reach(start, final, addends, branches) == trace(sweep(start, addends, branches), final)


def stage_representations(monkeypatch):
    """Record, per stage, whether ``reach`` built a row (R) or a set (d),
    and the row's cells or the set's values."""
    seen = []

    def recorded(step, tag, *args):
        stage = step(*args)
        seen.append((tag, stage.width if tag == "R" else len(stage)))
        return stage

    for name, tag in (("_row_step", "R"), ("_set_step", "d")):
        monkeypatch.setattr(_sweep, name, partial(recorded, getattr(_sweep, name), tag))
    return seen


@pytest.mark.parametrize(
    "addends, pattern",
    [
        ([1, 2, 3, 1, 2, 3, 1, 2], "R{8}"),
        ([10**9, 3 * 10**9, 7 * 10**9], "d{3}"),
        # dense, then one large addend splits the values apart, then the
        # stages fill back in once there are enough values for the span
        ([1, 2, 3, 1000, 1, 2, 3, 1, 2, 3, 1, 2, 3, 1], "R{3}d+R+"),
    ],
    ids=["all-rows", "all-dicts", "mixed"],
)
@pytest.mark.parametrize("kind", sorted(BRANCH_TABLES))
def test_stage_representation_follows_density(monkeypatch, kind, addends, pattern):
    branches = BRANCH_TABLES[kind]
    stages = sweep(0, addends, branches)
    seen = stage_representations(monkeypatch)
    for final in list(stages[-1])[:20] + [10**9 + 12345]:
        seen.clear()
        assert reach(0, final, addends, branches) == trace(stages, final)
        assert re.fullmatch(pattern, "".join(tag for tag, _ in seen))


def test_reach_at_the_benchmark_sizes(monkeypatch):
    # generated instances of n = 100 and 200 with bound 10 and 20 make rows
    # wider than a machine word; the first stage of a tssp residual sweep
    # holds M and k_1 - M, far apart, so its first few stages may be sets
    seen = stage_representations(monkeypatch)
    answers = set()
    sizes = itertools.product(("ssp", "sspp", "tssp"), (100, 200), (10, 20))
    for index, (kind, n, bound) in enumerate(sizes):
        inst = generate(GenSpec(kind, n, bound, seed=n + bound, solvable=index % 2 == 0))
        branches = _residual_branches(inst.ALPHABET)
        expected = trace(sweep(inst.target, inst.coefficients, branches), 0)
        seen.clear()
        assert reach(inst.target, 0, inst.coefficients, branches) == expected
        tags = "".join(tag for tag, _ in seen)
        assert len(tags) == n and re.fullmatch("d{0,8}R+", tags)
        answers.add(expected is not None)
    assert answers == {True, False}


@pytest.mark.parametrize("kind", sorted(BRANCH_TABLES))
def test_row_and_dict_steps_reach_the_same_values(kind):
    branches = BRANCH_TABLES[kind]
    rng = random.Random(33)
    for _ in range(200):
        lo = rng.choice((0, -7, 10**30))
        values = sorted({lo, lo + rng.randint(0, 40)} | {lo + rng.randint(0, 40) for _ in range(5)})
        hi, e = values[-1], rng.randint(-50, 50)
        ends = [sign * v + weight * e for sign, weight in branches for v in (lo, hi)]
        new_lo = min(ends)
        width = max(ends) - new_lo + 1
        if width > 1000:  # a sign -1 branch far from 0: reach keeps such stages as dicts
            continue
        row = _sweep._row_step(_sweep._row(values, lo, hi), new_lo, width, e, branches)
        table = _sweep._dict_step(values, e, branches)
        assert new_lo in row and new_lo + width - 1 in row
        assert list(row) == sorted(table)


def drawn_row(lo, width, cells):
    return _sweep._row({lo + j for j in cells if j < width}, lo, lo + width - 1)


def assert_exact_row(row, values):
    # the row holds exactly ``values``, and its mirror the same cells reversed
    assert set(row) == values
    assert row.mirror == _sweep._row(values, row.lo, row.lo + row.width - 1).mirror


@settings(max_examples=300, deadline=None)
@given(
    lo=st.one_of(st.integers(-20, 20), st.integers(10**30 - 500, 10**30 + 500)),
    width=st.integers(1, 200),
    cells=st.sets(st.integers(0, 199)),
    # overlapping, disjoint and far-apart intervals; a far shift is 0
    offset=st.one_of(st.integers(-250, 250), st.integers(-(10**30), 10**30)),
    other_width=st.integers(1, 200),
    other_cells=st.sets(st.integers(0, 199)),
    loose=st.sets(st.integers(-250, 450)),
)
def test_and_of_two_stages_holds_the_values_both_hold(
    lo, width, cells, offset, other_width, other_cells, loose
):
    row = drawn_row(lo, width, cells)
    other = drawn_row(lo + offset, other_width, other_cells)
    values = {lo + j for j in loose}
    assert_exact_row(row & other, set(row) & set(other))
    assert_exact_row(other & row, set(row) & set(other))
    assert_exact_row(row & values, set(row) & values)
    assert_exact_row(values & row, set(row) & values)


def test_reach_state_cap_matches_the_sweep(monkeypatch):
    # a pseudo-polynomial instance: most stages are dense rows once the cap
    # leaves room for them, and every cap fails at the same stage as the sweep
    rng = random.Random(34)
    branches = BRANCH_TABLES["tssp"]
    addends = [rng.randint(-6, 6) for _ in range(24)]
    total = sum(len(stage) for stage in sweep(5, addends, branches))
    for cap in range(1, total + 1):
        try:
            expected = trace(sweep(5, addends, branches, cap), 0)
        except StateLimitError as exc:
            with pytest.raises(StateLimitError) as caught:
                reach(5, 0, addends, branches, cap)
            assert str(caught.value) == str(exc)
        else:
            assert reach(5, 0, addends, branches, cap) == expected
    seen = stage_representations(monkeypatch)
    for cap in (total, 10**7):
        seen.clear()
        reach(5, 0, addends, branches, cap)
        cells = [size for tag, size in seen if tag == "R"]
        assert len(cells) > len(addends) // 2 and sum(cells) <= cap
    # unrestricted, the rows hold more cells than the sweep has values, so
    # the cap of ``total`` did keep some stages dicts
    assert sum(cells) > total
    for bad in (0, -5):
        with pytest.raises(InvalidParameterError):
            reach(5, 0, addends, branches, bad)


def replayed_or_free_final(data, start, addends, branches):
    """A final value reached by replaying drawn choices, or a free one,
    which is usually unreachable."""
    if data.draw(st.booleans()):
        return data.draw(st.integers(-100, 100))
    final = start
    for e in addends:
        final = apply(branches[data.draw(st.integers(0, len(branches) - 1))], final, e)
    return final


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(sorted(ALL_TABLES)),
    addends=st.lists(
        st.one_of(st.sampled_from((0, 1, -1, 3)), st.integers(-40, 40)), min_size=1, max_size=10
    ),
    spike=st.one_of(st.none(), st.tuples(st.integers(0, 9), st.integers(-(10**12), 10**12))),
    start=st.one_of(st.integers(-20, 20), st.integers(-(10**20), 10**20)),
    data=st.data(),
)
def test_every_split_is_the_full_sweeps_trace(kind, addends, spike, start, data):
    # reach splits after the last stage and meet at the middle; any split
    # must give the full sweep's very trace
    branches = ALL_TABLES[kind]
    if spike is not None:
        addends[spike[0] % len(addends)] = spike[1]
    final = replayed_or_free_final(data, start, addends, branches)
    expected = trace(sweep(start, addends, branches), final)
    for split in range(len(addends) + 1):
        assert _sweep._find(start, final, addends, branches, 10**7, split) == expected


def inverted(branches):
    return tuple((sign, -sign * weight) for sign, weight in branches)


@pytest.mark.parametrize(
    "addends",
    [[1, 10, 100], [4, -2, 6, 1, -5, 3, 2, -6, 5, 1, 3], [10**6, -(3 * 10**7), 7 * 10**8, 5, 11]],
    ids=["spread", "dense", "huge"],
)
@pytest.mark.parametrize("kind", sorted(BRANCH_TABLES))
def test_meet_cap_counts_forward_stages_and_backward_layers(monkeypatch, kind, addends):
    branches = BRANCH_TABLES[kind]
    m, half = len(addends), len(addends) // 2
    final = 0
    for k, e in enumerate(addends):
        final = apply(branches[k % len(branches)], final, e)
    # the values meet holds, stage by stage, and each stage's true number
    sizes = [len(stage) for stage in sweep(0, addends[:half], branches)]
    sizes += [len(layer) for layer in sweep(final, addends[half:][::-1], inverted(branches))]
    numbers = [*range(1, half + 1), *range(m, half, -1)]
    held = list(itertools.accumulate(sizes))
    expected = trace(sweep(0, addends, branches), final)
    assert expected is not None
    seen = stage_representations(monkeypatch)
    for cap in range(1, held[-1] + 1):
        seen.clear()
        over = next((k for k, count in enumerate(held) if count > cap), None)
        if over is None:
            assert meet(0, final, addends, branches, cap) == expected
        else:
            with pytest.raises(StateLimitError) as caught:
                meet(0, final, addends, branches, cap)
            assert str(caught.value) == (
                f"reachability sweep exceeded {cap} states at stage {numbers[over]} of {m}"
            )
        # the rows of both halves share one budget of cap cells
        assert sum(size for tag, size in seen if tag == "R") <= cap


@pytest.mark.parametrize("kind", sorted(BRANCH_TABLES))
def test_meet_path_pass_holds_only_values_on_a_path(monkeypatch, kind):
    # huge addends keep every stage a set, so the last set steps are the
    # path pass: each steps exactly the values of the forward stage that
    # the backward layer also holds
    branches = BRANCH_TABLES[kind]
    rng = random.Random(36)
    steps = []

    def recorded(values, e, moves):
        steps.append(set(values))
        return set_step(values, e, moves)

    set_step = _sweep._set_step
    monkeypatch.setattr(_sweep, "_set_step", recorded)
    for _ in range(40):
        m = rng.randint(2, 9)
        addends = [rng.choice((-1, 1)) * rng.randint(10**6, 10**9) for _ in range(m)]
        split = m // 2
        final = 0
        for e in addends:
            final = apply(rng.choice(branches), final, e)
        forward = sweep(0, addends, branches)
        backward = sweep(final, addends[split:][::-1], inverted(branches))[::-1]
        steps.clear()
        assert meet(0, final, addends, branches) == trace(forward, final)
        assert len(steps) == 2 * m - split
        for i, values in enumerate(steps[m:], start=split):
            # values stepped from stage i; backward[i - split] is the layer
            # of values that reach the final one from stage i
            assert values == set(forward[i - 1]) & set(backward[i - split])


@pytest.mark.parametrize("kind", sorted(BRANCH_TABLES))
def test_meet_builds_rows_in_both_halves(monkeypatch, kind):
    branches = BRANCH_TABLES[kind]
    addends = [1, 2, 3, 1, 2, 3, 1, 2]
    stages = sweep(0, addends, branches)
    seen = stage_representations(monkeypatch)
    for final in list(stages[-1])[:20]:
        seen.clear()
        assert meet(0, final, addends, branches) == trace(stages, final)
        # four forward rows and four backward rows; the path pass runs on
        # the rows, and takes one set step only onto B_8 = {final}
        assert "".join(tag for tag, _ in seen) == "R" * 8 + "d"


@pytest.mark.parametrize("kind", sorted(BRANCH_TABLES))
def test_row_path_pass_holds_the_values_of_both_halves(monkeypatch, kind):
    # P_split is F_split & B_split and each later P_i is F_i & B_i: a value
    # of F_i on a path to the final value lies in B_i, and one of B_i that
    # F_i holds is reached from P_{i-1}; the rows must not keep more
    branches = BRANCH_TABLES[kind]
    addends = [1, 2, 3, 1, 2, 3, 1, 2]
    m = len(addends)
    stages = sweep(0, addends, branches)
    forward = [{0}] + [set(stage) for stage in stages]
    passes = []

    def recorded(path_pass, *args):
        held = path_pass(*args)
        passes.append(held)
        return held

    monkeypatch.setattr(_sweep, "_path_pass", partial(recorded, _sweep._path_pass))
    for final in sorted(forward[-1])[::3]:
        layers = sweep(final, addends[::-1], inverted(branches))
        backward = [set(layer) for layer in layers[::-1]] + [{final}]
        for split in range(m):
            passes.clear()
            assert _sweep._find(0, final, addends, branches, 10**7, split) == trace(stages, final)
            [held] = passes
            paths = held[split:]  # P_split .. P_m
            assert any(isinstance(path, _sweep._Row) for path in paths)
            assert [set(path) for path in paths] == [
                forward[i] & backward[i] for i in range(split, m + 1)
            ]


@settings(max_examples=100, deadline=None)
@given(
    kind=st.sampled_from(sorted(ALL_TABLES)),
    m=st.integers(1, 30),
    start=st.one_of(st.integers(-20, 20), st.integers(10**30 - 500, 10**30 + 500)),
    cap=st.one_of(st.just(10**7), st.integers(1, 30000)),
    data=st.data(),
)
def test_wide_rows_at_every_split_give_the_full_sweeps_trace(kind, m, start, cap, data):
    # addends up to +-500 make rows of thousands of cells, and the path pass
    # shifts them both ways; every split gives the full sweep's trace, or
    # fails the cap at the stage its forward and backward counts pass it
    branches = ALL_TABLES[kind]
    addends = data.draw(st.lists(st.integers(-500, 500), min_size=m, max_size=m))
    if data.draw(st.booleans()):
        final = data.draw(st.sampled_from((start, -start))) + data.draw(st.integers(-3000, 3000))
    else:
        final = replayed_or_free_final(data, start, addends, branches)
    stages = sweep(start, addends, branches)
    expected = trace(stages, final)
    forward = [len(stage) for stage in stages]
    backward = [len(layer) for layer in sweep(final, addends[::-1], inverted(branches))]
    for split in range(m + 1):
        numbers = [*range(1, split + 1), *range(m, split, -1)]
        held = itertools.accumulate(forward[:split] + backward[:m - split])
        over = next((k for k, count in enumerate(held) if count > cap), None)
        if over is None:
            assert _sweep._find(start, final, addends, branches, cap, split) == expected
        else:
            with pytest.raises(StateLimitError) as caught:
                _sweep._find(start, final, addends, branches, cap, split)
            assert str(caught.value) == (
                f"reachability sweep exceeded {cap} states at stage {numbers[over]} of {m}"
            )


@pytest.mark.parametrize("kind", sorted(BRANCH_TABLES))
def test_build_holds_the_sweeps_stages_and_counts_the_budget(kind):
    # small addends make rows, and a 10^9 spike turns the stages after it
    # into sets; at every split each half holds exactly the sweep's values,
    # and the budget adds up the values of every stage and the cells of
    # every row, the forward half's carried into the backward half
    branches = BRANCH_TABLES[kind]
    rng = random.Random(37)
    addends = [rng.randint(-6, 6) for _ in range(16)]
    addends[7] = 10**9
    m = len(addends)
    final = 0
    for e in addends:
        final = apply(rng.choice(branches), final, e)
    forms = set()
    for split in range(m + 1):
        forward, spent = _sweep._build(0, range(1, split + 1), addends, branches, 10**7, (0, 0))
        backward, total = _sweep._build(
            final, range(m, split, -1), addends, inverted(branches), 10**7, spent
        )
        assert [set(stage) for stage in forward] == [{0}] + [
            set(stage) for stage in sweep(0, addends[:split], branches)
        ]
        assert [set(layer) for layer in backward] == [{final}] + [
            set(layer) for layer in sweep(final, addends[split:][::-1], inverted(branches))
        ]
        for layers, budget in ((forward[1:], spent), (forward[1:] + backward[1:], total)):
            rows = [stage for stage in layers if isinstance(stage, _sweep._Row)]
            assert budget == (sum(len(set(stage)) for stage in layers),
                              sum(row.width for row in rows))
        forms.update(type(stage) for stage in forward[1:] + backward[1:])
    assert forms == {set, _sweep._Row}
