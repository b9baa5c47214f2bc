"""The value-only reachability sweep behind every pseudo-polynomial solver.

Deciding TSSP, signed and plain subset sum, and conjugacy in G(n) are all
the same question: starting from one integer, which values can a sequence
of per-stage moves reach?  Stage i reads one addend e_i, and each of a few
*branches* maps a value s to ``t = sign * s + weight * e_i``, given as the
pair ``(sign, weight)`` with sign +-1.  ``sweep`` returns, for every stage,
a dict from each reachable value to ``(predecessor, choice)``, where choice
is the index of the branch that reached it.  When several branches reach the
same value the lowest-indexed one wins, so a table does not depend on the
order its predecessors were visited in.  ``trace`` follows those
back-pointers from a final value to the list of choices that produced it.
Because every stage takes the lowest branch that still leads back to the
start, that list is the lexicographically smallest one when read last
stage first, (c_m, c_{m-1}, ..., c_1).

Every branch is injective, so the first branch fills a fresh dict with no
collisions and later branches only add values not already present.  The
arithmetic is written out per sign rather than passed in as a function:
a Python call per state made the conjugacy sweep 10-20% slower.

``reach`` and ``meet`` answer the question for one known final value and
return ``trace(sweep(...), final)``.  Both are ``_find``, split at another
stage: ``reach`` (the subset-sum solvers) at the last, ``meet`` (conjugacy)
at the middle, so that each half holds about the square root of the values
one full sweep would (Horowitz and Sahni, J. ACM 1974).  One stage builder
runs forward from the start over stages 1 .. split, giving F_0 .. F_split,
and backward from the final value over the rest with each branch inverted
(``t = sign * s + weight * e`` gives ``s = sign * t - sign * weight * e``,
the branch ``(sign, -sign * weight)``), giving B_m = {final} .. B_split,
the values that reach the final value.  It holds each stage in one of two
forms (Pisinger, "Dynamic programming on the word RAM", Algorithmica 2003):

* sparse, the dict step ``sweep`` takes, at a few hundred ns per value;
* dense, a numpy bool row over the stage's value interval [lo, hi].  Each
  branch maps [lo, hi] onto an interval whose ends are images of lo and
  hi, both reachable, so every interval is exact and costs O(branches) to
  track.  A step ORs one shifted slice of the previous row per branch,
  reversed for sign -1, at a few ns per cell.  The offsets ``weight * e``
  move lo, so values of any size stay Python ints and only the index
  v - lo reaches numpy.

A stage is dense when the stage before it holds at least one value per
``_DENSE_RATIO`` (64) cells of the new interval and the dense rows of both
halves stay within ``max_states`` cells (bytes) together; otherwise it is
sparse, so one huge addend turns the stages after it back into dicts until
they fill in again.  The cap counts the values of every F and B stage
(``np.count_nonzero`` on a row) after each one, so both forms fail on the
same inputs, at the same stage.

The path pass keeps P_split, the values of B_split that F_split holds, and
for i > split P_i, the values of B_i one dict step reaches from P_{i-1}.
The back-trace tests membership only: from the final value it takes at
each stage the lowest branch whose inverse ``s = sign * (t - weight * e)``
lies in the stage before, among F_0 .. F_split, P_{split+1} .. P_m.  That
is the back-pointer ``sweep`` stores, where the lowest branch that reaches
a value wins; past the split too, since a value that steps to one on the
way back reaches the final value, so it lies in P_{i-1} exactly when it
lies in F_{i-1}.
"""

from __future__ import annotations

from typing import Collection, Sequence

import numpy as np

from .errors import InvalidParameterError, StateLimitError

Branch = tuple[int, int]
Stage = dict[int, tuple[int, int]]

# ``_find`` holds a stage as a dense row when the stage before it has at
# least one value per _DENSE_RATIO cells of the new row.  On a 2-core VM a
# dict step costs 280-620 ns per value and a row step 1-4 ns per cell plus
# about 7 us: rows break even at roughly 75-600 cells per value, so at 64 a
# row is chosen only where it is the cheaper step.
_DENSE_RATIO = 64


def _require_positive_cap(max_states: int) -> None:
    if max_states < 1:
        raise InvalidParameterError(f"max_states must be at least 1, got {max_states}")


def _enforce_cap(states: int, max_states: int, i: int, m: int) -> None:
    if states > max_states:
        raise StateLimitError(
            f"reachability sweep exceeded {max_states} states at stage {i} of {m}"
        )


def _dict_step(values: Collection[int], e: int, branches: Sequence[Branch]) -> Stage:
    """The stage after ``values`` for addend ``e``: each reachable value maps
    to (predecessor, lowest branch that reaches it)."""
    first_sign, first_weight = branches[0]
    off = first_weight * e
    if first_sign < 0:
        table = {off - s: (s, 0) for s in values}
    elif off:
        table = {s + off: (s, 0) for s in values}
    else:  # reuse s as the key: s + 0 copies every multi-digit int
        table = {s: (s, 0) for s in values}
    for choice in range(1, len(branches)):
        sign, weight = branches[choice]
        off = weight * e
        if sign > 0:
            for s in values:
                t = s + off
                if t not in table:
                    table[t] = (s, choice)
        else:
            for s in values:
                t = off - s
                if t not in table:
                    table[t] = (s, choice)
    return table


def sweep(
    start: int,
    addends: Sequence[int],
    branches: Sequence[Branch],
    max_states: int = 10**7,
) -> list[Stage]:
    """All values reachable from ``start``, stage by stage, with back-pointers.

    Raises StateLimitError once the stages together hold more than
    ``max_states`` values.
    """
    _require_positive_cap(max_states)
    stages: list[Stage] = []
    values: Collection[int] = (start,)
    states = 0
    for i, e in enumerate(addends, start=1):
        table = _dict_step(values, e, branches)
        states += len(table)
        _enforce_cap(states, max_states, i, len(addends))
        stages.append(table)
        values = table
    return stages


def trace(stages: Sequence[Stage], final: int) -> tuple[int, ...] | None:
    """Branch choices, first stage first, of the path that ends at ``final``;
    None when the last stage does not hold ``final``."""
    if final not in stages[-1]:
        return None
    choices = []
    value = final
    for table in reversed(stages):
        value, choice = table[value]
        choices.append(choice)
    return tuple(reversed(choices))


def _row(stage: Collection[int] | np.ndarray, lo: int, hi: int) -> np.ndarray:
    """``stage`` as a bool row over [lo, hi]."""
    if isinstance(stage, np.ndarray):
        return stage
    row = np.zeros(hi - lo + 1, dtype=bool)
    row[np.fromiter((v - lo for v in stage), dtype=np.int64, count=len(stage))] = True
    return row


def _values(stage: Collection[int] | np.ndarray, lo: int) -> Collection[int]:
    """The values of ``stage``, as ints."""
    if isinstance(stage, np.ndarray):
        return [lo + j for j in np.flatnonzero(stage).tolist()]
    return stage


def _row_step(
    prev: np.ndarray, lo: int, hi: int, new_lo: int, width: int, e: int,
    branches: Sequence[Branch],
) -> np.ndarray:
    """The bool row over [new_lo, new_lo + width) after the row ``prev``
    over [lo, hi] for addend ``e``: one shifted slice per branch, reversed
    for sign -1.  Only offsets reach numpy, never the values themselves."""
    row = np.zeros(width, dtype=bool)
    for sign, weight in branches:
        # the smallest image: lo + weight*e, or weight*e - hi for sign -1
        at = (lo if sign > 0 else -hi) + weight * e - new_lo
        row[at:at + len(prev)] |= prev if sign > 0 else prev[::-1]
    return row


def _holds(lo: int, stage: Collection[int] | np.ndarray, value: int) -> bool:
    if isinstance(stage, np.ndarray):
        return 0 <= value - lo < len(stage) and bool(stage[value - lo])
    return value in stage


def _find(
    start: int,
    final: int,
    addends: Sequence[int],
    branches: Sequence[Branch],
    max_states: int,
    split: int,
) -> tuple[int, ...] | None:
    """``trace(sweep(start, addends, branches), final)``, with stages 1 ..
    ``split`` swept forward from ``start`` and the rest backward from
    ``final``; each stage a dict or a dense bool row."""
    _require_positive_cap(max_states)
    m = len(addends)
    inverses = tuple((sign, -sign * weight) for sign, weight in branches)
    halves = []
    states = cells = 0
    for value, numbers, moves in ((start, range(1, split + 1), branches),
                                  (final, range(m, split, -1), inverses)):
        lo = hi = value
        stage: Collection[int] | np.ndarray = (value,)
        count = 1
        layers = [(lo, stage)]
        for i in numbers:
            e = addends[i - 1]
            # each branch maps [lo, hi] onto an interval whose ends are images
            # of lo and hi, both reachable, so the new interval is exact too
            ends = [sign * v + weight * e for sign, weight in moves for v in (lo, hi)]
            new_lo, new_hi = min(ends), max(ends)
            width = new_hi - new_lo + 1
            if count * _DENSE_RATIO >= width and cells + width <= max_states:
                stage = _row_step(_row(stage, lo, hi), lo, hi, new_lo, width, e, moves)
                count = int(np.count_nonzero(stage))
                cells += width
            else:
                stage = _dict_step(_values(stage, lo), e, moves)
                count = len(stage)
            states += count
            _enforce_cap(states, max_states, i, m)
            lo, hi = new_lo, new_hi
            layers.append((lo, stage))
        halves.append(layers)
    # held grows from F_0 .. F_split into the stages the back-trace reads;
    # backward[j] is B_{split + j}
    held, backward = halves[0], halves[1][::-1]
    (f_lo, f_stage), (b_lo, b_stage) = held[-1], backward[0]
    path: Collection[int] = {v for v in _values(b_stage, b_lo) if _holds(f_lo, f_stage, v)}
    for i in range(split + 1, m + 1):
        b_lo, b_stage = backward[i - split]
        step = _dict_step(path, addends[i - 1], branches)
        path = {t for t in step if _holds(b_lo, b_stage, t)}
        held.append((b_lo, path))
    if not path:
        return None
    choices = []
    t = final
    for i in range(m, 0, -1):
        e = addends[i - 1]
        prev_lo, prev = held[i - 1]
        for choice, (sign, weight) in enumerate(branches):
            s = sign * (t - weight * e)
            if _holds(prev_lo, prev, s):
                break
        choices.append(choice)
        t = s
    return tuple(reversed(choices))


def reach(
    start: int,
    final: int,
    addends: Sequence[int],
    branches: Sequence[Branch],
    max_states: int = 10**7,
) -> tuple[int, ...] | None:
    """``trace(sweep(start, addends, branches, max_states), final)``, with
    each stage held as a dict or as a dense bool row, whichever is cheaper.

    Raises the StateLimitError ``sweep`` raises, at the same stage: the cap
    counts reachable values in either representation.
    """
    return _find(start, final, addends, branches, max_states, len(addends))


def meet(
    start: int,
    final: int,
    addends: Sequence[int],
    branches: Sequence[Branch],
    max_states: int = 10**7,
) -> tuple[int, ...] | None:
    """``trace(sweep(start, addends, branches), final)``, found by sweeping
    the first half of the stages forward and the rest backward.

    Raises StateLimitError once the forward stages and the backward layers
    together hold more than ``max_states`` values.
    """
    return _find(start, final, addends, branches, max_states, len(addends) // 2)
