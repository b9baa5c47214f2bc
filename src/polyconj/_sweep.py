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
arithmetic is written out per sign rather than passed in as a function, so
no value costs a Python call.  The dict sweep serves the exhaustive
references ``tssp.residual_sweep`` and ``conjugacy.reachable_g1_values``,
which keep every stage, and the ``polyconj bench`` suites that time them;
the solvers, decide and search run ``reach`` and ``meet`` instead.

``reach`` and ``meet`` answer the question for one known final value and
return ``trace(sweep(...), final)``.  Both are ``_find``, split at another
stage: ``reach`` (the subset-sum solvers) at the last, ``meet`` (conjugacy)
at the middle, so that each half holds about the square root of the values
one full sweep would (Horowitz and Sahni, J. ACM 1974).  It runs in three
phases.  First the stage builder ``_build`` runs forward from the start over
stages 1 .. split, giving F_0 .. F_split, and again, on the budget that half
left, backward from the final value over the rest with each branch inverted
(``t = sign * s + weight * e`` gives ``s = sign * t - sign * weight * e``,
the branch ``(sign, -sign * weight)``), giving B_m = {final} .. B_split,
the values that reach the final value.  It holds each stage in one of two
forms (Pisinger, "Dynamic programming on the word RAM", Algorithmica 2003):

* sparse, a set of its values, at about a hundred ns per value;
* dense, a row: one Python int with bit j set when lo + j is reached,
  over the stage's value interval [lo, hi], with its mirror, the int whose
  bit j is set when hi - j is.  With off = weight * e, a branch maps
  [lo, hi] onto [lo + off, hi + off] for sign +1 and [off - hi, off - lo]
  for sign -1, both ends reachable, so every interval is exact and costs
  O(branches) to track.  A step ORs one shifted int per branch: the row for
  sign +1, the mirror for sign -1, which reverses it, so no bit reversal is
  computed.  Shifts and ORs run a machine word at a time, at well under a
  ns per cell.  The offsets move lo, so values of any size stay exact.

A stage is dense when the stage before it holds at least one value per
``_DENSE_RATIO`` (128) cells of the new interval and the dense rows of both
halves stay within ``max_states`` cells together (2 bits each, the row and
its mirror); otherwise it is sparse, so one huge addend turns the stages
after it back into sets until they fill in again.  Either form holds its
values: a set, or a row, which carries its own lo and answers ``in`` with
one cell, iteration with its values in ascending order, and ``&`` with any
stage as a row over its own cells.  The cap counts the values of every F
and B stage after each one, a set's ``len`` or a row's bit count, so both
forms fail at the same stage.

Second, when split < m, ``_path_pass`` keeps P_split = F_split & B_split
and, for i > split, P_i = B_i & the step from P_{i-1}: one shifted OR per
branch where both are rows, else a set step.  So no stage is tested value by
value against a row.  Last, the back-trace asks ``s in stage`` only: from
the final value it takes at each stage the lowest branch whose inverse
``s = sign * (t - weight * e)`` lies in the stage before, among
F_0 .. F_{split-1}, P_split .. P_m (F_0 .. F_m at split m), one shift of a
row per test.  That is the back-pointer ``sweep`` stores, where the lowest
branch that reaches a value wins; from the split on too, since a value that
steps to one on the way back reaches the final value, so it lies in P_{i-1}
exactly when it lies in F_{i-1}.
"""

from __future__ import annotations

from itertools import accumulate, repeat
from operator import add
from typing import Collection, Iterator, Sequence

from .errors import InvalidParameterError, StateLimitError

Branch = tuple[int, int]
Stage = dict[int, tuple[int, int]]

# ``_find`` holds a stage as a dense row when the stage before it has at
# least one value per _DENSE_RATIO cells of the new row.  On a 2-core VM a
# set step costs 85-170 ns per value; a row step with its count 0.2-0.4 ns
# per cell plus 1.0-1.2 us, and turning a sparse stage into a row or back
# 2-6 ns per cell.  Steps alone break even at 200-850 cells per value.  At
# 128 rather than 64, generated instances of 12-60 coefficients up to
# 5 * 10^4 solved about 10% faster with dict steps, and a few values that
# one large addend spreads over a wide interval (7 over 1007 cells) still
# stay sparse.
_DENSE_RATIO = 128

# The default cap on the states a sweep may hold, shared by every solver and the CLI.
MAX_STATES = 10**7


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


def _set_step(values: Collection[int], e: int, branches: Sequence[Branch]) -> set[int]:
    """The values every branch reaches from ``values`` for addend ``e``."""
    reached: set[int] = set()
    for sign, weight in branches:
        off = weight * e
        if sign < 0:
            reached.update([off - s for s in values])
        elif off:
            reached.update([s + off for s in values])
        else:  # s + 0 copies every multi-digit int
            reached.update(values)
    return reached


def sweep(
    start: int,
    addends: Sequence[int],
    branches: Sequence[Branch],
    max_states: int = MAX_STATES,
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


class _Row:
    """A dense stage over [lo, hi], width = hi - lo + 1 cells: bit j of
    ``bits`` is set when lo + j is reached, bit j of ``mirror`` when hi - j
    is.  As a collection it holds the values reached."""

    __slots__ = ("lo", "bits", "mirror", "width")

    def __init__(self, lo: int, bits: int, mirror: int, width: int):
        self.lo, self.bits, self.mirror, self.width = lo, bits, mirror, width

    def __contains__(self, value: int) -> bool:
        j = value - self.lo
        return 0 <= j < self.width and bool(self.bits >> j & 1)

    def __iter__(self) -> Iterator[int]:
        """The values in ascending order."""
        # cell j at index j of the text; the run of 0s before each 1 is the
        # gap to the value before it
        gaps = map(len, bin(self.bits)[:1:-1].split("1"))
        return iter(list(accumulate(map(add, gaps, repeat(1)), initial=self.lo - 1))[1:-1])

    def __and__(self, other: Collection[int]) -> _Row:
        """The values both stages hold, as a row over this one's cells; a
        row on another interval is aligned by the identity step."""
        if isinstance(other, _Row):
            other = _stepped(other, self.lo, self.width, 0, ((1, 0),))
        else:
            other = _row(other, self.lo, self.lo + self.width - 1)
        return _Row(self.lo, self.bits & other.bits, self.mirror & other.mirror, self.width)

    __rand__ = __and__


def _row(values: Collection[int], lo: int, hi: int) -> _Row:
    """The ``values`` that lie in [lo, hi], as a row over it."""
    cells = bytearray(b"0") * (hi - lo + 1)
    for v in values:
        if lo <= v <= hi:
            cells[v - lo] = 49  # "1"
    # the text read as binary puts cell 0 highest: that is the mirror
    return _Row(lo, int(cells[::-1], 2), int(cells, 2), len(cells))


def _stepped(prev: _Row, new_lo: int, width: int, e: int, branches: Sequence[Branch]) -> _Row:
    """Every branch's image of the row ``prev`` for addend ``e``, as a row
    over [new_lo, new_lo + width): one shifted int per branch, the bits for
    sign +1, the mirror for sign -1.  Images below new_lo are dropped; those
    above it may stay, for an ``&`` to mask."""
    lo, prev_width = prev.lo, prev.width
    bits = mirror = 0
    for sign, weight in branches:
        off = weight * e
        if sign > 0:  # s -> s + off
            by, up, down = lo + off - new_lo, prev.bits, prev.mirror
        else:  # s -> off - s: the row and its mirror trade places
            by, up, down = off - lo - prev_width + 1 - new_lo, prev.mirror, prev.bits
        # the bits move up ``by`` cells, the mirror width - prev_width - by;
        # else no image lands on the new cells, however far off: an ``&``
        # may align intervals 10^30 cells apart
        if -prev_width < by < width:
            bits |= up << by if by >= 0 else up >> -by
            by = width - prev_width - by
            mirror |= down << by if by >= 0 else down >> -by
    return _Row(new_lo, bits, mirror, width)


# ``_build``'s dense stage step, looked up at call time under its own name so
# that a test can record the stages it builds; ``_path_pass`` and ``&`` step
# through ``_stepped`` and stay unrecorded
_row_step = _stepped


def _path_pass(forward: list[Collection[int]], backward: list[Collection[int]],
               addends: Sequence[int], branches: Sequence[Branch]) -> list[Collection[int]]:
    """The stages the back-trace reads, from F_0 .. F_split in ``forward``
    and B_split .. B_m in ``backward``: ``forward`` at split m, else F_0 ..
    F_{split-1}, P_split .. P_m."""
    if len(backward) == 1:
        return forward
    path = forward[-1] & backward[0]
    held = [*forward[:-1], path]
    for stage, e in zip(backward[1:], addends[len(forward) - 1:]):
        if isinstance(path, _Row) and isinstance(stage, _Row):
            path = stage & _stepped(path, stage.lo, stage.width, e, branches)
        else:
            path = stage & _set_step(list(path), e, branches)
        held.append(path)
    return held


def _build(value: int, numbers: Sequence[int], addends: Sequence[int],
           moves: Sequence[Branch], max_states: int,
           spent: tuple[int, int]) -> tuple[list[Collection[int]], tuple[int, int]]:
    """The stages swept from ``value`` with ``moves`` over stages ``numbers``
    (1-based, in the order taken), ``{value}`` first, and the (states, cells)
    budget ``spent`` with theirs added."""
    states, cells = spent
    m = len(addends)
    lo = hi = value
    stage: Collection[int] = {value}
    count = 1
    layers = [stage]
    for i in numbers:
        e = addends[i - 1]
        # each branch maps [lo, hi] onto [low, low + hi - lo], whose ends
        # are reachable images of lo and hi, so the new one is exact too
        new_lo = top = None
        for sign, weight in moves:
            low = lo + weight * e if sign > 0 else weight * e - hi
            if new_lo is None or low < new_lo:
                new_lo = low
            if top is None or low > top:
                top = low
        new_hi = top + hi - lo
        width = new_hi - new_lo + 1
        if count * _DENSE_RATIO >= width and cells + width <= max_states:
            if not isinstance(stage, _Row):
                stage = _row(stage, lo, hi)
            stage = _row_step(stage, new_lo, width, e, moves)
            cells += width
            count = stage.bits.bit_count()
        else:  # a row is decoded once, not once per branch
            stage = _set_step(list(stage), e, moves)
            count = len(stage)
        states += count
        if states > max_states:
            _enforce_cap(states, max_states, i, m)
        lo, hi = new_lo, new_hi
        layers.append(stage)
    return layers, (states, cells)


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
    ``final``; each stage a set or a dense bit row."""
    _require_positive_cap(max_states)
    m = len(addends)
    inverses = tuple((sign, -sign * weight) for sign, weight in branches)
    forward, spent = _build(start, range(1, split + 1), addends, branches, max_states, (0, 0))
    backward, _ = _build(final, range(m, split, -1), addends, inverses, max_states, spent)
    held = _path_pass(forward, backward[::-1], addends, branches)
    if final not in held[-1]:
        return None
    choices = []
    t = final
    for e, prev in zip(reversed(addends), reversed(held[:-1])):
        for choice, (sign, weight) in enumerate(branches):
            s = sign * (t - weight * e)
            if s in prev:
                break
        choices.append(choice)
        t = s
    return tuple(reversed(choices))


def reach(
    start: int,
    final: int,
    addends: Sequence[int],
    branches: Sequence[Branch],
    max_states: int = MAX_STATES,
) -> tuple[int, ...] | None:
    """``trace(sweep(start, addends, branches, max_states), final)``, with
    each stage held as a set or as a dense bit row, whichever is cheaper.

    Raises the StateLimitError ``sweep`` raises, at the same stage: the cap
    counts reachable values in either representation.
    """
    return _find(start, final, addends, branches, max_states, len(addends))


def meet(
    start: int,
    final: int,
    addends: Sequence[int],
    branches: Sequence[Branch],
    max_states: int = MAX_STATES,
) -> tuple[int, ...] | None:
    """``trace(sweep(start, addends, branches), final)``, found by sweeping
    the first half of the stages forward and the rest backward.

    Raises StateLimitError once the forward stages and the backward layers
    together hold more than ``max_states`` values.
    """
    return _find(start, final, addends, branches, max_states, len(addends) // 2)
