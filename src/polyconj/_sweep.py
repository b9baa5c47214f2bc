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

``meet`` answers the question for one known final value by meeting in the
middle (Horowitz and Sahni, J. ACM 1974): ``sweep`` runs forward from the
start over the first half of the stages, and a second sweep runs backward
from the final value over the rest, so each side holds about the square
root of the values one full sweep would.  The backward half inverts each
branch: ``t = sign * s + weight * e`` gives ``s = sign * t - sign * weight
* e``, the branch ``(sign, -sign * weight)``.  It is value-major: it visits
the values of a layer in dict order and, for each, the branches in order,
keeping the first insertion.  By induction every layer's dict order is then
the lexicographic order of the choices (c_m, c_{m-1}, ...) that first reach
each value, so the first value of the last backward layer that the forward
half also reached starts the smallest choice list of all.  Tracing it both
ways gives exactly ``trace(sweep(start, addends, branches), final)``.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .errors import InvalidParameterError, StateLimitError

Branch = tuple[int, int]
Stage = dict[int, tuple[int, int]]


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
    if max_states < 1:
        raise InvalidParameterError(f"max_states must be at least 1, got {max_states}")
    (first_sign, first_weight), later = branches[0], tuple(enumerate(branches))[1:]
    stages: list[Stage] = []
    values: Iterable[int] = (start,)
    states = 0
    for i, e in enumerate(addends, start=1):
        off = first_weight * e
        if first_sign < 0:
            table = {off - s: (s, 0) for s in values}
        elif off:
            table = {s + off: (s, 0) for s in values}
        else:  # reuse s as the key: s + 0 copies every multi-digit int
            table = {s: (s, 0) for s in values}
        for choice, (sign, weight) in later:
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
        states += len(table)
        if states > max_states:
            raise StateLimitError(
                f"reachability sweep exceeded {max_states} states at stage {i} of {len(addends)}"
            )
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


def meet(
    start: int,
    final: int,
    addends: Sequence[int],
    branches: Sequence[Branch],
    max_states: int = 10**7,
) -> tuple[int, ...] | None:
    """``trace(sweep(start, addends, branches), final)``, found by sweeping
    the first half of the stages forward and the rest backward; ``addends``
    holds at least one stage.

    Raises StateLimitError once the forward stages and the backward layers
    together hold more than ``max_states`` values.
    """
    half = len(addends) // 2
    forward = sweep(start, addends[:half], branches, max_states)
    states = sum(len(table) for table in forward)
    inverses = tuple((sign, -sign * weight) for sign, weight in branches)
    layers: list[Stage] = []
    values: Iterable[int] = (final,)
    for i in range(len(addends), half, -1):
        moves = tuple((choice, sign, weight * addends[i - 1])
                      for choice, (sign, weight) in enumerate(inverses))
        layer: Stage = {}
        for t in values:
            for choice, sign, off in moves:
                s = t + off if sign > 0 else off - t
                if s not in layer:
                    layer[s] = (t, choice)
        states += len(layer)
        if states > max_states:
            raise StateLimitError(
                f"meet-in-the-middle sweep exceeded {max_states} states "
                f"at stage {i} of {len(addends)}"
            )
        layers.append(layer)
        values = layer
    reached = forward[-1] if forward else (start,)
    middle = next((s for s in values if s in reached), None)
    if middle is None:
        return None
    # the backward layers run last stage first, so their trace is reversed
    return (trace(forward, middle) if forward else ()) + trace(layers, middle)[::-1]
