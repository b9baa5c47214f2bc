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

Every branch is injective, so the first branch fills a fresh dict with no
collisions and later branches only add values not already present.  The
arithmetic is written out per sign rather than passed in as a function:
a Python call per state made the conjugacy sweep 10-20% slower.
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
