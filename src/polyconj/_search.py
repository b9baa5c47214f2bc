"""Split exhaustive enumeration backing the brute-force solvers.

A problem is an alphabet of ``(value, weight, flip)`` rows: picking
``value`` at coefficient k adds ``sign * weight * k`` to the sum and then
multiplies ``sign`` (initially +1) by ``flip``.  ``first_match`` sorts the
rows by value (an alphabet lists them in the order the residual sweep of
:mod:`polyconj.tssp` prefers) and returns the lexicographically first value
vector whose sum hits the target, or None.

The scan splits the vector (Horowitz and Sahni, J. ACM 1974) and joins the
halves by hash.  A dict maps the sum of every suffix over the last L
coordinates (about half of them) to the lex-first suffix with that sum; the
prefixes run in lex order, and each looks up the residual it needs once.
The first prefix with a hit, completed by its lex-first suffix, is the
lex-first witness.  The scan costs O(b^(n/2)) time and memory in exact
Python ints, whatever their size, and no longer compares every candidate.
Any hit is re-verified with ``evaluate`` before it is returned.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Callable, Sequence

from .errors import SoundnessError

SUBSET = ((0, 0, 1), (1, 1, 1))
SIGNED = ((0, 0, 1), (-1, -1, 1), (1, 1, 1))
TWISTED = ((0, 0, 1), (1, 1, -1))

_TABLE = 1 << 16


def first_match(
    coefficients: Sequence[int],
    target: int,
    alphabet: Sequence[tuple[int, int, int]],
    evaluate: Callable[[tuple[int, ...]], int],
) -> tuple[int, ...] | None:
    """First value vector (lex order) over ``alphabet`` whose sum is target."""
    alphabet = sorted(alphabet)
    n = len(coefficients)
    # every partial sum, twisted ones included, lies within +-sum|k|
    if abs(target) > sum(abs(k) for k in coefficients):
        return None

    b = len(alphabet)
    depth = 0
    while 2 * depth < n and b ** (depth + 1) <= _TABLE:
        depth += 1
    split = n - depth
    # the sums of every suffix, in lex order: entry i spells i in base b
    table = [0]
    for k in reversed(coefficients[split:]):
        table = [w * k + f * t for _, w, f in alphabet for t in table]
    # filled from the back, so the lowest index of each sum is the one kept
    first = dict(zip(reversed(table), range(len(table) - 1, -1, -1)))
    # The sum a prefix needs from its suffix: a row (w, f) at k turns the
    # need r into f * (r - w * k).  ``heads`` holds the needs after the first
    # half of the prefix, and the rest of it maps a need r to s * r + d for
    # each (s, d) of ``tails``; both in lex order, so one block per head
    # runs the prefixes in lex order, and the scan stops at the first hit.
    half = split // 2
    heads = [target]
    for k in coefficients[:half]:
        heads = [f * (r - w * k) for r in heads for _, w, f in alphabet]
    tails = [(1, 0)]
    for k in coefficients[half:split]:
        tails = [(f * s, f * (d - w * k)) for s, d in tails for _, w, f in alphabet]
    for h, r in enumerate(heads):
        block = [s * r + d for s, d in tails]
        hit = next(compress(count(), map(first.__contains__, block)), None)
        if hit is not None:
            break
    else:
        return None
    digits = []
    for index, places in ((first[block[hit]], depth), (h * len(tails) + hit, split)):
        for _ in range(places):
            index, d = divmod(index, b)
            digits.append(alphabet[d][0])
    candidate = tuple(reversed(digits))
    if evaluate(candidate) != target:
        raise SoundnessError("split scan returned a vector that fails exact re-check")
    return candidate
