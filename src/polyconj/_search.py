"""Split exhaustive enumeration backing the brute-force solvers.

A problem is an alphabet of ``(value, weight, flip)`` rows: picking
``value`` at coefficient k adds ``sign * weight * k`` to the sum and then
multiplies ``sign`` (initially +1) by ``flip``.  ``first_match`` sorts the
rows by value (an alphabet lists them in the order the residual sweep of
:mod:`polyconj.tssp` prefers) and returns the lexicographically first value
vector whose sum hits the target, or None.

The scan splits the vector (Horowitz and Sahni, J. ACM 1974).  The sums of
every suffix over the last L coordinates, in lex order, form one numpy
table; the prefixes run in lex order in Python, and each compares the whole
table against the residual it needs.  Every candidate is still compared, so
the scan is an honest O(b^n) referee, and the first hit of the first prefix
with one is the lex-first witness.  Sums past int64 fall back to a plain
Python loop over the same candidate order.  Any table hit is re-verified
with exact Python ints before it is returned.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import SoundnessError

SUBSET = ((0, 0, 1), (1, 1, 1))
SIGNED = ((0, 0, 1), (-1, -1, 1), (1, 1, 1))
TWISTED = ((0, 0, 1), (1, 1, -1))

_TABLE = 1 << 16
_INT64_SAFE = 1 << 62


def first_match(
    coefficients: Sequence[int],
    target: int,
    alphabet: Sequence[tuple[int, int, int]],
    evaluate: Callable[[tuple[int, ...]], int],
) -> tuple[int, ...] | None:
    """First value vector (lex order) over ``alphabet`` whose sum is target."""
    alphabet = sorted(alphabet)
    n = len(coefficients)
    s = sum(abs(k) for k in coefficients)
    # every partial sum, twisted ones included, lies within +-s
    if abs(target) > s:
        return None
    if s >= _INT64_SAFE:
        values = product([row[0] for row in alphabet], repeat=n)
        return next((c for c in values if evaluate(c) == target), None)

    b = len(alphabet)
    depth = 0
    while depth < n and b ** (depth + 1) <= _TABLE:
        depth += 1
    split = n - depth
    table = np.zeros(1, dtype=np.int64)
    for k in reversed(coefficients[split:]):
        table = np.concatenate([w * k + f * table for _, w, f in alphabet])

    for prefix in product(alphabet, repeat=split):
        v, sign = 0, 1
        for k, (_, w, f) in zip(coefficients, prefix):
            v += sign * w * k
            sign *= f
        hits = np.flatnonzero(table == (target - v) * sign)
        if hits.size:
            digits = np.unravel_index(int(hits[0]), (b,) * depth)
            candidate = tuple(row[0] for row in prefix) + tuple(alphabet[d][0] for d in digits)
            if evaluate(candidate) != target:
                raise SoundnessError("split scan returned a vector that fails exact re-check")
            return candidate
    return None

