"""Chunked exhaustive enumeration backing the brute-force solvers.

Each ``first_*_match`` scans every candidate vector in lexicographic order
and returns the first one whose (subset / signed / twisted) sum hits the
target, or None after a full scan.  When every partial sum provably fits in
int64 the scan runs vectorized over numpy chunks; otherwise it falls back to
a plain Python loop over the identical candidate order, so both paths return
the same witness.  Any vectorized hit is re-verified with exact Python ints
before it is returned.
"""

from __future__ import annotations

from itertools import product
from typing import Callable, Sequence

import numpy as np

from .errors import SoundnessError

_CHUNK = 1 << 16
_INT64_SAFE = 1 << 62


def _lex_bits(index: int, n: int) -> tuple[int, ...]:
    return tuple((index >> t) & 1 for t in range(n - 1, -1, -1))


def _lex_ternary(index: int, n: int) -> tuple[int, ...]:
    digits = []
    for _ in range(n):
        index, d = divmod(index, 3)
        digits.append(d - 1)
    return tuple(reversed(digits))


def _verified(candidate, target, evaluate):
    if evaluate(candidate) != target:
        raise SoundnessError("vectorized scan returned a row that fails exact re-check")
    return candidate


def first_subset_match(
    coefficients: Sequence[int],
    target: int,
    evaluate: Callable[[tuple[int, ...]], int],
) -> tuple[int, ...] | None:
    """First bit vector (lex order) with sum(k_i * x_i) == target."""
    n = len(coefficients)
    lo = sum(k for k in coefficients if k < 0)
    hi = sum(k for k in coefficients if k > 0)
    if not lo <= target <= hi:
        return None
    if hi - lo >= _INT64_SAFE:
        return _python_scan(product((0, 1), repeat=n), target, evaluate)

    karr = np.array(coefficients, dtype=np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    m = np.int64(target)
    for start in range(0, 1 << n, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
        bits = (idx[:, None] >> shifts) & 1
        hits = np.nonzero(bits @ karr == m)[0]
        if hits.size:
            return _verified(_lex_bits(start + int(hits[0]), n), target, evaluate)
    return None


def first_ternary_match(
    coefficients: Sequence[int],
    target: int,
    evaluate: Callable[[tuple[int, ...]], int],
) -> tuple[int, ...] | None:
    """First vector over {-1,0,1} (lex order) with sum(k_i * x_i) == target."""
    n = len(coefficients)
    s = sum(abs(k) for k in coefficients)
    if abs(target) > s:
        return None
    if s >= _INT64_SAFE:
        return _python_scan(product((-1, 0, 1), repeat=n), target, evaluate)

    karr = np.array(coefficients, dtype=np.int64)
    powers = 3 ** np.arange(n - 1, -1, -1, dtype=np.int64)
    m = np.int64(target)
    total = 3**n
    for start in range(0, total, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, total), dtype=np.int64)
        values = (idx[:, None] // powers) % 3 - 1
        hits = np.nonzero(values @ karr == m)[0]
        if hits.size:
            return _verified(_lex_ternary(start + int(hits[0]), n), target, evaluate)
    return None


def first_twisted_match(
    coefficients: Sequence[int],
    target: int,
    evaluate: Callable[[tuple[int, ...]], int],
) -> tuple[int, ...] | None:
    """First bit vector (lex order) whose twisted sum equals target.

    The twisted sum weights each selected k_i by (-1)^(number of selected
    predecessors); its partial sums stay within +-sum(|k_i|).
    """
    n = len(coefficients)
    s = sum(abs(k) for k in coefficients)
    if abs(target) > s:
        return None
    if s >= _INT64_SAFE:
        return _python_scan(product((0, 1), repeat=n), target, evaluate)

    # signed bit patterns fit int8; dot products are bounded by s
    karr = np.array(coefficients, dtype=np.int32 if s < 2**30 else np.int64)
    shifts = np.arange(n - 1, -1, -1, dtype=np.int64)
    m = karr.dtype.type(target)
    for start in range(0, 1 << n, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
        bits = ((idx[:, None] >> shifts) & 1).astype(np.int8)
        prefix = np.cumsum(bits, axis=1, dtype=np.int8) - bits
        signs = 1 - 2 * (prefix & 1)
        hits = np.nonzero((bits * signs) @ karr == m)[0]
        if hits.size:
            return _verified(_lex_bits(start + int(hits[0]), n), target, evaluate)
    return None


def _python_scan(candidates, target, evaluate):
    for cand in candidates:
        if evaluate(cand) == target:
            return cand
    return None
