"""Benchmark harness for the reachability sweep, run as the TSSP solver.

Three suites, each timing ``tssp.residual_sweep`` and counting the states it
touches:

* ``scaling``: fixed n, coefficient magnitudes scaled so sum|k_i| = S for a
  range of S.  Wall time stays inside a quadratic envelope in S; at n = 10
  each stage holds at most 2^n values, so it is nearly flat and says little
  about the pseudo-polynomial regime.
* ``adversarial``: fixed n, random coefficients of a given bit-length.
  Touched-state counts at least double when the bit-length doubles, which
  is the exponential regime that keeps the problem NP-complete in binary.
  Its ``meet_seconds`` column times ``_sweep.meet`` from the target to
  residual 0 on the same instances, the meet-in-the-middle path that
  conjugacy decide and search take; ``states`` stays the full sweep's.
* ``dense``: solvable instances with small coefficients (n in the hundreds,
  |k_i| <= 10 or 20), the pseudo-polynomial regime in which ``states`` grows
  like n * S.  ``seconds`` times the dict sweep ``residual_sweep`` and
  ``dp_seconds`` the solver ``solve_tssp_dp``, whose stages are dense rows
  here.

One timer, ``_best``, and one row builder, ``_rows``, serve every suite.
"""

from __future__ import annotations

import random
import time
from typing import Sequence

from . import _sweep
from .generate import GenSpec, generate
from .tssp import TsspInstance, _residual_branches, residual_sweep, solve_tssp_dp, twisted_sum

SCALING_N = 10
SCALING_SUMS = (10**3, 10**4, 10**5, 10**6)
ADVERSARIAL_N = 18
ADVERSARIAL_BITS = (4, 8, 16)
DENSE_NS = (100, 200, 300)
DENSE_BOUNDS = (10, 20)


def _scaled_instance(rng: random.Random, n: int, total: int) -> TsspInstance:
    """Coefficients with |k_1| + ... + |k_n| exactly ``total``."""
    cuts = sorted(rng.randint(0, total) for _ in range(n - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [total])]
    coeffs = tuple(p if rng.random() < 0.5 else -p for p in parts)
    bits = tuple(rng.randint(0, 1) for _ in range(n))
    return TsspInstance(coefficients=coeffs, target=twisted_sum(coeffs, bits))


def _adversarial_instance(rng: random.Random, n: int, bit_length: int) -> TsspInstance:
    """Random coefficients of exactly ``bit_length`` bits, random signs."""
    lo, hi = 1 << (bit_length - 1), (1 << bit_length) - 1
    coeffs = tuple(rng.randint(lo, hi) * (1 if rng.random() < 0.5 else -1) for _ in range(n))
    bits = tuple(rng.randint(0, 1) for _ in range(n))
    return TsspInstance(coefficients=coeffs, target=twisted_sum(coeffs, bits))


def _best(call, repeats: int):
    """``(seconds, result)``: the best wall time of ``repeats`` calls of ``call``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        best = min(best, time.perf_counter() - start)
    return best, result


def _rows(cases, repeats: int = 1, **extra) -> list[dict]:
    """One row per ``(fields, instance)`` case: the fields, S, the best of
    ``repeats`` ``residual_sweep`` times and its state count, then each
    ``extra`` column timing one ``call(instance)``."""
    rows = []
    for fields, inst in cases:
        seconds, stages = _best(lambda: residual_sweep(inst), repeats)
        row = {**fields, "S": inst.abs_sum, "seconds": seconds, "states": sum(map(len, stages))}
        for column, call in extra.items():
            row[column] = _best(lambda: call(inst), 1)[0]
        rows.append(row)
    return rows


def scaling_rows(seed: int = 20250809) -> list[dict]:
    rng = random.Random(seed)
    cases = (({"n": SCALING_N}, _scaled_instance(rng, SCALING_N, total)) for total in SCALING_SUMS)
    return _rows(cases, repeats=3)


def adversarial_rows(seed: int = 20250809) -> list[dict]:
    rng = random.Random(seed)
    branches = _residual_branches(TsspInstance.ALPHABET)
    cases = (({"n": ADVERSARIAL_N, "coefficient_bits": bits},
              _adversarial_instance(rng, ADVERSARIAL_N, bits)) for bits in ADVERSARIAL_BITS)
    return _rows(cases, meet_seconds=lambda i: _sweep.meet(i.target, 0, i.coefficients, branches))


def dense_rows(seed: int = 20250809) -> list[dict]:
    rng = random.Random(seed)
    cases = (({"n": n}, generate(GenSpec("tssp", n, bound, rng.randrange(2**32), solvable=True)))
             for n in DENSE_NS for bound in DENSE_BOUNDS)
    return _rows(cases, dp_seconds=solve_tssp_dp)


# suite name -> (title, rows(seed), columns), in the order ``all`` prints them
SUITES = {
    "scaling": ("tssp sweep on unary-scaled instances (fixed n, growing S)",
                scaling_rows, ("n", "S", "seconds", "states")),
    "adversarial": ("tssp sweep on random coefficients of growing bit-length", adversarial_rows,
                    ("n", "coefficient_bits", "S", "seconds", "states", "meet_seconds")),
    "dense": ("tssp sweep and solver on small coefficients (pseudo-polynomial regime)",
              dense_rows, ("n", "S", "states", "seconds", "dp_seconds")),
}


def format_table(rows: Sequence[dict], columns: Sequence[str]) -> str:
    """Plain-text table with right-aligned columns."""
    rendered = [[_cell(row[c]) for c in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
    ]
    lines = ["  ".join(col.rjust(w) for col, w in zip(columns, widths))]
    for r in rendered:
        lines.append("  ".join(cell.rjust(w) for cell, w in zip(r, widths)))
    return "\n".join(lines)


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)
