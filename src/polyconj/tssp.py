"""The twisted subset sum problem (TSSP) and its solvers.

An instance asks for bits x_1..x_n with

    sum_i  k_i * x_i * (-1)^(x_1 + ... + x_{i-1})  ==  M,

i.e. each selected coefficient is negated when an odd number of earlier
bits are set.  ``solve_tssp_brute`` enumerates all 2^n assignments.
``solve_tssp_dp`` sweeps residual targets with the shared kernel of
:mod:`polyconj._sweep`: the bits after x_i must reach some residual t, and
setting x_i turns t into k_i - t (the later bits now enter negated) while
clearing it keeps t.  Starting from M, the instance is solvable exactly when
residual 0 is reachable after the last coefficient.  The sweep is
polynomial in n * (|M| + sum|k_i|) but exponential in coefficient
bit-length.  The solver asks only whether residual 0 is reached, so it runs
``_sweep.reach``, which keeps dense stages as bool rows: with small
coefficients (the pseudo-polynomial regime) a stage costs a few ns per
residual in [lo, hi] instead of a dict entry per residual.  The assignment
is the one the dict sweep's back-trace gives.

Through ``reductions.tssp_to_conjugacy`` an assignment becomes a conjugator
in G(n), h = 2n + 1, and checking it with ``group.conjugate`` costs O(h)
integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import _search, _sweep
from .errors import InvalidParameterError, OracleTooLargeError, SoundnessError

Assignment = tuple[int, ...]

# Sweep branches (sign, weight): bit 0 keeps the residual t, bit 1 maps it
# to k - t.
_RESIDUAL_BRANCHES = ((1, 0), (-1, 1))


@dataclass(frozen=True)
class _CoefficientInstance:
    """Coefficients k_1..k_n (n >= 1) and a target M, shared by the three
    subset-sum variants."""

    coefficients: tuple[int, ...]
    target: int

    def __post_init__(self):
        coeffs = tuple(int(k) for k in self.coefficients)
        if len(coeffs) < 1:
            raise InvalidParameterError("instance needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "target", int(self.target))

    @property
    def n(self) -> int:
        return len(self.coefficients)


class TsspInstance(_CoefficientInstance):
    """Twisted subset sum: find bits x whose twisted sum equals target."""

    @property
    def abs_sum(self) -> int:
        """S = sum(|k_i|); every partial twisted sum lies in [-S, S]."""
        return sum(abs(k) for k in self.coefficients)


def _check_bits(bits: Sequence[int], n: int) -> None:
    if len(bits) != n:
        raise InvalidParameterError(
            f"assignment has length {len(bits)}, expected {n}"
        )
    for x in bits:
        if x not in (0, 1):
            raise InvalidParameterError(f"assignment entries must be 0 or 1, got {x!r}")


def twisted_sum(coefficients: Sequence[int], bits: Sequence[int]) -> int:
    """sum_i k_i * x_i * (-1)^(x_1 + ... + x_{i-1}) for bits x."""
    _check_bits(bits, len(coefficients))
    total = 0
    sign = 1
    for k, x in zip(coefficients, bits):
        if x:
            total += sign * k
            sign = -sign
    return total


def solve_tssp_brute(inst: TsspInstance, max_n: int = 25) -> Assignment | None:
    """Lexicographically smallest solving assignment by full enumeration."""
    if inst.n > max_n:
        raise OracleTooLargeError(
            f"brute force over 2^{inst.n} assignments exceeds the cap n <= {max_n}"
        )
    found = _search.first_match(
        inst.coefficients, inst.target, _search.TWISTED,
        lambda bits: twisted_sum(inst.coefficients, bits),
    )
    if found is not None and twisted_sum(inst.coefficients, found) != inst.target:
        raise SoundnessError("brute-force assignment failed re-verification")
    return found


def residual_sweep(inst: TsspInstance, max_states: int = 10**7) -> list[_sweep.Stage]:
    """Residual targets reachable after each coefficient, with back-pointers
    whose choice is the bit set at that coefficient."""
    return _sweep.sweep(inst.target, inst.coefficients, _RESIDUAL_BRANCHES, max_states)


def solve_tssp_dp(inst: TsspInstance, max_states: int = 10**7) -> Assignment | None:
    """Solve by the residual sweep plus back-trace from residual 0; where
    both bits reach a residual, the back-trace keeps bit 0."""
    found = _sweep.reach(inst.target, 0, inst.coefficients, _RESIDUAL_BRANCHES, max_states)
    if found is not None and twisted_sum(inst.coefficients, found) != inst.target:
        raise SoundnessError("sweep back-trace produced a non-solving assignment")
    return found
