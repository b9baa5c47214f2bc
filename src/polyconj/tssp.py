"""The twisted subset sum problem (TSSP), and the solvers of all three
subset-sum variants.

An instance asks for bits x_1..x_n with

    sum_i  k_i * x_i * (-1)^(x_1 + ... + x_{i-1})  ==  M,

i.e. each selected coefficient is negated when an odd number of earlier
bits are set.  The three variants differ only in their ``ALPHABET``, the
``(value, weight, flip)`` rows of :mod:`polyconj._search`, which one
evaluator, one brute scan and one sweep read.  The sweep runs over residual
targets with the kernel of :mod:`polyconj._sweep`: the entries after x_i
must reach some residual t, and row (value, weight, flip) at k_i turns t
into ``flip * t - flip * weight * k_i``.  From M, the instance is solvable
exactly when residual 0 is reached after the last coefficient; a target
past S = sum|k_i|, beyond every weighted sum, is refused unswept.  The
sweep is polynomial in n * S but exponential in coefficient bit-length.
``_sweep.reach`` holds sparse stages as sets and dense stages as bit rows,
well under a ns per residual in [lo, hi], and returns the dict sweep's
back-trace, which prefers the rows listed first.

Through ``reductions.tssp_to_conjugacy`` an assignment becomes a conjugator
in G(n), h = 2n + 1, and checking it with ``group.conjugate`` costs O(h)
integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, Sequence

from . import _search, _sweep
from .errors import InvalidParameterError, OracleTooLargeError, SoundnessError
from .group import _integer

Assignment = tuple[int, ...]
Row = tuple[int, int, int]


@dataclass(frozen=True)
class _CoefficientInstance:
    """Coefficients k_1..k_n (n >= 1) and a target M, shared by the three
    subset-sum variants; a variant sets ``ALPHABET``, its rows in the order
    the sweep prefers them."""

    ALPHABET: ClassVar[tuple[Row, ...]]
    coefficients: tuple[int, ...]
    target: int

    def __post_init__(self):
        coeffs = tuple(_integer(k) for k in self.coefficients)
        if len(coeffs) < 1:
            raise InvalidParameterError("instance needs at least one coefficient")
        object.__setattr__(self, "coefficients", coeffs)
        object.__setattr__(self, "target", _integer(self.target))

    @property
    def n(self) -> int:
        return len(self.coefficients)

    @property
    def abs_sum(self) -> int:
        """S = sum(|k_i|); every partial sum, signed or twisted, lies in [-S, S]."""
        return sum(abs(k) for k in self.coefficients)


class TsspInstance(_CoefficientInstance):
    """Twisted subset sum: find bits x whose twisted sum equals target."""

    ALPHABET = _search.TWISTED


def _row_sum(alphabet: Sequence[Row], coefficients: Sequence[int], values: Sequence[int]) -> int:
    """The sum ``values`` reach over ``alphabet``'s rows, after checking
    that there is one value per coefficient, each in the alphabet."""
    if len(values) != len(coefficients):
        raise InvalidParameterError(
            f"vector has length {len(values)}, expected {len(coefficients)}"
        )
    total, sign = 0, 1
    for k, x in zip(coefficients, values):
        for value, weight, flip in alphabet:
            if x == value:
                break
        else:
            values = sorted(row[0] for row in alphabet)
            raise InvalidParameterError(f"entries must be in {values}, got {x!r}")
        total += sign * weight * k
        sign *= flip
    return total


def _residual_branches(alphabet: Sequence[Row]) -> tuple[_sweep.Branch, ...]:
    """Sweep branches (sign, weight): row (value, weight, flip) at k maps
    residual t to flip * t - flip * weight * k."""
    return tuple((flip, -flip * weight) for _, weight, flip in alphabet)


def _solve_brute(inst: _CoefficientInstance, max_n: int) -> tuple[int, ...] | None:
    """The lexicographically smallest solving vector, by full enumeration."""
    alphabet = inst.ALPHABET
    if inst.n > max_n:
        raise OracleTooLargeError(
            f"brute force over {len(alphabet)}^{inst.n} vectors exceeds the cap n <= {max_n}"
        )
    return _search.first_match(
        inst.coefficients, inst.target, alphabet,
        lambda values: _row_sum(alphabet, inst.coefficients, values),
    )


def _solve_dp(inst: _CoefficientInstance, max_states: int) -> tuple[int, ...] | None:
    """A solving vector from the residual sweep from M to 0, or None."""
    _sweep._require_positive_cap(max_states)
    if abs(inst.target) > inst.abs_sum:
        return None
    alphabet = inst.ALPHABET
    choices = _sweep.reach(
        inst.target, 0, inst.coefficients, _residual_branches(alphabet), max_states
    )
    if choices is None:
        return None
    found = tuple(alphabet[c][0] for c in choices)
    if _row_sum(alphabet, inst.coefficients, found) != inst.target:
        raise SoundnessError("sweep back-trace produced a non-solving vector")
    return found


def twisted_sum(coefficients: Sequence[int], bits: Sequence[int]) -> int:
    """sum_i k_i * x_i * (-1)^(x_1 + ... + x_{i-1}) for bits x."""
    return _row_sum(TsspInstance.ALPHABET, coefficients, bits)


def solve_tssp_brute(inst: TsspInstance, max_n: int = 25) -> Assignment | None:
    """Lexicographically smallest solving assignment by full enumeration."""
    return _solve_brute(inst, max_n)


def residual_sweep(inst: TsspInstance, max_states: int = _sweep.MAX_STATES) -> list[_sweep.Stage]:
    """Residual targets reachable after each coefficient, with back-pointers
    whose choice is the bit set at that coefficient."""
    branches = _residual_branches(TsspInstance.ALPHABET)
    return _sweep.sweep(inst.target, inst.coefficients, branches, max_states)


def solve_tssp_dp(inst: TsspInstance, max_states: int = _sweep.MAX_STATES) -> Assignment | None:
    """Solve by the residual sweep plus back-trace from residual 0; where
    both bits reach a residual, the back-trace keeps bit 0."""
    return _solve_dp(inst, max_states)
