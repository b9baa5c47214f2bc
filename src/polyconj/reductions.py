"""Subset-sum variants and the reduction chain down to conjugacy in G(n).

The chain is

    SSP  (bits x_i)
      -> SSP'  (values in {-1,0,1}; one merged equation forces x_i + y_i = 1)
      -> TSSP  (zero coefficients interleaved so sign bits become free)
      -> conjugacy in G(n)  (twisted sums appear as g_1 exponents under
         conjugation by products of even-indexed generators)

Every hop preserves solvability both ways, and every hop has a pullback
that converts a witness of the reduced instance back into a witness of the
source instance, verifying it against the source equation before returning.
``CHAIN`` and ``HOPS`` hold the chain as data, which the ``reduce`` and
``pullback`` commands compose.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from . import _search, _sweep
from .errors import InvalidParameterError, InvalidPromiseError, SoundnessError
from .group import GroupContext, GroupElement, _check, _integer, make_context
from .tssp import Assignment, TsspInstance, _CoefficientInstance, twisted_sum
from .tssp import _row_sum, _solve_brute, _solve_dp

SspSubset = tuple[int, ...]
SspPrimeSolution = tuple[int, ...]


class SspInstance(_CoefficientInstance):
    """Subset sum: find bits x with sum(k_i * x_i) == target."""

    ALPHABET = _search.SUBSET


class SspPrimeInstance(_CoefficientInstance):
    """Signed subset sum: find values in {-1,0,1} with sum(k_i * x_i) == target."""

    ALPHABET = _search.SIGNED


@dataclass(frozen=True)
class ConjugacyInstance:
    """A pair (u, v) in G(n); asks whether some w satisfies w u w^{-1} = v."""

    ctx: GroupContext
    u: GroupElement
    v: GroupElement

    def __post_init__(self):
        object.__setattr__(self, "u", _check(self.ctx, self.u))
        object.__setattr__(self, "v", _check(self.ctx, self.v))


def subset_sum(coefficients: Sequence[int], bits: Sequence[int]) -> int:
    return _row_sum(SspInstance.ALPHABET, coefficients, bits)


def signed_sum(coefficients: Sequence[int], values: Sequence[int]) -> int:
    return _row_sum(SspPrimeInstance.ALPHABET, coefficients, values)


def solve_ssp_brute(inst: SspInstance, max_n: int = 25) -> SspSubset | None:
    """Lexicographically smallest solving subset by full enumeration."""
    return _solve_brute(inst, max_n)


def solve_sspprime_brute(inst: SspPrimeInstance, max_n: int = 16) -> SspPrimeSolution | None:
    """Lexicographically smallest solving value vector by full enumeration."""
    return _solve_brute(inst, max_n)


def solve_ssp_dp(inst: SspInstance, max_states: int = _sweep.MAX_STATES) -> SspSubset | None:
    """A solving subset from the residual sweep, preferring to skip the
    later coefficients."""
    return _solve_dp(inst, max_states)


def solve_sspprime_dp(
    inst: SspPrimeInstance, max_states: int = _sweep.MAX_STATES
) -> SspPrimeSolution | None:
    """A solving value vector from the residual sweep, preferring 0, then
    -1, at the later coefficients."""
    return _solve_dp(inst, max_states)


def ssp_to_sspprime(inst: SspInstance) -> SspPrimeInstance:
    """Fold the n constraints x_i + y_i = 1 into one signed-subset-sum equation.

    Each fold rewrites {LHS = T, x_i + y_i = 1} as x_i + y_i + 4*LHS = 4T + 1,
    which has the same solutions because 4(LHS - T) = 1 - x_i - y_i can only
    be a multiple of 4 in [-1, 3], namely 0.  After all n folds the
    coefficient of x_i is 4^(n-i) + 4^n k_i, the coefficient of y_i is
    4^(n-i), and the target is 4^n M + (4^n - 1)/3; they are built from that
    closed form directly.  The y_i constraints force every x_i into {0,1},
    so the x-half of any solution solves the original subset sum.
    """
    n = inst.n
    scale = 4**n
    cy = tuple(4 ** (n - i) for i in range(1, n + 1))
    cx = tuple(y + scale * k for y, k in zip(cy, inst.coefficients))
    return SspPrimeInstance(coefficients=cx + cy, target=scale * inst.target + (scale - 1) // 3)


def push_ssp_solution_to_sspprime(bits: Sequence[int]) -> SspPrimeSolution:
    """Forward witness map for ssp_to_sspprime: x stays, y_i = 1 - x_i."""
    return tuple(bits) + tuple(1 - x for x in bits)


def pullback_sspprime_to_ssp(inst: SspInstance, sol: Sequence[int]) -> SspSubset:
    """Recover the subset from a solution of ssp_to_sspprime(inst)."""
    n = inst.n
    if len(sol) != 2 * n:
        raise SoundnessError(
            f"solution has length {len(sol)}, expected {2 * n} (x then y half)"
        )
    x = tuple(sol[:n])
    if any(b not in (0, 1) for b in x):
        raise SoundnessError(
            f"x-half {x} leaves {{0,1}}; it cannot come from a valid reduction witness"
        )
    if subset_sum(inst.coefficients, x) != inst.target:
        raise SoundnessError("pulled-back subset does not hit the original target")
    return x


def sspprime_to_tssp(inst: SspPrimeInstance) -> TsspInstance:
    """Interleave zero coefficients: position 2i-1 is 0, position 2i is k_i.

    A zero-coefficient bit contributes nothing to the sum but flips the sign
    of everything after it, so it can steer each k_i to enter with either
    sign; that makes the twisted problem exactly as solvable as the signed
    one.
    """
    coeffs = []
    for k in inst.coefficients:
        coeffs.append(0)
        coeffs.append(k)
    return TsspInstance(coefficients=tuple(coeffs), target=inst.target)


def push_sspprime_solution_to_tssp(values: Sequence[int]) -> Assignment:
    """Forward witness map for sspprime_to_tssp.

    y_{2i} = |x_i|, and the sign bit y_{2i-1} is set exactly when the running
    parity would give k_i the wrong sign.
    """
    bits: list[int] = []
    parity = 0
    for x in values:
        if x not in (-1, 0, 1):
            raise InvalidParameterError(f"values must be in {{-1,0,1}}, got {x!r}")
        want_negative = x == -1
        sign_bit = 1 if (x != 0 and (parity == 0) == want_negative) else 0
        bits.append(sign_bit)
        parity ^= sign_bit
        bits.append(abs(x))
        parity ^= abs(x)
    return tuple(bits)


def pullback_tssp_to_sspprime(inst: SspPrimeInstance, assign: Sequence[int]) -> SspPrimeSolution:
    """Recover signed values from an assignment of sspprime_to_tssp(inst)."""
    n = inst.n
    if len(assign) != 2 * n:
        raise SoundnessError(
            f"assignment has length {len(assign)}, expected {2 * n}"
        )
    if any(b not in (0, 1) for b in assign):
        raise SoundnessError("assignment entries must be bits")
    values = []
    parity = 0
    for i in range(n):
        parity ^= assign[2 * i]
        bit = assign[2 * i + 1]
        values.append(bit if parity == 0 else -bit)
        parity ^= bit
    result = tuple(values)
    if signed_sum(inst.coefficients, result) != inst.target:
        raise SoundnessError("pulled-back values do not hit the original target")
    return result


def tssp_to_conjugacy(inst: TsspInstance) -> ConjugacyInstance:
    """Encode TSSP({k_1..k_n}, M) as a conjugacy question in G(n).

    u carries k_i on the odd generator g_{2i+1}; v is u with g_1 exponent
    -M.  Conjugating u by g_2^{x_1} g_4^{x_2} ... g_{2n}^{x_n} multiplies in
    g_1^(-twisted_sum(k, x)), so u ~ v exactly when the instance is solvable.
    """
    n = inst.n
    ctx = make_context(n)
    u = [0] * ctx.hirsch
    for i, k in enumerate(inst.coefficients, start=1):
        u[2 * i] = k
    v = list(u)
    v[0] = -inst.target
    return ConjugacyInstance(ctx=ctx, u=tuple(u), v=tuple(v))


def assignment_to_conjugator(ctx: GroupContext, assign: Sequence[int]) -> GroupElement:
    """Element g_2^{x_1} g_4^{x_2} ... g_{2n}^{x_n} for an assignment x."""
    if len(assign) != ctx.n:
        raise InvalidParameterError(
            f"assignment has length {len(assign)}, expected {ctx.n}"
        )
    w = [0] * ctx.hirsch
    w[1::2] = map(_integer, assign)
    return tuple(w)


def conjugator_to_assignment(ctx: GroupContext, w: GroupElement) -> Assignment:
    """Drop odd-generator syllables and reduce even exponents mod 2."""
    return tuple(k & 1 for k in _check(ctx, w)[1::2])


def pullback_conjugacy_to_tssp(inst: TsspInstance, w: GroupElement) -> Assignment:
    """Recover an assignment from a conjugator of tssp_to_conjugacy(inst)."""
    ctx = make_context(inst.n)
    if len(w) != ctx.hirsch:
        raise SoundnessError(
            f"conjugator has {len(w)} exponents, expected {ctx.hirsch} (G({ctx.n}))"
        )
    assign = conjugator_to_assignment(ctx, w)
    if twisted_sum(inst.coefficients, assign) != inst.target:
        raise SoundnessError("pulled-back assignment does not hit the original target")
    return assign


CHAIN = ("ssp", "sspp", "tssp", "conj")
# HOPS[i] maps CHAIN[i] to CHAIN[i + 1]: the names of its forward map and of
# its pullback(source instance, witness of the image).  Callers look them up
# on this module at call time, so a function replaced here is the one called.
HOPS = (
    ("ssp_to_sspprime", "pullback_sspprime_to_ssp"),
    ("sspprime_to_tssp", "pullback_tssp_to_sspprime"),
    ("tssp_to_conjugacy", "pullback_conjugacy_to_tssp"),
)


def ssp_search_via_decision(
    decider: Callable[[SspInstance], bool], inst: SspInstance
) -> SspSubset:
    """Turn a solvability oracle into a witness search with < n oracle calls.

    The instance is promised solvable.  Working from the last coefficient,
    ask whether a solution exists without it; if yes drop it, otherwise take
    it and shrink the target.  The final coefficient needs no oracle call.
    """
    coeffs = inst.coefficients
    n = len(coeffs)
    bits = [0] * n
    remaining = inst.target
    for i in range(n - 1, 0, -1):
        head = SspInstance(coefficients=coeffs[:i], target=remaining)
        if decider(head):
            bits[i] = 0
        else:
            bits[i] = 1
            remaining -= coeffs[i]
    if remaining == 0:
        bits[0] = 0
    elif remaining == coeffs[0]:
        bits[0] = 1
    else:
        raise InvalidPromiseError(
            "no subset hits the target: the instance was not solvable "
            "(or the decision oracle lied)"
        )
    result = tuple(bits)
    if subset_sum(coeffs, result) != inst.target:
        raise SoundnessError("search-from-decision produced a non-solving subset")
    return result
