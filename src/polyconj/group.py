"""Exact exponent-vector arithmetic for the normal-form calculus G(n).

G(n) has generators g_1, ..., g_{2n+1} and elements written as normal forms
g_1^{k_1} g_2^{k_2} ... g_{2n+1}^{k_{2n+1}}, stored as the plain tuple
``(k_1, ..., k_{2n+1})`` of Python ints so all arithmetic is exact at any
magnitude.  Crossings of adjacent syllables follow two rule families (every
other pair of generators is treated as commuting):

    g_j g_1   = g_1^{-1} g_j          for j even
    g_{j+1} g_j = g_1 g_j g_{j+1}     for j even

which extend to powers as

    g_j^a g_1^b     = g_1^{b(-1)^a} g_j^a
    g_{j+1}^a g_j^b = g_1^{a(b mod 2)} g_j^b g_{j+1}^a      (b mod 2 in {0,1}).

A caution that shapes this whole module: for n >= 2 these rules are
inconsistent as group relations.  g_4 is declared to commute with g_2 and
g_3, hence with g_1 = g_3 g_2 g_3^{-1} g_2^{-1}, yet it is also declared to
invert g_1; a genuine group would collapse to g_1^2 = 1.  (For n = 1 the
rules do present a torsion-free group and every group law holds.)  The
operations below therefore implement a fixed deterministic collection
convention, resolving crossings in a documented order, rather than
arithmetic in an actual group:

* ``multiply`` folds the right factor's syllables in left to right order,
  which coincides exactly with letter-level leftmost-first collection;
* ``inverse`` gives the exact left inverse (inverse(a) * a is the identity;
  the opposite product can differ once n >= 2);
* ``conjugate`` applies the per-syllable conjugation closed forms from the
  innermost syllable outward, which is the operation the twisted-sum
  machinery in the rest of the package is built on; it preserves every
  coordinate >= 2, agrees with w*u*w^{-1} via multiply/inverse whenever w
  is a single syllable, and for any w equals the leftmost-first collection
  of the letter word w . u . w^{-1} (with w^{-1} spelled as the reversed,
  negated letters).

Each operation costs O(h) integer operations, h = 2n + 1: the sign of a
crossing is the parity of the even exponents to its left, which ``multiply``
carries as a running parity, ``inverse`` needs only once (every earlier
step sees zero lower exponents) and ``conjugate`` carries as a running
parity of u's exponents from the top down, since no syllable changes a
coordinate >= 2.

Identities that need associativity across rule-crossing products (for
example (a*b)*c = a*(b*c) for arbitrary elements) can fail for n >= 2; the
test suite pins both the laws that hold and witnesses for those that do
not.  All functions are pure; contexts and elements are immutable.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .errors import InvalidElementError, InvalidParameterError

GroupElement = tuple[int, ...]


@dataclass(frozen=True)
class GroupContext:
    """Fixes the group G(n); ``hirsch`` = 2n+1, derived from n, is the
    generator count and the length of every element."""

    n: int
    hirsch: int = field(init=False)

    def __post_init__(self):
        n = self.n
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise InvalidParameterError(f"group parameter n must be a positive integer, got {n!r}")
        object.__setattr__(self, "hirsch", 2 * n + 1)


def make_context(n: int) -> GroupContext:
    """Context for G(n) with generators g_1 .. g_{2n+1}."""
    return GroupContext(n)


def identity(ctx: GroupContext) -> GroupElement:
    return (0,) * ctx.hirsch


def _integer(x) -> int:
    """``x`` as a plain int; a float or other non-integer is refused, not truncated."""
    try:
        return int(operator.index(x))
    except TypeError:
        raise InvalidParameterError(f"expected an integer, got {x!r}") from None


def make_element(ctx: GroupContext, exponents: Iterable[int]) -> GroupElement:
    """Validate and canonicalize an exponent sequence for ``ctx``."""
    return _check(ctx, tuple(_integer(k) for k in exponents))


def _check(ctx: GroupContext, a: Sequence[int]) -> GroupElement:
    """``a`` as a tuple (an exact tuple as it is), once its length is
    checked against ``ctx``: the one length test of every element."""
    if len(a) != ctx.hirsch:
        raise InvalidElementError(
            f"element of length {len(a)} does not belong to G({ctx.n}) "
            f"(expected {ctx.hirsch} exponents)"
        )
    return tuple(a)


def multiply(ctx: GroupContext, a: GroupElement, b: GroupElement) -> GroupElement:
    """Normal form of the product a * b.

    b's syllables g_i^c are appended left to right.  Moving g_i^c left to
    its slot crosses only two kinds of obstruction: even-indexed syllables
    flip the sign of a passing g_1 power, and g_i^c with i even spawns
    g_1^{(c mod 2) * k_{i+1}} when it hops over g_{i+1}^{k_{i+1}}.  The sign
    is the parity of the even exponents up to g_i, which a running parity
    of the syllables already appended carries from one step to the next, so
    the product costs O(h) integer operations.
    """
    _check(ctx, a)
    _check(ctx, b)
    h = ctx.hirsch
    e = list(a)
    if b[0]:
        e[0] += -b[0] if sum(e[1::2]) & 1 else b[0]
    parity = 0  # of the even exponents already appended, below g_{idx+1}
    for idx in range(1, h, 2):  # g_{idx+1} even, then g_{idx+2} odd
        c = b[idx]
        t = e[idx + 1]  # exponent of g_{idx+2}, still untouched at this point
        if c & 1 and t:
            e[0] += -t if parity ^ (e[idx] & 1) else t
        e[idx] += c
        parity ^= e[idx] & 1
        e[idx + 1] += b[idx + 1]
    return tuple(e)


def inverse(ctx: GroupContext, a: GroupElement) -> GroupElement:
    """Left inverse: multiply(ctx, inverse(ctx, a), a) is always the identity.

    Collected from the reversed, negated syllables.  Each even syllable
    g_i^{-k_i} is appended while every exponent below it is still 0, so the
    g_1 power it spawns over g_{i+1}^{-k_{i+1}} keeps its sign; only the
    final g_1 step needs the parity of all even exponents.  For n = 1 (a
    genuine group) it is two-sided; for n >= 2 the right-hand product can
    differ.
    """
    _check(ctx, a)
    h = ctx.hirsch
    g1 = -sum(a[idx + 1] for idx in range(1, h, 2) if a[idx] & 1)
    g1 += a[0] if sum(a[1::2]) & 1 else -a[0]
    return (g1,) + tuple(-k for k in a[1:])


def conjugate_by_syllable(ctx: GroupContext, i: int, k: int, u: GroupElement) -> GroupElement:
    """Normal form of g_i^k * u * g_i^{-k}; coordinates >= 2 are preserved."""
    if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= ctx.hirsch:
        raise InvalidParameterError(
            f"generator index {i!r} out of range 1..{ctx.hirsch}"
        )
    w = [0] * ctx.hirsch
    w[i - 1] = _integer(k)
    return conjugate(ctx, w, u)


def conjugate(ctx: GroupContext, w: GroupElement, u: GroupElement) -> GroupElement:
    """Conjugation of u by w: the per-syllable closed forms applied for w's
    syllables from the innermost conjugation outward (g_{2n+1} first, g_1
    last).

    Conjugating e by g_i^k changes only the g_1 exponent e_1:

    * i even: e_1 becomes e_1(-1)^k + e_{i+1}(k mod 2)(-1)^(k_2+...+k_i+k).
    * i odd > 1: e_1 gains k(e_{i-1} mod 2)(-1)^(k_2+...+k_{i-3}).
    * i == 1: the returning g_1^{-k} picks up sign (-1)^(sum of even
      exponents), so e_1 gains k(1 - (-1)^sigma), i.e. 2k when sigma is odd.

    This is the canonical conjugation operation of the calculus: it
    preserves all coordinates >= 2, satisfies the twisted-sum identity the
    subset-sum reduction relies on, and costs time polynomial in the
    exponent bit-lengths.  Since no syllable changes a coordinate >= 2, one
    loop from g_{2n+1} down applies every syllable to u's g_1 exponent,
    carrying the parity of u's even exponents below it, so the conjugation
    costs O(h) integer operations.
    """
    _check(ctx, w)
    _check(ctx, u)
    e1 = u[0]
    # parity of all of u's even exponents; p: of those up to g_{idx+1}
    sigma = p = sum(u[1::2]) & 1
    for idx in range(ctx.hirsch - 1, 0, -1):  # g_{idx+1}^k
        k = w[idx]
        if idx % 2:  # i = idx + 1 even: an even k leaves e_1 as it is
            if k & 1:
                t = u[idx + 1]
                e1 = (t if p else -t) - e1
            p ^= u[idx] & 1
        elif k and u[idx - 1] & 1:  # i = idx + 1 odd > 1
            e1 += k if p else -k
    if w[0] and sigma:
        e1 += 2 * w[0]
    return (e1, *u[1:])


def bit_length(ctx: GroupContext, a: GroupElement) -> int:
    """Storage measure of an element: per entry, binary digits of |k| plus a
    sign bit, counting the entry 0 as one digit."""
    _check(ctx, a)
    return sum((abs(k).bit_length() or 1) + 1 for k in a)
