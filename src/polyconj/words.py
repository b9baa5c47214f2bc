"""Naive symbolic collection of generator words: the slow referee.

A word is a tuple of letters ``(index, sign)`` with sign +1 or -1.  ``collect``
sorts the letters into normal form by rewriting one adjacent out-of-order
pair at a time, using only the defining relations of G(n) and their
inverse-letter variants:

    g_j^e g_1^d      -> g_1^{-d} g_j^e            (j even; both signs of e, d)
    g_{j+1}^e g_j^d  -> g_1^{e} g_j^d g_{j+1}^e   (j even; both signs of e, d)
    anything else    -> plain swap

The second family's g_1 exponent is ``e * (d mod 2)`` with d mod 2 taken in
{0,1}; for single letters d is +-1, so it reduces to g_1^e for either sign
of d.  Rewriting terminates: a swap either removes an inversion between
letters of index >= 2 or moves a g_1 letter strictly left.

The rule system is confluent only for n = 1, where the rules present a
genuine group.  For n >= 2 they do not (see :mod:`polyconj.group`), so the
rewriting order matters: the canonical strategy is leftmost-first, which
reproduces syllable-at-a-time folding with ``group.multiply`` exactly; the
rightmost-first strategy is provided so tests can exhibit where the two
orders part ways.

This module is deliberately unary and slow; it exists to referee the
closed-form arithmetic in :mod:`polyconj.group`.
"""

from __future__ import annotations

from .errors import InvalidParameterError, OracleTooLargeError
from .group import GroupContext, GroupElement, _check

Letter = tuple[int, int]
Word = tuple[Letter, ...]


def _check_word(ctx: GroupContext, word) -> list[Letter]:
    letters = []
    for pos, item in enumerate(word):
        try:
            index, sign = item
        except (TypeError, ValueError):
            raise InvalidParameterError(f"letter {pos} is not an (index, sign) pair: {item!r}")
        if not 1 <= index <= ctx.hirsch:
            raise InvalidParameterError(
                f"letter {pos} has generator index {index!r}, expected 1..{ctx.hirsch}"
            )
        if sign not in (1, -1):
            raise InvalidParameterError(f"letter {pos} has sign {sign!r}, expected +1 or -1")
        letters.append((index, sign))
    return letters


def _rewrite_pair(left: Letter, right: Letter) -> list[Letter]:
    """Replacement for an adjacent pair with left index > right index."""
    a, ea = left
    b, eb = right
    if b == 1:
        if a % 2 == 0:
            return [(1, -eb), (a, ea)]
        return [(1, eb), (a, ea)]
    if a == b + 1 and b % 2 == 0:
        return [(1, ea), (b, eb), (a, ea)]
    return [(b, eb), (a, ea)]


def collect(ctx: GroupContext, word, strategy: str = "leftmost") -> GroupElement:
    """Collect ``word`` to an exponent vector, one adjacent rewrite at a time.

    ``strategy`` picks which out-of-order adjacent pair is rewritten first.
    "leftmost" is the canonical order (it matches ``group.multiply``
    folding); "rightmost" agrees with it exactly when the rules are
    confluent, which holds for n = 1 but not in general.
    """
    letters = _check_word(ctx, word)
    if strategy == "leftmost":
        pos = 0
        while pos < len(letters) - 1:
            if letters[pos][0] > letters[pos + 1][0]:
                letters[pos : pos + 2] = _rewrite_pair(letters[pos], letters[pos + 1])
                pos = max(pos - 1, 0)
            else:
                pos += 1
    elif strategy == "rightmost":
        while True:
            target = -1
            for pos in range(len(letters) - 2, -1, -1):
                if letters[pos][0] > letters[pos + 1][0]:
                    target = pos
                    break
            if target < 0:
                break
            letters[target : target + 2] = _rewrite_pair(letters[target], letters[target + 1])
    else:
        raise InvalidParameterError(f"unknown strategy {strategy!r}")

    vec = [0] * ctx.hirsch
    for index, sign in letters:
        vec[index - 1] += sign
    return tuple(vec)


def element_to_word(ctx: GroupContext, a: GroupElement, max_letters: int = 10_000) -> Word:
    """Unary expansion of a normal form: |k_i| letters per syllable."""
    _check(ctx, a)
    total = sum(abs(k) for k in a)
    if total > max_letters:
        raise OracleTooLargeError(
            f"expansion needs {total} letters, above the cap of {max_letters}"
        )
    letters = []
    for idx, k in enumerate(a, start=1):
        sign = 1 if k > 0 else -1
        letters.extend([(idx, sign)] * abs(k))
    return tuple(letters)


def inverse_word(word: Word) -> Word:
    """The free inverse: reversed letters with flipped signs."""
    return tuple((index, -sign) for index, sign in reversed(word))
