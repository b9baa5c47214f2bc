"""Conjugacy decision, search, and certificate verification in G(n).

Conjugation never changes coordinates >= 2, so a pair (u, v) can only be
conjugate when those coordinates already agree.  Given that, two regimes
remain:

* some even coordinate of u is odd: every g_1 exponent is reachable, and a
  single syllable of the odd generator just above that coordinate is an
  explicit conjugator (the fast path);
* every even coordinate is even: only products of even-indexed generators
  matter, each used with exponent 0 or 1.  Stage by stage from g_{2n} down
  to g_2, generator g_j maps a g_1 exponent s to s (skipped) or to
  -(s + e_{j+1}) (used), starting from e_1.

``reachable_g1_values`` returns that sweep's stages, those of the shared
kernel's ``_sweep.sweep``, one per generator g_{2n} .. g_2; it is the
exhaustive reference.  ``decide_conjugate`` and ``search_conjugator`` share
one dispatch, ``_conjugator``, which sorts (u, v) into a regime and only
asks whether one value, v's g_1 exponent f_1, is reached: it meets in the
middle with ``_sweep.meet``, forward from e_1 over the first half of the
stages, backward from f_1 over the rest (both branches are their own
inverses), each stage a set or a dense row.  The back-trace takes the
lowest branch at every stage, so the certificate is the very one the full
sweep would trace, at about the square root of its states.

The same sweep solves TSSP, since ``tssp_to_conjugacy`` makes these g_1
exponents the negated twisted sums.  Search re-verifies every certificate
before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _sweep
from .errors import NotAllEvenError, SoundnessError
from .group import GroupContext, GroupElement, _check, _integer, conjugate
from .reductions import assignment_to_conjugator

# Sweep branches (sign, weight): s -> s skips g_j, s -> -e - s uses it.
_BRANCHES = ((1, 0), (-1, -1))


@dataclass(frozen=True)
class Certificate:
    """A claimed conjugator w, convention w * u * w^{-1} = v."""

    w: GroupElement


def reachable_g1_values(
    ctx: GroupContext, u: GroupElement, max_states: int = _sweep.MAX_STATES
) -> list[_sweep.Stage]:
    """All g_1 exponents attainable by conjugating u with bit-exponent
    products of even-indexed generators: the sweep's stages, g_{2n} first,
    each mapping a value to (predecessor, bit); the last stage's keys are
    the exponents.

    Requires every even coordinate of u to be even; otherwise the bit
    restriction is not exhaustive and the fast path applies instead.
    """
    _sweep._require_positive_cap(max_states)
    _check(ctx, u)
    if any(u[t] & 1 for t in range(1, ctx.hirsch, 2)):
        raise NotAllEvenError(
            "reachability sweep needs all even coordinates of u to be even"
        )
    return _sweep.sweep(u[0], u[:0:-2], _BRANCHES, max_states)


def _conjugator(
    ctx: GroupContext, u: GroupElement, v: GroupElement, max_states: int
) -> GroupElement | None:
    """An unverified w with w * u * w^{-1} = v, or None when there is none."""
    _sweep._require_positive_cap(max_states)
    u, v = _check(ctx, u), _check(ctx, v)
    if u[1:] != v[1:]:
        return None
    # the fast path: one syllable of the smallest odd generator g_l whose
    # lower even neighbour g_{l-1} carries an odd exponent
    for l in range(3, ctx.hirsch + 1, 2):
        if u[l - 2] & 1:
            w = [0] * ctx.hirsch
            w[l - 1] = v[0] - u[0]
            return tuple(w)
    # the stages, u[2n], u[2n-2], .., u[2], run from g_{2n} down to g_2
    choices = _sweep.meet(u[0], v[0], u[:0:-2], _BRANCHES, max_states)
    if choices is None:
        return None
    return assignment_to_conjugator(ctx, choices[::-1])


def decide_conjugate(
    ctx: GroupContext, u: GroupElement, v: GroupElement, max_states: int = _sweep.MAX_STATES
) -> bool:
    """Whether some w in G(n) satisfies w * u * w^{-1} = v."""
    return _conjugator(ctx, u, v, max_states) is not None


def search_conjugator(
    ctx: GroupContext, u: GroupElement, v: GroupElement, max_states: int = _sweep.MAX_STATES
) -> Certificate | None:
    """An explicit conjugator, or None exactly when decide_conjugate says no.

    Certificates are re-verified before being returned, and stay short: one
    syllable whose exponent is bounded by |f_1| + |e_1|, or a 0/1 vector on
    the even generators.
    """
    w = _conjugator(ctx, u, v, max_states)
    if w is None:
        return None
    if conjugate(ctx, w, u) != tuple(v):
        raise SoundnessError("search produced a certificate that fails verification")
    return Certificate(w=w)


def verify_certificate(
    ctx: GroupContext, u: GroupElement, v: GroupElement, cert: Certificate
) -> bool:
    """True exactly when cert.w conjugates u onto v; an entry of w that is
    not an integer is refused."""
    w = cert.w if {int}.issuperset(map(type, cert.w)) else tuple(map(_integer, cert.w))
    return conjugate(ctx, w, u) == _check(ctx, v)
