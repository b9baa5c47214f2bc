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

``reachable_g1_values`` runs that sweep in full with the shared kernel of
:mod:`polyconj._sweep` and keeps every stage; it is the exhaustive
reference.  ``decide_conjugate`` and ``search_conjugator`` only ask whether
one value, v's g_1 exponent f_1, is reached, so they meet in the middle
with ``_sweep.meet``: forward from e_1 over the first half of the stages,
backward from f_1 over the rest (both branches are their own inverses),
each stage a set or a dense row.  A path pass keeps the values on a way
from e_1 to f_1, and the back-trace over them takes the lowest branch at
every stage, so the certificate is the very one the full sweep would
trace, at about the square root of its states.

The same sweep solves TSSP, since ``tssp_to_conjugacy`` makes these g_1
exponents the negated twisted sums.  Every certificate is re-verified
before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import _sweep
from .errors import NotAllEvenError, SoundnessError
from .group import GroupContext, GroupElement, _check, conjugate
from .reductions import assignment_to_conjugator

# Sweep branches (sign, weight): s -> s skips g_j, s -> -e - s uses it.
_BRANCHES = ((1, 0), (-1, -1))


@dataclass(frozen=True)
class Certificate:
    """A claimed conjugator w, convention w * u * w^{-1} = v."""

    w: GroupElement


@dataclass(frozen=True)
class ReachableStage:
    """One sweep step: generator index used, the odd exponent it drags in,
    and value -> (predecessor value, bit) for every value reachable so far."""

    generator_index: int
    addend: int
    table: dict[int, tuple[int, int]]


@dataclass(frozen=True)
class ReachableSet:
    """Reachable g_1 exponents, stage by stage from g_{2n} down to g_2."""

    start: int
    stages: tuple[ReachableStage, ...]

    def final_values(self) -> frozenset[int]:
        return frozenset(self.stages[-1].table)


def _all_evens_even(ctx: GroupContext, u: GroupElement) -> bool:
    return not any(u[t] & 1 for t in range(1, ctx.hirsch, 2))


def _stage_indices(ctx: GroupContext) -> range:
    """The sweep's generators g_j, j = 2n down to 2; g_j drags in e_{j+1} = u[j]."""
    return range(2 * ctx.n, 0, -2)


def _meet(ctx: GroupContext, u: GroupElement, v: GroupElement, max_states: int):
    """Bits on g_{2n} .. g_2 (stage order) that take e_1 to f_1, or None."""
    addends = [u[j] for j in _stage_indices(ctx)]
    return _sweep.meet(u[0], v[0], addends, _BRANCHES, max_states)


def reachable_g1_values(
    ctx: GroupContext, u: GroupElement, max_states: int = 10**7
) -> ReachableSet:
    """All g_1 exponents attainable by conjugating u with bit-exponent
    products of even-indexed generators (innermost generator first).

    Requires every even coordinate of u to be even; otherwise the bit
    restriction is not exhaustive and the fast path applies instead.
    """
    _sweep._require_positive_cap(max_states)
    _check(ctx, u)
    if not _all_evens_even(ctx, u):
        raise NotAllEvenError(
            "reachability sweep needs all even coordinates of u to be even"
        )
    indices = _stage_indices(ctx)
    tables = _sweep.sweep(u[0], [u[j] for j in indices], _BRANCHES, max_states)
    stages = [
        ReachableStage(generator_index=j, addend=u[j], table=table)
        for j, table in zip(indices, tables)
    ]
    return ReachableSet(start=u[0], stages=tuple(stages))


def decide_conjugate(
    ctx: GroupContext, u: GroupElement, v: GroupElement, max_states: int = 10**7
) -> bool:
    """Whether some w in G(n) satisfies w * u * w^{-1} = v."""
    _sweep._require_positive_cap(max_states)
    u, v = _check(ctx, u), _check(ctx, v)
    if u[1:] != v[1:]:
        return False
    if not _all_evens_even(ctx, u):
        return True
    return _meet(ctx, u, v, max_states) is not None


def _fast_path_certificate(ctx: GroupContext, u: GroupElement, v: GroupElement) -> Certificate:
    """Single-syllable conjugator using the smallest odd generator whose
    lower even neighbour carries an odd exponent."""
    for l in range(3, ctx.hirsch + 1, 2):
        if u[l - 2] & 1:
            w = [0] * ctx.hirsch
            w[l - 1] = v[0] - u[0]
            return Certificate(w=tuple(w))
    raise AssertionError("fast path called without an odd even-coordinate")


def search_conjugator(
    ctx: GroupContext, u: GroupElement, v: GroupElement, max_states: int = 10**7
) -> Certificate | None:
    """An explicit conjugator, or None exactly when decide_conjugate says no.

    Certificates are re-verified before being returned, and stay short: one
    syllable whose exponent is bounded by |f_1| + |e_1|, or a 0/1 vector on
    the even generators.
    """
    _sweep._require_positive_cap(max_states)
    u, v = _check(ctx, u), _check(ctx, v)
    if u[1:] != v[1:]:
        return None
    if not _all_evens_even(ctx, u):
        cert = _fast_path_certificate(ctx, u, v)
        return _verified(ctx, u, v, cert)

    choices = _meet(ctx, u, v, max_states)
    if choices is None:
        return None
    assignment = choices[::-1]  # the stages run from g_{2n} down to g_2
    cert = Certificate(w=assignment_to_conjugator(ctx, assignment))
    return _verified(ctx, u, v, cert)


def _verified(ctx: GroupContext, u, v, cert: Certificate) -> Certificate:
    if conjugate(ctx, cert.w, u) != v:
        raise SoundnessError("search produced a certificate that fails verification")
    return cert


def verify_certificate(
    ctx: GroupContext, u: GroupElement, v: GroupElement, cert: Certificate
) -> bool:
    """True exactly when cert.w conjugates u onto v."""
    u, v = _check(ctx, u), _check(ctx, v)
    _check(ctx, cert.w)
    return conjugate(ctx, cert.w, u) == v
