"""Seeded random instance generation.

Generation is deterministic: a fixed GenSpec always yields the same
instance.  Draws come from ``random.Random(seed)`` in a fixed order per
kind (coefficients in index order, then whatever the target or partner
element needs), so the output is reproducible from the GenSpec alone.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .errors import InvalidParameterError
from .formats import KINDS
from .group import conjugate, make_context
from .reductions import CHAIN, ConjugacyInstance
from .tssp import _row_sum

GENERATABLE_KINDS = CHAIN


@dataclass(frozen=True)
class GenSpec:
    """What to generate: problem kind, size, coefficient bound, seed, and
    whether the target must be realizable (solvable bias)."""

    kind: str
    n: int
    bound: int
    seed: int
    solvable: bool = False

    def __post_init__(self):
        if self.kind not in GENERATABLE_KINDS:
            raise InvalidParameterError(
                f"cannot generate kind {self.kind!r}; expected one of {GENERATABLE_KINDS}"
            )
        if self.n < 1:
            raise InvalidParameterError(f"n must be >= 1, got {self.n}")
        if self.bound < 1:
            raise InvalidParameterError(f"bound must be >= 1, got {self.bound}")
        if not 0 <= self.seed < 2**64:
            raise InvalidParameterError("seed must fit in 64 unsigned bits")


def generate(spec: GenSpec):
    """Instance for ``spec``; with solvable bias the target is the image of a
    random witness, so the instance is solvable by construction."""
    rng = random.Random(spec.seed)
    n, bound = spec.n, spec.bound

    if spec.kind == "conj":
        ctx = make_context(n)
        u = tuple(rng.randint(-bound, bound) for _ in range(ctx.hirsch))
        if spec.solvable:
            w = tuple(rng.randint(-bound, bound) for _ in range(ctx.hirsch))
            return ConjugacyInstance(ctx=ctx, u=u, v=conjugate(ctx, w, u))
        v = list(u)
        v[0] = rng.randint(-bound * (n + 1), bound * (n + 1))
        return ConjugacyInstance(ctx=ctx, u=u, v=tuple(v))

    # the instance class's ALPHABET gives the values a solvable-bias witness
    # entry is drawn between and the sum it reaches
    cls = KINDS[spec.kind]
    coeffs = tuple(rng.randint(-bound, bound) for _ in range(n))
    if spec.solvable:
        values = [row[0] for row in cls.ALPHABET]
        witness = tuple(rng.randint(min(values), max(values)) for _ in range(n))
        target = _row_sum(cls.ALPHABET, coeffs, witness)
    else:
        target = _unbiased_target(rng, coeffs)
    return cls(coefficients=coeffs, target=target)


def _unbiased_target(rng: random.Random, coeffs) -> int:
    reach = sum(abs(k) for k in coeffs)
    return rng.randint(-reach, reach) if reach else 0
