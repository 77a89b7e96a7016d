"""Signatures and their signature functors X ↦ ∐_σ X^{ar(σ)}; a
``Signature`` presents its functor, which ``apply_obj`` and ``apply_map``
apply to finite sets and maps.

A domain functor ∐ᵢ hom(kᵢ, -) is the signature functor of
``monadic.domain_signature``.  With finite arities a signature functor
preserves colimits of countable chains, since a k-tuple from a chain's
colimit lies in one stage; so the free-algebra chain needs no check of
the paper's accessibility assumption.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import FinMap, FinSet
from .errors import ValidationError


@dataclass(frozen=True)
class Signature:
    """Operation symbols with finite arities; names must be distinct."""

    ops: tuple[tuple[str, int], ...]

    def __post_init__(self):
        canon = tuple((str(name), int(arity)) for name, arity in self.ops)
        names = [name for name, _ in canon]
        if len(set(names)) != len(names):
            raise ValidationError("duplicate operation name")
        for name, arity in canon:
            if arity < 0:
                raise ValidationError(f"negative arity for {name}")
        object.__setattr__(self, "ops", canon)

    def arity(self, name: str) -> int:
        for op, k in self.ops:
            if op == name:
                return k
        raise ValidationError(f"unknown operation {name!r}")

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __contains__(self, name) -> bool:
        return any(op == name for op, _ in self.ops)


def apply_obj(sig: Signature, x: FinSet) -> FinSet:
    """The signature functor on a finite set, with atoms ``(name, args)``."""
    atoms = []
    for name, arity in sig:
        for args in itertools.product(x.elements, repeat=arity):
            atoms.append((name, args))
    return FinSet(tuple(atoms))


def apply_map(sig: Signature, h: FinMap) -> FinMap:
    """The signature functor on a map: each argument is sent along ``h``."""
    dom = apply_obj(sig, h.dom)
    table = {(name, args): (name, tuple(h.table[a] for a in args)) for (name, args) in dom}
    return FinMap(dom, apply_obj(sig, h.cod), table)
