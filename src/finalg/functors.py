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
from dataclasses import dataclass, field
from types import MappingProxyType

from .core import FinMap, FinSet
from .errors import ValidationError


@dataclass(frozen=True)
class Signature:
    """Operation symbols with finite arities; names must be distinct.
    ``index`` maps each name, read-only, to its position and its arity."""

    ops: tuple[tuple[str, int], ...]
    index: MappingProxyType = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        canon = tuple((str(name), int(arity)) for name, arity in self.ops)
        index = {name: (i, arity) for i, (name, arity) in enumerate(canon)}
        if len(index) != len(canon):
            raise ValidationError("duplicate operation name")
        for name, arity in canon:
            if arity < 0:
                raise ValidationError(f"negative arity for {name}")
        object.__setattr__(self, "ops", canon)
        object.__setattr__(self, "index", MappingProxyType(index))

    def arity(self, name: str) -> int:
        try:
            return self.index[name][1]
        except KeyError:
            raise ValidationError(f"unknown operation {name!r}") from None

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __contains__(self, name) -> bool:
        return name in self.index


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
