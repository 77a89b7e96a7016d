"""Signatures and polynomial set-functor expressions.

A :class:`Signature` lists finitary operation symbols.  A
:class:`FunctorExpr` describes an endofunctor on finite sets built from
the identity, constants, signature functors, finite coproducts,
composition, representables ``hom(k, -)``, and finite copowers.

Every functor expressible in this grammar is finitary: it preserves
colimits of countable chains, which is what the free-algebra chain
machinery relies on (the paper's accessibility assumption).  The
identity and constants preserve all such colimits; a signature functor
with finite arities and a representable ``hom(k, -)`` with finite ``k``
preserve them because a k-tuple from a chain's colimit already lies in
one stage; finite coproducts and finite copowers of such functors
preserve them because colimits commute with colimits; and composites of
such functors preserve them.  So no expression needs to be checked.
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


class FunctorExpr:
    """Base class for functor expressions."""

    __slots__ = ()


@dataclass(frozen=True)
class IdF(FunctorExpr):
    pass


@dataclass(frozen=True)
class ConstF(FunctorExpr):
    value: FinSet


@dataclass(frozen=True)
class SigF(FunctorExpr):
    """X ↦ ∐_σ X^{ar(σ)}, with atoms ``(name, args)``."""

    sig: Signature


@dataclass(frozen=True)
class SumF(FunctorExpr):
    parts: tuple[FunctorExpr, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))


@dataclass(frozen=True)
class CompF(FunctorExpr):
    outer: FunctorExpr
    inner: FunctorExpr


@dataclass(frozen=True)
class ReprF(FunctorExpr):
    """The representable hom(k, -): X ↦ X^k, with atoms the k-tuples."""

    power: int

    def __post_init__(self):
        if self.power < 0:
            raise ValidationError("negative representable power")


@dataclass(frozen=True)
class CopowerF(FunctorExpr):
    """Finitely many tagged copies of another functor: X ↦ count · of(X)."""

    count: int
    of: FunctorExpr

    def __post_init__(self):
        if self.count < 0:
            raise ValidationError("negative copower count")


def apply_obj(f: FunctorExpr, x: FinSet) -> FinSet:
    """Apply a functor expression to a finite set."""
    match f:
        case IdF():
            return x
        case ConstF(value):
            return value
        case SigF(sig):
            atoms = []
            for name, arity in sig:
                for args in itertools.product(x.elements, repeat=arity):
                    atoms.append((name, args))
            return FinSet(tuple(atoms))
        case SumF(parts):
            atoms = []
            for i, part in enumerate(parts):
                atoms.extend((i, a) for a in apply_obj(part, x))
            return FinSet(tuple(atoms))
        case CompF(outer, inner):
            return apply_obj(outer, apply_obj(inner, x))
        case ReprF(power):
            return FinSet(tuple(itertools.product(x.elements, repeat=power)))
        case CopowerF(count, of):
            inner_set = apply_obj(of, x)
            return FinSet(tuple((j, a) for j in range(count) for a in inner_set))
        case _:
            raise ValidationError(f"not a functor expression: {f!r}")


def apply_map(f: FunctorExpr, h: FinMap) -> FinMap:
    """Apply a functor expression to a map (the functor's action on morphisms)."""
    dom = apply_obj(f, h.dom)
    cod = apply_obj(f, h.cod)
    match f:
        case IdF():
            return h
        case ConstF(value):
            return FinMap.identity(value)
        case SigF(_):
            table = {
                (name, args): (name, tuple(h.table[a] for a in args))
                for (name, args) in dom
            }
            return FinMap(dom, cod, table)
        case SumF(parts):
            table = {}
            for i, part in enumerate(parts):
                inner = apply_map(part, h)
                for a, b in inner.table.items():
                    table[(i, a)] = (i, b)
            return FinMap(dom, cod, table)
        case CompF(outer, inner):
            return apply_map(outer, apply_map(inner, h))
        case ReprF(_):
            table = {args: tuple(h.table[a] for a in args) for args in dom}
            return FinMap(dom, cod, table)
        case CopowerF(count, of):
            inner = apply_map(of, h)
            table = {}
            for j in range(count):
                for a, b in inner.table.items():
                    table[(j, a)] = (j, b)
            return FinMap(dom, cod, table)
        case _:
            raise ValidationError(f"not a functor expression: {f!r}")
