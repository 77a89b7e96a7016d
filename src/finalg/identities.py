"""Natural terms and identities in Yoneda form.

A natural term with domain ∐ᵢ hom(kᵢ, -) and target stage n is, by the
Yoneda correspondence, one term of height ≤ n per component, written
over canonical variables v1..vkᵢ.  A natural identity is a pair of
natural terms with a common domain; an algebra satisfies it when both
sides evaluate equally under every assignment of the canonical
variables into the carrier.  Each component compiles once, in
``NaturalTerm.compiled``, into a fold on carrier positions through an
algebra's flat tables (``algebras.compile_term``), one for every carrier
size.  ``satisfies`` runs an identity's compiled sides over the position
assignments in ``itertools.product`` order and stops at the first
failure; ``violation`` reports that failure, with its assignment mapped
back to carrier elements.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Iterable, Optional

from .algebras import (
    Compiled,
    FinAlgebra,
    _orbit_representatives,
    compile_term,
    count_algebras,
)
from .core import FinSet
from .errors import ValidationError
from .functors import Signature
from .terms import Term, check_term, relabel, variables


def canonical_vars(k: int) -> tuple[str, ...]:
    """The canonical variable names v1..vk, in index order."""
    return tuple(f"v{i + 1}" for i in range(k))


@dataclass(frozen=True)
class NaturalTerm:
    """A natural transformation ∐ᵢ hom(kᵢ, -) → stage ``arity``, in Yoneda form."""

    sig: Signature
    domain: tuple[int, ...]
    arity: int
    data: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(int(k) for k in self.domain))
        object.__setattr__(self, "data", tuple(self.data))
        if len(self.domain) != len(self.data):
            raise ValidationError("one data term per domain component required")
        for k, t in zip(self.domain, self.data):
            check_term(self.sig, t)
            if t.height > self.arity:
                raise ValidationError(
                    f"data term height {t.height} exceeds arity {self.arity}"
                )
            extra = variables(t) - set(canonical_vars(k))
            if extra:
                raise ValidationError(f"variable {sorted(extra)[0]!r} outside v1..v{k}")

    @cached_property
    def compiled(self) -> tuple[Compiled, ...]:
        """Per component, its data term compiled over v1..vk (``compile_term``)."""
        return tuple(
            compile_term(self.sig, t, canonical_vars(k)) for k, t in zip(self.domain, self.data)
        )


def raise_arity(t: NaturalTerm, n: int) -> NaturalTerm:
    """View the same data at a higher stage; the connecting map is inclusion.

    At ``t``'s own arity this is ``t`` itself."""
    if n == t.arity:
        return t
    if n < t.arity:
        raise ValidationError(f"cannot lower arity {t.arity} to {n}")
    return NaturalTerm(t.sig, t.domain, n, t.data)


@dataclass(frozen=True)
class NaturalIdentity:
    """A pair of natural terms with common domain, normalized to one arity.

    The pre-normalization arity couple is kept as metadata.
    """

    lhs: NaturalTerm
    rhs: NaturalTerm
    arity_couple: tuple[int, int] = field(init=False)

    def __post_init__(self):
        if self.lhs.sig != self.rhs.sig:
            raise ValidationError("identity sides use different signatures")
        if self.lhs.domain != self.rhs.domain:
            raise ValidationError("identity sides have different domains")
        couple = (self.lhs.arity, self.rhs.arity)
        n = max(couple)
        object.__setattr__(self, "lhs", raise_arity(self.lhs, n))
        object.__setattr__(self, "rhs", raise_arity(self.rhs, n))
        object.__setattr__(self, "arity_couple", couple)

    @property
    def sig(self) -> Signature:
        return self.lhs.sig

    @property
    def domain(self) -> tuple[int, ...]:
        return self.lhs.domain

    @property
    def arity(self) -> int:
        return self.lhs.arity

    @cached_property
    def sides(self) -> tuple[tuple[int, Compiled, Compiled], ...]:
        """Per component, ``(k, lhs, rhs)`` with both sides compiled."""
        return tuple(zip(self.domain, self.lhs.compiled, self.rhs.compiled))


def _failure(alg: FinAlgebra, ident: NaturalIdentity) -> Optional[tuple]:
    """First failing instance as (component index, assignment of carrier
    positions), or None."""
    sig = ident.sig
    # Usually the very same object: ``is`` spares the dataclass ``__eq__``
    # on every algebra of an enumeration.
    if alg.sig is not sig and alg.sig != sig:
        raise ValidationError("signature mismatch between algebra and identity")
    flat, n = alg.flat, len(alg.carrier.elements)
    for i, (k, left, right) in enumerate(ident.sides):
        for values in itertools.product(range(n), repeat=k):
            if left(flat, n, values) != right(flat, n, values):
                return (i, values)
    return None


def violation(alg: FinAlgebra, ident: NaturalIdentity) -> Optional[tuple]:
    """First failing instance as (component index, assignment tuple), or None."""
    found = _failure(alg, ident)
    if found is None:
        return None
    i, values = found
    elems = alg.carrier.elements
    return (i, tuple([elems[p] for p in values]))


def satisfies(alg: FinAlgebra, ident: NaturalIdentity) -> bool:
    """Whether both sides evaluate equally under every assignment of the
    canonical variables into the carrier, for every component."""
    return _failure(alg, ident) is None


def satisfies_all(alg: FinAlgebra, idents: Iterable[NaturalIdentity]) -> bool:
    return all(satisfies(alg, ident) for ident in idents)


def bundle(idents: Iterable[NaturalIdentity]) -> NaturalIdentity:
    """Merge identities into one over the coproduct of their domains.

    Satisfaction of the bundle is exactly satisfaction of every input.
    """
    items = tuple(idents)
    if not items:
        raise ValidationError("cannot bundle an empty list of identities")
    sig = items[0].sig
    for ident in items:
        if ident.sig != sig:
            raise ValidationError("bundled identities must share a signature")
    arity = max(ident.arity for ident in items)
    domain = tuple(k for ident in items for k in ident.domain)
    lhs_data = tuple(t for ident in items for t in ident.lhs.data)
    rhs_data = tuple(t for ident in items for t in ident.rhs.data)
    return NaturalIdentity(
        NaturalTerm(sig, domain, arity, lhs_data),
        NaturalTerm(sig, domain, arity, rhs_data),
    )


def from_sigma(sig: Signature, lhs: Term, rhs: Term, vars: FinSet) -> NaturalIdentity:
    """Translate an ordinary two-term identity over a variable set into a
    single-component natural identity over hom(|vars|, -).

    Variables are renamed canonically in their sorted order; the arity of
    each side is the height of its term.
    """
    check_term(sig, lhs)
    check_term(sig, rhs)
    unknown = (variables(lhs) | variables(rhs)) - set(vars)
    if unknown:
        raise ValidationError(f"unbound variable {sorted(unknown, key=repr)[0]!r}")
    names = canonical_vars(len(vars))
    renaming = dict(zip(vars.elements, names))
    left, right = relabel(lhs, renaming), relabel(rhs, renaming)
    k = len(vars)
    return NaturalIdentity(
        NaturalTerm(sig, (k,), left.height, (left,)),
        NaturalTerm(sig, (k,), right.height, (right,)),
    )


@dataclass(frozen=True)
class ClassComparison:
    """Outcome of comparing two satisfied classes over bounded carriers.

    ``checked`` is nominal: the number of algebras that plain enumeration
    would have tried, up to and including the witness, or all of them
    when the classes agree.  ``compare_classes`` evaluates fewer."""

    equal: bool
    witness: Optional[FinAlgebra]
    checked: int

    def __bool__(self) -> bool:
        return self.equal


def _as_tuple(ids) -> tuple[NaturalIdentity, ...]:
    if isinstance(ids, NaturalIdentity):
        return (ids,)
    return tuple(ids)


def compare_classes(
    sig: Signature,
    max_size: int,
    in_left: Callable[[FinAlgebra], bool],
    in_right: Callable[[FinAlgebra], bool],
) -> ClassComparison:
    """Compare two classes of algebras, given by membership predicates, on
    every algebra over ``sig`` with carrier ``0..n-1`` for n = 1..max_size.

    The witness is the first algebra, in the order of
    ``enumerate_algebras``, that lies in exactly one of the classes.  Both
    predicates must be invariant under relabelling the carrier (as
    ``satisfies_all``, ``satisfies_level`` and ``dalg_check`` are): then
    the first such algebra is the lex-least member of its isomorphism
    orbit, so only those members are evaluated, in the same order.
    ``checked`` is nominal, the carrier's count of algebras up to the
    witness's rank; each size's count is bounded before its walk starts.
    """
    if max_size < 1:
        raise ValidationError("max size must be at least 1")
    checked = 0
    for size in range(1, max_size + 1):
        carrier = FinSet(tuple(range(size)))
        total = count_algebras(sig, carrier)
        for rank, alg in _orbit_representatives(sig, carrier):
            if in_left(alg) != in_right(alg):
                return ClassComparison(False, alg, checked + rank + 1)
        checked += total
    return ClassComparison(True, None, checked)


def equivalent_upto(a, b, max_size: int) -> ClassComparison:
    """Whether two identities (or sets of identities) induce the same class
    of algebras over every carrier of size ≤ max_size.

    This is a brute-force oracle over bounded carriers, not a proof of
    algebraic equivalence on all algebras.
    """
    left, right = _as_tuple(a), _as_tuple(b)
    if not left or not right:
        raise ValidationError("need at least one identity on each side")
    sig = left[0].sig
    for ident in left + right:
        if ident.sig != sig:
            raise ValidationError("all identities must share a signature")
    return compare_classes(
        sig,
        max_size,
        lambda alg: satisfies_all(alg, left),
        lambda alg: satisfies_all(alg, right),
    )
