"""Natural terms and identities in Yoneda form.

A natural term with domain ∐ᵢ hom(kᵢ, -) and target stage n is, by the
Yoneda correspondence, one term of height ≤ n per component, written
over canonical variables v1..vkᵢ.  A natural identity is a pair of
natural terms with a common domain; an algebra satisfies it when both
sides evaluate equally under every assignment of the canonical
variables into the carrier.

``satisfies`` and ``violation`` run an identity's ``check``: a
straight-line function generated once per identity as source text over
the flat tables of ``algebras``, with one ``for`` loop per variable and
one line per term node, and ``exec``'d (``_generated``, a bounded cache
keyed by the identity's data, so an identity parsed again reuses it).
``check`` stops at the first failure in ``itertools.product`` order;
``violation`` reports it, with its assignment mapped back to carrier
elements.  Elsewhere terms fold through the closures of
``algebras.compile_term`` (``NaturalTerm.compiled`` holds one per
component): generating code costs about 20 times as much as building
closures, so it pays only in a loop over many assignments.
The level and diagram-algebra checks of ``monadic`` fold the closures
over every assignment all the same, in one walk, so that
``monadic.equi_check`` compares two independent evaluators.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Mapping, Optional

from .algebras import (
    Compiled,
    FinAlgebra,
    Flat,
    _orbit_representatives,
    _resolve,
    compile_term,
    count_algebras,
)
from .core import MAX_ENUMERATION, FinSet
from .errors import ResourceLimitError, ValidationError
from .functors import Signature
from .terms import Term, check_term, relabel, variables


@lru_cache(maxsize=64)
def canonical_vars(k: int) -> tuple[str, ...]:
    """The canonical variable names v1..vk, in index order; the tuple of
    each of the last 64 arities asked for is kept."""
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
        if any(k < 0 for k in self.domain):
            raise ValidationError(f"negative domain component {min(self.domain)}")
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

    # Cached: ``satisfies`` reads it on every algebra of an enumeration.
    @cached_property
    def sig(self) -> Signature:
        return self.lhs.sig

    @property
    def domain(self) -> tuple[int, ...]:
        return self.lhs.domain

    @property
    def arity(self) -> int:
        return self.lhs.arity

    @cached_property
    def check(self) -> Callable[[Flat, int], Optional[tuple]]:
        """``check(flat, n)``: the first failing ``(component index,
        positions)``, in ``itertools.product`` order, of the algebra with
        flat tables ``flat`` on ``n`` points, or None (``_CheckSource``)."""
        return _generated(self.sig, self.domain, self.lhs.data, self.rhs.data)


# A generated function nests at most this many loops: Python refuses one
# with more than 20 statically nested blocks, so the variables from the
# last level on iterate together in one ``product`` loop, in product order.
_MAX_NESTING = 16


class _CheckSource:
    """The text of ``check(flat, n)`` over ``sig``'s flat tables, laid out
    one component at a time.

    Per component: one ``for`` per canonical variable that either side
    reads, in index order, each node's line at the shallowest loop that
    binds its variables (a subterm the sides share is computed once) and
    the comparison innermost, which returns the failing positions with
    the unread variables at 0.  A failure depends on the read variables
    alone, so that is the first failure in ``itertools.product`` order.

    The text holds only integers and fixed local names: ``flat``, ``n``,
    ``r``, ``product``, the tables ``tI = flat[I]``, the strides
    ``sE = n**E``, the loop positions ``pJ`` and the node values ``xK``.
    Operations resolve to table indices and variables to loop positions
    through ``algebras._resolve``, with ``compile_term``'s refusals.
    """

    def __init__(self, ops: Mapping):
        self.ops = ops
        self.tables: set[int] = set()
        self.strides = 0
        self.nodes = 0
        self.body: list[str] = []

    def value(self, t: Term, index: dict, memo: dict, levels: list) -> tuple[str, int]:
        """The name holding ``t``'s value and the depth of the loop that
        binds its last variable (0 when ground); loop ``index[v]`` binds
        variable ``v`` to ``p`` followed by ``index[v]``.  A node new to
        ``memo`` appends its line ``xK = tI[cell]`` to ``levels[depth]``;
        the cell is a flat sum of argument values times strides."""
        got = memo.get(t)
        if got is None:
            i, args = _resolve(t, self.ops, index)
            if args is None:
                got = f"p{i}", i + 1
            else:
                parts = [self.value(a, index, memo, levels) for a in args]
                arity = len(parts)
                cell = [f"{name} * s{arity - 1 - m}" for m, (name, _) in enumerate(parts[:-1])]
                cell.append(parts[-1][0] if parts else "0")
                name, depth = f"x{self.nodes}", max((d for _, d in parts), default=0)
                levels[depth].append(f"{name} = t{i}[{' + '.join(cell)}]")
                self.nodes += 1
                self.tables.add(i)
                self.strides = max(self.strides, arity - 1)
                got = name, depth
            memo[t] = got
        return got

    def component(self, i: int, names: tuple, index: dict, left: Term, right: Term) -> None:
        """Append component ``i``'s loops and comparison, unless both sides
        are the same value.  Past ``_MAX_NESTING`` loops, one ``product``
        loop binds the remaining variables."""
        memo: dict = {}
        depth = len(index)
        levels: list = [[] for _ in range(depth + 1)]
        (a, _), (b, _) = (self.value(t, index, memo, levels) for t in (left, right))
        if a == b:
            return
        cut = depth if depth <= _MAX_NESTING else _MAX_NESTING - 1
        loops = [(j, j + 1) for j in range(cut)] + [(cut, depth)] * (cut < depth)
        indent = "    "
        self.body.extend(indent + line for line in levels[0])
        for start, end in loops:
            if end == start + 1:
                self.body.append(f"{indent}for p{start} in r:")
            else:
                loop = ", ".join(f"p{m}" for m in range(start, end))
                self.body.append(f"{indent}for {loop} in product(r, repeat={end - start}):")
            indent += "    "
            self.body.extend(indent + line for level in levels[start + 1:end + 1] for line in level)
        positions = "".join(f"p{index[v]}, " if v in index else "0, " for v in names)
        self.body += [f"{indent}if {a} != {b}:", f"{indent}    return {i}, ({positions})"]

    def text(self) -> str:
        lines = ["def check(flat, n):", "    r = range(n)"]
        lines += [f"    t{i} = flat[{i}]" for i in sorted(self.tables)]
        lines += [f"    s{e} = s{e - 1} * n" if e > 1 else "    s1 = n"
                  for e in range(1, self.strides + 1)]
        return "\n".join(lines + self.body + ["    return None"]) + "\n"


def _source(sig: Signature, domain: tuple, lhs: tuple, rhs: tuple) -> str:
    """The text of the identity's generated ``check``.

    A component that differs from an earlier one only by a renaming of
    its variables is left out: it fails only where the earlier one,
    checked first, has already failed."""
    ops, seen = sig.index, set()
    src = _CheckSource(ops)
    for i, (k, left, right) in enumerate(zip(domain, lhs, rhs)):
        names, order = canonical_vars(k), {}
        positions = {v: j for j, v in enumerate(names)}
        shape = (_shape(left, ops, positions, order), _shape(right, ops, positions, order))
        if shape in seen:
            continue
        seen.add(shape)
        index = {names[j]: d for d, j in enumerate(sorted(order))}
        src.component(i, names, index, left, right)
    return src.text()


def _shape(t: Term, ops: Mapping, index: dict, order: dict):
    """``t`` as nested tuples of table indices, each variable numbered in
    order of first occurrence: ``order`` maps its position in ``index``
    to that number, and is shared by both sides."""
    i, args = _resolve(t, ops, index)
    if args is None:
        return order.setdefault(i, len(order))
    return (i, *[_shape(a, ops, index, order) for a in args])


# Generated checks by identity data, so an identity parsed or built again
# reuses them; bounded for the process's life.
@lru_cache(maxsize=256)
def _generated(sig: Signature, domain: tuple, lhs: tuple, rhs: tuple) -> Callable:
    namespace = {"__builtins__": {"range": range}, "product": itertools.product}
    exec(compile(_source(sig, domain, lhs, rhs), "<identity check>", "exec"), namespace)
    return namespace["check"]


def _failure(alg: FinAlgebra, ident: NaturalIdentity) -> Optional[tuple]:
    """First failing instance as (component index, assignment of carrier
    positions), or None."""
    # Usually the very same object: ``is`` spares the dataclass ``__eq__``
    # on every algebra of an enumeration.
    if alg.sig is not ident.sig and alg.sig != ident.sig:
        raise ValidationError("signature mismatch between algebra and identity")
    return ident.check(alg.flat, len(alg.carrier.elements))


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
    witness's rank.  Each size's count is bounded before its carrier is
    built, and so is the whole walk: each size adds its carrier and its
    count to a running total, refused above ``MAX_ENUMERATION`` before the
    size is walked.
    """
    if max_size < 1:
        raise ValidationError("max size must be at least 1")
    checked = walked = 0
    for size in range(1, max_size + 1):
        total = count_algebras(sig, size)
        walked += size + total
        if walked > MAX_ENUMERATION:
            raise ResourceLimitError(f"carriers and algebras of sizes 1..{size}",
                                     walked, MAX_ENUMERATION)
        # Ints in range order are distinct and canonically sorted.
        carrier = FinSet._trusted(tuple(range(size)))
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
