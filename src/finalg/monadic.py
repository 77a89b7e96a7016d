"""Free-monad machinery at finite depth.

The free monad over a signature functor has all finite terms as its
carrier; the unit is the variable embedding and the multiplication is
substitution (flattening a term whose variable slots hold terms).  A
transformation out of a domain functor G = ∐ᵢ hom(kᵢ, -), given as a
``NaturalTerm``, extends level by level along G's own term chain:
variables map by the unit, a G-node maps by instantiating the generating
term at the already-translated children and flattening, through one
lookup table from each domain operation ``ci`` to kᵢ and its generating
term.  In an algebra a G-node folds by its component's
``NaturalTerm.compiled`` closure instead, on carrier positions through
the algebra's flat tables (see ``algebras``): those tables are the
algebra's one structure map, and a diagram algebra holds no other.  So
the level-k check and the diagram-algebra check are one walk, which
folds both arrows' closures at every assignment in the order G's stage 1
lists its one-node elements, independently of the identity's generated
``check`` (see ``identities``); it builds no stage.  ``check_monad_map``
checks the unit law on each generator and, as one-node outer terms, the
multiplication law on each node of one stage of G's chain.  A
``NaturalIdentity`` induces a two-arrow diagram of monads whose arrows
are these translations along its ``lhs`` and ``rhs``.  Everything here
is bounded by an explicit depth and checked element by element.

The power-set monad is carried alongside as the worked Eilenberg-Moore
example: subsets are canonically sorted tuples, the unit forms
singletons, the multiplication takes unions, and its Eilenberg-Moore
structures on a two-point set are exactly the two total-order joins.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from . import terms
from .algebras import FinAlgebra
from .core import MAX_ENUMERATION, FinMap, FinSet, bounded_power, count_maps
from .errors import ResourceLimitError, ValidationError
from .functors import Signature
from .identities import (
    ClassComparison,
    NaturalIdentity,
    NaturalTerm,
    canonical_vars,
    compare_classes,
    satisfies,
)
from .terms import (
    MAX_TERM_DEPTH,
    Node,
    Term,
    Var,
    _stage_bounds,
    check_term,
    substitute,
    variables,
)


def mu_flatten(sig: Signature, x: FinSet, tt: Term) -> Term:
    """Substitution as monad multiplication: each variable slot of ``tt``
    holds a term over ``x``; splice them in."""
    match tt:
        case Var(inner):
            if not isinstance(inner, Term):
                raise ValidationError(f"slot holds {inner!r}, not a term")
            check_term(sig, inner)
            unknown = variables(inner) - set(x.elements)
            if unknown:
                raise ValidationError(
                    f"slot term uses {sorted(unknown, key=repr)[0]!r} outside the variable set"
                )
            return inner
        case Node(op, args):
            if sig.arity(op) != len(args):
                raise ValidationError(f"arity mismatch at {op!r}")
            return Node(op, tuple(mu_flatten(sig, x, a) for a in args))
    raise ValidationError(f"not a term: {tt!r}")


def domain_signature(domain: tuple[int, ...]) -> Signature:
    """The operations of the domain chain of ∐ᵢ hom(kᵢ, -): one ``ci`` of
    arity kᵢ per component."""
    return Signature(tuple((f"c{i}", k) for i, k in enumerate(domain)))


def _arrow(gsig: Signature, parts: tuple) -> dict:
    """The lookup table of an arrow out of the domain signature ``gsig``:
    each domain operation ``ci`` to its arity kᵢ and ``parts[i]``."""
    return {name: (k, part) for (name, k), part in zip(gsig, parts)}


def rho_level(nt: NaturalTerm, k: int, elem: Term) -> Term:
    """Translate an element of stage k of ``nt``'s domain chain: variables
    map by the unit; a node instantiates its component's generating term
    at its translated children and flattens."""
    return _translate(_arrow(domain_signature(nt.domain), nt.data), k, elem)


def _translate(table: dict, k: int, elem: Term) -> Term:
    match elem:
        case Var(name):
            return Var(name)
        case Node(op, children):
            if k < 1:
                raise ValidationError("level 0 of the domain chain holds only variables")
            return _instantiate(table, op, [_translate(table, k - 1, c) for c in children])
    raise ValidationError(f"not a term: {elem!r}")


def _instantiate(table: dict, op: str, translated: list) -> Term:
    """The generating term of domain op ``op`` at the translated children."""
    k, term = table.get(op, (None, None))
    if k is None:
        raise ValidationError(f"unknown domain component {op!r}")
    if len(translated) != k:
        raise ValidationError(f"arity mismatch at {op!r}")
    return substitute(term, dict(zip(canonical_vars(k), translated)))


@dataclass(frozen=True)
class MonadMapReport:
    """``check_monad_map``'s verdict on ``checked`` elements, one law each;
    a failure is ``(kind, height, element)``, kind ``"unit"`` or
    ``"multiplication"``."""

    holds: bool
    checked: int
    failures: tuple = ()

    def __bool__(self) -> bool:
        return self.holds


def check_monad_map(nt: NaturalTerm, bound: int, x: FinSet) -> MonadMapReport:
    """Check that the translation along ``nt`` is a monad map on each of
    the ``checked`` elements of stage ``bound`` of the domain chain over
    ``x``: a generator by the unit law ρ(v) = v (a ``unit`` witness), a node
    by the multiplication law on its one-node outer term, ρ(ci(t1..tk)) =
    dataᵢ[vj ↦ ρ(tj)] (a ``multiplication`` witness).  Flattening an outer
    node gives a node over the flattened children, so the law for taller
    outer terms follows by induction.  Stage k is a prefix of stage
    ``bound`` and translations do not depend on the level, so one table,
    filled child-first, serves every level; a node's entry is matched
    against ``nt.data``, not the translation's table, building no term.

    An over-large stage is refused from its size as ``stage`` refuses it;
    then, since a translation is at most ``bound`` times the highest
    generating term high, that product is refused above
    ``MAX_TERM_DEPTH``; both before any stage or translation is built."""
    gsig = domain_signature(nt.domain)
    _stage_bounds(gsig, x, bound)
    height = bound * max((t.height for t in nt.data), default=0)
    if height > MAX_TERM_DEPTH:
        raise ResourceLimitError(f"term height of translations at bound {bound}",
                                 height, MAX_TERM_DEPTH)
    table = _arrow(gsig, nt.data)
    elems = terms._stage_terms(gsig, x, bound)
    rho: dict = {}
    failures = []
    for e in elems:
        if type(e) is Var:
            rho[e] = image = _translate(table, 0, e)
            if image != e:
                failures.append(("unit", 0, e))
        else:
            translated = [rho[c] for c in e.args]
            rho[e] = image = _instantiate(table, e.op, translated)
            data = nt.data[int(e.op[1:])]
            if not _matches(data, image, dict(zip(canonical_vars(len(e.args)), translated))):
                failures.append(("multiplication", e.height, e))
    return MonadMapReport(not failures, len(elems), tuple(failures))


def _matches(pattern: Term, t: Term, slots: dict) -> bool:
    """Whether ``t`` is ``pattern`` with its variables read from ``slots``."""
    if type(pattern) is Var:
        return slots[pattern.name] == t
    return (type(t) is Node and t.op == pattern.op and len(t.args) == len(pattern.args)
            and all(_matches(p, a, slots) for p, a in zip(pattern.args, t.args)))


@lru_cache(maxsize=64)
def _stage_1_order(domain: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """Each ``(i, kᵢ)`` of ``domain`` as stage 1 lists the nodes of ``ci``:
    by arity, then by name as a string, so ``c10`` comes before ``c2``."""
    return tuple(sorted(enumerate(domain), key=lambda c: (c[1], f"c{c[0]}")))


def _first_difference(alg: FinAlgebra, ident: NaturalIdentity) -> Optional[tuple]:
    """The first ``(i, positions)``, in stage-1 order and then in
    ``itertools.product`` order, where component i's ``lhs`` and ``rhs``
    closures differ on the carrier positions, or None."""
    flat, n = alg.flat, len(alg.carrier)
    lhs, rhs = ident.lhs.compiled, ident.rhs.compiled
    for i, arity in _stage_1_order(ident.domain):
        left, right = lhs[i], rhs[i]
        for a in itertools.product(range(n), repeat=arity):
            if left(flat, n, a) != right(flat, n, a):
                return i, a
    return None


def satisfies_level(alg: FinAlgebra, ident: NaturalIdentity, k: int) -> bool:
    """Satisfaction of the level-k derived identity, decided exactly.

    The two level maps evaluate through the algebra as folds over the
    domain chain, so an element only matters through its pair of fold
    values, and the identity holds at level k iff every pair reachable
    from the diagonal within k rounds of the component folds is diagonal.
    From the diagonal, the first round adds exactly the pairs
    ``(lhs(a), rhs(a))`` over every assignment ``a``.  Either all of them
    are diagonal and the closure stops, or a non-diagonal pair is already
    reached and the set only grows; so for k ≥ 1 only the first round
    decides, and ``_first_difference`` walks it.  Level 0 adds no pair and
    holds in every algebra; a negative level is refused.
    """
    if alg.sig is not ident.sig and alg.sig != ident.sig:
        raise ValidationError("signature mismatch between algebra and identity")
    if k < 0:
        raise ValidationError(f"level must be non-negative, got {k}")
    return k == 0 or _first_difference(alg, ident) is None


def equi_check(ident: NaturalIdentity, k: int, max_size: int) -> ClassComparison:
    """Compare satisfaction of an identity with satisfaction of its level-k
    derivative over every algebra with carrier ≤ max_size."""
    if k < 1:
        raise ValidationError("level must be at least 1")
    return compare_classes(
        ident.sig,
        max_size,
        lambda alg: satisfies(alg, ident),
        lambda alg: satisfies_level(alg, ident, k),
    )


# ---------------------------------------------------------------------------
# Power-set monad and its Eilenberg-Moore structures


def _subsets(s: FinSet) -> FinSet:
    """Every subset of ``s`` as a tuple in the order of ``s``; refused
    above ``MAX_ENUMERATION`` before any is built.  ``s`` is in canonical
    order, so a subset sorts as the tuple of its elements' positions."""
    bounded_power(f"subsets of {len(s)} atoms", 2, len(s), MAX_ENUMERATION)
    elements, positions = s.elements, range(len(s))
    index = sorted(c for r in range(len(s) + 1) for c in itertools.combinations(positions, r))
    return FinSet._trusted(tuple([tuple([elements[p] for p in c]) for c in index]))


@dataclass(frozen=True)
class PowersetMonadInstance:
    """The power-set monad at a fixed finite base set.

    Subsets are canonically sorted tuples; the unit forms singletons and
    the multiplication takes unions.
    """

    base: FinSet
    object: FinSet
    eta: FinMap

    def mu_element(self, family: tuple) -> tuple:
        """The union of ``family`` in the order of the base, which is
        canonical, so its positions sort as ``atom_key`` does."""
        return tuple(sorted(set().union(*family), key=self.base.position.__getitem__))


def powerset_instance(base: FinSet) -> PowersetMonadInstance:
    obj = _subsets(base)
    return PowersetMonadInstance(base, obj, FinMap(base, obj, {a: (a,) for a in base}))


def _families(m: PowersetMonadInstance) -> Iterator[tuple[tuple, tuple]]:
    """Each ``(family, union)`` of two or more subsets, smallest first, in
    ``itertools.combinations`` order; the families are refused above
    ``MAX_ENUMERATION`` at the call, before any is built.  A family of none
    or one subset obeys the multiplication law once the unit law holds."""
    subsets = m.object.elements
    bounded_power(f"subsets of {len(subsets)} atoms", 2, len(subsets), MAX_ENUMERATION)
    return ((f, m.mu_element(f)) for r in range(2, len(subsets) + 1)
            for f in itertools.combinations(subsets, r))


def em_satisfies(m: PowersetMonadInstance, alpha: FinMap) -> bool:
    """Whether ``alpha`` is an Eilenberg-Moore structure for the power-set
    monad: singletons collapse to their element, and folding a family of
    subsets agrees with folding its union."""
    if alpha.dom != m.object or alpha.cod != m.base:
        raise ValidationError("structure map must go from subsets to the base")
    return _em_laws(m, alpha.table, _families(m))


def _em_laws(m: PowersetMonadInstance, table: dict, families: Iterable[tuple]) -> bool:
    """The unit law of the map tabulated by ``table``, and its
    multiplication law over each ``(family, union)`` of ``families``."""
    # The base is in canonical order, so its positions sort as atom_key does.
    rank = m.base.position.__getitem__
    for a in m.base:
        if table[(a,)] != a:
            return False
    for family, union in families:
        if table[tuple(sorted({table[s] for s in family}, key=rank))] != table[union]:
            return False
    return True


def em_structures(m: PowersetMonadInstance) -> list[FinMap]:
    """All Eilenberg-Moore structure maps on the base: the maps of
    ``enumerate_maps`` that ``em_satisfies`` accepts, in the same order.

    The full count of maps is bounded first.  The unit law fixes each
    singleton's image to its element, so only the other subsets' images
    are searched, in the same lexicographic order, and only a valid map is
    built, by the checked constructor.  The multiplication law is checked
    on ``_families``, listed once for all candidates."""
    count_maps(len(m.object), len(m.base))
    families = list(_families(m))
    table = {s: s[0] for s in m.object if len(s) == 1}
    free = [s for s in m.object if len(s) != 1]
    found = []
    for images in itertools.product(m.base.elements, repeat=len(free)):
        table.update(zip(free, images))
        if _em_laws(m, table, families):
            found.append(FinMap(m.object, m.base, table))
    return found


# ---------------------------------------------------------------------------
# Algebras for the two-object, two-arrow diagram of monads


def dalg_check(algebra: FinAlgebra, identity: NaturalIdentity, bound: int) -> bool:
    """Whether the algebra is compatible with both arrows of the diagram
    induced by ``identity`` (translation along ``identity.lhs`` and
    ``identity.rhs``) on every domain-chain element up to ``bound``:
    ``dalg_violation`` finds no witness, and refuses as it refuses."""
    return dalg_violation(algebra, identity, bound) is None


def _dalg_bounds(identity: NaturalIdentity, x: FinSet, bound: int) -> None:
    """Refuse an over-large or too-deep stage at ``bound`` over ``x`` from
    the sizes alone, over the identity's signature and then its domain ops
    (at bound 0, stage 1 of each).  Only the size of ``x`` matters."""
    for sig in (identity.sig, domain_signature(identity.domain)):
        _stage_bounds(sig, x, bound or 1)


def dalg_violation(algebra: FinAlgebra, identity: NaturalIdentity,
                   bound: int) -> Optional[Term]:
    """The first element of the domain chain's stage ``bound`` on which
    the translations along ``identity.lhs`` and ``identity.rhs`` fold to
    different values in the algebra, or None.

    The algebra's tables are its one structure map for the signature's
    free monad, and a fold along an arrow is its structure map for the
    domain's: a fold obeys the monad laws, so a node's fold along an arrow
    is its component's ``NaturalTerm.compiled`` closure on its children's
    folds.  Arrows that agree on each one-node ``ci(a1..ak)`` therefore
    agree at every height, and stage 1 sorts first in every stage, so one
    ``_first_difference`` walk of stage 1 finds the witness, which is built
    from its result; at bound 0, where the stage holds only variables,
    whose folds agree, there is none.

    An algebra over another signature is refused; then, by
    ``_dalg_bounds``, an over-large or too-deep stage at ``bound``; no
    stage is built.  ``variety_vs_dalg`` makes the same refusals once per
    carrier size, at the first algebra of the size, where this check would
    make them."""
    if algebra.sig is not identity.sig and algebra.sig != identity.sig:
        raise ValidationError("algebra signature differs from the diagram")
    _dalg_bounds(identity, algebra.carrier, bound)
    found = None if bound == 0 else _first_difference(algebra, identity)
    if found is None:
        return None
    i, positions = found
    return Node(f"c{i}", tuple([Var(algebra.carrier.elements[p]) for p in positions]))


def variety_vs_dalg(ident: NaturalIdentity, max_size: int, bound: int) -> ClassComparison:
    """Compare direct satisfaction with diagram-algebra compatibility over
    every algebra with carrier ≤ max_size.

    Every algebra is over ``ident.sig``, and ``dalg_check``'s refusals
    depend only on the carrier size, so they are made once per size, at
    the size's first algebra, as ``dalg_check`` would make them there; each
    later algebra of the size only walks stage 1."""
    admitted: set[int] = set()

    def compatible(alg: FinAlgebra) -> bool:
        if len(alg.carrier) not in admitted:
            _dalg_bounds(ident, alg.carrier, bound)
            admitted.add(len(alg.carrier))
        return bound == 0 or _first_difference(alg, ident) is None

    return compare_classes(ident.sig, max_size, lambda alg: satisfies(alg, ident), compatible)
