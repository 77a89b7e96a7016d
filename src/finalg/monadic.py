"""Free-monad machinery at finite depth.

The free monad over a signature functor has all finite terms as its
carrier; the unit is the variable embedding and the multiplication is
substitution (flattening a term whose variable slots hold terms).  A
transformation out of a domain functor G = ∐ᵢ hom(kᵢ, -), given as a
``NaturalTerm``, extends level by level along G's own term chain:
variables map by the unit, a G-node maps by instantiating the generating
term at the already-translated children and flattening; in an algebra it
folds by its component's ``NaturalTerm.compiled`` closure instead, on
carrier positions through the algebra's flat tables (see ``algebras``),
so the diagram algebras' structure maps hold positions, not elements.
Either way an arrow is one lookup table from each domain operation
``ci`` to kᵢ and the component's part, its data term to translate or its
closure to fold.  ``check_monad_map`` checks the unit law on each
generator and, as one-node outer terms, the multiplication law on each
node of one stage of G's chain.  The level-k check folds both arrows'
closures at every assignment, independently of the identity's generated
``check`` (see ``identities``).  A ``NaturalIdentity`` induces a
two-arrow diagram of monads whose arrows are these translations along
its ``lhs`` and ``rhs``.  Everything here is bounded by an explicit
depth and checked element by element.

The power-set monad is carried alongside as the worked Eilenberg-Moore
example: subsets are canonically sorted tuples, the unit forms
singletons, the multiplication takes unions, and its Eilenberg-Moore
structures on a two-point set are exactly the two total-order joins.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from . import terms
from .algebras import FinAlgebra, compile_term
from .core import MAX_ENUMERATION, FinMap, FinSet, atom_key, bounded_power, count_maps
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
    decides.  It folds each component's ``NaturalTerm.compiled`` closures
    on carrier positions, not the identity's generated ``check``, and
    stops at the first assignment where the sides differ.  Level 0 adds
    no pair and holds in every algebra; a negative level is refused.
    """
    if alg.sig is not ident.sig and alg.sig != ident.sig:
        raise ValidationError("signature mismatch between algebra and identity")
    if k < 1:
        if k < 0:
            raise ValidationError(f"level must be non-negative, got {k}")
        return True
    flat, n = alg.flat, len(alg.carrier)
    for arity, left, right in zip(ident.domain, ident.lhs.compiled, ident.rhs.compiled):
        for a in itertools.product(range(n), repeat=arity):
            if left(flat, n, a) != right(flat, n, a):
                return False
    return True


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
    above ``MAX_ENUMERATION`` before any is built."""
    bounded_power(f"subsets of {len(s)} atoms", 2, len(s), MAX_ENUMERATION)
    return FinSet(tuple(
        combo for r in range(len(s) + 1) for combo in itertools.combinations(s.elements, r)
    ))


def _union(subsets: Iterable[tuple]) -> tuple:
    merged = set()
    for s in subsets:
        merged.update(s)
    return tuple(sorted(merged, key=atom_key))


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
        return _union(family)

    def double(self) -> FinSet:
        return _subsets(self.object)


def powerset_instance(base: FinSet) -> PowersetMonadInstance:
    obj = _subsets(base)
    return PowersetMonadInstance(base, obj, FinMap(base, obj, {a: (a,) for a in base}))


def em_satisfies(m: PowersetMonadInstance, alpha: FinMap) -> bool:
    """Whether ``alpha`` is an Eilenberg-Moore structure for the power-set
    monad: singletons collapse to their element, and folding a family of
    subsets agrees with folding its union."""
    if alpha.dom != m.object or alpha.cod != m.base:
        raise ValidationError("structure map must go from subsets to the base")
    return _em_laws(m, alpha.table, ((f, m.mu_element(f)) for f in m.double()))


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
    built, by the checked constructor.  A family of none or one subset
    obeys the multiplication law once the unit law holds, so the law is
    checked on the families of two or more, smallest first, listed once
    for all candidates."""
    count_maps(len(m.object), len(m.base))
    subsets = m.object.elements
    families = [(f, m.mu_element(f)) for r in range(2, len(subsets) + 1)
                for f in itertools.combinations(subsets, r)]
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


class DAlgebraPair:
    """A carrier with one structure map per monad of the diagram induced by
    ``identity``: the free monads over the domain ops and over the
    signature, with the monad maps given by term translation along
    ``identity.lhs`` and ``identity.rhs`` (``rho_level`` at each element's
    own height).

    Every fold value is a carrier position, folded by one memoised
    ``_fold`` through a table from each operation to its arity and step.
    The constructor builds the signature's (each operation's one-node term
    compiled) and each arrow's (``_arrow`` of its ``NaturalTerm.compiled``).
    ``alpha1_of`` folds a term over the signature, memoised in ``alpha1``;
    ``fold_along`` folds a term over the domain ops along ``lhs`` or
    ``rhs`` into the caller's memo, and ``alpha0_of`` is the fold along
    ``lhs``, memoised in ``alpha0``.  A fold through tables respects
    substitution, so that value is the ``alpha1_of`` of the translation,
    without building it.  A term not in the memo is checked as it is
    folded: a non-term, an unbound variable, or a node whose operation is
    unknown or has the wrong number of arguments is refused.  The
    constructor refuses an over-large or too-deep stage at ``bound`` from
    the sizes alone, over the signature and then the domain ops (at bound
    0, then stage 1 of each as well), and folds stage 1 of both, the one
    stage it builds.  ``_em_valid`` checks every memo entry;
    ``dalg_violation`` walks stage 1 and says why that suffices.
    """

    __slots__ = ("algebra", "identity", "bound", "alpha1", "alpha0", "_stage1",
                 "_n", "_sig", "_lhs", "_rhs")

    def __init__(self, algebra: FinAlgebra, identity: NaturalIdentity, bound: int):
        if algebra.sig is not identity.sig and algebra.sig != identity.sig:
            raise ValidationError("algebra signature differs from the diagram")
        x, gsig = algebra.carrier, domain_signature(identity.domain)
        _stage_bounds(algebra.sig, x, bound)
        _stage_bounds(gsig, x, bound)
        if bound < 1:  # stage 1 is folded all the same
            _stage_bounds(algebra.sig, x, 1)
            _stage_bounds(gsig, x, 1)
        self.algebra = algebra
        self.identity = identity
        self.bound = bound
        self.alpha1: dict = {}
        self.alpha0: dict = {}
        self._n = len(x)
        self._sig = {}
        for name, arity in algebra.sig:
            names = canonical_vars(arity)
            node = Node(name, tuple(map(Var, names)))
            self._sig[name] = arity, compile_term(algebra.sig, node, names)
        self._lhs = _arrow(gsig, identity.lhs.compiled)
        self._rhs = _arrow(gsig, identity.rhs.compiled)
        for t in terms._stage_terms(algebra.sig, x, 1):
            self.alpha1_of(t)
        self._stage1 = terms._stage_terms(gsig, x, 1)
        for t in self._stage1:
            self.alpha0_of(t)

    def alpha1_of(self, t: Term) -> int:
        return self._fold(self._sig, t, self.alpha1)

    def alpha0_of(self, t: Term) -> int:
        return self._fold(self._lhs, t, self.alpha0)

    def fold_along(self, nt: NaturalTerm, t: Term, memo: dict) -> int:
        """The fold of domain term ``t`` along ``nt``, one of the pair's two
        arrows, memoised in ``memo``."""
        if nt is self.identity.lhs:
            return self._fold(self._lhs, t, memo)
        if nt is self.identity.rhs:
            return self._fold(self._rhs, t, memo)
        raise ValidationError("natural term is not an arrow of the pair's diagram")

    def _fold(self, table: dict, t: Term, memo: dict) -> int:
        try:
            value = memo.get(t)
        except TypeError:  # unhashable, so not a term
            raise ValidationError(f"not a term: {t!r}") from None
        if value is None:
            if type(t) is Var:
                if t.name not in self.algebra.carrier:
                    raise ValidationError(f"unbound variable {t.name!r}")
                value = self.algebra.carrier.position[t.name]
            elif type(t) is Node:
                arity, step = table.get(t.op, (None, None))
                if len(t.args) != arity:
                    raise ValidationError(f"no operation {t.op!r} of arity {len(t.args)}")
                args = [self._fold(table, a, memo) for a in t.args]
                value = step(self.algebra.flat, self._n, args)
            else:
                raise ValidationError(f"not a term: {t!r}")
            memo[t] = value
        return value


def _em_valid(pair: DAlgebraPair, table: dict, memo: dict) -> bool:
    """Unit law plus the one-node multiplication law of the structure map
    folding through ``table`` into ``memo``, on every memo entry (stage 1
    among them): each value is a carrier position, a variable's its own,
    and a node's its table step on its children's folds; any other key
    breaks the laws.  Entries are checked in memo order, on a snapshot
    since a fold may add some, and ``_fold`` memoises a node after its
    children.  Full flattening follows by structural induction."""
    alg, fold, n = pair.algebra, pair._fold, pair._n
    if not all(type(value) is int and 0 <= value < n for value in memo.values()):
        return False
    for t in list(memo):
        if type(t) is Var:
            expected = alg.carrier.position.get(t.name)
        elif type(t) is Node and len(t.args) == table.get(t.op, (None,))[0]:
            args = [fold(table, a, memo) for a in t.args]
            expected = table[t.op][1](alg.flat, n, args)
        else:
            return False
        if memo[t] != expected:
            return False
    return True


def dalg_violation(pair: DAlgebraPair) -> Optional[Term]:
    """First domain-chain element up to the pair's bound where the two
    arrows disagree, or None: ``alpha0_of`` folds along ``lhs``, so the
    element's fold along ``rhs`` is compared with it.  Only stage 1 is
    walked (nothing at bound 0, where stage 0 holds only variables, whose
    folds agree): once ``_em_valid`` passes, a node's fold along an arrow
    is its component on its children's folds, so arrows that agree on each
    one-node ``ci(a1..ak)`` agree at every height, and stage 1 is a prefix
    of every higher stage."""
    if not _em_valid(pair, pair._sig, pair.alpha1):
        raise ValidationError("signature-side structure map violates the monad laws")
    if not _em_valid(pair, pair._lhs, pair.alpha0):
        raise ValidationError("domain-side structure map violates the monad laws")
    via_rhs: dict = {}
    for t in pair._stage1 if pair.bound else ():
        if pair.fold_along(pair.identity.rhs, t, via_rhs) != pair.alpha0_of(t):
            return t
    return None


def dalg_check(pair: DAlgebraPair) -> bool:
    """Whether the pair is compatible with both arrows of its diagram on
    every domain-chain element up to its bound."""
    return dalg_violation(pair) is None


def variety_vs_dalg(ident: NaturalIdentity, max_size: int, bound: int) -> ClassComparison:
    """Compare direct satisfaction with diagram-algebra compatibility over
    every algebra with carrier ≤ max_size."""
    return compare_classes(
        ident.sig,
        max_size,
        lambda alg: satisfies(alg, ident),
        lambda alg: dalg_check(DAlgebraPair(alg, ident, bound)),
    )
