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
closure to fold.  The level-k check folds both arrows' closures at
every assignment, independently of the identity's generated ``check``
(see ``identities``).  A ``NaturalIdentity`` induces a two-arrow diagram
of monads whose arrows are these translations along its ``lhs`` and
``rhs``.  Everything here is bounded by an explicit depth and checked
element by element.

The power-set monad is carried alongside as the worked Eilenberg-Moore
example: subsets are canonically sorted tuples, the unit forms
singletons, the multiplication takes unions, and its Eilenberg-Moore
structures on a two-point set are exactly the two total-order joins.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional

from .algebras import FinAlgebra, compile_term
from .core import MAX_ENUMERATION, FinMap, FinSet, atom_key, bounded_power, enumerate_maps
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
    stage,
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


def _arrow(nt: NaturalTerm, parts: tuple) -> dict:
    """The lookup table of the arrow along ``nt``: each domain operation
    ``ci`` to its arity kᵢ and ``parts[i]``."""
    return {name: (k, part) for (name, k), part in zip(domain_signature(nt.domain), parts)}


def rho_level(nt: NaturalTerm, k: int, elem: Term) -> Term:
    """Translate an element of stage k of ``nt``'s domain chain: variables
    map by the unit; a node instantiates its component's generating term
    at its translated children and flattens."""
    return _translate(_arrow(nt, nt.data), k, elem)


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
    holds: bool
    checked: int
    failures: tuple = ()

    def __bool__(self) -> bool:
        return self.holds


def check_monad_map(nt: NaturalTerm, bound: int, x: FinSet) -> MonadMapReport:
    """Element-by-element verification, over stages of the domain chain up
    to ``bound``, that the level maps restrict correctly: variables go to
    variables, one-node elements reproduce the generating terms, and
    higher levels agree with lower ones on included elements.  Each level
    map is tabulated once over its stage, a node's entry instantiating its
    generating term at its children's entries one level down (the value
    ``rho_level`` computes).

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
    table = _arrow(nt, nt.data)
    levels: list[dict] = []
    for k in range(bound + 1):
        below = levels[-1] if levels else {}
        levels.append({
            e: e if type(e) is Var else _instantiate(table, e.op, [below[c] for c in e.args])
            for e in stage(gsig, x, k).terms
        })
    checked = 0
    failures = []

    for k in range(bound + 1):
        for a in x:
            checked += 1
            if levels[k][Var(a)] != Var(a):
                failures.append(("unit", k, Var(a)))

    for i, ki in enumerate(nt.domain):
        names = canonical_vars(ki)
        for args in itertools.product(x.elements, repeat=ki):
            elem = Node(f"c{i}", tuple(Var(a) for a in args))
            expected = substitute(nt.data[i], {v: Var(a) for v, a in zip(names, args)})
            checked += 1
            if rho_level(nt, 1, elem) != expected:
                failures.append(("one-step", 1, elem))

    for j in range(bound + 1):
        for k in range(j, bound + 1):
            for elem in levels[j]:
                checked += 1
                if levels[k][elem] != levels[j][elem]:
                    failures.append(("compatibility", (j, k), elem))

    return MonadMapReport(not failures, checked, tuple(failures))


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
    stops at the first assignment where the sides differ.
    """
    if alg.sig is not ident.sig and alg.sig != ident.sig:
        raise ValidationError("signature mismatch between algebra and identity")
    if k < 1:
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
    return _em_laws(m, alpha, m.double())


def _em_laws(m: PowersetMonadInstance, alpha: FinMap, families: FinSet) -> bool:
    """The unit and multiplication laws, the latter over ``families``."""
    for a in m.base:
        if alpha.table[(a,)] != a:
            return False
    for family in families:
        via_mu = alpha.table[m.mu_element(family)]
        mapped = tuple(sorted({alpha.table[s] for s in family}, key=atom_key))
        if alpha.table[mapped] != via_mu:
            return False
    return True


def em_structures(m: PowersetMonadInstance) -> list[FinMap]:
    """All Eilenberg-Moore structure maps on the base, by exhaustive search.

    The candidates are bounded before the family set ``m.double()`` is
    built, once for all of them."""
    candidates = enumerate_maps(m.object, m.base)
    families = m.double()
    return [alpha for alpha in candidates if _em_laws(m, alpha, families)]


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
    constructor fills both memos over the stages up to ``bound``, so an
    over-large stage is refused before any check runs.
    """

    __slots__ = ("algebra", "identity", "bound", "alpha1", "alpha0", "_n", "_sig", "_lhs", "_rhs")

    def __init__(self, algebra: FinAlgebra, identity: NaturalIdentity, bound: int):
        if algebra.sig is not identity.sig and algebra.sig != identity.sig:
            raise ValidationError("algebra signature differs from the diagram")
        self.algebra = algebra
        self.identity = identity
        self.bound = bound
        self.alpha1: dict = {}
        self.alpha0: dict = {}
        self._n = len(algebra.carrier)
        self._sig = {}
        for name, arity in algebra.sig:
            names = canonical_vars(arity)
            node = Node(name, tuple(map(Var, names)))
            self._sig[name] = arity, compile_term(algebra.sig, node, names)
        self._lhs = _arrow(identity.lhs, identity.lhs.compiled)
        self._rhs = _arrow(identity.rhs, identity.rhs.compiled)
        for t in stage(algebra.sig, algebra.carrier, bound).terms:
            self.alpha1_of(t)
        for t in stage(domain_signature(identity.domain), algebra.carrier, bound).terms:
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
        value = memo.get(t)
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


def _em_valid(pair: DAlgebraPair, sig: Signature, table: dict, memo: dict) -> bool:
    """Unit law plus the one-node multiplication law of the structure map
    folding terms over ``sig`` through ``table`` into ``memo``: a node's
    fold is its table step on its children's folds.  The nodes checked
    are those of the stage at the pair's bound (at least 1), the stage the
    constructor folded, in stage order, so a node's children are checked
    before the node reads their folds as positions.  Full flattening at
    the bound follows by structural induction."""
    alg, fold = pair.algebra, pair._fold
    for j, a in enumerate(alg.carrier):
        if fold(table, Var(a), memo) != j:
            return False
    for t in stage(sig, alg.carrier, max(pair.bound, 1)).terms:
        if type(t) is Var:
            continue
        step = table[t.op][1]
        args = [fold(table, a, memo) for a in t.args]
        if fold(table, t, memo) != step(alg.flat, pair._n, args):
            return False
    return True


def dalg_violation(pair: DAlgebraPair) -> Optional[Term]:
    """First domain-chain element up to the pair's bound where the two
    arrows disagree, or None: ``alpha0_of`` folds along ``lhs``, so the
    element's fold along ``rhs`` is compared with it."""
    gsig = domain_signature(pair.identity.domain)
    if not _em_valid(pair, pair.algebra.sig, pair._sig, pair.alpha1):
        raise ValidationError("signature-side structure map violates the monad laws")
    if not _em_valid(pair, gsig, pair._lhs, pair.alpha0):
        raise ValidationError("domain-side structure map violates the monad laws")
    via_rhs: dict = {}
    for t in stage(gsig, pair.algebra.carrier, pair.bound).terms:
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
