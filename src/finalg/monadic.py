"""Free-monad machinery at finite depth.

The free monad over a signature functor has all finite terms as its
carrier; the unit is the variable embedding and the multiplication is
substitution (flattening a term whose variable slots hold terms).  A
transformation out of a domain functor G = ∐ᵢ hom(kᵢ, -) extends level
by level along G's own term chain: variables map by the unit, a G-node
maps by instantiating the generating term at the already-translated
children and flattening.  Everything here is bounded by an explicit
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

from .algebras import FinAlgebra
from .core import FinMap, FinSet, atom_key, enumerate_maps
from .errors import ValidationError
from .functors import Signature
from .identities import (
    ClassComparison,
    NaturalIdentity,
    NaturalTerm,
    canonical_vars,
    compare_classes,
    satisfies,
)
from .terms import Node, Term, Var, check_term, stage, substitute, variables


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


def _component_ops(domain: tuple[int, ...]) -> Signature:
    return Signature(tuple((f"c{i}", k) for i, k in enumerate(domain)))


@dataclass(frozen=True)
class RhoChain:
    """A transformation ∐ᵢ hom(kᵢ, -) → terms, extended along the domain's
    own term chain: one generating term per component, any height."""

    sig: Signature
    domain: tuple[int, ...]
    data: tuple[Term, ...]

    def __post_init__(self):
        object.__setattr__(self, "domain", tuple(int(k) for k in self.domain))
        object.__setattr__(self, "data", tuple(self.data))
        if len(self.domain) != len(self.data):
            raise ValidationError("one generating term per component required")
        for k, t in zip(self.domain, self.data):
            check_term(self.sig, t)
            extra = variables(t) - set(canonical_vars(k))
            if extra:
                raise ValidationError(f"variable {sorted(extra)[0]!r} outside v1..v{k}")

    @classmethod
    def from_natural_term(cls, nt: NaturalTerm) -> "RhoChain":
        return cls(nt.sig, nt.domain, nt.data)

    def domain_signature(self) -> Signature:
        return _component_ops(self.domain)

    def component_index(self, op: str) -> int:
        for i in range(len(self.domain)):
            if op == f"c{i}":
                return i
        raise ValidationError(f"unknown domain component {op!r}")


def rho_level(chain: RhoChain, k: int, elem: Term) -> Term:
    """Translate an element of the domain's stage k: variables map by the
    unit; a node instantiates the generating term at its translated
    children and flattens."""
    match elem:
        case Var(name):
            return Var(name)
        case Node(op, children):
            if k < 1:
                raise ValidationError("level 0 of the domain chain holds only variables")
            i = chain.component_index(op)
            translated = tuple(rho_level(chain, k - 1, c) for c in children)
            names = canonical_vars(chain.domain[i])
            return substitute(chain.data[i], dict(zip(names, translated)))
    raise ValidationError(f"not a term: {elem!r}")


@dataclass(frozen=True)
class MonadMapReport:
    holds: bool
    checked: int
    failures: tuple = ()

    def __bool__(self) -> bool:
        return self.holds


def check_monad_map(chain: RhoChain, bound: int, x: Optional[FinSet] = None) -> MonadMapReport:
    """Element-by-element verification, over stages of the domain chain up
    to ``bound``, that the level maps restrict correctly: variables go to
    variables, one-node elements reproduce the generating terms, and
    higher levels agree with lower ones on included elements."""
    if x is None:
        x = FinSet(("x1", "x2"))
    gsig = chain.domain_signature()
    stage(gsig, x, bound)  # refuses an over-large bound before any work
    checked = 0
    failures = []

    for k in range(bound + 1):
        for a in x:
            checked += 1
            if rho_level(chain, k, Var(a)) != Var(a):
                failures.append(("unit", k, Var(a)))

    for i, ki in enumerate(chain.domain):
        names = canonical_vars(ki)
        for args in itertools.product(x.elements, repeat=ki):
            elem = Node(f"c{i}", tuple(Var(a) for a in args))
            expected = substitute(chain.data[i], {v: Var(a) for v, a in zip(names, args)})
            checked += 1
            if rho_level(chain, 1, elem) != expected:
                failures.append(("one-step", 1, elem))

    for j in range(bound + 1):
        elems = stage(gsig, x, j).terms
        for k in range(j, bound + 1):
            for elem in elems:
                checked += 1
                if rho_level(chain, k, elem) != rho_level(chain, j, elem):
                    failures.append(("compatibility", (j, k), elem))

    return MonadMapReport(not failures, checked, tuple(failures))


def satisfies_level(alg: FinAlgebra, ident: NaturalIdentity, k: int) -> bool:
    """Satisfaction of the level-k derived identity, decided exactly.

    The two level maps evaluate through the algebra as folds over the
    domain chain, so an element only matters through its pair of fold
    values.  The reachable pair set is closed under the component folds;
    the identity holds at level k iff every pair reachable within k
    steps is diagonal.
    """
    if alg.sig != ident.sig:
        raise ValidationError("signature mismatch between algebra and identity")
    tables = alg.tables
    pairs = {(a, a) for a in alg.carrier}
    for _ in range(k):
        new = set(pairs)
        for ki, left, right in ident.sides:
            for combo in itertools.product(pairs, repeat=ki):
                lvalues = [p[0] for p in combo]
                rvalues = [p[1] for p in combo]
                new.add((left(tables, lvalues), right(tables, rvalues)))
        if new == pairs:
            break
        pairs = new
    return all(a == b for a, b in pairs)


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
    """Every subset of ``s`` as a tuple in the order of ``s``."""
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

    @classmethod
    def build(cls, base: FinSet) -> "PowersetMonadInstance":
        obj = _subsets(base)
        eta = FinMap(base, obj, {a: (a,) for a in base})
        return cls(base, obj, eta)

    def mu_element(self, family: tuple) -> tuple:
        return _union(family)

    def double(self) -> FinSet:
        return _subsets(self.object)


def powerset_instance(base: FinSet) -> PowersetMonadInstance:
    return PowersetMonadInstance.build(base)


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


def em_to_algebra(
    m: PowersetMonadInstance, alpha: FinMap, join: str = "m", unit: str = "e"
) -> FinAlgebra:
    """The binary-join/least-element algebra induced by an E-M structure."""
    sig = Signature(((join, 2), (unit, 0)))
    table = {}
    for a in m.base:
        for b in m.base:
            table[(a, b)] = alpha.table[tuple(sorted({a, b}, key=atom_key))]
    return FinAlgebra(sig, m.base, {join: table, unit: {(): alpha.table[()]}})


# ---------------------------------------------------------------------------
# Algebras for the two-object, two-arrow diagram of monads


@dataclass(frozen=True)
class DiagramOfMonads:
    """Two free monads (over the domain ops and over the signature) with the
    two induced monad maps given by term translation along ``f_chain`` and
    ``g_chain`` (``rho_level`` at each element's own height)."""

    sig: Signature
    domain: tuple[int, ...]
    f_chain: RhoChain
    g_chain: RhoChain

    @classmethod
    def from_identity(cls, ident: NaturalIdentity) -> "DiagramOfMonads":
        return cls(
            ident.sig,
            ident.domain,
            RhoChain.from_natural_term(ident.lhs),
            RhoChain.from_natural_term(ident.rhs),
        )


class DAlgebraPair:
    """A carrier with one structure map per monad of the diagram.

    ``alpha1_of`` folds a term over the signature through the algebra's
    tables, memoised in ``alpha1``.  ``alpha0_of`` folds a term over the
    domain ops along ``f_chain``, memoised in ``alpha0``: a node folds
    its generating term through ``alpha1_of`` at its children's values.
    A fold through tables respects substitution, so that value is the
    ``alpha1_of`` of the node's translation along ``f_chain`` (the level
    map ``rho_level`` at the node's height), without building the
    translation.  The constructor fills both memos over the stages up to
    ``bound``, so an over-large stage is refused before any check runs.
    """

    __slots__ = ("algebra", "diagram", "bound", "alpha1", "alpha0")

    def __init__(self, algebra: FinAlgebra, diagram: DiagramOfMonads, bound: int):
        if algebra.sig != diagram.sig:
            raise ValidationError("algebra signature differs from the diagram")
        self.algebra = algebra
        self.diagram = diagram
        self.bound = bound
        self.alpha1: dict = {}
        self.alpha0: dict = {}
        for t in stage(algebra.sig, algebra.carrier, bound).terms:
            self.alpha1_of(t)
        for t in stage(diagram.f_chain.domain_signature(), algebra.carrier, bound).terms:
            self.alpha0_of(t)

    def alpha1_of(self, t: Term):
        if t in self.alpha1:
            return self.alpha1[t]
        if type(t) is Var:
            if t.name not in self.algebra.carrier:
                raise ValidationError(f"unbound variable {t.name!r}")
            value = t.name
        else:
            value = self.algebra.tables[t.op][tuple([self.alpha1_of(a) for a in t.args])]
        self.alpha1[t] = value
        return value

    def alpha0_of(self, t: Term):
        return self.fold_along(self.diagram.f_chain, t, self.alpha0)

    def fold_along(self, chain: RhoChain, t: Term, memo: dict):
        """The fold of domain term ``t`` along ``chain``, memoised in ``memo``."""
        if t in memo:
            return memo[t]
        if type(t) is Var:
            value = self.alpha1_of(t)
        else:
            i = chain.component_index(t.op)
            names = canonical_vars(chain.domain[i])
            slots = {v: Var(self.fold_along(chain, a, memo)) for v, a in zip(names, t.args)}
            value = self.alpha1_of(substitute(chain.data[i], slots))
        memo[t] = value
        return value


def _em_valid(pair: DAlgebraPair, gside: bool) -> bool:
    """Unit law plus the one-node multiplication law; full flattening at the
    bound follows by structural induction from the one-node case."""
    alg = pair.algebra
    fold = pair.alpha0_of if gside else pair.alpha1_of
    for a in alg.carrier:
        if fold(Var(a)) != a:
            return False
    sig = pair.diagram.f_chain.domain_signature() if gside else alg.sig
    inner = stage(sig, alg.carrier, max(pair.bound - 1, 0)).terms
    for name, arity in sig:
        for args in itertools.product(inner.elements, repeat=arity):
            spliced = fold(Node(name, args))
            collapsed = fold(Node(name, tuple(Var(fold(a)) for a in args)))
            if spliced != collapsed:
                return False
    return True


def dalg_violation(pair: DAlgebraPair) -> Optional[Term]:
    """First domain-chain element up to the pair's bound where the two
    arrows disagree, or None: ``alpha0_of`` folds along ``f_chain``, so
    the element's fold along ``g_chain`` is compared with it."""
    if not _em_valid(pair, gside=False):
        raise ValidationError("signature-side structure map violates the monad laws")
    if not _em_valid(pair, gside=True):
        raise ValidationError("domain-side structure map violates the monad laws")
    d = pair.diagram
    via_g: dict = {}
    for t in stage(d.f_chain.domain_signature(), pair.algebra.carrier, pair.bound).terms:
        if pair.fold_along(d.g_chain, t, via_g) != pair.alpha0_of(t):
            return t
    return None


def dalg_check(pair: DAlgebraPair) -> bool:
    """Whether the pair is compatible with both arrows of its diagram on
    every domain-chain element up to its bound."""
    return dalg_violation(pair) is None


def variety_vs_dalg(ident: NaturalIdentity, max_size: int, bound: int) -> ClassComparison:
    """Compare direct satisfaction with diagram-algebra compatibility over
    every algebra with carrier ≤ max_size."""
    d = DiagramOfMonads.from_identity(ident)
    return compare_classes(
        ident.sig,
        max_size,
        lambda alg: satisfies(alg, ident),
        lambda alg: dalg_check(DAlgebraPair(alg, d, bound)),
    )
