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

from .algebras import FinAlgebra, evaluate
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


def wrap_term(t: Term) -> Term:
    """The unit of the free monad at the term level: a term becomes a slot."""
    return Var(t)


@dataclass(frozen=True)
class FreeMonadView:
    """The free monad over a signature: unit = variable embedding,
    multiplication = substitution."""

    sig: Signature

    def eta(self, atom) -> Term:
        return Var(atom)

    def mu(self, x: FinSet, tt: Term) -> Term:
        return mu_flatten(self.sig, x, tt)


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


def translate(chain: RhoChain, elem: Term) -> Term:
    """The unbounded translation (the induced monad map on all elements):
    the level map at the element's own height."""
    return rho_level(chain, elem.height, elem)


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
    two induced monad maps given by term translation."""

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
    """A carrier with one structure map per monad, tabulated to a depth.

    ``alpha1`` folds terms over the signature; ``alpha0`` folds terms over
    the domain ops.  Beyond the tabulated depth both fall back to direct
    evaluation, which is what the tables were built from.
    """

    __slots__ = ("algebra", "diagram", "bound", "alpha1", "alpha0")

    def __init__(self, algebra: FinAlgebra, diagram: DiagramOfMonads, bound: int):
        if algebra.sig != diagram.sig:
            raise ValidationError("algebra signature differs from the diagram")
        self.algebra = algebra
        self.diagram = diagram
        self.bound = bound
        binding = {a: a for a in algebra.carrier}
        self.alpha1 = {
            t: evaluate(algebra, t, binding)
            for t in stage(algebra.sig, algebra.carrier, bound).terms
        }
        gsig = diagram.f_chain.domain_signature()
        self.alpha0 = {
            t: evaluate(algebra, translate(diagram.f_chain, t), binding)
            for t in stage(gsig, algebra.carrier, bound).terms
        }

    def alpha1_of(self, t: Term):
        value = self.alpha1.get(t)
        if value is None:
            value = evaluate(self.algebra, t, {a: a for a in self.algebra.carrier})
        return value

    def alpha0_of(self, t: Term):
        value = self.alpha0.get(t)
        if value is None:
            value = evaluate(
                self.algebra,
                translate(self.diagram.f_chain, t),
                {a: a for a in self.algebra.carrier},
            )
        return value


def induced_pair(alg: FinAlgebra, d: DiagramOfMonads, bound: int) -> DAlgebraPair:
    return DAlgebraPair(alg, d, bound)


def _em_valid(pair: DAlgebraPair, gside: bool, bound: int) -> bool:
    """Unit law plus the one-node multiplication law; full flattening at the
    bound follows by structural induction from the one-node case."""
    alg = pair.algebra
    fold = pair.alpha0_of if gside else pair.alpha1_of
    for a in alg.carrier:
        if fold(Var(a)) != a:
            return False
    sig = pair.diagram.f_chain.domain_signature() if gside else alg.sig
    inner = stage(sig, alg.carrier, max(bound - 1, 0)).terms
    for name, arity in sig:
        for args in itertools.product(inner.elements, repeat=arity):
            spliced = fold(Node(name, args))
            collapsed = fold(Node(name, tuple(Var(fold(a)) for a in args)))
            if spliced != collapsed:
                return False
    return True


def dalg_violation(d: DiagramOfMonads, pair: DAlgebraPair, bound: int) -> Optional[Term]:
    """First domain-chain element where the two routes disagree, or None."""
    if not _em_valid(pair, gside=False, bound=bound):
        raise ValidationError("signature-side structure map violates the monad laws")
    if not _em_valid(pair, gside=True, bound=bound):
        raise ValidationError("domain-side structure map violates the monad laws")
    gsig = d.f_chain.domain_signature()
    for t in stage(gsig, pair.algebra.carrier, bound).terms:
        via_f = pair.alpha1_of(translate(d.f_chain, t))
        via_g = pair.alpha1_of(translate(d.g_chain, t))
        if via_f != pair.alpha0_of(t) or via_g != pair.alpha0_of(t):
            return t
    return None


def dalg_check(d: DiagramOfMonads, pair: DAlgebraPair, bound: int) -> bool:
    """Whether the pair is compatible with both arrows of the diagram on
    every domain-chain element up to the bound."""
    return dalg_violation(d, pair, bound) is None


def variety_vs_dalg(ident: NaturalIdentity, max_size: int, bound: int) -> ClassComparison:
    """Compare direct satisfaction with diagram-algebra compatibility over
    every algebra with carrier ≤ max_size."""
    d = DiagramOfMonads.from_identity(ident)
    return compare_classes(
        ident.sig,
        max_size,
        lambda alg: satisfies(alg, ident),
        lambda alg: dalg_check(d, induced_pair(alg, d, bound), bound),
    )
