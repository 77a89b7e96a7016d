"""Reference oracles for cross-checks, and the free-monad helpers that
only the tests use (``translate``, ``wrap_term``, ``FreeMonadView``).

The oracles evaluate terms with ``fold``, a plain recursive walk written
here, so they stay independent of the evaluator that finalg compiles and
of the memoised folds of ``monadic.DAlgebraPair``.
"""
import itertools
from dataclasses import dataclass

from finalg import FinMap, FinSet, Signature, Term, Var, apply_obj, stage, substitute
from finalg.identities import canonical_vars, domain_expr
from finalg.monadic import RhoChain, mu_flatten, rho_level


def translate(chain: RhoChain, elem: Term) -> Term:
    """The unbounded translation (the induced monad map on all elements):
    the level map at the element's own height."""
    return rho_level(chain, elem.height, elem)


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


def fold(alg, t, binding):
    """Fold ``t`` through ``alg``'s tables, one recursive call per node."""
    if isinstance(t, Var):
        return binding[t.name]
    return alg.tables[t.op][tuple(fold(alg, a, binding) for a in t.args)]


def reference_violation(alg, ident):
    """First failing (component, assignment) in ``itertools.product`` order."""
    for i, k in enumerate(ident.domain):
        names = canonical_vars(k)
        left, right = ident.lhs.data[i], ident.rhs.data[i]
        for values in itertools.product(alg.carrier.elements, repeat=k):
            binding = dict(zip(names, values))
            if fold(alg, left, binding) != fold(alg, right, binding):
                return (i, values)
    return None


def satisfies_transform(alg, ident):
    """Materialize both transformation components at the carrier as maps
    G(A) → stage(A) and compare the literal composites with term
    evaluation stage(A) → A."""
    ga = apply_obj(domain_expr(ident), alg.carrier)
    st = stage(ident.sig, alg.carrier, ident.arity).terms

    def component(nt):
        table = {}
        for (i, args) in ga:
            names = canonical_vars(ident.domain[i])
            table[(i, args)] = substitute(nt.data[i], {v: Var(a) for v, a in zip(names, args)})
        return FinMap(ga, st, table)

    identity_binding = {a: a for a in alg.carrier}
    eps = FinMap(st, alg.carrier, {t: fold(alg, t, identity_binding) for t in st})
    return component(ident.lhs).then(eps) == component(ident.rhs).then(eps)


def satisfies_level_enumerated(alg, ident, k):
    """Materialize stage k of the domain chain over the carrier, translate
    each element through both level maps, and evaluate.  Feasible only for
    small domains."""
    lhs_chain = RhoChain.from_natural_term(ident.lhs)
    rhs_chain = RhoChain.from_natural_term(ident.rhs)
    gsig = lhs_chain.domain_signature()
    binding = {a: a for a in alg.carrier}
    for elem in stage(gsig, alg.carrier, k).terms:
        lhs = fold(alg, rho_level(lhs_chain, k, elem), binding)
        rhs = fold(alg, rho_level(rhs_chain, k, elem), binding)
        if lhs != rhs:
            return False
    return True
