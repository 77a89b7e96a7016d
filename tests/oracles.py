"""Reference oracles for cross-checks.

They evaluate terms with ``fold``, a plain recursive walk written here,
so they stay independent of the evaluator that finalg compiles.
"""
import itertools

from finalg import FinMap, Var, apply_obj, stage, substitute
from finalg.identities import canonical_vars, domain_expr
from finalg.monadic import RhoChain, rho_level


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
