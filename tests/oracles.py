"""Reference oracles for cross-checks, the free-monad helpers that only
the tests use (``translate``, ``wrap_term``, ``FreeMonadView``), and the
other names only the tests use: ``is_injective``, ``is_surjective``,
``domain_expr``, ``format_model``, ``then``, ``identity_map``,
``block_rep``, ``structure_map`` and ``em_to_algebra``.

A quotient is its partition in finalg.  ``representatives``,
``projection`` and ``kernel_pair`` give it as the map onto the least atom
of each block and that map's kernel pair, and ``kernel_pair_identity``
reads an equation arrow back through them, as the reference for
``equation_to_identity``, which reads the pairs off the blocks.

``dalg_violation_full_walk`` walks every stage up to the bound, where
``monadic.dalg_violation`` compares the arrows on stage 1 only, as the
reference for that cut.

The oracles evaluate terms with ``fold``, a plain recursive walk written
here, so they stay independent of the evaluator that finalg compiles and
of the closures in ``NaturalTerm.compiled``.  The universal-property
oracles try every map out of a free algebra's carrier, where
``finalg.variety`` folds the carrier terms once it knows they generate.
"""
import itertools
from dataclasses import dataclass

from finalg import (
    FinAlgebra,
    FinMap,
    FinSet,
    Partition,
    Signature,
    Term,
    ValidationError,
    Var,
    apply_obj,
    enumerate_maps,
    format_term,
    is_morphism,
    stage,
    substitute,
)
from finalg.core import atom_key
from finalg.dsl import SpecModel
from finalg.identities import NaturalIdentity, NaturalTerm, canonical_vars
from finalg.monadic import domain_signature, mu_flatten, rho_level
from finalg.terms import relabel


def translate(nt: NaturalTerm, elem: Term) -> Term:
    """The unbounded translation (the induced monad map on all elements):
    the level map at the element's own height."""
    return rho_level(nt, elem.height, elem)


def is_injective(f: FinMap) -> bool:
    return len(set(f.table.values())) == len(f.dom)


def is_surjective(f: FinMap) -> bool:
    return len(set(f.table.values())) == len(f.cod)


def domain_expr(t: NaturalTerm | NaturalIdentity) -> Signature:
    """The domain functor ∐ᵢ hom(kᵢ, -) as the signature functor with one
    operation ``ci`` of arity kᵢ per component."""
    return domain_signature(t.domain)


def then(f: FinMap, g: FinMap) -> FinMap:
    """Post-composition: ``then(f, g)`` is g∘f."""
    if f.cod != g.dom:
        raise ValidationError("composition mismatch: codomain != domain")
    return FinMap(f.dom, g.cod, {a: g.table[b] for a, b in f.table.items()})


def identity_map(s: FinSet) -> FinMap:
    """The identity map of ``s``."""
    return FinMap(s, s, {a: a for a in s})


def block_rep(part: Partition, atom):
    """The least atom of the block of ``part`` that holds ``atom``."""
    for items in part.blocks:
        if atom in items:
            return items[0]
    raise ValidationError(f"{atom!r} not in base")


def representatives(part: Partition) -> FinSet:
    """The least atom of each block of ``part``."""
    return FinSet(tuple(items[0] for items in part.blocks))


def projection(part: Partition) -> FinMap:
    """The map from ``part``'s base onto its representatives sending each
    atom to the least atom of its block; it coequalizes every pair the
    partition merges."""
    return FinMap(part.base, representatives(part),
                  {a: items[0] for items in part.blocks for a in items})


def kernel_pair(proj: FinMap) -> list[tuple]:
    """All ordered pairs of domain atoms with equal image (diagonal
    included), by the domain position of the first, then of the second."""
    fibers: dict = {}
    for a in proj.dom:
        fibers.setdefault(proj.table[a], []).append(a)
    pairs = []
    for a in proj.dom:
        for b in fibers[proj.table[a]]:
            pairs.append((a, b))
    return pairs


def kernel_pair_identity(eq) -> NaturalIdentity:
    """An equation arrow read back as a natural identity through the
    kernel pair of its projection: one component over hom(|X|, -) per
    pair ``(s, t)`` with ``s`` sorting strictly before ``t``."""
    renaming = dict(zip(eq.var_object.elements, canonical_vars(len(eq.var_object))))
    pairs = [(s, t) for s, t in kernel_pair(projection(eq.part)) if atom_key(s) < atom_key(t)]
    domain = tuple(len(eq.var_object) for _ in pairs)
    return NaturalIdentity(
        NaturalTerm(eq.sig, domain, eq.arity, tuple(relabel(s, renaming) for s, _ in pairs)),
        NaturalTerm(eq.sig, domain, eq.arity, tuple(relabel(t, renaming) for _, t in pairs)))


def structure_map(alg: FinAlgebra) -> FinMap:
    """An algebra's tables as the single structure map F(A) → A over the
    signature functor."""
    dom = apply_obj(alg.sig, alg.carrier)
    tables = alg.tables
    return FinMap(dom, alg.carrier, {(name, args): tables[name][args] for (name, args) in dom})


def em_to_algebra(m, alpha: FinMap) -> FinAlgebra:
    """The binary-join ``m``/least-element ``e`` algebra induced by an
    Eilenberg-Moore structure ``alpha`` of the power-set monad ``m``."""
    sig = Signature((("m", 2), ("e", 0)))
    table = {}
    for a in m.base:
        for b in m.base:
            table[(a, b)] = alpha.table[tuple(sorted({a, b}, key=atom_key))]
    return FinAlgebra(sig, m.base, {"m": table, "e": {(): alpha.table[()]}})


def format_model(model: SpecModel) -> str:
    """Canonical text for a model; parsing it back yields an equal model."""
    lines: list[str] = []
    for name, sig in model.signatures.items():
        lines.append(f"signature {name} {{")
        for op, arity in sig:
            lines.append(f"  op {op} : {arity}")
        lines.append("}")
        lines.append("")
    if model.vars:
        lines.append("vars " + " ".join(model.vars))
        lines.append("")
    for name, decl in model.identities.items():
        lines.append(
            f"identity {name} over {decl.sig_name} : "
            f"{format_term(decl.lhs)} = {format_term(decl.rhs)}"
        )
    if model.identities:
        lines.append("")
    for name, decl in model.algebras.items():
        lines.append(f"algebra {name} over {decl.sig_name} {{")
        lines.append("  carrier { " + " ".join(decl.algebra.carrier.elements) + " }")
        for op, arity in model.signatures[decl.sig_name]:
            lines.append(f"  op {op} {{")
            table = decl.algebra.tables[op]
            for combo in itertools.product(decl.algebra.carrier.elements, repeat=arity):
                lines.append(f"    ({','.join(combo)}) -> {table[combo]}")
            lines.append("  }")
        lines.append("}")
        lines.append("")
    for name, decl in model.presentations.items():
        lines.append(
            f"presentation {name} = {decl.sig_name} with " + " ".join(decl.identity_names)
        )
    return "\n".join(lines).rstrip() + "\n"


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
        for i, k in enumerate(ident.domain):
            names = canonical_vars(k)
            for args in itertools.product(alg.carrier.elements, repeat=k):
                table[(f"c{i}", args)] = substitute(
                    nt.data[i], {v: Var(a) for v, a in zip(names, args)})
        return FinMap(ga, st, table)

    identity_binding = {a: a for a in alg.carrier}
    eps = FinMap(st, alg.carrier, {t: fold(alg, t, identity_binding) for t in st})
    return then(component(ident.lhs), eps) == then(component(ident.rhs), eps)


def satisfies_level_enumerated(alg, ident, k):
    """Materialize stage k of the domain chain over the carrier, translate
    each element through both level maps, and evaluate.  Feasible only for
    small domains."""
    binding = {a: a for a in alg.carrier}
    for elem in stage(domain_signature(ident.domain), alg.carrier, k).terms:
        lhs = fold(alg, rho_level(ident.lhs, k, elem), binding)
        rhs = fold(alg, rho_level(ident.rhs, k, elem), binding)
        if lhs != rhs:
            return False
    return True


def extension_count_enumerated(res, target, f):
    """How many maps out of a free algebra's carrier are morphisms into
    ``target`` extending ``f`` along the unit: every map is tried."""
    free, unit = res.algebra, res.unit.table
    return sum(
        is_morphism(free, target, h)
        for h in enumerate_maps(free.carrier, target.carrier)
        if all(h.table[unit[a]] == f.table[a] for a in res.unit.dom)
    )


def universal_property_witness_enumerated(res, target):
    """The first assignment of the generators into ``target`` without
    exactly one extension, with its count by enumeration, or None."""
    for f in enumerate_maps(res.unit.dom, target.carrier):
        count = extension_count_enumerated(res, target, f)
        if count != 1:
            return f, count
    return None


def dalg_violation_full_walk(algebra, identity, bound):
    """The first element of the domain chain's stage ``bound`` over the
    algebra's carrier whose translations along ``identity.lhs`` and
    ``identity.rhs`` fold to different values, or None: every stage up to
    the bound is walked, not only stage 1, and each element is translated
    and folded as a whole."""
    binding = {a: a for a in algebra.carrier}
    for t in stage(domain_signature(identity.domain), algebra.carrier, bound).terms:
        if fold(algebra, translate(identity.lhs, t), binding) != fold(
                algebra, translate(identity.rhs, t), binding):
            return t
    return None
