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

``reference_instance_passes`` is the saturation engine's instance pass
as an interpreter: each identity side compiled once to a step list
(``compile_side``), run per instance by ``build``, with a set of the
instances applied so far, as the reference for the generated passes of
``finalg.variety._instance_passes``, which try each instance once by
reading only the new part of each pool.

``reference_register_depth`` is the saturation engine's frontier as a
comparison sort of ``(size, operation, child ids)`` tuples, then one
``register`` per node, which files it through ``file_node``, as the
reference for ``finalg.variety._Engine.register_depth``, which orders
its nodes with ``finalg.terms.nodes_in_order`` (the canonical order is
stated once, in the ``finalg.terms`` docstring).

``reference_stable`` is the first part of the stop test of
``finalg.variety.saturate`` as it was stated on two sets of roots: the
roots before a depth still name distinct classes after it, and they are
all the classes; ``saturate`` decides it by a count instead.
``reference_stabilized`` builds a stabilized result's algebra from its
state's closure through the checked ``FinAlgebra`` constructor, where
``saturate`` reads the flat tables off the frontier nodes.

The oracles evaluate terms with ``fold``, a plain recursive walk written
here, so they stay independent of the evaluator that finalg compiles and
of the closures in ``NaturalTerm.compiled``.  The universal-property
oracles try every map out of a free algebra's carrier, where
``finalg.variety`` folds the carrier terms once it knows they generate.
"""
import itertools
import math
from dataclasses import dataclass

from finalg import (
    FinAlgebra,
    FinMap,
    FinSet,
    Node,
    Partition,
    ResourceLimitError,
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
from finalg.core import MAX_ENUMERATION, atom_key
from finalg.dsl import SpecModel
from finalg.identities import NaturalIdentity, NaturalTerm, canonical_vars
from finalg.monadic import domain_signature, mu_flatten, rho_level
from finalg.terms import relabel, variables


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
    st = stage(ident.sig, alg.carrier, ident.arity)

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
    for elem in stage(domain_signature(ident.domain), alg.carrier, k):
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
    for t in stage(domain_signature(identity.domain), algebra.carrier, bound):
        if fold(algebra, translate(identity.lhs, t), binding) != fold(
                algebra, translate(identity.rhs, t), binding):
            return t
    return None


def compile_side(side: Term, deepest: dict) -> tuple:
    """``side`` as ``(steps, out)``: its nodes in post-order, left to right,
    each step ``(op, slots)`` reading the registers at ``slots`` and writing
    the next one, and the register of the side's value.  The registers
    start with the images of the variables of ``deepest``, in its order.

    The same walk raises each variable's entry in ``deepest`` to the depth
    of its deepest occurrence, measured from the root.  The height of
    side[g] is max(side.height, max_v(deepest_v + height(g(v)))), so these
    depths turn the fits-in-stage test into a per-variable bound."""
    slot = {v: i for i, v in enumerate(deepest)}
    steps: list[tuple[str, tuple[int, ...]]] = []

    def walk(t: Term, depth: int) -> int:
        if not isinstance(t, Node):
            deepest[t.name] = max(deepest[t.name], depth)
            return slot[t.name]
        slots = tuple([walk(a, depth + 1) for a in t.args])
        steps.append((t.op, slots))
        return len(slot) + len(steps) - 1

    out = walk(side, 0)
    return tuple(steps), out


def build(engine, side: tuple, images: tuple[int, ...]) -> list[int]:
    """The registers of a side compiled by ``compile_side``, its variables
    bound to the ids ``images``: the images, then per step the id of a
    node of the step's operation over the ids in its slots, or over ids
    of their classes.  A step takes the node with exactly those children
    if there is one, else the node ``sig_table`` files under their roots;
    it registers nothing, and raises ``KeyError`` when neither exists."""
    steps, _ = side
    regs = list(images)
    nodes, filed, root = engine.nodes, engine.sig_table, engine.root
    for op, slots in steps:
        args = tuple([regs[s] for s in slots])
        nid = nodes.get((op, args))
        if nid is None:
            nid = filed[(op, tuple([root[a] for a in args]))]
        regs.append(nid)
    return regs


def reference_instance_passes(ids, sig):
    """The reference for ``finalg.variety._instance_passes``: the instance
    pass of one saturation run, which, at each depth, per identity
    component whose taller side fits, runs both compiled sides through
    ``build`` on every tuple of the pools' product that is not in the
    run's ``applied`` set yet, adds it there, and joins the sides' ids
    when their classes differ; then it drains."""
    components = []
    for ident in ids:
        if ident.sig != sig:
            raise ValidationError("identity signature differs from presentation")
        for k, left, right in zip(ident.domain, ident.lhs.data, ident.rhs.data):
            occurring = variables(left) | variables(right)
            deepest = {v: 0 for v in canonical_vars(k) if v in occurring}
            components.append((deepest, compile_side(left, deepest),
                               compile_side(right, deepest), max(left.height, right.height)))
    least_offset = min((o for deepest, *_ in components for o in deepest.values()), default=0)
    applied: set = set()

    def instance_pass(engine, depth):
        root = engine.root
        height = engine.height
        reps = [(tid, height[tid]) for tid in engine.least_ids()
                if height[tid] <= depth - least_offset]
        for comp_id, (deepest, left, right, ground) in enumerate(components):
            if ground > depth:
                continue
            pools = [
                [tid for tid, height in reps if height + offset <= depth]
                for offset in deepest.values()
            ]
            if (instances := math.prod(map(len, pools))) > MAX_ENUMERATION:
                what = f"instances of identity component {comp_id} at depth {depth}"
                raise ResourceLimitError(what, instances, MAX_ENUMERATION)
            for images in itertools.product(*pools):
                key = (comp_id, images)
                if key in applied:
                    continue
                applied.add(key)
                left_regs, right_regs = build(engine, left, images), build(engine, right, images)
                a, b = left_regs[left[1]], right_regs[right[1]]
                if root[a] != root[b]:
                    k = len(images)
                    engine.union(a, b, (comp_id, images,
                                        tuple(left_regs[k:]), tuple(right_regs[k:])))
            engine.drain()

    return instance_pass


def file_node(engine, nid: int) -> tuple[int, ...]:
    """File node ``nid`` in ``sig_table`` under its operation and child
    roots and return those roots; when another node holds them, retire
    ``nid`` and queue a congruence with that node if in another class."""
    root = engine.root
    roots = tuple([root[a] for a in engine.node_args[nid]])
    other = engine.sig_table.setdefault((engine.ops[nid], roots), nid)
    if other != nid:
        engine.retired[nid] = 1
        if root[other] != root[nid]:
            engine.pending.append((other, nid))
    return roots


def register(engine, height: int, size: int, op: str, arg_ids: tuple[int, ...]) -> None:
    """Register the node ``op`` over ``arg_ids``, which ``nodes`` does not
    hold, as the next id: record its operation, height and size, file it
    (the frontier never registers a node that filing retires), and add it
    to the parent list of each of its distinct child roots."""
    nid = len(engine.ops)
    engine.ops.append(op)
    engine.height.append(height)
    engine.size.append(size)
    engine.root.append(nid)
    engine.members.append(None)
    engine.rep[nid] = nid
    engine.node_args.append(arg_ids)
    engine.parents.append(())
    engine.retired.append(0)
    engine.nodes[(op, arg_ids)] = nid
    parents = engine.parents
    for root in file_node(engine, nid):
        filed = parents[root]
        if not filed:
            parents[root] = [nid]
        elif filed[-1] != nid:
            filed.append(nid)


def reference_register_depth(engine, depth: int, frontier, sig: Signature) -> None:
    """The reference for ``finalg.variety._Engine.register_depth``: the new
    nodes, all of height ``depth``, sorted as ``(size, operation, child
    ids)`` tuples into canonical term order, each registered by
    ``register``; then a drain."""
    sizes, nodes = engine.size, engine.nodes
    for size, name, args in sorted(
        (sum([sizes[a] for a in args]) + 1, name, args) for name, arity in sig
        for args in itertools.product(frontier, repeat=arity) if (name, args) not in nodes
    ):
        register(engine, depth, size, name, args)
    engine.drain()


def reference_stable(prev_roots, engine) -> bool:
    """The reference for the count condition of ``finalg.variety.saturate``:
    the roots ``prev_roots`` of the classes before a depth still name
    distinct classes of ``engine`` after it, and those are all its classes."""
    root = engine.root
    return len(prev_roots) == len({root[r] for r in prev_roots}) == len(engine.rep)


def reference_stabilized(state):
    """The reference for a stabilized result's algebra and unit: the
    state's closure ``{(op, least children): least}`` over the terms of
    the classes' least ids, as tables through the checked ``FinAlgebra``
    constructor, and the unit sending each generator to its class's term."""
    least = state.least
    term = {c: state.term(c) for c in set(least)}
    carrier = FinSet(tuple(term.values()))
    tables = {name: {} for name, _ in state.sig}
    for i in range(len(state.x), len(state.ops)):
        args = tuple([term[least[c]] for c in state.node_args[i]])
        assert tables[state.ops[i]].setdefault(args, term[least[i]]) == term[least[i]]
    algebra = FinAlgebra(state.sig, carrier, tables)
    unit = FinMap(state.x, carrier, {a: term[least[i]] for i, a in enumerate(state.x)})
    return algebra, unit
