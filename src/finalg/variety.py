"""Free algebras in a variety by congruence saturation over the term chain.

The engine walks the free-algebra chain depth by depth.  At each depth
it extends the registered term universe with every operation node over
the current class representatives, merges every substitution instance
of the defining identities that fits within the depth, and closes under
operation congruence (union-find with a node-signature index, as in
congruence-closure / equality-saturation engines).  Because every term
of height ≤ d is congruent to a node over minimal representatives, the
registered universe represents every class of the full stage set while
staying exponentially smaller.

The engine keeps one term store and one class record.  ``nodes``, the
hashcons of its terms, maps ``(op, child ids)`` to the id of the node
with exactly those children (the generators are ids 0..|x|-1), so
identity instances and frontier nodes are built on integer ids and a
``Term`` is made only for a new node, whose operation is that term's
own.  The keys of ``rep`` are exactly the live union-find roots, each
mapped to the id of its class's least term.  A union keeps the root
with the longer list of parent nodes and files the shorter list again
(Downey, Sethi & Tarjan, 1980); which root survives changes neither
``rep`` nor the classes after any drain.  One pass over ``nodes`` reads
the operation tables off these.

Every union the engine performs goes into a log with its reason: an
identity instance, given by its component and the ids bound to the
component's variables, or a congruence step between two nodes of one
operation whose children were already joined (proof-producing congruence
closure, after Nieuwenhuis & Oliveras, "Fast congruence closure and
extensions", 2007).  The result's :class:`CongruenceState` keeps the
engine's plain arrays and that log, and builds the canonical universe
and partition only when they are first read.  ``audit_derivations``
checks this certificate with its own union-find and no engine code.
Once it has shown that every carrier term folds to itself under the
unit, a morphism extending an assignment can only be the fold of each
carrier term under it, so the universal property is checked without
enumerating maps out of the free algebra.

Saturation stabilizes at depth d when the roots after depth d-1 still
name distinct classes after depth d and those are all the classes (the
images of the earlier roots are always among the current roots, so
equal counts make the map a bijection), and every operation table over
the classes is total; the quotient then carries a finite algebra and
the variable embedding becomes the unit of the free algebra.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Optional, Sequence, Union

from .algebras import FinAlgebra, compile_term, is_morphism
from .core import FinMap, FinSet, Partition, enumerate_maps
from .errors import ResourceLimitError, ValidationError
from .functors import Signature
from .identities import NaturalIdentity, canonical_vars, satisfies_all
from .terms import Node, Term, Var, variables

MAX_UNIVERSE = 500_000

# The reason logged for a union between two nodes of one operation whose
# children were already joined; an identity instance logs
# ``(component, images)`` instead.
CONGRUENCE = "congruence"


def _occurrence_depths(t: Term, depth: int = 0, acc: Optional[dict] = None) -> dict:
    """Deepest occurrence of each variable, measured from the root.

    The height of t[g] is max(t.height, max_v(occ_v + height(g(v)))), so
    these depths turn the fits-in-stage test into a per-variable bound.
    """
    if acc is None:
        acc = {}
    match t:
        case Var(name):
            acc[name] = max(acc.get(name, 0), depth)
        case Node(_, args):
            for a in args:
                _occurrence_depths(a, depth + 1, acc)
        case _:
            raise ValidationError(f"not a term: {t!r}")
    return acc


class _Engine:
    """Union-find over registered terms with congruence closure; ``nodes``
    (the one term store) is keyed on exact child ids, ``sig_table`` on
    child roots, ``rep`` maps each root to its least term's id, and
    ``union_log`` holds every union with its reason."""

    def __init__(self, x: FinSet):
        self.terms: list[Term] = []
        self.parent: list[int] = []
        self.rep: dict[int, int] = {}
        self.node_args: list[Optional[tuple[int, ...]]] = []
        self.nodes: dict[tuple, int] = {}
        self.sig_table: dict[tuple, int] = {}
        self.parents: dict[int, list[int]] = {}
        self.pending: deque[tuple[int, int]] = deque()
        self.union_log: list[tuple[int, int, object]] = []
        for a in x:
            self._add(Var(a), None)

    def find(self, i: int) -> int:
        parent = self.parent
        root = i
        while parent[root] != root:
            root = parent[root]
        while parent[i] != root:
            parent[i], i = root, parent[i]
        return root

    def node(self, op: str, arg_ids: tuple[int, ...]) -> int:
        """The id of the node ``op`` over the registered ``arg_ids``; its
        term is built only when the node is new."""
        nid = self.nodes.get((op, arg_ids))
        if nid is None:
            nid = self._add(Node(op, tuple(self.terms[a] for a in arg_ids)), arg_ids)
        return nid

    def instantiate(self, side: Term, g: dict) -> int:
        """The id of ``side`` with each variable replaced by the term of its
        bound id in ``g``."""
        if isinstance(side, Node):
            return self.node(side.op, tuple(self.instantiate(a, g) for a in side.args))
        return g[side.name]

    def _add(self, t: Term, arg_ids: Optional[tuple[int, ...]]) -> int:
        tid = len(self.terms)
        self.terms.append(t)
        self.parent.append(tid)
        self.rep[tid] = tid
        self.node_args.append(arg_ids)
        if arg_ids is not None:
            self.nodes[(t.op, arg_ids)] = tid
            for root in set(self._file(tid)):
                self.parents.setdefault(root, []).append(tid)
        return tid

    def _file(self, nid: int) -> tuple[int, ...]:
        """File node ``nid`` in ``sig_table`` under its operation and child
        roots, queueing a congruence with the node already filed there when
        that one is in another class; returns the child roots."""
        roots = tuple([self.find(a) for a in self.node_args[nid]])
        other = self.sig_table.setdefault((self.terms[nid].op, roots), nid)
        if self.find(other) != self.find(nid):
            self.pending.append((other, nid))
        return roots

    def union(self, a: int, b: int, reason) -> None:
        """Join the classes of ``a`` and ``b``, logging ``reason`` when they
        were distinct; the root with fewer parent nodes is merged away."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        parents = self.parents
        if len(parents.get(ra, ())) < len(parents.get(rb, ())):
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.union_log.append((a, b, reason))
        rep = self.rep
        if self.terms[rep[rb]].sort_key() < self.terms[rep[ra]].sort_key():
            rep[ra] = rep[rb]
        del rep[rb]
        moved = parents.pop(rb, [])
        for nid in moved:
            self._file(nid)
        parents.setdefault(ra, []).extend(moved)

    def drain(self) -> None:
        while self.pending:
            a, b = self.pending.popleft()
            self.union(a, b, CONGRUENCE)

    def least_ids(self) -> list[int]:
        """The id of each class's least term, in canonical term order."""
        terms = self.terms
        return sorted(self.rep.values(), key=lambda i: terms[i].sort_key())


@dataclass(frozen=True)
class CongruenceState:
    """What a saturation run leaves: its certificate and its partial tables.

    Id ``i`` names the registered term ``terms[i]``; the generators are
    ids 0..|x|-1, with ``node_args[i]`` None, and every other id is the
    node ``terms[i].op`` over the ids ``node_args[i]``.  ``least[i]``
    is the id of the least term of ``i``'s class.  Each ``union_log``
    entry ``(a, b, reason)`` joined the classes of ``a`` and ``b``; its
    reason is ``(component, images)`` for an instance of the flattened
    identity component with that index, its used variables bound to the
    ids ``images``, or ``CONGRUENCE``.  ``op_tables`` are the operation
    tables on the classes' least terms, and ``class_counts`` the class
    count after each processed depth.

    ``universe``, ``classes`` and ``instance_pairs`` are read off these
    arrays on first access and kept.
    """

    sig: Signature
    x: FinSet
    identities: tuple[NaturalIdentity, ...]
    depth: int
    terms: tuple[Term, ...]
    node_args: tuple[Optional[tuple[int, ...]], ...]
    least: tuple[int, ...]
    union_log: tuple[tuple[int, int, object], ...]
    op_tables: dict
    class_counts: tuple[int, ...]

    @cached_property
    def universe(self) -> FinSet:
        """The registered terms as a canonical set."""
        return FinSet(self.terms)

    @cached_property
    def classes(self) -> Partition:
        """The classes of the registered terms as a canonical partition."""
        groups: dict[int, list[Term]] = {}
        for t, c in zip(self.terms, self.least):
            groups.setdefault(c, []).append(t)
        return Partition(self.universe, groups.values())

    @cached_property
    def instance_pairs(self) -> tuple[tuple[Term, Term], ...]:
        """The two sides of each identity instance that merged classes, in
        the order of the merges."""
        terms = self.terms
        return tuple(
            (terms[a], terms[b]) for a, b, reason in self.union_log if reason != CONGRUENCE
        )


@dataclass(frozen=True)
class Stabilized:
    algebra: FinAlgebra
    unit: FinMap
    at_depth: int
    state: CongruenceState


@dataclass(frozen=True)
class Unstabilized:
    state: CongruenceState
    depth_bound: int


FreeAlgebraResult = Union[Stabilized, Unstabilized]


def _flatten(ids: Iterable[NaturalIdentity], sig: Signature) -> list[tuple]:
    """One entry per identity component: used variables in canonical order,
    per-variable occurrence-depth offsets, the two data terms, and the
    height of the ground skeleton."""
    components = []
    comp_id = 0
    for ident in ids:
        if ident.sig != sig:
            raise ValidationError("identity signature differs from presentation")
        for c, k in enumerate(ident.domain):
            left, right = ident.lhs.data[c], ident.rhs.data[c]
            occ_l = _occurrence_depths(left)
            occ_r = _occurrence_depths(right)
            used = tuple(v for v in canonical_vars(k) if v in occ_l or v in occ_r)
            offsets = {v: max(occ_l.get(v, 0), occ_r.get(v, 0)) for v in used}
            components.append(
                (comp_id, used, offsets, left, right, max(left.height, right.height))
            )
            comp_id += 1
    return components


def _state(engine: _Engine, sig: Signature, x: FinSet, ids: Sequence[NaturalIdentity],
           depth: int, counts: list[int]) -> CongruenceState:
    """The engine's arrays and log as a state, with each operation's table
    on the least terms of the classes: every registered node sends the
    classes of its children to its own class."""
    rep, find, terms = engine.rep, engine.find, engine.terms
    least = tuple([rep[find(i)] for i in range(len(terms))])
    tables: dict = {name: {} for name, _ in sig}
    for (op, arg_ids), nid in engine.nodes.items():
        tables[op][tuple([terms[least[a]] for a in arg_ids])] = terms[least[nid]]
    return CongruenceState(
        sig, x, tuple(ids), depth, tuple(terms), tuple(engine.node_args), least,
        tuple(engine.union_log), tables, tuple(counts),
    )


def saturate(
    sig: Signature,
    ids: Sequence[NaturalIdentity],
    x: FinSet,
    depth_bound: int,
    max_universe: int = MAX_UNIVERSE,
) -> FreeAlgebraResult:
    """Search for the free algebra on ``x`` in the variety presented by ``ids``.

    Returns :class:`Stabilized` with the quotient algebra and its unit, or
    :class:`Unstabilized` with the last state if ``depth_bound`` depths did
    not suffice.
    """
    if depth_bound < 1:
        raise ValidationError("depth bound must be at least 1")
    components = _flatten(ids, sig)
    engine = _Engine(x)
    counts: list[int] = []
    prev_roots = set(engine.rep)
    applied: set = set()

    for depth in range(1, depth_bound + 1):
        frontier = engine.least_ids()
        # The frontier adds every node over it that is not registered yet;
        # the registered ones are counted only when the plain bound is over.
        needed = len(engine.terms) + sum(len(frontier) ** arity for _, arity in sig)
        if needed > max_universe:
            inside = set(frontier)
            needed -= sum(all(a in inside for a in arg_ids) for _, arg_ids in engine.nodes)
            if needed > max_universe:
                raise ResourceLimitError("saturation universe", needed, max_universe)
        for name, arity in sig:
            for arg_ids in itertools.product(frontier, repeat=arity):
                engine.node(name, arg_ids)
        engine.drain()

        while True:
            merges_before = len(engine.union_log)
            terms_before = len(engine.terms)
            reps = [(tid, engine.terms[tid].height) for tid in engine.least_ids()]
            for comp_id, used, offsets, left, right, ground in components:
                if ground > depth:
                    continue
                pools = [
                    [tid for tid, height in reps if height + offsets[v] <= depth]
                    for v in used
                ]
                for images in itertools.product(*pools):
                    key = (comp_id, images)
                    if key in applied:
                        continue
                    applied.add(key)
                    g = dict(zip(used, images))
                    engine.union(engine.instantiate(left, g), engine.instantiate(right, g), key)
                engine.drain()
            if len(engine.terms) > max_universe:
                raise ResourceLimitError(
                    "saturation universe", len(engine.terms), max_universe
                )
            if len(engine.union_log) == merges_before and len(engine.terms) == terms_before:
                break

        counts.append(len(engine.rep))
        if len(prev_roots) == len({engine.find(r) for r in prev_roots}) == len(engine.rep):
            state = _state(engine, sig, x, ids, depth, counts)
            tables = state.op_tables
            if all(len(tables[name]) == len(engine.rep) ** arity for name, arity in sig):
                carrier = FinSet(tuple(engine.terms[i] for i in engine.rep.values()))
                algebra = FinAlgebra(sig, carrier, tables)
                unit = FinMap(x, carrier,
                              {a: state.terms[state.least[i]] for i, a in enumerate(x)})
                return Stabilized(algebra, unit, depth, state)
        prev_roots = set(engine.rep)

    return Unstabilized(_state(engine, sig, x, ids, depth_bound, counts), depth_bound)


def _state_of(res: FreeAlgebraResult) -> CongruenceState:
    if isinstance(res, (Stabilized, Unstabilized)):
        return res.state
    raise ValidationError(f"not a saturation result: {res!r}")


def word_equal(res, t1: Term, t2: Term) -> bool:
    """Whether two terms denote the same element of the (partial) quotient.

    A stabilized state's operation tables are total on its classes, so
    normalizing through them resolves every term there."""
    state = _state_of(res)

    def normalize(t: Term) -> Term:
        match t:
            case Var(name):
                if name not in state.x:
                    raise ValidationError(f"variable {t!r} outside the generators")
                return state.terms[state.least[state.x.elements.index(name)]]
            case Node(op, args):
                reps = tuple(normalize(a) for a in args)
                found = state.op_tables[op].get(reps)
                if found is None:
                    raise ValidationError(
                        f"term not resolvable at depth {state.depth}: {t!r}"
                    )
                return found
        raise ValidationError(f"not a term: {t!r}")

    return normalize(t1) == normalize(t2)


def audit_derivations(res) -> bool:
    """Check the certificate a saturation result carries, with a plain
    union-find and none of the engine's code.

    It checks that the generators are the first ids and that each other
    id's term is its operation applied to its children's terms, each child
    registered before it; that each logged union is justified when it is
    replayed: an identity reason rebuilds exactly its two ids from the
    recorded component and images, and a congruence reason joins two nodes
    of one operation whose children are already joined; that the replayed
    classes are the claimed ones, each named by a member; that the classes
    are closed under congruence and every registered node agrees with the
    operation tables, which hold nothing else.  For a stabilized result it
    also checks that the carrier is the set of class representatives, the
    unit sends each generator to its class, the algebra satisfies every
    identity, and every carrier term folds to itself under the unit, so
    the unit generates the algebra.
    """
    state = _state_of(res)
    try:
        return _certified(res, state)
    except (IndexError, KeyError, TypeError, ValueError):
        return False


def _certified(res, state: CongruenceState) -> bool:
    terms, kids, least = state.terms, state.node_args, state.least
    n, gens, arity = len(terms), state.x.elements, dict(state.sig)
    if not len(kids) == len(least) == n >= len(gens):
        return False
    if any(terms[i] != Var(a) or kids[i] is not None for i, a in enumerate(gens)):
        return False
    index: dict[tuple, int] = {}
    for i in range(len(gens), n):
        t, args = terms[i], kids[i]
        if (
            type(t) is not Node or arity.get(t.op) != len(args)
            or args and not 0 <= min(args) <= max(args) < i
            or t.args != tuple([terms[c] for c in args])
            or index.setdefault((t.op, args), i) != i
        ):
            return False

    sides = []
    for ident in state.identities:
        if ident.sig != state.sig:
            return False
        for k, left, right in zip(ident.domain, ident.lhs.data, ident.rhs.data):
            occurring = variables(left) | variables(right)
            sides.append((left, right, [v for v in canonical_vars(k) if v in occurring]))

    def rebuild(t: Term, g: dict) -> int:
        if type(t) is Var:
            return g[t.name]
        return index[(t.op, tuple([rebuild(a, g) for a in t.args]))]

    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ids = range(n)
    for a, b, reason in state.union_log:
        if a not in ids or b not in ids:
            return False
        if reason == CONGRUENCE:
            if kids[a] is None or kids[b] is None or terms[a].op != terms[b].op or any(
                find(p) != find(q) for p, q in zip(kids[a], kids[b])
            ):
                return False
        else:
            comp, images = reason
            if comp not in range(len(sides)) or not all(i in ids for i in images):
                return False
            left, right, used = sides[comp]
            if len(images) != len(used):
                return False
            g = dict(zip(used, images))
            if rebuild(left, g) != a or rebuild(right, g) != b:
                return False
        parent[find(b)] = find(a)

    claimed: dict[int, int] = {}
    for i in ids:
        if claimed.setdefault(find(i), least[i]) != least[i]:
            return False
    reps = set(claimed.values())
    if len(reps) != len(claimed) or any(least[c] != c for c in reps):
        return False

    closure: dict[tuple, int] = {}
    for i in range(len(gens), n):
        key = (terms[i].op, tuple([least[c] for c in kids[i]]))
        if closure.setdefault(key, least[i]) != least[i]:
            return False
    stabilized = isinstance(res, Stabilized)
    for tables in (state.op_tables, res.algebra.tables) if stabilized else (state.op_tables,):
        if sum(len(table) for table in tables.values()) != len(closure):
            return False
        for (op, args), c in closure.items():
            if tables[op][tuple([terms[a] for a in args])] != terms[c]:
                return False
    if not stabilized:
        return True
    algebra, unit = res.algebra, res.unit
    return (
        algebra.sig == state.sig
        and set(algebra.carrier) == {terms[c] for c in reps}
        and unit.dom == state.x
        and all(unit.table[a] == terms[least[i]] for i, a in enumerate(gens))
        and satisfies_all(algebra, state.identities)
        and _unit_folds(res) is not None
    )


def _unit_folds(res: Stabilized) -> Optional[list]:
    """Each carrier term with its fold compiled over the generators, when
    every carrier term folds to itself under the unit (the unit generates
    the algebra); None when one does not."""
    algebra, names = res.algebra, res.unit.dom.elements
    folds = [(t, compile_term(t, names)) for t in algebra.carrier]
    unit = tuple(res.unit.table[a] for a in names)
    if all(fold(algebra.tables, unit) == t for t, fold in folds):
        return folds
    return None


def _extensions(res: Stabilized, target: FinAlgebra, f: FinMap, folds) -> int:
    free = res.algebra
    if folds is None:
        count = 0
        for h in enumerate_maps(free.carrier, target.carrier):
            if all(h.table[res.unit.table[a]] == f.table[a] for a in res.unit.dom):
                if is_morphism(free, target, h):
                    count += 1
        return count
    if free.sig != target.sig:
        raise ValidationError("signature mismatch")
    values = tuple(f.table[a] for a in res.unit.dom)
    h = FinMap(free.carrier, target.carrier,
               {t: fold(target.tables, values) for t, fold in folds})
    if any(h.table[res.unit.table[a]] != f.table[a] for a in res.unit.dom):
        return 0
    return int(is_morphism(free, target, h))


def extension_count(res: Stabilized, target: FinAlgebra, f: FinMap) -> int:
    """How many algebra morphisms out of the free algebra extend ``f``.

    When every carrier term folds to itself under the unit, a morphism h
    with h∘unit = f sends each carrier term t to h(fold of t under the
    unit) = fold of t under f, so the count is 1 when that fold is a
    morphism extending f and 0 when it is not.  Otherwise every map out
    of the carrier is tried."""
    return _extensions(res, target, f, _unit_folds(res))


def universal_property_witness(
    res: Stabilized, ids: Sequence[NaturalIdentity], target: FinAlgebra
) -> Optional[tuple[FinMap, int]]:
    """The first assignment of the generators into ``target`` that does not
    extend to exactly one algebra morphism from the free algebra, with its
    number of extensions, or None when every assignment does."""
    if not isinstance(res, Stabilized):
        raise ValidationError("universal property requires a stabilized result")
    if not satisfies_all(target, ids):
        raise ValidationError("target algebra is outside the variety")
    folds = _unit_folds(res)
    for f in enumerate_maps(res.unit.dom, target.carrier):
        count = _extensions(res, target, f, folds)
        if count != 1:
            return f, count
    return None


def check_universal_property(
    res: Stabilized, ids: Sequence[NaturalIdentity], target: FinAlgebra
) -> bool:
    """Whether every assignment of the generators into ``target`` extends to
    exactly one algebra morphism from the free algebra."""
    return universal_property_witness(res, ids, target) is None
